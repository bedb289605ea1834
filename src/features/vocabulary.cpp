#include "features/vocabulary.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "io/binary_io.h"
#include "soteria/error.h"

namespace soteria::features {

void Vocabulary::finalize_tables() {
  idf_f_.resize(idf_.size());
  for (std::size_t i = 0; i < idf_.size(); ++i) {
    idf_f_[i] = static_cast<float>(idf_[i]);
  }
  automaton_ = GramAutomaton::build(grams_);
}

Vocabulary Vocabulary::build(const std::vector<GramCounts>& corpus,
                             std::size_t top_k) {
  if (corpus.empty()) {
    throw std::invalid_argument("Vocabulary::build: empty corpus");
  }
  if (top_k == 0) {
    throw std::invalid_argument("Vocabulary::build: top_k must be > 0");
  }

  std::unordered_map<GramKey, std::uint64_t> totals;
  std::unordered_map<GramKey, std::uint64_t> document_frequency;
  for (const auto& sample : corpus) {
    for (const auto& [key, count] : sample) {
      totals[key] += count;
      document_frequency[key] += 1;
    }
  }

  std::vector<std::pair<GramKey, std::uint64_t>> ranked(totals.begin(),
                                                        totals.end());
  const std::size_t keep = std::min(top_k, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + keep, ranked.end(),
                    [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;
                    });
  ranked.resize(keep);

  Vocabulary vocab;
  vocab.grams_.reserve(keep);
  vocab.frequencies_.reserve(keep);
  vocab.idf_.reserve(keep);
  const double n_docs = static_cast<double>(corpus.size());
  for (std::size_t i = 0; i < keep; ++i) {
    const auto [key, total] = ranked[i];
    vocab.grams_.push_back(key);
    vocab.frequencies_.push_back(total);
    const double df = static_cast<double>(document_frequency[key]);
    vocab.idf_.push_back(std::log((1.0 + n_docs) / (1.0 + df)) + 1.0);
  }
  vocab.finalize_tables();
  return vocab;
}

std::optional<std::size_t> Vocabulary::index_of(GramKey key) const {
  const std::size_t idx = automaton_.find(key);
  if (idx == GramAutomaton::npos) return std::nullopt;
  return idx;
}

void Vocabulary::tfidf_into(std::span<const std::uint32_t> counts_by_index,
                            std::uint64_t total_occurrences,
                            std::span<float> out, bool l2_normalize) const {
  std::fill(out.begin(), out.end(), 0.0F);
  if (total_occurrences == 0) return;
  const float inv_total = 1.0F / static_cast<float>(total_occurrences);
  for (std::size_t i = 0; i < counts_by_index.size(); ++i) {
    const std::uint32_t count = counts_by_index[i];
    if (count == 0) continue;
    out[i] = (static_cast<float>(count) * inv_total) * idf_f_[i];
  }
  if (!l2_normalize) return;
  float norm_sq = 0.0F;
  for (float x : out) norm_sq += x * x;
  if (norm_sq > 0.0F) {
    const float inv = 1.0F / std::sqrt(norm_sq);
    for (float& x : out) x *= inv;
  }
}

void Vocabulary::save(std::ostream& out) const {
  io::write_vector(out, grams_);
  io::write_vector(out, frequencies_);
  io::write_vector(out, idf_);
}

Vocabulary Vocabulary::load(std::istream& in) {
  Vocabulary vocab;
  vocab.grams_ = io::read_vector<GramKey>(in);
  vocab.frequencies_ = io::read_vector<std::uint64_t>(in);
  vocab.idf_ = io::read_vector<double>(in);
  if (vocab.frequencies_.size() != vocab.grams_.size() ||
      vocab.idf_.size() != vocab.grams_.size()) {
    throw core::Error(core::ErrorCode::kCorruptModel,
                      "Vocabulary::load: inconsistent table sizes");
  }
  try {
    vocab.finalize_tables();
  } catch (const std::invalid_argument& error) {
    // Duplicate or invalid gram keys can only come from a corrupt
    // stream.
    throw core::Error(core::ErrorCode::kCorruptModel,
                      std::string("Vocabulary::load: ") + error.what());
  }
  return vocab;
}

}  // namespace soteria::features
