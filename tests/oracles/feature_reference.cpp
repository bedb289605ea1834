#include "oracles/feature_reference.h"

#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "cfg/labeling.h"
#include "cfg/labeling_cache.h"
#include "features/random_walk.h"

namespace soteria::oracles {

using features::GramCounts;
using features::GramKey;

void count_grams_reference(std::span<const cfg::Label> walk,
                           std::span<const std::size_t> sizes,
                           GramCounts& counts) {
  for (std::size_t n : sizes) {
    if (n == 0 || n > features::kMaxGramLength) {
      throw std::invalid_argument("count_grams: gram size " +
                                  std::to_string(n) + " outside [1, " +
                                  std::to_string(features::kMaxGramLength) +
                                  "]");
    }
    if (walk.size() < n) continue;
    for (std::size_t i = 0; i + n <= walk.size(); ++i) {
      counts[features::pack_gram(walk.subspan(i, n))] += 1;
    }
  }
}

namespace {

/// TF-IDF of a gram -> count map against `vocab`: `index_of(gram)`
/// gives a gram's feature index (or nullopt), and every gram counts
/// toward the total. Each selected slot is written at most once (map
/// keys are distinct), so iteration order cannot change the result.
template <typename Counts, typename IndexOf>
std::vector<float> weigh(const features::Vocabulary& vocab,
                         const Counts& counts, IndexOf&& index_of,
                         bool l2_normalize) {
  std::vector<float> out(vocab.size(), 0.0F);
  std::uint64_t total = 0;
  for (const auto& entry : counts) total += entry.second;
  if (total == 0) return out;
  const float inv_total = 1.0F / static_cast<float>(total);
  for (const auto& [gram, count] : counts) {
    const auto idx = index_of(gram);
    if (!idx) continue;
    out[*idx] = (static_cast<float>(count) * inv_total) *
                static_cast<float>(vocab.idf()[*idx]);
  }
  if (!l2_normalize) return out;
  float norm_sq = 0.0F;
  for (float x : out) norm_sq += x * x;
  if (norm_sq > 0.0F) {
    const float inv = 1.0F / std::sqrt(norm_sq);
    for (float& x : out) x *= inv;
  }
  return out;
}

/// The unfused extraction shared by both oracles: labeled_walks for
/// DBL then LBL (the same `rng` draws), then `vectorize(vocab, walks,
/// rows, pooled_row)` per labeling.
template <typename Vectorize>
features::SampleFeatures extract_with(
    const features::FeaturePipeline& pipeline, const cfg::Cfg& cfg,
    math::Rng& rng, Vectorize&& vectorize) {
  const features::PipelineConfig& config = pipeline.config();
  const cfg::NodeLabelings labelings =
      pipeline.labeling_cache()
          ? pipeline.labeling_cache()->labels(cfg)
          : cfg::label_both(cfg);
  const auto dbl_walks =
      features::labeled_walks(cfg, labelings.dbl, config.walk, rng);
  const auto lbl_walks =
      features::labeled_walks(cfg, labelings.lbl, config.walk, rng);
  features::SampleFeatures features;
  vectorize(pipeline.dbl_vocabulary(), dbl_walks, features.dbl,
            features.pooled_dbl);
  vectorize(pipeline.lbl_vocabulary(), lbl_walks, features.lbl,
            features.pooled_lbl);
  return features;
}

}  // namespace

std::vector<float> tfidf_reference(const features::Vocabulary& vocab,
                                   const GramCounts& counts,
                                   bool l2_normalize) {
  return weigh(
      vocab, counts, [&vocab](GramKey key) { return vocab.index_of(key); },
      l2_normalize);
}

features::SampleFeatures extract_reference(
    const features::FeaturePipeline& pipeline, const cfg::Cfg& cfg,
    math::Rng& rng) {
  const features::PipelineConfig& config = pipeline.config();
  return extract_with(
      pipeline, cfg, rng,
      [&config](const features::Vocabulary& vocab,
                const std::vector<std::vector<cfg::Label>>& walks,
                std::vector<std::vector<float>>& rows,
                std::vector<float>& pooled_row) {
        GramCounts pooled;
        for (const auto& walk : walks) {
          GramCounts counts;
          count_grams_reference(walk, config.gram_sizes, counts);
          for (const auto& [key, count] : counts) pooled[key] += count;
          rows.push_back(tfidf_reference(vocab, counts, config.l2_normalize));
        }
        pooled_row = tfidf_reference(vocab, pooled, config.l2_normalize);
      });
}

void count_grams_wide(std::span<const cfg::Label> walk,
                      std::span<const std::size_t> sizes,
                      WideGramCounts& counts) {
  for (std::size_t n : sizes) {
    if (n == 0) throw std::invalid_argument("count_grams_wide: size 0");
    for (std::size_t i = 0; i + n <= walk.size(); ++i) {
      const auto window = walk.subspan(i, n);
      counts[WideGram(window.begin(), window.end())] += 1;
    }
  }
}

std::vector<float> tfidf_wide(const features::Vocabulary& vocab,
                              const WideGramCounts& counts,
                              bool l2_normalize) {
  std::map<WideGram, std::size_t> index;
  for (std::size_t i = 0; i < vocab.size(); ++i) {
    index.emplace(features::unpack_gram(vocab.grams()[i]), i);
  }
  return weigh(
      vocab, counts,
      [&index](const WideGram& gram) -> std::optional<std::size_t> {
        const auto it = index.find(gram);
        if (it == index.end()) return std::nullopt;
        return it->second;
      },
      l2_normalize);
}

features::SampleFeatures extract_reference_wide(
    const features::FeaturePipeline& pipeline, const cfg::Cfg& cfg,
    math::Rng& rng) {
  const features::PipelineConfig& config = pipeline.config();
  return extract_with(
      pipeline, cfg, rng,
      [&config](const features::Vocabulary& vocab,
                const std::vector<std::vector<cfg::Label>>& walks,
                std::vector<std::vector<float>>& rows,
                std::vector<float>& pooled_row) {
        WideGramCounts pooled;
        for (const auto& walk : walks) {
          WideGramCounts counts;
          count_grams_wide(walk, config.gram_sizes, counts);
          for (const auto& [gram, count] : counts) pooled[gram] += count;
          rows.push_back(tfidf_wide(vocab, counts, config.l2_normalize));
        }
        pooled_row = tfidf_wide(vocab, pooled, config.l2_normalize);
      });
}

}  // namespace soteria::oracles
