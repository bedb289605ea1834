// Corpus vocabulary: the top-k most frequent grams plus their inverse
// document frequencies.
//
// The paper keeps the 500 most frequent grams per labeling method and
// weights counts with TF-IDF, so a sample's feature vector is
// tf(g, sample) * idf(g, corpus) over the selected grams.
//
// The selected grams are compiled into a GramAutomaton at fit and load
// time (never serialized); it is the one lookup structure, serving both
// index_of and extraction, which runs each walk through it into a
// dense per-gram row. `tfidf_into` weights the row in float throughout.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <span>
#include <vector>

#include "features/ngram.h"

namespace soteria::features {

/// Fitted vocabulary for one labeling method.
class Vocabulary {
 public:
  /// Builds the vocabulary from per-sample gram counts. Selects the
  /// `top_k` grams by total corpus frequency (ties broken by key for
  /// determinism) and computes smoothed IDF:
  ///   idf(g) = ln((1 + N) / (1 + df(g))) + 1.
  /// Keeps fewer than top_k grams if the corpus has fewer distinct
  /// grams. Throws std::invalid_argument for an empty corpus or top_k
  /// of 0.
  static Vocabulary build(const std::vector<GramCounts>& corpus,
                          std::size_t top_k);

  /// Number of selected grams (the feature dimension).
  [[nodiscard]] std::size_t size() const noexcept { return grams_.size(); }

  /// Feature index of `key`, or nullopt if not selected.
  [[nodiscard]] std::optional<std::size_t> index_of(GramKey key) const;

  /// Selected grams in feature-index order (most frequent first).
  [[nodiscard]] const std::vector<GramKey>& grams() const noexcept {
    return grams_;
  }

  /// Corpus-wide occurrence count per selected gram (index order).
  [[nodiscard]] const std::vector<std::uint64_t>& frequencies()
      const noexcept {
    return frequencies_;
  }

  /// Smoothed IDF per selected gram (index order).
  [[nodiscard]] const std::vector<double>& idf() const noexcept {
    return idf_;
  }

  /// The automaton over the selected grams (gram i = feature index
  /// i); extraction runs walks through it straight into dense TF rows.
  [[nodiscard]] const GramAutomaton& automaton() const noexcept {
    return automaton_;
  }

  /// Writes the TF-IDF vector into `out` (size() floats), overwriting
  /// it. `counts_by_index` holds per-selected-gram counts (index order,
  /// size() entries) and `total_occurrences` the full window total
  /// including out-of-vocabulary grams (window_count of the trace).
  /// With `l2_normalize` the vector is scaled to unit norm; without
  /// it, term frequencies stay relative to the sample's total gram
  /// count, so the in-vocabulary mass fraction (which structural
  /// attacks shift) remains visible.
  void tfidf_into(std::span<const std::uint32_t> counts_by_index,
                  std::uint64_t total_occurrences, std::span<float> out,
                  bool l2_normalize = true) const;

  /// Default-constructed empty vocabulary (no grams selected); useful as
  /// a placeholder before fitting.
  Vocabulary() = default;

  /// Binary (de)serialization. `load` throws core::Error{kCorruptModel}
  /// on a corrupt or truncated stream, including duplicate or invalid
  /// gram keys.
  void save(std::ostream& out) const;
  [[nodiscard]] static Vocabulary load(std::istream& in);

 private:
  void finalize_tables();

  std::vector<GramKey> grams_;
  std::vector<std::uint64_t> frequencies_;
  std::vector<double> idf_;
  std::vector<float> idf_f_;  // idf_ narrowed once, not per gram per sample
  GramAutomaton automaton_;
};

}  // namespace soteria::features
