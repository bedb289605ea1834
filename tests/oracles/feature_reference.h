// The map-based feature extraction that FeaturePipeline::extract's
// walk -> automaton -> dense count -> TF-IDF path replaced, kept as its
// oracle (tests) and as the before-side of bench/perf_infer: every
// window is packed with pack_gram into an unordered_map, and TF-IDF
// looks each counted gram up in the vocabulary. Packed keys stop at kMaxGramLabel, so a second, wide-key
// oracle keys each window by its label tuple and covers CFGs whose
// labels go past that limit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "cfg/cfg.h"
#include "features/ngram.h"
#include "features/pipeline.h"
#include "features/vocabulary.h"
#include "math/rng.h"

namespace soteria::oracles {

/// Counts every window of each size in `sizes` over `walk` into
/// `counts`, one pack_gram per window. Throws std::invalid_argument
/// for a size outside [1, kMaxGramLength] or a label above
/// kMaxGramLabel, like features::count_grams.
void count_grams_reference(std::span<const cfg::Label> walk,
                           std::span<const std::size_t> sizes,
                           features::GramCounts& counts);

/// TF-IDF of a gram map against `vocab` (vocab.size() floats).
/// Out-of-vocabulary grams count toward the total only. The same float
/// operations as Vocabulary::tfidf_into on the equivalent dense row.
[[nodiscard]] std::vector<float> tfidf_reference(
    const features::Vocabulary& vocab, const features::GramCounts& counts,
    bool l2_normalize = true);

/// FeaturePipeline::extract the unfused way: labeled_walks for DBL then
/// LBL (the same `rng` draws), each walk counted with
/// count_grams_reference, the walks' maps summed for the pooled rows,
/// and every map weighted with tfidf_reference. Labels come from the
/// pipeline's labeling cache when it has one.
[[nodiscard]] features::SampleFeatures extract_reference(
    const features::FeaturePipeline& pipeline, const cfg::Cfg& cfg,
    math::Rng& rng);

/// A gram as its label tuple: any label value, no packing.
using WideGram = std::vector<cfg::Label>;
using WideGramCounts = std::map<WideGram, std::uint32_t>;

/// Counts every window of each size in `sizes` over `walk` into
/// `counts`, keyed by label tuple. Throws std::invalid_argument for a
/// size of 0.
void count_grams_wide(std::span<const cfg::Label> walk,
                      std::span<const std::size_t> sizes,
                      WideGramCounts& counts);

/// tfidf_reference over label tuples: the vocabulary's grams are
/// unpacked into tuples and each counted tuple is looked up among
/// them. The same float operations as tfidf_reference.
[[nodiscard]] std::vector<float> tfidf_wide(const features::Vocabulary& vocab,
                                            const WideGramCounts& counts,
                                            bool l2_normalize = true);

/// extract_reference with count_grams_wide + tfidf_wide: the same walks
/// and `rng` draws, and no limit on label values.
[[nodiscard]] features::SampleFeatures extract_reference_wide(
    const features::FeaturePipeline& pipeline, const cfg::Cfg& cfg,
    math::Rng& rng);

}  // namespace soteria::oracles
