#include "oracles/feature_reference.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "cfg/labeling.h"
#include "cfg/labeling_cache.h"
#include "features/random_walk.h"

namespace soteria::oracles {

using features::GramCounts;

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

std::vector<float> tfidf_reference(const features::Vocabulary& vocab,
                                   const GramCounts& counts,
                                   bool l2_normalize) {
  std::vector<float> out(vocab.size(), 0.0F);
  const std::uint64_t total = features::total_occurrences(counts);
  if (total == 0) return out;
  // Each selected slot is written at most once (map keys are
  // distinct), so iteration order cannot change the result.
  const float inv_total = 1.0F / static_cast<float>(total);
  for (const auto& [key, count] : counts) {
    const auto idx = vocab.index_of(key);
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

features::SampleFeatures extract_reference(
    const features::FeaturePipeline& pipeline, const cfg::Cfg& cfg,
    math::Rng& rng) {
  const features::PipelineConfig& config = pipeline.config();
  const cfg::NodeLabelings labelings =
      pipeline.labeling_cache()
          ? pipeline.labeling_cache()->labels(cfg, config.labeling)
          : cfg::label_both(cfg, config.labeling);
  const auto dbl_walks =
      features::labeled_walks(cfg, labelings.dbl, config.walk, rng);
  const auto lbl_walks =
      features::labeled_walks(cfg, labelings.lbl, config.walk, rng);

  const auto vectorize = [&config](
                             const features::Vocabulary& vocab,
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
  };
  features::SampleFeatures features;
  vectorize(pipeline.dbl_vocabulary(), dbl_walks, features.dbl,
            features.pooled_dbl);
  vectorize(pipeline.lbl_vocabulary(), lbl_walks, features.lbl,
            features.pooled_lbl);
  return features;
}

}  // namespace soteria::oracles
