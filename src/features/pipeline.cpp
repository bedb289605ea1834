#include "features/pipeline.h"

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "cfg/labeling_cache.h"
#include "io/binary_io.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "store/feature_store.h"

namespace soteria::features {

void validate(const PipelineConfig& config) {
  validate(config.walk);
  if (config.top_k == 0) {
    throw std::invalid_argument("PipelineConfig: top_k must be > 0");
  }
  if (config.gram_sizes.empty()) {
    throw std::invalid_argument("PipelineConfig: no gram sizes");
  }
  for (std::size_t n : config.gram_sizes) {
    if (n == 0 || n > kMaxGramLength) {
      throw std::invalid_argument("PipelineConfig: gram size " +
                                  std::to_string(n) + " outside [1, " +
                                  std::to_string(kMaxGramLength) + "]");
    }
  }
  cfg::validate(config.labeling);
  if (config.frontend.empty()) {
    throw std::invalid_argument("PipelineConfig: frontend name is empty");
  }
}

std::vector<float> SampleFeatures::combined(std::size_t walk) const {
  if (walk >= dbl.size() || walk >= lbl.size()) {
    throw std::out_of_range("SampleFeatures::combined: walk index " +
                            std::to_string(walk));
  }
  std::vector<float> vec = dbl[walk];
  vec.insert(vec.end(), lbl[walk].begin(), lbl[walk].end());
  return vec;
}

namespace {

std::vector<float> mean_of(const std::vector<std::vector<float>>& vecs) {
  if (vecs.empty()) return {};
  std::vector<float> mean(vecs.front().size(), 0.0F);
  for (const auto& v : vecs) {
    for (std::size_t i = 0; i < mean.size(); ++i) mean[i] += v[i];
  }
  const auto inv = 1.0F / static_cast<float>(vecs.size());
  for (float& x : mean) x *= inv;
  return mean;
}

}  // namespace

std::vector<float> SampleFeatures::mean_dbl() const { return mean_of(dbl); }
std::vector<float> SampleFeatures::mean_lbl() const { return mean_of(lbl); }

std::vector<float> SampleFeatures::mean_combined() const {
  std::vector<float> mean = mean_dbl();
  const auto lbl_mean = mean_lbl();
  mean.insert(mean.end(), lbl_mean.begin(), lbl_mean.end());
  return mean;
}

std::vector<float> SampleFeatures::pooled_combined() const {
  std::vector<float> vec = pooled_dbl;
  vec.insert(vec.end(), pooled_lbl.begin(), pooled_lbl.end());
  return vec;
}

cfg::NodeLabelings FeaturePipeline::labelings_for(
    const cfg::Cfg& cfg) const {
  if (labeling_cache_) return labeling_cache_->labels(cfg, config_.labeling);
  return cfg::label_both(cfg, config_.labeling);
}

GramCounts FeaturePipeline::gram_counts_for_labels(
    const cfg::Cfg& cfg, const std::vector<cfg::Label>& labels,
    math::Rng& rng) const {
  const auto walks = labeled_walks(cfg, labels, config_.walk, rng);
  // fit() has no vocabulary yet, so counting goes through the
  // open-addressing counter rather than the dense count_into_vocab.
  FlatGramCounter counter(1024);
  for (const auto& walk : walks) {
    counter.count_walk(walk, config_.gram_sizes);
  }
  return counter.to_counts();
}

GramCounts FeaturePipeline::gram_counts(const cfg::Cfg& cfg,
                                        cfg::LabelingMethod method,
                                        math::Rng& rng) const {
  const auto labelings = labelings_for(cfg);
  return gram_counts_for_labels(cfg,
                                method == cfg::LabelingMethod::kDensity
                                    ? labelings.dbl
                                    : labelings.lbl,
                                rng);
}

FeaturePipeline FeaturePipeline::fit(
    std::span<const cfg::Cfg> training, const PipelineConfig& config,
    math::Rng& rng, std::size_t num_threads,
    std::shared_ptr<cfg::LabelingCache> labeling_cache) {
  validate(config);
  if (training.empty()) {
    throw std::invalid_argument("FeaturePipeline::fit: empty corpus");
  }
  const obs::Span span("pipeline.fit");
  FeaturePipeline pipeline;
  pipeline.config_ = config;
  pipeline.labeling_cache_ = std::move(labeling_cache);

  // Each sample's walks draw from children of `rng` keyed by sample
  // index (DBL on even streams, LBL on odd), so the per-sample local
  // gram maps are identical no matter which thread computes them; the
  // vocabulary builder then merges the local maps into corpus totals.
  // Both labelings derive from one shared node_ranks computation (and
  // populate the labeling cache for the extraction that follows).
  struct LabelingCounts {
    GramCounts dbl;
    GramCounts lbl;
  };
  auto counts = runtime::parallel_map(
      num_threads, training.size(), [&](std::size_t i) {
        math::Rng dbl_rng = rng.child(2 * i);
        math::Rng lbl_rng = rng.child(2 * i + 1);
        const auto labelings = pipeline.labelings_for(training[i]);
        LabelingCounts sample;
        sample.dbl = pipeline.gram_counts_for_labels(
            training[i], labelings.dbl, dbl_rng);
        sample.lbl = pipeline.gram_counts_for_labels(
            training[i], labelings.lbl, lbl_rng);
        return sample;
      });

  std::vector<GramCounts> dbl_corpus;
  std::vector<GramCounts> lbl_corpus;
  dbl_corpus.reserve(training.size());
  lbl_corpus.reserve(training.size());
  for (auto& sample : counts) {
    dbl_corpus.push_back(std::move(sample.dbl));
    lbl_corpus.push_back(std::move(sample.lbl));
  }
  {
    const obs::Span vocab_span("vocab.build");
    pipeline.dbl_vocab_ = Vocabulary::build(dbl_corpus, config.top_k);
    pipeline.lbl_vocab_ = Vocabulary::build(lbl_corpus, config.top_k);
  }
  pipeline.fingerprint_ = store::fingerprint_of(pipeline);
  return pipeline;
}

namespace {

/// Grow-only per-thread scratch for extract(): one walk's labels and
/// one labeling's dense gram counts.
struct ExtractScratch {
  std::vector<cfg::Label> walk;
  std::vector<std::uint32_t> counts;  ///< walks x vocabulary size
  std::vector<std::uint64_t> totals;  ///< per-walk window totals
  std::vector<std::uint32_t> pooled;  ///< all walks' counts summed
};

}  // namespace

SampleFeatures FeaturePipeline::extract(const cfg::Cfg& cfg,
                                        math::Rng& rng) const {
  const obs::Span span("pipeline.extract");
  const auto labelings = labelings_for(cfg);
  // One adjacency view serves both labelings and all walks.
  const UndirectedView view(cfg);
  const std::size_t steps = walk_steps(config_.walk, cfg.node_count());
  const std::size_t walks = config_.walk.walks_per_labeling;
  thread_local ExtractScratch scratch;

  // Walks + counting + TF-IDF for one labeling. Each walk is counted
  // straight into its dense row as it is drawn; counting draws no
  // randomness, so `rng` advances exactly as if all walks were drawn
  // first.
  const auto run_labeling = [&](const std::vector<cfg::Label>& labels,
                                const Vocabulary& vocab,
                                std::vector<std::vector<float>>& rows,
                                std::vector<float>& pooled_row) {
    const std::size_t dim = vocab.size();
    obs::registry().counter_add("soteria.features.walks", walks);
    obs::registry().counter_add("soteria.features.walk_steps", walks * steps);
    scratch.counts.assign(walks * dim, 0);
    scratch.totals.assign(walks, 0);
    scratch.pooled.assign(dim, 0);
    std::uint64_t pooled_total = 0;
    {
      // Walks are fused into counting, so this span covers both.
      const obs::Span ngram_span("features.ngrams");
      for (std::size_t w = 0; w < walks; ++w) {
        random_walk_labels(view, labels, steps, rng, scratch.walk);
        const std::span<std::uint32_t> row(scratch.counts.data() + w * dim,
                                           dim);
        scratch.totals[w] = count_into_vocab(scratch.walk, config_.gram_sizes,
                                             vocab.table(), row);
        pooled_total += scratch.totals[w];
        for (std::size_t i = 0; i < dim; ++i) scratch.pooled[i] += row[i];
      }
    }
    const obs::Span tfidf_span("features.tfidf");
    rows.assign(walks, std::vector<float>(dim));
    for (std::size_t w = 0; w < walks; ++w) {
      vocab.tfidf_into(
          std::span<const std::uint32_t>(scratch.counts.data() + w * dim, dim),
          scratch.totals[w], rows[w], config_.l2_normalize);
    }
    pooled_row.resize(dim);
    vocab.tfidf_into(scratch.pooled, pooled_total, pooled_row,
                     config_.l2_normalize);
  };

  // DBL walks first, then LBL: the order the walk stream is drawn in.
  SampleFeatures features;
  run_labeling(labelings.dbl, dbl_vocab_, features.dbl, features.pooled_dbl);
  run_labeling(labelings.lbl, lbl_vocab_, features.lbl, features.pooled_lbl);
  return features;
}

void FeaturePipeline::save(std::ostream& out) const {
  io::write_scalar(out, config_.walk.length_multiplier);
  io::write_scalar<std::uint64_t>(out, config_.walk.walks_per_labeling);
  io::write_scalar<std::uint64_t>(out, config_.top_k);
  io::write_vector<std::size_t>(out, config_.gram_sizes);
  io::write_scalar<std::uint8_t>(out, config_.l2_normalize ? 1 : 0);
  // Labeling options are model state: they change the labels every
  // feature is built from, and serializing them here also folds them
  // into the pipeline fingerprint (store/fingerprint.h hashes this
  // blob), keying the feature store by centrality mode.
  io::write_scalar<std::uint64_t>(out,
                                  config_.labeling.approx_centrality_threshold);
  io::write_scalar<std::uint64_t>(out, config_.labeling.approx.pivot_count);
  io::write_scalar(out, config_.labeling.approx.epsilon);
  io::write_scalar(out, config_.labeling.approx.delta);
  io::write_scalar<std::uint64_t>(out, config_.labeling.approx.seed);
  // The frontend name is model state for the same reason: CFGs from
  // different decoders are different feature universes, and hashing the
  // name here keys the feature store by decoder.
  io::write_string(out, config_.frontend);
  dbl_vocab_.save(out);
  lbl_vocab_.save(out);
}

FeaturePipeline FeaturePipeline::load(std::istream& in) {
  FeaturePipeline pipeline;
  pipeline.config_.walk.length_multiplier = io::read_scalar<double>(in);
  pipeline.config_.walk.walks_per_labeling =
      static_cast<std::size_t>(io::read_scalar<std::uint64_t>(in));
  pipeline.config_.top_k =
      static_cast<std::size_t>(io::read_scalar<std::uint64_t>(in));
  pipeline.config_.gram_sizes = io::read_vector<std::size_t>(in);
  pipeline.config_.l2_normalize = io::read_scalar<std::uint8_t>(in) != 0;
  pipeline.config_.labeling.approx_centrality_threshold =
      static_cast<std::size_t>(io::read_scalar<std::uint64_t>(in));
  pipeline.config_.labeling.approx.pivot_count =
      static_cast<std::size_t>(io::read_scalar<std::uint64_t>(in));
  pipeline.config_.labeling.approx.epsilon = io::read_scalar<double>(in);
  pipeline.config_.labeling.approx.delta = io::read_scalar<double>(in);
  pipeline.config_.labeling.approx.seed = io::read_scalar<std::uint64_t>(in);
  pipeline.config_.frontend = io::read_string(in);
  validate(pipeline.config_);
  pipeline.dbl_vocab_ = Vocabulary::load(in);
  pipeline.lbl_vocab_ = Vocabulary::load(in);
  pipeline.fingerprint_ = store::fingerprint_of(pipeline);
  return pipeline;
}

SampleFeatures FeaturePipeline::extract_stored(
    const cfg::Cfg& cfg, const math::Rng& fresh_rng,
    store::FeatureStore* store) const {
  store::FeatureStore* target =
      store != nullptr ? store : feature_store_.get();
  if (target == nullptr) {
    math::Rng rng = fresh_rng;
    return extract(cfg, rng);
  }
  // The key ties the entry to the exact extraction it replaces: the
  // CFG's content, this pipeline's fitted state, and the walk stream
  // (fresh_rng's construction seed — which fully determines the stream
  // only because the generator has never been advanced).
  const store::FeatureKey key{cfg::LabelingCache::content_hash(cfg),
                              fingerprint_.value, fresh_rng.seed()};
  if (auto cached = target->get(key)) return *std::move(cached);
  math::Rng rng = fresh_rng;
  SampleFeatures features = extract(cfg, rng);
  target->put(key, features);
  return features;
}

}  // namespace soteria::features
