// End-to-end feature extraction (paper Fig. 3):
//   CFG -> {DBL, LBL} labelings -> 10 random walks each ->
//   {2,3,4}-grams -> TF-IDF against a top-500 vocabulary per labeling.
//
// `fit()` learns the two vocabularies from a training corpus;
// `extract()` then turns any CFG into:
//   * 10 per-walk 1x500 DBL vectors and 10 per-walk 1x500 LBL vectors
//     (the classifier's voting inputs), and
//   * 10 combined 1x1000 vectors (walk i's DBL ++ LBL), the detector's
//     autoencoder inputs.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cfg/cfg.h"
#include "cfg/labeling.h"
#include "features/random_walk.h"
#include "features/vocabulary.h"
#include "math/rng.h"
#include "store/fingerprint.h"

namespace soteria::cfg {
class LabelingCache;
}  // namespace soteria::cfg

namespace soteria::store {
class FeatureStore;
}  // namespace soteria::store

namespace soteria::features {

/// Pipeline hyper-parameters (paper defaults).
struct PipelineConfig {
  WalkConfig walk;
  std::size_t top_k = 500;                    ///< grams kept per labeling
  std::vector<std::size_t> gram_sizes = {2, 3, 4};
  /// L2-normalize TF-IDF vectors. Disabling keeps each sample's
  /// in-vocabulary mass fraction, which GEA merges shift measurably.
  bool l2_normalize = true;
  /// Labeling knobs, notably the approximate-centrality threshold for
  /// firmware-scale CFGs (exact everywhere by default). Persisted by
  /// save() and hashed into the pipeline fingerprint, so pipelines
  /// that label differently never share feature-store entries.
  cfg::LabelingOptions labeling;
  /// Name of the binary front end (frontend::Frontend::name()) whose
  /// CFGs this pipeline was fitted on ("toy", "x86_64", ...). Persisted
  /// by save() and hashed into the pipeline fingerprint, so
  /// feature-store and labeling-cache entries produced under one
  /// decoder can never alias another's even when two decoders happen to
  /// emit isomorphic CFGs.
  std::string frontend = "toy";
};

/// Throws std::invalid_argument for invalid walk config, zero top_k, or
/// unsupported gram sizes.
void validate(const PipelineConfig& config);

/// Feature bundle for one sample.
struct SampleFeatures {
  /// Per-walk TF-IDF vectors; size == walks_per_labeling, each of
  /// dimension vocabulary size (<= top_k). The classifier CNNs vote
  /// over these.
  std::vector<std::vector<float>> dbl;
  std::vector<std::vector<float>> lbl;

  /// TF-IDF over the gram counts of *all* walks pooled, one vector per
  /// labeling — the stable per-sample representation the detector's
  /// autoencoder consumes (per-walk vectors are too noisy to define a
  /// reconstruction manifold).
  std::vector<float> pooled_dbl;
  std::vector<float> pooled_lbl;

  /// walk i's DBL vector concatenated with walk i's LBL vector.
  [[nodiscard]] std::vector<float> combined(std::size_t walk) const;

  /// pooled_dbl ++ pooled_lbl: the 1x1000 detector input (paper Fig. 5).
  [[nodiscard]] std::vector<float> pooled_combined() const;

  /// Mean of all per-walk combined vectors (used for PCA plots).
  [[nodiscard]] std::vector<float> mean_combined() const;

  /// Mean per-labeling vectors.
  [[nodiscard]] std::vector<float> mean_dbl() const;
  [[nodiscard]] std::vector<float> mean_lbl() const;
};

/// Fitted feature extractor.
class FeaturePipeline {
 public:
  /// Learns DBL and LBL vocabularies from `training` CFGs. Fitting
  /// walks draw from per-sample children of `rng` (rng itself is not
  /// advanced), and with `num_threads` > 1 the per-sample gram maps are
  /// counted concurrently and merged at the end — results are
  /// bit-identical at any thread count (0 = all hardware threads).
  /// A non-null `labeling_cache` is installed on the returned pipeline
  /// and already warmed by fitting, so the training extraction that
  /// typically follows reuses the fit labelings. Throws on empty
  /// corpus or bad config, and core::Error{kOutOfRange} for a training
  /// CFG with a label above kMaxGramLabel (fit counts packed keys; in
  /// practice a CFG above 16,384 blocks), before any walk is drawn.
  static FeaturePipeline fit(
      std::span<const cfg::Cfg> training, const PipelineConfig& config,
      math::Rng& rng, std::size_t num_threads = 1,
      std::shared_ptr<cfg::LabelingCache> labeling_cache = nullptr);

  /// Extracts the full feature bundle for one CFG of any size. Each
  /// call draws fresh walks from `rng` — this is Soteria's
  /// randomization property: two extractions of the same sample yield
  /// different (but similarly distributed) vectors. Walks run over a
  /// CSR view straight through each vocabulary's GramAutomaton; the
  /// bundle is bit-identical to looking every window up in the
  /// vocabulary one by one.
  [[nodiscard]] SampleFeatures extract(const cfg::Cfg& cfg,
                                       math::Rng& rng) const;

  /// extract() through the persistent feature store. `fresh_rng` must be
  /// a *fresh* (never-advanced) generator — typically a per-sample
  /// `rng.child(i)` — because its construction seed is part of the store
  /// key: a hit returns exactly the vectors a cold extraction with that
  /// seed would produce, so results are bit-identical with the store on
  /// or off. Consults `store` when non-null, else the installed
  /// `feature_store()`; with neither, this is a plain cold extract.
  [[nodiscard]] SampleFeatures extract_stored(
      const cfg::Cfg& cfg, const math::Rng& fresh_rng,
      store::FeatureStore* store = nullptr) const;

  [[nodiscard]] const Vocabulary& dbl_vocabulary() const noexcept {
    return dbl_vocab_;
  }
  [[nodiscard]] const Vocabulary& lbl_vocabulary() const noexcept {
    return lbl_vocab_;
  }
  [[nodiscard]] const PipelineConfig& config() const noexcept {
    return config_;
  }

  /// Combined feature dimension (DBL size + LBL size; 1000 with paper
  /// defaults and a large enough corpus).
  [[nodiscard]] std::size_t combined_dimension() const noexcept {
    return dbl_vocab_.size() + lbl_vocab_.size();
  }

  /// Raw gram counts for one labeling of one CFG (all walks pooled);
  /// exposed for vocabulary building and the Table V analysis.
  [[nodiscard]] GramCounts gram_counts(const cfg::Cfg& cfg,
                                       cfg::LabelingMethod method,
                                       math::Rng& rng) const;

  /// Installs (nullptr: removes) a shared cache of DBL/LBL labelings
  /// consulted by extract/fit/gram_counts. Purely a performance knob:
  /// labeling is deterministic, so results are bit-identical with the
  /// cache on or off. Not persisted by save() — like thread counts, it
  /// describes the runtime, not the model.
  void set_labeling_cache(
      std::shared_ptr<cfg::LabelingCache> cache) noexcept {
    labeling_cache_ = std::move(cache);
  }
  [[nodiscard]] const std::shared_ptr<cfg::LabelingCache>& labeling_cache()
      const noexcept {
    return labeling_cache_;
  }

  /// Installs (nullptr: removes) the persistent feature store consulted
  /// by extract_stored(). Like the labeling cache, this is a runtime
  /// attachment, not model state: it is not persisted by save(), and
  /// results are bit-identical with the store on or off.
  void set_feature_store(std::shared_ptr<store::FeatureStore> store) noexcept {
    feature_store_ = std::move(store);
  }
  [[nodiscard]] const std::shared_ptr<store::FeatureStore>& feature_store()
      const noexcept {
    return feature_store_;
  }

  /// Content fingerprint of this fitted pipeline (config + both
  /// vocabularies); part of every feature-store key, so entries written
  /// by a differently-trained pipeline can never be served. Zero for a
  /// default-constructed (unfitted) pipeline.
  [[nodiscard]] const store::PipelineFingerprint& fingerprint()
      const noexcept {
    return fingerprint_;
  }

  /// Default-constructed unfitted pipeline (empty vocabularies); a
  /// placeholder until assigned from fit().
  FeaturePipeline() = default;

  /// Binary (de)serialization of the config and both vocabularies.
  /// `load` throws core::Error{kCorruptModel} on a corrupt stream.
  void save(std::ostream& out) const;
  [[nodiscard]] static FeaturePipeline load(std::istream& in);

 private:
  /// Both labelings of `cfg`, through the cache when one is installed.
  [[nodiscard]] cfg::NodeLabelings labelings_for(const cfg::Cfg& cfg) const;

  /// Walks over `labels` pooled into gram counts (the per-labeling
  /// tail of gram_counts, with the labeling already derived).
  [[nodiscard]] GramCounts gram_counts_for_labels(
      const cfg::Cfg& cfg, const std::vector<cfg::Label>& labels,
      math::Rng& rng) const;

  PipelineConfig config_;
  Vocabulary dbl_vocab_;
  Vocabulary lbl_vocab_;
  std::shared_ptr<cfg::LabelingCache> labeling_cache_;
  std::shared_ptr<store::FeatureStore> feature_store_;
  /// Set at the end of fit()/load(); zero while unfitted.
  store::PipelineFingerprint fingerprint_;
};

}  // namespace soteria::features
