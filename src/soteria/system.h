// End-to-end Soteria system (paper Fig. 2): feature extractor + AE
// detector + family classifier behind one `train` / `analyze` API.
#pragma once

#include <chrono>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dataset/sample.h"
#include "features/pipeline.h"
#include "runtime/thread_pool.h"
#include "soteria/classifier.h"
#include "soteria/config.h"
#include "soteria/detector.h"
#include "soteria/error.h"

namespace soteria::store {
class FeatureStore;
}  // namespace soteria::store

namespace soteria::core {

/// The verdict for one analyzed sample.
struct Verdict {
  /// True if the detector flagged the sample; flagged samples are not
  /// classified (the paper drops them before the classifier).
  bool adversarial = false;
  /// The detector's reconstruction-error score.
  double reconstruction_error = 0.0;
  /// Majority-vote family (valid also for flagged samples, for the
  /// Table VIII "what would the classifier have said" analysis).
  dataset::Family predicted = dataset::Family::kBenign;
};

/// Per-call options for analyze_batch. A default-constructed value
/// reproduces the historical two-argument behavior exactly.
struct AnalyzeOptions {
  /// Worker threads for the batch (runtime::resolve_threads semantics:
  /// 0 = all hardware threads, 1 = serial). nullopt defers to
  /// `config().num_threads`. Verdicts are bit-identical at any setting.
  std::optional<std::size_t> num_threads;

  /// Absolute deadline for the whole batch. When it passes before the
  /// batch finishes, analyze_batch throws Error{kDeadlineExceeded} and
  /// partial results are discarded (checked cooperatively before each
  /// sample). nullopt = no deadline.
  std::optional<std::chrono::steady_clock::time_point> deadline;

  /// Persistent feature store consulted for this call; nullptr (the
  /// default) extracts cold. The store is attached per call only, never
  /// to the system. Store hits skip extraction but yield bit-identical
  /// verdicts: entries are keyed by (CFG content, pipeline fingerprint,
  /// per-sample walk seed).
  std::shared_ptr<store::FeatureStore> feature_store;
};

/// Full per-query view of what the fitted system thinks of one feature
/// bundle — the oracle surface white-/gray-box attackers (the guided
/// attackers in attack/guided.h) optimize against. Everything here is
/// derived from the same public detector/classifier calls a Verdict
/// uses; exposing it in one struct just keeps attacker code from
/// re-plumbing the pieces.
struct FeatureScores {
  double detector_score = 0.0;  ///< standardized-residual RMS
  double threshold = 0.0;       ///< detector threshold Th
  bool adversarial = false;     ///< detector_score > threshold
  dataset::Family predicted = dataset::Family::kBenign;
  /// Vote tally per class, Family label order (classifier majority
  /// vote; `predicted` includes the probability-mass tie-break).
  std::vector<std::size_t> votes;
};

class SoteriaSystem {
 public:
  /// Trains the full system on clean training samples: fits the feature
  /// pipeline, trains the detector on combined vectors, and trains the
  /// two classifier CNNs on per-walk vectors. Feature extraction for
  /// training and calibration runs on `config.num_threads` threads;
  /// every sample draws from an RNG child keyed by its index, so the
  /// trained system is bit-identical at any thread count. Throws
  /// Error{kInvalidArgument} on an empty training set or invalid config.
  static SoteriaSystem train(std::span<const dataset::Sample> training,
                             const SoteriaConfig& config);

  /// Extracts features (fresh walks from `rng`) and runs detector +
  /// classifier. Always a cold extraction: `rng` may be mid-stream, so
  /// its state cannot key the feature store.
  [[nodiscard]] Verdict analyze(const cfg::Cfg& cfg, math::Rng& rng) const;

  /// Single-sample analysis with options. `fresh_rng` must be a fresh
  /// (never-advanced) generator — its construction seed keys the
  /// feature store, exactly like one sample of analyze_batch; the
  /// caller's generator is never advanced.
  [[nodiscard]] Verdict analyze(const cfg::Cfg& cfg,
                                const math::Rng& fresh_rng,
                                const AnalyzeOptions& options) const;

  /// Detector score, threshold, and full vote tally for one feature
  /// bundle (see FeatureScores), each CNN run once. Agrees with the
  /// Verdict analyze() gives for the same bundle. Safe for concurrent
  /// callers. Records no analysis or classifier metrics (attackers
  /// probing the system should not inflate its own analysis counters);
  /// only the detector's `detector.score` span and score histogram.
  [[nodiscard]] FeatureScores score_features(
      const features::SampleFeatures& features) const;

  /// Analyzes many samples concurrently. Sample i draws walks from
  /// `rng.child(i)` (`rng` itself is not advanced), so the verdicts are
  /// bit-identical to a serial loop at any thread count. Throws
  /// Error{kDeadlineExceeded} when `options.deadline` passes before the
  /// batch completes.
  [[nodiscard]] std::vector<Verdict> analyze_batch(
      std::span<const cfg::Cfg> cfgs, const math::Rng& rng,
      const AnalyzeOptions& options = {}) const;

  /// Analyzes `*cfgs[i]` with the *fresh* generator `rngs[i]` (one per
  /// sample; typically `base.child(id)`), without copying the CFGs.
  /// Each sample is seeded explicitly, so a batch assembled from any
  /// interleaving of ids reproduces the serial analyze_batch verdict
  /// for each id exactly. The span-based overload above delegates here
  /// with `rngs[i] = rng.child(i)`.
  /// Throws Error{kInvalidArgument} on size mismatch or a null CFG.
  [[nodiscard]] std::vector<Verdict> analyze_batch(
      std::span<const cfg::Cfg* const> cfgs,
      std::span<const math::Rng> rngs,
      const AnalyzeOptions& options = {}) const;

  /// Feature extraction with this system's fitted pipeline.
  [[nodiscard]] features::SampleFeatures extract(const cfg::Cfg& cfg,
                                                 math::Rng& rng) const;

  [[nodiscard]] const features::FeaturePipeline& pipeline() const noexcept {
    return pipeline_;
  }
  [[nodiscard]] AeDetector& detector() noexcept { return detector_; }
  [[nodiscard]] const AeDetector& detector() const noexcept {
    return detector_;
  }
  [[nodiscard]] FamilyClassifier& classifier() noexcept {
    return classifier_;
  }
  [[nodiscard]] const FamilyClassifier& classifier() const noexcept {
    return classifier_;
  }
  [[nodiscard]] const SoteriaConfig& config() const noexcept {
    return config_;
  }

  /// Binary (de)serialization of the whole trained system (config,
  /// vocabularies, detector, classifier). `load` throws
  /// Error{kCorruptModel} on any corrupt stream, truncated or not.
  void save(std::ostream& out) const;
  [[nodiscard]] static SoteriaSystem load(std::istream& in);

  /// File-path convenience wrappers. Throw Error{kIoError} when the file
  /// cannot be opened.
  void save_file(const std::string& path) const;
  [[nodiscard]] static SoteriaSystem load_file(const std::string& path);

  /// Default-constructed untrained system; a placeholder until assigned
  /// from train() or load().
  SoteriaSystem() = default;

 private:
  /// Runs detector + classifier on pre-extracted features and records
  /// the verdict in the observability registry.
  [[nodiscard]] Verdict analyze_features(
      const features::SampleFeatures& features) const;

  /// extract() through `store` when non-null, else a cold extract.
  /// `fresh_rng` must be a *fresh* (never-advanced) generator, because
  /// its construction seed is part of the store key: a hit returns
  /// exactly the vectors a cold extraction with that seed would
  /// produce, so results are bit-identical with the store on or off.
  [[nodiscard]] features::SampleFeatures extract_stored(
      const cfg::Cfg& cfg, const math::Rng& fresh_rng,
      store::FeatureStore* store) const;

  SoteriaConfig config_;
  features::FeaturePipeline pipeline_;
  AeDetector detector_;
  FamilyClassifier classifier_;
};

/// Packs a sample's pooled combined vector into a 1-row matrix — the
/// detector's input.
[[nodiscard]] math::Matrix pooled_matrix(
    const features::SampleFeatures& features);

}  // namespace soteria::core
