#include "soteria/system.h"

#include <fstream>
#include <memory>
#include <utility>

#include "cfg/labeling_cache.h"
#include "io/binary_io.h"
#include "obs/trace.h"
#include "soteria/error.h"
#include "store/feature_store.h"

namespace soteria::core {

math::Matrix pooled_matrix(const features::SampleFeatures& features) {
  if (features.pooled_dbl.empty() && features.pooled_lbl.empty()) {
    throw Error(ErrorCode::kInvalidArgument,
                "pooled_matrix: empty feature bundle");
  }
  return pack_rows({features.pooled_combined()});
}

SoteriaSystem SoteriaSystem::train(
    std::span<const dataset::Sample> training, const SoteriaConfig& config) {
  validate(config);
  if (training.empty()) {
    throw Error(ErrorCode::kInvalidArgument,
                "SoteriaSystem::train: empty training set");
  }

  const obs::Span train_span("soteria.train");

  SoteriaSystem system;
  system.config_ = config;
  math::Rng rng(config.seed);
  const std::size_t threads = runtime::resolve_threads(config.num_threads);

  // 1. Fit the feature pipeline (vocabularies) on the training CFGs.
  //    The shared labeling cache (when enabled) is warmed here and
  //    reused by the extraction and calibration phases below — the
  //    same training CFGs would otherwise be relabeled three times.
  std::shared_ptr<cfg::LabelingCache> labeling_cache;
  if (config.labeling_cache_capacity > 0) {
    labeling_cache =
        std::make_shared<cfg::LabelingCache>(config.labeling_cache_capacity);
  }
  std::vector<cfg::Cfg> train_cfgs;
  train_cfgs.reserve(training.size());
  for (const auto& s : training) train_cfgs.push_back(s.cfg);
  math::Rng fit_rng = rng.fork(1);
  system.pipeline_ = features::FeaturePipeline::fit(
      train_cfgs, system.config_.pipeline, fit_rng, threads, labeling_cache);

  // 2. Extract training features once; assemble the detector's pooled
  //    matrix and the classifiers' per-walk datasets. The last
  //    `calibration_fraction` of the (shuffled) training samples is held
  //    out from autoencoder fitting and used for threshold calibration.
  const std::size_t vectors_per_sample = config.training_vectors_per_sample;
  auto holdout_count = static_cast<std::size_t>(
      config.calibration_fraction * static_cast<double>(training.size()));
  holdout_count = std::min(std::max<std::size_t>(holdout_count, 1),
                           training.size() - 1);
  const std::size_t fit_count = training.size() - holdout_count;

  // Per-sample feature extraction dominates training wall-clock and is
  // embarrassingly parallel: sample i draws its walks from
  // extract_rng.child(i), so the extracted bundles (and therefore the
  // assembled matrices) are identical at any thread count.
  math::Rng extract_rng = rng.fork(2);
  const auto extracted = [&] {
    const obs::Span span("extract");
    return runtime::parallel_map(
        threads, training.size(), [&](std::size_t i) {
          math::Rng sample_rng = extract_rng.child(i);
          return system.pipeline_.extract(training[i].cfg, sample_rng);
        });
  }();

  std::vector<std::vector<float>> detector_rows;
  std::vector<std::vector<float>> dbl_rows;
  std::vector<std::vector<float>> lbl_rows;
  std::vector<std::size_t> dbl_labels;
  std::vector<std::size_t> lbl_labels;
  detector_rows.reserve(fit_count);
  dbl_rows.reserve(training.size() * vectors_per_sample);
  lbl_rows.reserve(training.size() * vectors_per_sample);

  for (std::size_t i = 0; i < training.size(); ++i) {
    const auto& features = extracted[i];
    const std::size_t label = dataset::family_index(training[i].family);
    if (i < fit_count) {
      detector_rows.push_back(features.pooled_combined());
    }
    const std::size_t walks =
        std::min({vectors_per_sample, features.dbl.size(),
                  features.lbl.size()});
    for (std::size_t w = 0; w < walks; ++w) {
      dbl_rows.push_back(features.dbl[w]);
      lbl_rows.push_back(features.lbl[w]);
      dbl_labels.push_back(label);
      lbl_labels.push_back(label);
    }
  }

  // Calibration vectors: *fresh* extractions (new walks) of the held-out
  // samples, so the threshold sees both cross-sample and cross-walk
  // variation.
  math::Rng calibration_rng = rng.fork(5);
  const auto calibration_rows = [&] {
    const obs::Span span("calibrate");
    return runtime::parallel_map(
        threads, holdout_count, [&](std::size_t j) {
          math::Rng sample_rng = calibration_rng.child(j);
          return system.pipeline_
              .extract(training[fit_count + j].cfg, sample_rng)
              .pooled_combined();
        });
  }();

  // 3-4. Train the two classifier CNNs, and the detector on clean
  //      pooled vectors only, concurrently when there are two threads.
  //      The two share no state and draw from their own RNG forks, so
  //      the trained bytes are the same at any thread count. The
  //      classifiers are job 0, which the calling thread almost always
  //      claims: their allocations then stay in its malloc arena instead
  //      of being retained by a short-lived worker's (+8% peak RSS on
  //      scan-large the other way round).
  const math::Matrix detector_fit = pack_rows(detector_rows);
  const math::Matrix detector_calibration = pack_rows(calibration_rows);
  const LabeledVectors dbl{pack_rows(dbl_rows), std::move(dbl_labels)};
  const LabeledVectors lbl{pack_rows(lbl_rows), std::move(lbl_labels)};
  math::Rng detector_rng = rng.fork(3);
  math::Rng classifier_rng = rng.fork(4);
  runtime::parallel_for(threads, 2, [&](std::size_t job) {
    if (job == 0) {
      system.classifier_ = FamilyClassifier::train(
          dbl, lbl, config.cnn, config.classifier_training,
          config.classifier_learning_rate, classifier_rng);
    } else {
      system.detector_ = AeDetector::train(
          detector_fit, detector_calibration, config.autoencoder,
          config.detector_training, config.detector_alpha,
          config.detector_learning_rate, detector_rng);
    }
  });

  return system;
}

features::SampleFeatures SoteriaSystem::extract(const cfg::Cfg& cfg,
                                                math::Rng& rng) const {
  return pipeline_.extract(cfg, rng);
}

features::SampleFeatures SoteriaSystem::extract_stored(
    const cfg::Cfg& cfg, const math::Rng& fresh_rng,
    store::FeatureStore* store) const {
  if (store == nullptr) {
    math::Rng rng = fresh_rng;
    return pipeline_.extract(cfg, rng);
  }
  // The key ties the entry to the exact extraction it replaces: the
  // CFG's content, the pipeline's fitted state, and the walk stream
  // (fresh_rng's construction seed — which fully determines the stream
  // only because the generator has never been advanced).
  const store::FeatureKey key{cfg::LabelingCache::content_hash(cfg),
                              pipeline_.fingerprint().value,
                              fresh_rng.seed()};
  if (auto cached = store->get(key)) return *std::move(cached);
  math::Rng rng = fresh_rng;
  features::SampleFeatures features = pipeline_.extract(cfg, rng);
  store->put(key, features);
  return features;
}

Verdict SoteriaSystem::analyze_features(
    const features::SampleFeatures& features) const {
  Verdict verdict;
  verdict.reconstruction_error =
      detector_.sample_error(pooled_matrix(features));
  verdict.adversarial =
      verdict.reconstruction_error > detector_.threshold();
  verdict.predicted = classifier_.predict(features);
  obs::registry().counter_add("soteria.detector.analyzed");
  if (verdict.adversarial) {
    obs::registry().counter_add("soteria.detector.flagged");
  }
  obs::registry().record("soteria.detector.sample_error",
                         verdict.reconstruction_error);
  return verdict;
}

FeatureScores SoteriaSystem::score_features(
    const features::SampleFeatures& features) const {
  FeatureScores scores;
  scores.detector_score = detector_.sample_error(pooled_matrix(features));
  scores.threshold = detector_.threshold();
  scores.adversarial = scores.detector_score > scores.threshold;
  VoteTally tally = classifier_.tally(features);
  scores.predicted = tally.winner();
  scores.votes = std::move(tally.votes);
  return scores;
}

Verdict SoteriaSystem::analyze(const cfg::Cfg& cfg, math::Rng& rng) const {
  const obs::Span span("soteria.analyze");
  return analyze_features(extract(cfg, rng));
}

Verdict SoteriaSystem::analyze(const cfg::Cfg& cfg,
                               const math::Rng& fresh_rng,
                               const AnalyzeOptions& options) const {
  const obs::Span span("soteria.analyze");
  return analyze_features(
      extract_stored(cfg, fresh_rng, options.feature_store.get()));
}

std::vector<Verdict> SoteriaSystem::analyze_batch(
    std::span<const cfg::Cfg> cfgs, const math::Rng& rng,
    const AnalyzeOptions& options) const {
  // rng.child(i) is fresh by construction, so the store key it induces
  // is exactly the stream a cold extraction would use.
  std::vector<const cfg::Cfg*> pointers;
  std::vector<math::Rng> rngs;
  pointers.reserve(cfgs.size());
  rngs.reserve(cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    pointers.push_back(&cfgs[i]);
    rngs.push_back(rng.child(i));
  }
  return analyze_batch(pointers, rngs, options);
}

std::vector<Verdict> SoteriaSystem::analyze_batch(
    std::span<const cfg::Cfg* const> cfgs, std::span<const math::Rng> rngs,
    const AnalyzeOptions& options) const {
  if (cfgs.size() != rngs.size()) {
    throw Error(ErrorCode::kInvalidArgument,
                "SoteriaSystem::analyze_batch: cfgs/rngs size mismatch");
  }
  for (const auto* cfg : cfgs) {
    if (cfg == nullptr) {
      throw Error(ErrorCode::kInvalidArgument,
                  "SoteriaSystem::analyze_batch: null cfg");
    }
  }
  const std::size_t threads =
      options.num_threads.value_or(config_.num_threads);
  const auto deadline = options.deadline;
  const obs::Span span("soteria.analyze_batch");
  return runtime::parallel_map(
      threads, cfgs.size(), [&](std::size_t i) {
        if (deadline && std::chrono::steady_clock::now() >= *deadline) {
          throw Error(ErrorCode::kDeadlineExceeded,
                      "SoteriaSystem::analyze_batch: deadline exceeded");
        }
        return analyze_features(
            extract_stored(*cfgs[i], rngs[i], options.feature_store.get()));
      });
}

namespace {
constexpr std::uint32_t kSystemMagic = 0x534f5445;  // "SOTE"
}

void SoteriaSystem::save(std::ostream& out) const {
  io::write_scalar(out, kSystemMagic);
  // Scalars of the SoteriaConfig; the nested architecture configs are
  // stored by the components themselves.
  io::write_scalar(out, config_.detector_alpha);
  io::write_scalar(out, config_.detector_learning_rate);
  io::write_scalar(out, config_.classifier_learning_rate);
  io::write_scalar<std::uint64_t>(out, config_.training_vectors_per_sample);
  io::write_scalar<std::uint64_t>(out, config_.seed);
  pipeline_.save(out);
  detector_.save(out);
  classifier_.save(out);
}

SoteriaSystem SoteriaSystem::load(std::istream& in) {
  if (io::read_scalar<std::uint32_t>(in) != kSystemMagic) {
    throw Error(ErrorCode::kCorruptModel, "SoteriaSystem::load: bad magic");
  }
  SoteriaSystem system;
  system.config_.detector_alpha = io::read_scalar<double>(in);
  system.config_.detector_learning_rate = io::read_scalar<double>(in);
  system.config_.classifier_learning_rate = io::read_scalar<double>(in);
  system.config_.training_vectors_per_sample =
      static_cast<std::size_t>(io::read_scalar<std::uint64_t>(in));
  system.config_.seed = io::read_scalar<std::uint64_t>(in);
  system.pipeline_ = features::FeaturePipeline::load(in);
  system.config_.pipeline = system.pipeline_.config();
  // Runtime-only state is not persisted; re-create the labeling cache
  // at the default capacity so batch analysis on a loaded model keeps
  // the cross-call memoization.
  if (system.config_.labeling_cache_capacity > 0) {
    system.pipeline_.set_labeling_cache(std::make_shared<cfg::LabelingCache>(
        system.config_.labeling_cache_capacity));
  }
  // The nets must take the widths this pipeline produces; the loaders
  // reject a stream whose nets disagree before building them.
  system.detector_ =
      AeDetector::load(in, system.pipeline_.combined_dimension());
  system.classifier_ = FamilyClassifier::load(
      in, system.pipeline_.dbl_vocabulary().size(),
      system.pipeline_.lbl_vocabulary().size());
  return system;
}

void SoteriaSystem::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw Error(ErrorCode::kIoError,
                "SoteriaSystem::save_file: cannot open " + path);
  }
  save(out);
}

SoteriaSystem SoteriaSystem::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error(ErrorCode::kIoError,
                "SoteriaSystem::load_file: cannot open " + path);
  }
  return load(in);
}

}  // namespace soteria::core
