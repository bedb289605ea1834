// Baseline 1: graph-theoretic feature classifier (Alasmary et al. [3]).
//
// Classifies a sample from the *general structure* of its CFG — node and
// edge counts, density, degree statistics, centrality statistics,
// shortest-path statistics — rather than Soteria's randomized walk
// features. The paper uses this baseline both for the Fig. 8 PCA
// comparison and the Table VII accuracy comparison; its key weakness is
// that GEA shifts all of these aggregates predictably.
//
// Features are z-score standardized with statistics from the training
// set and fed to a small dense network (the original work used standard
// shallow classifiers; a 2-hidden-layer MLP is an equivalent stand-in).
#pragma once

#include <span>
#include <vector>

#include "dataset/sample.h"
#include "graph/properties.h"
#include "math/rng.h"
#include "nn/sequential.h"
#include "nn/trainer.h"

namespace soteria::baseline {

/// Baseline hyper-parameters.
struct GraphBaselineConfig {
  std::size_t hidden_units = 64;
  double learning_rate = 1e-3;
  nn::TrainConfig training = nn::make_train_config(60, 64);
  std::uint64_t seed = 7;
};

class GraphFeatureBaseline {
 public:
  /// Raw (unstandardized) structural feature vector of a CFG.
  [[nodiscard]] static std::vector<float> raw_features(const cfg::Cfg& cfg);

  /// Trains on the given samples. Throws core::Error{kInvalidArgument} on an
  /// empty training set.
  static GraphFeatureBaseline train(
      std::span<const dataset::Sample> training,
      const GraphBaselineConfig& config);

  /// Standardized features under the fitted statistics.
  [[nodiscard]] std::vector<float> features_for(const cfg::Cfg& cfg) const;

  /// Predicted family for one CFG.
  [[nodiscard]] dataset::Family predict(const cfg::Cfg& cfg) const;

  [[nodiscard]] const nn::TrainReport& train_report() const noexcept {
    return report_;
  }

  /// Default-constructed untrained baseline; placeholder until assigned
  /// from train().
  GraphFeatureBaseline() = default;

 private:
  std::vector<float> feature_means_;
  std::vector<float> feature_stddevs_;
  nn::Sequential model_;
  nn::TrainReport report_;
};

}  // namespace soteria::baseline
