#include "baseline/graph_features.h"

#include <cmath>

#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "soteria/error.h"

namespace soteria::baseline {

std::vector<float> GraphFeatureBaseline::raw_features(const cfg::Cfg& cfg) {
  return graph::to_feature_vector(graph::graph_properties(cfg.graph()));
}

GraphFeatureBaseline GraphFeatureBaseline::train(
    std::span<const dataset::Sample> training,
    const GraphBaselineConfig& config) {
  if (training.empty()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "GraphFeatureBaseline::train: empty training set");
  }
  nn::validate(config.training);

  const std::size_t dim = graph::kGraphFeatureCount;
  math::Matrix features(training.size(), dim);
  std::vector<std::size_t> labels(training.size());
  for (std::size_t i = 0; i < training.size(); ++i) {
    const auto raw = raw_features(training[i].cfg);
    std::copy(raw.begin(), raw.end(), features.row(i).begin());
    labels[i] = dataset::family_index(training[i].family);
  }

  GraphFeatureBaseline baseline;
  baseline.feature_means_.assign(dim, 0.0F);
  baseline.feature_stddevs_.assign(dim, 1.0F);
  const auto n = static_cast<double>(training.size());
  for (std::size_t c = 0; c < dim; ++c) {
    double mean = 0.0;
    for (std::size_t r = 0; r < features.rows(); ++r) {
      mean += features(r, c);
    }
    mean /= n;
    double var = 0.0;
    for (std::size_t r = 0; r < features.rows(); ++r) {
      const double d = features(r, c) - mean;
      var += d * d;
    }
    var /= n;
    baseline.feature_means_[c] = static_cast<float>(mean);
    baseline.feature_stddevs_[c] =
        static_cast<float>(var > 0.0 ? std::sqrt(var) : 1.0);
    for (std::size_t r = 0; r < features.rows(); ++r) {
      features(r, c) = (features(r, c) - baseline.feature_means_[c]) /
                       baseline.feature_stddevs_[c];
    }
  }

  math::Rng rng(config.seed);
  baseline.model_.emplace<nn::Dense>(dim, config.hidden_units, rng);
  baseline.model_.emplace<nn::Relu>();
  baseline.model_.emplace<nn::Dense>(config.hidden_units,
                                     config.hidden_units, rng);
  baseline.model_.emplace<nn::Relu>();
  baseline.model_.emplace<nn::Dense>(config.hidden_units,
                                     dataset::kFamilyCount, rng);

  nn::Adam optimizer(config.learning_rate);
  baseline.report_ = nn::train_classifier(
      baseline.model_, features, labels, optimizer, config.training, rng);
  return baseline;
}

std::vector<float> GraphFeatureBaseline::features_for(
    const cfg::Cfg& cfg) const {
  if (feature_means_.empty()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "GraphFeatureBaseline: not trained");
  }
  auto raw = raw_features(cfg);
  for (std::size_t c = 0; c < raw.size(); ++c) {
    raw[c] = (raw[c] - feature_means_[c]) / feature_stddevs_[c];
  }
  return raw;
}

dataset::Family GraphFeatureBaseline::predict(const cfg::Cfg& cfg) const {
  const auto standardized = features_for(cfg);
  math::Matrix input(1, standardized.size());
  std::copy(standardized.begin(), standardized.end(),
            input.row(0).begin());
  const auto prediction = nn::argmax_rows(model_.infer(input));
  return dataset::family_from_index(prediction.front());
}

}  // namespace soteria::baseline
