// Mini-batch training loops for regression (autoencoder) and
// classification (CNN) models.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "math/matrix.h"
#include "math/rng.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"

namespace soteria::nn {

/// Training hyper-parameters (paper: 100 epochs, batch 128).
/// Rows are reshuffled every epoch.
struct TrainConfig {
  std::size_t epochs = 100;
  std::size_t batch_size = 128;
};

/// Throws core::Error{kInvalidArgument} on zero epochs/batch size.
void validate(const TrainConfig& config);

/// Convenience factory for the common (epochs, batch) case.
[[nodiscard]] TrainConfig make_train_config(std::size_t epochs,
                                            std::size_t batch_size);

/// Per-epoch mean losses.
struct TrainReport {
  std::vector<double> epoch_losses;

  [[nodiscard]] double final_loss() const noexcept {
    return epoch_losses.empty() ? 0.0 : epoch_losses.back();
  }
};

/// Trains `model` to map inputs to targets under MSE (targets == inputs
/// for an autoencoder). Throws core::Error{kInvalidArgument} if row counts
/// differ or the dataset is empty.
TrainReport train_regression(Sequential& model, const math::Matrix& inputs,
                             const math::Matrix& targets,
                             Adam& optimizer, const TrainConfig& config,
                             math::Rng& rng);

/// Trains `model` as a classifier under softmax cross-entropy against
/// integer labels.
TrainReport train_classifier(Sequential& model, const math::Matrix& inputs,
                             std::span<const std::size_t> labels,
                             Adam& optimizer, const TrainConfig& config,
                             math::Rng& rng);

/// Argmax class per row of (logit or probability) outputs.
[[nodiscard]] std::vector<std::size_t> argmax_rows(const math::Matrix& m);

/// Copies selected rows into a new matrix.
[[nodiscard]] math::Matrix gather_rows(const math::Matrix& m,
                                       std::span<const std::size_t> rows);

}  // namespace soteria::nn
