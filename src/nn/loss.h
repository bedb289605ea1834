// Losses: mean-squared error (autoencoder reconstruction) and softmax
// cross-entropy (family classification). Both return the scalar loss
// and the gradient w.r.t. the network output in one pass.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "math/matrix.h"

namespace soteria::nn {

/// Loss value + gradient w.r.t. predictions.
struct LossResult {
  double loss = 0.0;
  math::Matrix gradient;
};

/// MSE over all elements: mean((pred - target)^2). Gradient is
/// 2 (pred - target) / element_count. Throws on shape mismatch.
[[nodiscard]] LossResult mse_loss(const math::Matrix& predictions,
                                  const math::Matrix& targets);

/// mse_loss on raw buffers of `count` floats: writes the gradient to
/// `gradient` and returns the loss. Training runs it on workspace
/// buffers; mse_loss wraps it.
double mse_loss_into(const float* predictions, const float* targets,
                     std::size_t count, float* gradient) noexcept;

/// Row-wise softmax of logits (stable; subtracts the row max).
[[nodiscard]] math::Matrix softmax(const math::Matrix& logits);

/// Softmax + categorical cross-entropy against integer class labels.
/// Gradient is (softmax - onehot) / batch. Throws if label count !=
/// batch size or any label >= class count.
[[nodiscard]] LossResult softmax_cross_entropy(
    const math::Matrix& logits, std::span<const std::size_t> labels);

/// softmax_cross_entropy on raw buffers: `logits` is labels.size() x
/// `classes`; writes the gradient (same shape) to `gradient` and
/// returns the loss. Throws std::invalid_argument on a label >=
/// `classes`.
double softmax_cross_entropy_into(const float* logits, std::size_t classes,
                                  std::span<const std::size_t> labels,
                                  float* gradient);

/// Per-row root-mean-square reconstruction error — the detector's RE.
[[nodiscard]] std::vector<double> row_rmse(const math::Matrix& predictions,
                                           const math::Matrix& targets);

}  // namespace soteria::nn
