// Losses: mean-squared error (autoencoder reconstruction) and softmax
// cross-entropy (family classification). Both return the scalar loss
// and the gradient w.r.t. the network output in one pass.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "math/matrix.h"

namespace soteria::nn {

/// MSE over `count` floats: returns mean((pred - target)^2) and writes
/// its gradient, 2 (pred - target) / count, to `gradient`. Training
/// runs it on workspace buffers.
double mse_loss_into(const float* predictions, const float* targets,
                     std::size_t count, float* gradient) noexcept;

/// Row-wise softmax of logits (stable; subtracts the row max).
[[nodiscard]] math::Matrix softmax(const math::Matrix& logits);

/// Softmax + categorical cross-entropy against integer class labels:
/// `logits` is labels.size() x `classes`; returns the mean loss and
/// writes its gradient, (softmax - onehot) / batch (same shape), to
/// `gradient`. Throws core::Error{kInvalidArgument} on a label >= `classes`.
double softmax_cross_entropy_into(const float* logits, std::size_t classes,
                                  std::span<const std::size_t> labels,
                                  float* gradient);

/// Per-row root-mean-square reconstruction error — the detector's RE.
[[nodiscard]] std::vector<double> row_rmse(const math::Matrix& predictions,
                                           const math::Matrix& targets);

}  // namespace soteria::nn
