#include "nn/loss.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "soteria/error.h"

namespace soteria::nn {

double mse_loss_into(const float* predictions, const float* targets,
                     std::size_t count, float* gradient) noexcept {
  const auto n = static_cast<double>(count);
  double acc = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const double diff = static_cast<double>(predictions[i]) - targets[i];
    acc += diff * diff;
    gradient[i] = static_cast<float>(2.0 * diff / n);
  }
  return acc / n;
}

namespace {

// Stable softmax of one row, in place: subtracts the row max, sums the
// exponentials in double.
void softmax_row(float* row, std::size_t n) {
  const float max = *std::max_element(row, row + n);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    row[i] = std::exp(row[i] - max);
    sum += row[i];
  }
  const auto inv = static_cast<float>(1.0 / sum);
  for (std::size_t i = 0; i < n; ++i) row[i] *= inv;
}

}  // namespace

math::Matrix softmax(const math::Matrix& logits) {
  math::Matrix probs = logits;
  for (std::size_t r = 0; r < probs.rows(); ++r) {
    softmax_row(probs.row(r).data(), probs.cols());
  }
  return probs;
}

double softmax_cross_entropy_into(const float* logits, std::size_t classes,
                                  std::span<const std::size_t> labels,
                                  float* gradient) {
  const std::size_t rows = labels.size();
  std::copy_n(logits, rows * classes, gradient);
  const auto batch = static_cast<double>(rows);
  double acc = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    if (labels[r] >= classes) {
      throw core::Error(core::ErrorCode::kInvalidArgument,
                        "softmax_cross_entropy: label " +
                        std::to_string(labels[r]) +
                        " >= class count " +
                        std::to_string(classes));
    }
    float* row = gradient + r * classes;
    softmax_row(row, classes);
    const double p = std::max(static_cast<double>(row[labels[r]]), 1e-12);
    acc -= std::log(p);
    row[labels[r]] -= 1.0F;
  }
  const auto scale = static_cast<float>(1.0 / batch);
  for (std::size_t i = 0; i < rows * classes; ++i) gradient[i] *= scale;
  return acc / batch;
}

std::vector<double> row_rmse(const math::Matrix& predictions,
                             const math::Matrix& targets) {
  if (predictions.rows() != targets.rows() ||
      predictions.cols() != targets.cols()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "row_rmse: shape mismatch " +
                      predictions.shape_string() + " vs " +
                      targets.shape_string());
  }
  std::vector<double> rmse(predictions.rows(), 0.0);
  for (std::size_t r = 0; r < predictions.rows(); ++r) {
    const auto p = predictions.row(r);
    const auto t = targets.row(r);
    double acc = 0.0;
    for (std::size_t c = 0; c < p.size(); ++c) {
      const double diff = static_cast<double>(p[c]) - t[c];
      acc += diff * diff;
    }
    rmse[r] = std::sqrt(acc / static_cast<double>(p.size()));
  }
  return rmse;
}

}  // namespace soteria::nn
