#include "nn/dropout.h"

#include <algorithm>
#include <string>

#include "soteria/error.h"

namespace soteria::nn {

Dropout::Dropout(double rate, math::Rng& rng)
    : rate_(rate), rng_(rng.fork(0xd209u)) {
  if (rate < 0.0 || rate >= 1.0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "Dropout: rate outside [0, 1)");
  }
}

void Dropout::infer_into(const float* in, std::size_t rows,
                         std::size_t width, float* out) const {
  std::copy_n(in, rows * width, out);
}

void Dropout::reserve_training(std::size_t max_rows, std::size_t width,
                               TrainState& state) const {
  if (rate_ != 0.0) state.keep.resize(max_rows * width);
}

void Dropout::train_forward(const float* in, std::size_t rows,
                            std::size_t width, float* out,
                            TrainState& state) {
  const std::size_t count = rows * width;
  if (rate_ == 0.0) {
    std::copy_n(in, count, out);
    return;
  }
  // All draws first, then one vectorizable pass: interleaving the
  // float stores with the draws makes the loop about twice as slow.
  std::uint8_t* keep = state.keep.data();
  for (std::size_t i = 0; i < count; ++i) {
    keep[i] = rng_.bernoulli(rate_) ? 0 : 1;
  }
  // Each element is multiplied by its mask factor (scale or 0), as
  // backward multiplies its gradient, so a dropped element keeps the
  // sign of zero (and the NaN) that x * 0 gives.
  const float scale = keep_scale();
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = in[i] * (keep[i] != 0 ? scale : 0.0F);
  }
}

void Dropout::train_backward(const float* /*in*/, const float* /*out*/,
                             const float* grad_out, std::size_t rows,
                             std::size_t width, float* grad_in,
                             TrainState& state) {
  const std::size_t count = rows * width;
  if (rate_ == 0.0) {
    std::copy_n(grad_out, count, grad_in);
    return;
  }
  const float scale = keep_scale();
  const std::uint8_t* keep = state.keep.data();
  for (std::size_t i = 0; i < count; ++i) {
    grad_in[i] = grad_out[i] * (keep[i] != 0 ? scale : 0.0F);
  }
}

std::string Dropout::name() const {
  return "Dropout(" + std::to_string(rate_) + ")";
}

}  // namespace soteria::nn
