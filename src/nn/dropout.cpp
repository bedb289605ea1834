#include "nn/dropout.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace soteria::nn {

Dropout::Dropout(double rate, math::Rng& rng)
    : rate_(rate), rng_(rng.fork(0xd209u)) {
  if (rate < 0.0 || rate >= 1.0) {
    throw std::invalid_argument("Dropout: rate outside [0, 1)");
  }
}

math::Matrix Dropout::forward(const math::Matrix& input, bool training) {
  if (!training || rate_ == 0.0) {
    mask_valid_ = false;
    return input;
  }
  const auto keep_scale = static_cast<float>(1.0 / (1.0 - rate_));
  mask_ = math::Matrix(input.rows(), input.cols());
  for (float& m : mask_.data()) {
    m = rng_.bernoulli(rate_) ? 0.0F : keep_scale;
  }
  mask_valid_ = true;
  return input.hadamard(mask_);
}

void Dropout::infer_into(const float* in, std::size_t rows,
                         std::size_t width, float* out) const {
  std::copy_n(in, rows * width, out);
}

math::Matrix Dropout::backward(const math::Matrix& grad_output) {
  if (!mask_valid_) return grad_output;
  if (grad_output.rows() != mask_.rows() ||
      grad_output.cols() != mask_.cols()) {
    throw std::invalid_argument("Dropout::backward: gradient shape " +
                                grad_output.shape_string() +
                                " incompatible with cached mask");
  }
  return grad_output.hadamard(mask_);
}

std::string Dropout::name() const {
  return "Dropout(" + std::to_string(rate_) + ")";
}

}  // namespace soteria::nn
