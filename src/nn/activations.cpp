#include "nn/activations.h"

#include <cmath>
#include <stdexcept>

namespace soteria::nn {

math::Matrix Relu::forward(const math::Matrix& input, bool /*training*/) {
  cached_input_ = input;
  math::Matrix out(input.rows(), input.cols());
  infer_into(input.data().data(), input.rows(), input.cols(),
             out.data().data());
  return out;
}

void Relu::infer_into(const float* in, std::size_t rows, std::size_t width,
                      float* out) const {
  const std::size_t count = rows * width;
  for (std::size_t i = 0; i < count; ++i) {
    const float x = in[i];
    out[i] = x > 0.0F ? x : 0.0F;
  }
}

math::Matrix Relu::backward(const math::Matrix& grad_output) {
  if (grad_output.rows() != cached_input_.rows() ||
      grad_output.cols() != cached_input_.cols()) {
    throw std::invalid_argument("Relu::backward: shape mismatch");
  }
  math::Matrix grad = grad_output;
  const auto in = cached_input_.data();
  auto g = grad.data();
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (in[i] <= 0.0F) g[i] = 0.0F;
  }
  return grad;
}

math::Matrix Sigmoid::forward(const math::Matrix& input, bool /*training*/) {
  math::Matrix out(input.rows(), input.cols());
  infer_into(input.data().data(), input.rows(), input.cols(),
             out.data().data());
  cached_output_ = out;
  return out;
}

void Sigmoid::infer_into(const float* in, std::size_t rows,
                         std::size_t width, float* out) const {
  const std::size_t count = rows * width;
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = 1.0F / (1.0F + std::exp(-in[i]));
  }
}

math::Matrix Sigmoid::backward(const math::Matrix& grad_output) {
  if (grad_output.rows() != cached_output_.rows() ||
      grad_output.cols() != cached_output_.cols()) {
    throw std::invalid_argument("Sigmoid::backward: shape mismatch");
  }
  math::Matrix grad = grad_output;
  const auto y = cached_output_.data();
  auto g = grad.data();
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] *= y[i] * (1.0F - y[i]);
  }
  return grad;
}

}  // namespace soteria::nn
