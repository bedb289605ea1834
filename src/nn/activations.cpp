#include "nn/activations.h"

namespace soteria::nn {

void Relu::infer_into(const float* in, std::size_t rows, std::size_t width,
                      float* out) const {
  const std::size_t count = rows * width;
  for (std::size_t i = 0; i < count; ++i) {
    const float x = in[i];
    out[i] = x > 0.0F ? x : 0.0F;
  }
}

void Relu::train_backward(const float* /*in*/, const float* out,
                          const float* grad_out, std::size_t rows,
                          std::size_t width, float* grad_in,
                          TrainState& /*state*/) {
  const std::size_t count = rows * width;
  for (std::size_t i = 0; i < count; ++i) {
    grad_in[i] = out[i] > 0.0F ? grad_out[i] : 0.0F;
  }
}

}  // namespace soteria::nn
