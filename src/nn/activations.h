// The stateless activation layer: ReLU.
#pragma once

#include "nn/layer.h"

namespace soteria::nn {

/// Rectified linear unit, elementwise max(0, x); a NaN input gives 0.
///
/// Training runs it in place over its input, so backward reads only
/// the layer's output: a unit passes its gradient iff its output is
/// > 0. For an input x that is iff x > 0, at the edges too: +inf
/// passes, while -0.0, +0.0 and NaN block (a NaN pre-activation
/// outputs 0, so its gradient is blocked).
class Relu : public Layer {
 public:
  void infer_into(const float* in, std::size_t rows, std::size_t width,
                  float* out) const override;
  [[nodiscard]] bool trains_in_place() const noexcept override {
    return true;
  }
  void train_backward(const float* in, const float* out,
                      const float* grad_out, std::size_t rows,
                      std::size_t width, float* grad_in,
                      TrainState& state) override;
  [[nodiscard]] std::string name() const override { return "ReLU"; }
  [[nodiscard]] std::size_t output_dimension(
      std::size_t input_dim) const override {
    return input_dim;
  }
};

}  // namespace soteria::nn
