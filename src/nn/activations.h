// Stateless activation layers: ReLU and Sigmoid.
#pragma once

#include "nn/layer.h"

namespace soteria::nn {

/// Rectified linear unit, elementwise max(0, x).
class Relu : public Layer {
 public:
  math::Matrix forward(const math::Matrix& input, bool training) override;
  void infer_into(const float* in, std::size_t rows, std::size_t width,
                  float* out) const override;
  math::Matrix backward(const math::Matrix& grad_output) override;
  [[nodiscard]] std::string name() const override { return "ReLU"; }
  [[nodiscard]] std::size_t output_dimension(
      std::size_t input_dim) const override {
    return input_dim;
  }

 private:
  math::Matrix cached_input_;
};

/// Logistic sigmoid, elementwise 1 / (1 + e^-x).
class Sigmoid : public Layer {
 public:
  math::Matrix forward(const math::Matrix& input, bool training) override;
  void infer_into(const float* in, std::size_t rows, std::size_t width,
                  float* out) const override;
  math::Matrix backward(const math::Matrix& grad_output) override;
  [[nodiscard]] std::string name() const override { return "Sigmoid"; }
  [[nodiscard]] std::size_t output_dimension(
      std::size_t input_dim) const override {
    return input_dim;
  }

 private:
  math::Matrix cached_output_;
};

}  // namespace soteria::nn
