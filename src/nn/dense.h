// Fully connected layer: Y = X W + b.
#pragma once

#include <cstddef>

#include "math/rng.h"
#include "nn/layer.h"

namespace soteria::nn {

class Dense : public Layer {
 public:
  /// He-uniform initialization (appropriate for the ReLU stacks used
  /// everywhere in Soteria). Throws core::Error{kInvalidArgument} on zero dims.
  Dense(std::size_t in_dim, std::size_t out_dim, math::Rng& rng);

  void infer_into(const float* in, std::size_t rows, std::size_t width,
                  float* out) const override;
  /// Reads the layer's input, never its output. weight_grad += X^T G
  /// (math::matmul_at_into) and bias_grad += the column sums of G, each
  /// summed from +0 before it is added; d(input) = G W^T
  /// (math::matmul_bt_into). Uses no `state`.
  void train_backward(const float* in, const float* out,
                      const float* grad_out, std::size_t rows,
                      std::size_t width, float* grad_in,
                      TrainState& state) override;
  void collect_parameters(std::vector<ParamRef>& out) override;
  void zero_gradients() override;
  [[nodiscard]] std::size_t parameter_count() const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t output_dimension(
      std::size_t input_dim) const override;

  [[nodiscard]] std::size_t in_dim() const noexcept { return in_dim_; }
  [[nodiscard]] std::size_t out_dim() const noexcept { return out_dim_; }
  [[nodiscard]] const math::Matrix& weights() const noexcept {
    return weights_;
  }
  [[nodiscard]] math::Matrix& weights() noexcept { return weights_; }
  [[nodiscard]] const math::Matrix& bias() const noexcept { return bias_; }
  [[nodiscard]] math::Matrix& bias() noexcept { return bias_; }

 private:
  std::size_t in_dim_;
  std::size_t out_dim_;
  math::Matrix weights_;       // in_dim x out_dim
  math::Matrix bias_;          // 1 x out_dim
  math::Matrix weight_grad_;
  math::Matrix bias_grad_;
};

}  // namespace soteria::nn
