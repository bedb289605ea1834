// 1D convolution over channel-major flattened rows.
//
// A batch row of `in_channels` channels and length `in_length` is laid
// out as [c0 t0..tL, c1 t0..tL, ...]. Convolution is "valid" (no
// padding), stride 1, matching the Keras defaults the paper's CNN
// blocks rely on (46 filters of size 1x3).
#pragma once

#include <cstddef>

#include "math/rng.h"
#include "nn/layer.h"

namespace soteria::nn {

/// Raw direct-convolution kernel behind Conv1d::infer_into (which
/// training's forward and Sequential::infer both run). `in` is rows x
/// (in_channels*in_length) channel-major, `out` rows x
/// (out_channels*(in_length-kernel+1)), `weights` out_channels x
/// (in_channels*kernel), `bias` out_channels. Each output element
/// starts from its bias and adds the nonzero-tap products w*x in
/// ascending (channel, tap) order; zero taps are skipped. The work runs
/// in register tiles of 4 output channels x 6 vectors of 16 positions,
/// held across every (channel, tap) pair and stored once; a group of 4
/// channels without a zero weight (any trained net) runs without
/// per-tap tests. The result is bit-identical to the
/// one-channel-at-a-time reference loop (tests/oracles), signed zeros
/// and infinities included. With `relu` each sum v is stored as
/// `v > 0 ? v : 0`, in the tile's registers (and on the per-element
/// path of outputs shorter than 16): bit-identical to Relu::infer_into
/// run over the output afterwards, so a NaN or -0.0f sum stores +0.0f.
void conv1d_infer_into(const float* in, float* out, const float* weights,
                       const float* bias, std::size_t rows,
                       std::size_t in_channels, std::size_t in_length,
                       std::size_t out_channels, std::size_t kernel,
                       bool relu) noexcept;

/// Conv1d's backward kernel on raw buffers (shapes as in
/// conv1d_infer_into; `grad_out` has the layout of `out`). Overwrites
/// `grad_in` and accumulates into `weight_grad` and `bias_grad`. Every
/// output float adds the same terms in the same order as the scalar
/// reference loop (tests/oracles): grad-input over output channels,
/// then taps, ascending; each row's weight and bias gradient as one
/// chain in time order, added to the accumulators row by row. The work
/// runs in fixed-width lanes of independent chains: grad-input in
/// register tiles of 4 input channels x 6 vectors of positions (the
/// positions within kernel-1 of either end, which miss a tap, in
/// vectors whose lanes skip those taps), the weight and bias gradients
/// across output channels, from a time-major copy of each row's
/// gradient made by in-register 16 x 16 transposes.
/// So the result is bit-identical to the reference whenever the
/// compiler does not contract mul+add into FMA (the library builds
/// with -ffp-contract=off). With `relu_out` (the output of a Relu run
/// on this convolution's output, as conv1d_infer_into's `relu` stores
/// it) each row's gradient is first gated as Relu's backward gates it,
/// `relu_out > 0 ? grad_out : 0`: bit-identical to Relu::train_backward
/// followed by the ungated kernel.
void conv1d_backward_into(const float* in, const float* grad_out,
                          const float* weights, float* grad_in,
                          float* weight_grad, float* bias_grad,
                          std::size_t rows, std::size_t in_channels,
                          std::size_t in_length, std::size_t out_channels,
                          std::size_t kernel,
                          const float* relu_out = nullptr);

class Conv1d : public Layer {
 public:
  /// Throws core::Error{kInvalidArgument} on zero sizes or kernel > in_length.
  Conv1d(std::size_t in_channels, std::size_t in_length,
         std::size_t out_channels, std::size_t kernel, math::Rng& rng);

  void infer_into(const float* in, std::size_t rows, std::size_t width,
                  float* out) const override;
  /// infer_into and a Relu after it in one pass: the kernel's ReLU
  /// epilogue. Sequential::infer and a TrainingWorkspace run it for a
  /// Conv1d directly followed by a Relu.
  void infer_relu_into(const float* in, std::size_t rows, float* out) const;
  /// conv1d_backward_into on the layer's input; reads no output.
  void train_backward(const float* in, const float* out,
                      const float* grad_out, std::size_t rows,
                      std::size_t width, float* grad_in,
                      TrainState& state) override;
  /// The backward of infer_relu_into: `out` is its output and
  /// `grad_out` the gradient w.r.t. it; the Relu's gate runs in
  /// conv1d_backward_into. Bit-identical to Relu::train_backward and
  /// then train_backward. A TrainingWorkspace runs it for a Conv1d
  /// directly followed by a Relu.
  void train_backward_relu(const float* in, const float* out,
                           const float* grad_out, std::size_t rows,
                           float* grad_in);
  void collect_parameters(std::vector<ParamRef>& out) override;
  void zero_gradients() override;
  [[nodiscard]] std::size_t parameter_count() const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t output_dimension(
      std::size_t input_dim) const override;

  [[nodiscard]] std::size_t out_length() const noexcept {
    return in_length_ - kernel_ + 1;
  }
  [[nodiscard]] std::size_t out_channels() const noexcept {
    return out_channels_;
  }
  [[nodiscard]] std::size_t in_channels() const noexcept {
    return in_channels_;
  }
  [[nodiscard]] std::size_t in_length() const noexcept { return in_length_; }
  [[nodiscard]] std::size_t kernel() const noexcept { return kernel_; }
  [[nodiscard]] const math::Matrix& weights() const noexcept {
    return weights_;
  }
  [[nodiscard]] const math::Matrix& bias() const noexcept { return bias_; }

 private:
  std::size_t in_channels_;
  std::size_t in_length_;
  std::size_t out_channels_;
  std::size_t kernel_;
  math::Matrix weights_;  // out_channels x (in_channels * kernel)
  math::Matrix bias_;     // 1 x out_channels
  math::Matrix weight_grad_;
  math::Matrix bias_grad_;
};

}  // namespace soteria::nn
