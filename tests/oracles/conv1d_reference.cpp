#include "oracles/conv1d_reference.h"

namespace soteria::oracles {

void conv1d_infer_reference_into(const float* in, float* out,
                                 const float* weights, const float* bias,
                                 std::size_t rows, std::size_t in_channels,
                                 std::size_t in_length,
                                 std::size_t out_channels,
                                 std::size_t kernel) noexcept {
  const std::size_t out_len = in_length - kernel + 1;
  const std::size_t w_cols = in_channels * kernel;
  const std::size_t in_cols = in_channels * in_length;
  const std::size_t out_cols = out_channels * out_len;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* in_row = in + r * in_cols;
    float* out_row = out + r * out_cols;
    for (std::size_t o = 0; o < out_channels; ++o) {
      const float* w = weights + o * w_cols;
      const float b = bias[o];
      float* out_chan = out_row + o * out_len;
      for (std::size_t t = 0; t < out_len; ++t) out_chan[t] = b;
      for (std::size_t c = 0; c < in_channels; ++c) {
        const float* in_chan = in_row + c * in_length;
        const float* wc = w + c * kernel;
        for (std::size_t k = 0; k < kernel; ++k) {
          const float wk = wc[k];
          if (wk == 0.0F) continue;
          const float* shifted = in_chan + k;
          for (std::size_t t = 0; t < out_len; ++t) {
            out_chan[t] += wk * shifted[t];
          }
        }
      }
    }
  }
}

void conv1d_backward_reference(const float* in, const float* grad_out,
                               const float* weights, float* grad_in,
                               float* weight_grad, float* bias_grad,
                               std::size_t rows, std::size_t in_channels,
                               std::size_t in_length,
                               std::size_t out_channels,
                               std::size_t kernel) noexcept {
  const std::size_t out_len = in_length - kernel + 1;
  const std::size_t w_cols = in_channels * kernel;
  const std::size_t in_cols = in_channels * in_length;
  const std::size_t out_cols = out_channels * out_len;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* in_row = in + r * in_cols;
    const float* go_row = grad_out + r * out_cols;
    float* gi_row = grad_in + r * in_cols;
    for (std::size_t o = 0; o < out_channels; ++o) {
      const float* go_chan = go_row + o * out_len;
      float* wg = weight_grad + o * w_cols;
      const float* w = weights + o * w_cols;
      float bias_acc = 0.0F;
      for (std::size_t t = 0; t < out_len; ++t) bias_acc += go_chan[t];
      bias_grad[o] += bias_acc;
      for (std::size_t c = 0; c < in_channels; ++c) {
        const float* in_chan = in_row + c * in_length;
        float* gi_chan = gi_row + c * in_length;
        float* wgc = wg + c * kernel;
        const float* wc = w + c * kernel;
        for (std::size_t k = 0; k < kernel; ++k) {
          const float* shifted_in = in_chan + k;
          float* shifted_gi = gi_chan + k;
          const float wk = wc[k];
          float wgrad_acc = 0.0F;
          for (std::size_t t = 0; t < out_len; ++t) {
            const float g = go_chan[t];
            wgrad_acc += g * shifted_in[t];
            shifted_gi[t] += g * wk;
          }
          wgc[k] += wgrad_acc;
        }
      }
    }
  }
}

}  // namespace soteria::oracles
