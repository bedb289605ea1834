#include "nn/conv1d.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace soteria::nn {

Conv1d::Conv1d(std::size_t in_channels, std::size_t in_length,
               std::size_t out_channels, std::size_t kernel, math::Rng& rng)
    : in_channels_(in_channels),
      in_length_(in_length),
      out_channels_(out_channels),
      kernel_(kernel),
      weights_(out_channels, in_channels * kernel),
      bias_(1, out_channels, 0.0F),
      weight_grad_(out_channels, in_channels * kernel, 0.0F),
      bias_grad_(1, out_channels, 0.0F) {
  if (in_channels == 0 || in_length == 0 || out_channels == 0 ||
      kernel == 0) {
    throw std::invalid_argument("Conv1d: zero dimension");
  }
  if (kernel > in_length) {
    throw std::invalid_argument("Conv1d: kernel " + std::to_string(kernel) +
                                " exceeds input length " +
                                std::to_string(in_length));
  }
  const float limit =
      std::sqrt(6.0F / static_cast<float>(in_channels * kernel));
  weights_.fill_uniform(rng, -limit, limit);
}

math::Matrix Conv1d::forward(const math::Matrix& input, bool /*training*/) {
  cached_input_ = input;
  return infer(input);
}

void conv1d_infer_into(const float* in, float* out, const float* weights,
                       const float* bias, std::size_t rows,
                       std::size_t in_channels, std::size_t in_length,
                       std::size_t out_channels, std::size_t kernel) noexcept {
  const std::size_t out_len = in_length - kernel + 1;
  const std::size_t w_cols = in_channels * kernel;
  const std::size_t in_cols = in_channels * in_length;
  const std::size_t out_cols = out_channels * out_len;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* in_row = in + r * in_cols;
    float* out_row = out + r * out_cols;
    std::size_t o = 0;
    // Output channels in pairs: each shifted input-channel load feeds
    // two accumulator streams. Per output element the accumulation
    // order (bias first, then ascending channel/tap) and the zero-tap
    // skip are exactly the reference's, so results are bit-identical.
    for (; o + 2 <= out_channels; o += 2) {
      const float* wa = weights + (o + 0) * w_cols;
      const float* wb = weights + (o + 1) * w_cols;
      float* out_a = out_row + (o + 0) * out_len;
      float* out_b = out_row + (o + 1) * out_len;
      const float ba = bias[o + 0];
      const float bb = bias[o + 1];
      for (std::size_t t = 0; t < out_len; ++t) {
        out_a[t] = ba;
        out_b[t] = bb;
      }
      for (std::size_t c = 0; c < in_channels; ++c) {
        const float* in_chan = in_row + c * in_length;
        const float* wac = wa + c * kernel;
        const float* wbc = wb + c * kernel;
        for (std::size_t k = 0; k < kernel; ++k) {
          const float wka = wac[k];
          const float wkb = wbc[k];
          const float* shifted = in_chan + k;
          if (wka != 0.0F && wkb != 0.0F) {
            for (std::size_t t = 0; t < out_len; ++t) {
              out_a[t] += wka * shifted[t];
              out_b[t] += wkb * shifted[t];
            }
          } else if (wka != 0.0F) {
            for (std::size_t t = 0; t < out_len; ++t) {
              out_a[t] += wka * shifted[t];
            }
          } else if (wkb != 0.0F) {
            for (std::size_t t = 0; t < out_len; ++t) {
              out_b[t] += wkb * shifted[t];
            }
          }
        }
      }
    }
    for (; o < out_channels; ++o) {
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

namespace {

// The backward kernels work in lanes of one 64-byte vector: the
// compiler lowers each lane op to the target's widest float add or mul
// (one AVX-512 instruction, two AVX ones, four SSE ones). A lane op
// rounds each lane on its own, so per element the arithmetic is the
// scalar loop's.
constexpr std::size_t kLanes = 16;
using Lanes = float __attribute__((vector_size(kLanes * sizeof(float))));

// Vectors travel through references: passing one by value would make
// its calling convention depend on the target ISA.
void load(Lanes& v, const float* p) noexcept { std::memcpy(&v, p, sizeof v); }
void store(float* p, const Lanes& v) noexcept { std::memcpy(p, &v, sizeof v); }

struct BackwardShape {
  std::size_t in_channels;
  std::size_t in_length;
  std::size_t out_channels;
  std::size_t kernel;
  std::size_t out_len;  // in_length - kernel + 1
  std::size_t w_cols;   // in_channels * kernel
};

// grad_in[c][j] = sum over (o ascending, k ascending) of
// g[o][j - k] * w[o][c][k], skipping taps with j - k outside the output.
// Used where some tap falls outside (the first kernel-1 and last
// kernel-1 positions) and for the interior's sub-vector tail.
float grad_input_scalar(const float* go_row, const float* weights,
                        const BackwardShape& s, std::size_t c,
                        std::size_t j) noexcept {
  float acc = 0.0F;
  for (std::size_t o = 0; o < s.out_channels; ++o) {
    const float* go = go_row + o * s.out_len;
    const float* wc = weights + o * s.w_cols + c * s.kernel;
    for (std::size_t k = 0; k < s.kernel; ++k) {
      if (j >= k && j - k < s.out_len) acc += go[j - k] * wc[k];
    }
  }
  return acc;
}

// N*kLanes consecutive interior positions from j (every tap in range):
// N vector accumulators, the same (o, k) order as grad_input_scalar.
template <std::size_t N>
void grad_input_tile(const float* go_row, const float* weights,
                     const BackwardShape& s, std::size_t c, std::size_t j,
                     float* gi_chan) noexcept {
  Lanes acc[N] = {};
  for (std::size_t o = 0; o < s.out_channels; ++o) {
    const float* go = go_row + o * s.out_len + j;
    const float* wc = weights + o * s.w_cols + c * s.kernel;
    for (std::size_t k = 0; k < s.kernel; ++k) {
      const float wk = wc[k];
      for (std::size_t v = 0; v < N; ++v) {
        Lanes g;
        load(g, go - k + v * kLanes);
        acc[v] += g * wk;
      }
    }
  }
  for (std::size_t v = 0; v < N; ++v) store(gi_chan + j + v * kLanes, acc[v]);
}

void grad_input_row(const float* go_row, const float* weights,
                    const BackwardShape& s, float* gi_row) noexcept {
  constexpr std::size_t kTile = 8;
  // Interior positions [kernel-1, out_len) see every tap.
  const std::size_t lo = std::min(s.kernel - 1, s.out_len);
  const std::size_t hi = s.out_len;
  for (std::size_t c = 0; c < s.in_channels; ++c) {
    float* gi_chan = gi_row + c * s.in_length;
    for (std::size_t j = 0; j < lo; ++j) {
      gi_chan[j] = grad_input_scalar(go_row, weights, s, c, j);
    }
    std::size_t j = lo;
    for (; j + kTile * kLanes <= hi; j += kTile * kLanes) {
      grad_input_tile<kTile>(go_row, weights, s, c, j, gi_chan);
    }
    for (; j + kLanes <= hi; j += kLanes) {
      grad_input_tile<1>(go_row, weights, s, c, j, gi_chan);
    }
    for (; j < s.in_length; ++j) {
      gi_chan[j] = grad_input_scalar(go_row, weights, s, c, j);
    }
  }
}

// N weight-gradient chains, pairs p .. p+N-1 (pair p = channel
// p / kernel, tap p % kernel), for the output-channel lanes [ob,
// ob + kLanes). Each chain sums g[o][t] * in[c][t + k] in t order from
// zero and is then added to weight_grad, as in the reference.
template <std::size_t N>
void weight_grad_chains(const float* in_row, const float* gt,
                        std::size_t o_pad, std::size_t ob,
                        const BackwardShape& s, std::size_t p,
                        float* weight_grad) noexcept {
  const float* src[N];
  for (std::size_t i = 0; i < N; ++i) {
    src[i] = in_row + ((p + i) / s.kernel) * s.in_length + (p + i) % s.kernel;
  }
  Lanes acc[N] = {};
  for (std::size_t t = 0; t < s.out_len; ++t) {
    Lanes g;
    load(g, gt + t * o_pad + ob);
    for (std::size_t i = 0; i < N; ++i) acc[i] += g * src[i][t];
  }
  const std::size_t lanes = std::min(kLanes, s.out_channels - ob);
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t l = 0; l < lanes; ++l) {
      weight_grad[(ob + l) * s.w_cols + p + i] += acc[i][l];
    }
  }
}

}  // namespace

void conv1d_backward_into(const float* in, const float* grad_out,
                          const float* weights, float* grad_in,
                          float* weight_grad, float* bias_grad,
                          std::size_t rows, std::size_t in_channels,
                          std::size_t in_length, std::size_t out_channels,
                          std::size_t kernel) {
  const BackwardShape s{in_channels, in_length, out_channels, kernel,
                        in_length - kernel + 1, in_channels * kernel};
  const std::size_t in_cols = in_channels * in_length;
  const std::size_t out_cols = out_channels * s.out_len;
  // Time-major copy of one row of grad_out, output channels padded to
  // whole lanes with zeros (the padding lanes' sums are discarded).
  const std::size_t o_pad = (out_channels + kLanes - 1) / kLanes * kLanes;
  std::vector<float> gt(s.out_len * o_pad, 0.0F);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* in_row = in + r * in_cols;
    const float* go_row = grad_out + r * out_cols;
    grad_input_row(go_row, weights, s, grad_in + r * in_cols);

    for (std::size_t o = 0; o < out_channels; ++o) {
      for (std::size_t t = 0; t < s.out_len; ++t) {
        gt[t * o_pad + o] = go_row[o * s.out_len + t];
      }
    }
    for (std::size_t ob = 0; ob < o_pad; ob += kLanes) {
      Lanes bias_acc = {};
      for (std::size_t t = 0; t < s.out_len; ++t) {
        Lanes g;
        load(g, gt.data() + t * o_pad + ob);
        bias_acc += g;
      }
      const std::size_t lanes = std::min(kLanes, out_channels - ob);
      for (std::size_t l = 0; l < lanes; ++l) bias_grad[ob + l] += bias_acc[l];

      // Eight chains in flight hide the add latency. The remainder (the
      // first layer's single channel has only `kernel` pairs) runs one
      // chain at a time.
      std::size_t p = 0;
      for (; p + 8 <= s.w_cols; p += 8) {
        weight_grad_chains<8>(in_row, gt.data(), o_pad, ob, s, p, weight_grad);
      }
      for (; p < s.w_cols; ++p) {
        weight_grad_chains<1>(in_row, gt.data(), o_pad, ob, s, p, weight_grad);
      }
    }
  }
}

math::Matrix Conv1d::infer(const math::Matrix& input) const {
  const std::size_t expected = in_channels_ * in_length_;
  if (input.cols() != expected) {
    throw std::invalid_argument("Conv1d::forward: input width " +
                                std::to_string(input.cols()) + " != " +
                                std::to_string(expected));
  }
  math::Matrix out(input.rows(), out_channels_ * out_length(), 0.0F);
  conv1d_infer_into(input.data().data(), out.data().data(),
                    weights_.data().data(), bias_.data().data(), input.rows(),
                    in_channels_, in_length_, out_channels_, kernel_);
  return out;
}

math::Matrix Conv1d::backward(const math::Matrix& grad_output) {
  if (grad_output.rows() != cached_input_.rows() ||
      grad_output.cols() != out_channels_ * out_length()) {
    throw std::invalid_argument("Conv1d::backward: gradient shape " +
                                grad_output.shape_string() +
                                " incompatible with cached batch");
  }
  math::Matrix grad_input(cached_input_.rows(), cached_input_.cols());
  conv1d_backward_into(cached_input_.data().data(),
                       grad_output.data().data(), weights_.data().data(),
                       grad_input.data().data(), weight_grad_.data().data(),
                       bias_grad_.data().data(), grad_output.rows(),
                       in_channels_, in_length_, out_channels_, kernel_);
  return grad_input;
}

void Conv1d::collect_parameters(std::vector<ParamRef>& out) {
  out.push_back(ParamRef{&weights_, &weight_grad_});
  out.push_back(ParamRef{&bias_, &bias_grad_});
}

void Conv1d::zero_gradients() {
  weight_grad_.fill(0.0F);
  bias_grad_.fill(0.0F);
}

std::size_t Conv1d::parameter_count() const {
  return weights_.size() + bias_.size();
}

std::string Conv1d::name() const {
  return "Conv1d(" + std::to_string(in_channels_) + "x" +
         std::to_string(in_length_) + "->" + std::to_string(out_channels_) +
         ", k=" + std::to_string(kernel_) + ")";
}

std::size_t Conv1d::output_dimension(std::size_t input_dim) const {
  if (input_dim != in_channels_ * in_length_) {
    throw std::invalid_argument("Conv1d: expected input width " +
                                std::to_string(in_channels_ * in_length_) +
                                ", got " + std::to_string(input_dim));
  }
  return out_channels_ * out_length();
}

}  // namespace soteria::nn
