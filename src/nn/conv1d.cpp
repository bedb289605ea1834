#include "nn/conv1d.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "math/lanes.h"
#include "soteria/error.h"

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
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "Conv1d: zero dimension");
  }
  if (kernel > in_length) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "Conv1d: kernel " + std::to_string(kernel) +
                      " exceeds input length " +
                      std::to_string(in_length));
  }
  const float limit =
      std::sqrt(6.0F / static_cast<float>(in_channels * kernel));
  weights_.fill_uniform(rng, -limit, limit);
}

namespace {

using math::simd::kLanes;
using math::simd::Lanes;
using math::simd::load;
using math::simd::splat;
using math::simd::store;

struct ForwardShape {
  std::size_t in_channels;
  std::size_t in_length;
  std::size_t kernel;
  std::size_t out_len;  // in_length - kernel + 1
  std::size_t w_cols;   // in_channels * kernel
};

// Output channels [o, o + O) at the N*kLanes positions from t, held in
// O*N vector accumulators across every (channel, tap) pair and stored
// once. Per output element: bias, then channels ascending, then taps
// ascending, skipping zero taps -- the reference's order. kAllNonzero
// (no weight of the O channels is zero, as in any trained net) drops
// the per-tap zero tests, so every pair runs branch-free. kRelu stores
// `v > 0 ? v : 0` per lane in place of each sum v: Relu's kernel, run
// on the registers.
template <std::size_t O, std::size_t N, bool kAllNonzero, bool kRelu>
void forward_tile(const float* in_row, const float* weights,
                  const float* bias, const ForwardShape& s, std::size_t o,
                  std::size_t t, float* out_row) noexcept {
  Lanes acc[O][N];
  for (std::size_t i = 0; i < O; ++i) {
    Lanes b;
    splat(b, bias[o + i]);
    for (std::size_t v = 0; v < N; ++v) acc[i][v] = b;
  }
  for (std::size_t c = 0; c < s.in_channels; ++c) {
    const float* in_chan = in_row + c * s.in_length + t;
    const float* wc = weights + o * s.w_cols + c * s.kernel;
    for (std::size_t k = 0; k < s.kernel; ++k) {
      const float* shifted = in_chan + k;
      if constexpr (kAllNonzero) {
        for (std::size_t v = 0; v < N; ++v) {
          Lanes x;
          load(x, shifted + v * kLanes);
          for (std::size_t i = 0; i < O; ++i) {
            acc[i][v] += x * wc[i * s.w_cols + k];
          }
        }
      } else {
        for (std::size_t i = 0; i < O; ++i) {
          const float w = wc[i * s.w_cols + k];
          if (w == 0.0F) continue;
          for (std::size_t v = 0; v < N; ++v) {
            Lanes x;
            load(x, shifted + v * kLanes);
            acc[i][v] += x * w;
          }
        }
      }
    }
  }
  for (std::size_t i = 0; i < O; ++i) {
    float* out_chan = out_row + (o + i) * s.out_len + t;
    for (std::size_t v = 0; v < N; ++v) {
      if constexpr (kRelu) {
        const Lanes zero = {};
        acc[i][v] = acc[i][v] > zero ? acc[i][v] : zero;
      }
      store(out_chan + v * kLanes, acc[i][v]);
    }
  }
}

// Every position of output channels [o, o + O) of one row, out_len >=
// kLanes: full 6-vector tiles, then single vectors, then one vector
// that ends at out_len and overlaps the previous one (its recomputed
// elements come out with the same bits).
template <std::size_t O, bool kAllNonzero, bool kRelu>
void forward_positions(const float* in_row, const float* weights,
                       const float* bias, const ForwardShape& s,
                       std::size_t o, float* out_row) noexcept {
  constexpr std::size_t kTile = 6;
  std::size_t t = 0;
  for (; t + kTile * kLanes <= s.out_len; t += kTile * kLanes) {
    forward_tile<O, kTile, kAllNonzero, kRelu>(in_row, weights, bias, s, o,
                                               t, out_row);
  }
  for (; t + kLanes <= s.out_len; t += kLanes) {
    forward_tile<O, 1, kAllNonzero, kRelu>(in_row, weights, bias, s, o, t,
                                           out_row);
  }
  if (t < s.out_len) {
    forward_tile<O, 1, kAllNonzero, kRelu>(in_row, weights, bias, s, o,
                                           s.out_len - kLanes, out_row);
  }
}

// Output channels [o, o + O) of one row. Rows shorter than one vector
// run per element in the same order, the ReLU included.
template <std::size_t O, bool kRelu>
void forward_channels(const float* in_row, const float* weights,
                      const float* bias, const ForwardShape& s,
                      std::size_t o, float* out_row) noexcept {
  if (s.out_len < kLanes) {
    for (std::size_t i = o; i < o + O; ++i) {
      const float* w = weights + i * s.w_cols;
      for (std::size_t t = 0; t < s.out_len; ++t) {
        float acc = bias[i];
        for (std::size_t c = 0; c < s.in_channels; ++c) {
          const float* shifted = in_row + c * s.in_length + t;
          for (std::size_t k = 0; k < s.kernel; ++k) {
            const float wk = w[c * s.kernel + k];
            if (wk != 0.0F) acc += wk * shifted[k];
          }
        }
        if constexpr (kRelu) acc = acc > 0.0F ? acc : 0.0F;
        out_row[i * s.out_len + t] = acc;
      }
    }
    return;
  }
  const float* w = weights + o * s.w_cols;
  if (std::all_of(w, w + O * s.w_cols, [](float x) { return x != 0.0F; })) {
    forward_positions<O, true, kRelu>(in_row, weights, bias, s, o, out_row);
  } else {
    forward_positions<O, false, kRelu>(in_row, weights, bias, s, o, out_row);
  }
}

template <bool kRelu>
void forward_rows(const float* in, float* out, const float* weights,
                  const float* bias, std::size_t rows,
                  std::size_t out_channels, const ForwardShape& s) noexcept {
  const std::size_t in_cols = s.in_channels * s.in_length;
  const std::size_t out_cols = out_channels * s.out_len;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* in_row = in + r * in_cols;
    float* out_row = out + r * out_cols;
    std::size_t o = 0;
    for (; o + 4 <= out_channels; o += 4) {
      forward_channels<4, kRelu>(in_row, weights, bias, s, o, out_row);
    }
    for (; o < out_channels; ++o) {
      forward_channels<1, kRelu>(in_row, weights, bias, s, o, out_row);
    }
  }
}

}  // namespace

void conv1d_infer_into(const float* in, float* out, const float* weights,
                       const float* bias, std::size_t rows,
                       std::size_t in_channels, std::size_t in_length,
                       std::size_t out_channels, std::size_t kernel,
                       bool relu) noexcept {
  const ForwardShape s{in_channels, in_length, kernel,
                       in_length - kernel + 1, in_channels * kernel};
  if (relu) {
    forward_rows<true>(in, out, weights, bias, rows, out_channels, s);
  } else {
    forward_rows<false>(in, out, weights, bias, rows, out_channels, s);
  }
}

namespace {

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
// Used for inputs shorter than one vector.
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

// Input channels [c, c + C) at N*kLanes consecutive interior positions
// from j (every tap in range): C*N vector accumulators, the same (o, k)
// order as grad_input_scalar. Each grad_out load feeds all C channels,
// as an input load feeds 4 output channels in forward_tile.
template <std::size_t C, std::size_t N>
void grad_input_tile(const float* go_row, const float* weights,
                     const BackwardShape& s, std::size_t c, std::size_t j,
                     float* gi_row) noexcept {
  Lanes acc[C][N] = {};
  for (std::size_t o = 0; o < s.out_channels; ++o) {
    const float* go = go_row + o * s.out_len + j;
    const float* wc = weights + o * s.w_cols + c * s.kernel;
    for (std::size_t k = 0; k < s.kernel; ++k) {
      for (std::size_t v = 0; v < N; ++v) {
        Lanes g;
        load(g, go - k + v * kLanes);
        for (std::size_t i = 0; i < C; ++i) {
          acc[i][v] += g * wc[i * s.kernel + k];
        }
      }
    }
  }
  for (std::size_t i = 0; i < C; ++i) {
    float* gi_chan = gi_row + (c + i) * s.in_length + j;
    for (std::size_t v = 0; v < N; ++v) store(gi_chan + v * kLanes, acc[i][v]);
  }
}

// Input channels [c, c + C) at the kLanes positions from j, where some
// taps may fall outside the output: per lane, a tap whose gradient
// position j + l - k is outside [0, out_len) leaves the sum as it was,
// as grad_input_scalar skips it; the other taps add in its (o, k)
// order. Reads up to kernel-1 floats beyond either end of a channel's
// gradient row, which the staged row pads.
template <std::size_t C>
void grad_input_edge(const float* go_row, const float* weights,
                     const BackwardShape& s, std::size_t c, std::size_t j,
                     float* gi_row) noexcept {
  Lanes lane;
  for (std::size_t l = 0; l < kLanes; ++l) lane[l] = static_cast<float>(l);
  const auto out_len = static_cast<float>(s.out_len);
  Lanes acc[C] = {};
  for (std::size_t o = 0; o < s.out_channels; ++o) {
    const float* go = go_row + o * s.out_len + j;
    const float* wc = weights + o * s.w_cols + c * s.kernel;
    for (std::size_t k = 0; k < s.kernel; ++k) {
      const Lanes t =
          lane + (static_cast<float>(j) - static_cast<float>(k));
      const auto inside = (t >= 0.0F) & (t < out_len);
      Lanes g;
      load(g, go - k);
      for (std::size_t i = 0; i < C; ++i) {
        const Lanes sum = acc[i] + g * wc[i * s.kernel + k];
        acc[i] = inside ? sum : acc[i];
      }
    }
  }
  for (std::size_t i = 0; i < C; ++i) {
    store(gi_row + (c + i) * s.in_length + j, acc[i]);
  }
}

// Input channels [c, c + C) of one row. Positions before kernel-1 and
// from out_len on miss a tap; they run in edge vectors, the last one
// ending at in_length (recomputed positions come out with the same
// bits). The interior between them runs in N-vector tiles, then single
// vectors. Inputs shorter than one vector run per element.
template <std::size_t C, std::size_t N>
void grad_input_channels(const float* go_row, const float* weights,
                         const BackwardShape& s, std::size_t c,
                         float* gi_row) noexcept {
  if (s.in_length < kLanes) {
    for (std::size_t i = c; i < c + C; ++i) {
      for (std::size_t j = 0; j < s.in_length; ++j) {
        gi_row[i * s.in_length + j] =
            grad_input_scalar(go_row, weights, s, i, j);
      }
    }
    return;
  }
  // Runs an edge vector from j (pulled back to end at in_length);
  // returns the end of what it covered.
  const auto edge = [&](std::size_t j) {
    const std::size_t at = std::min(j, s.in_length - kLanes);
    grad_input_edge<C>(go_row, weights, s, c, at, gi_row);
    return at + kLanes;
  };
  std::size_t j = 0;
  while (j < s.kernel - 1) j = edge(j);
  for (; j + N * kLanes <= s.out_len; j += N * kLanes) {
    grad_input_tile<C, N>(go_row, weights, s, c, j, gi_row);
  }
  for (; j + kLanes <= s.out_len; j += kLanes) {
    grad_input_tile<C, 1>(go_row, weights, s, c, j, gi_row);
  }
  while (j < s.in_length) j = edge(j);
}

void grad_input_row(const float* go_row, const float* weights,
                    const BackwardShape& s, float* gi_row) noexcept {
  std::size_t c = 0;
  for (; c + 4 <= s.in_channels; c += 4) {
    grad_input_channels<4, 6>(go_row, weights, s, c, gi_row);
  }
  for (; c < s.in_channels; ++c) {
    grad_input_channels<1, 8>(go_row, weights, s, c, gi_row);
  }
}

// N weight-gradient chains, pairs p .. p+N-1 (pair p = channel
// p / kernel, tap p % kernel), for the output-channel lanes [ob,
// ob + kLanes), and with kBias the bias chain beside them. Each chain
// sums its terms (g[o][t] * in[c][t + k], or g[o][t]) in t order from
// zero and is then added to its accumulator, as in the reference.
template <std::size_t N, bool kBias>
void weight_grad_chains(const float* in_row, const float* gt,
                        std::size_t o_pad, std::size_t ob,
                        const BackwardShape& s, std::size_t p,
                        float* weight_grad, float* bias_grad) noexcept {
  const float* src[N];
  for (std::size_t i = 0; i < N; ++i) {
    src[i] = in_row + ((p + i) / s.kernel) * s.in_length + (p + i) % s.kernel;
  }
  Lanes acc[N] = {};
  Lanes bias_acc = {};
  for (std::size_t t = 0; t < s.out_len; ++t) {
    Lanes g;
    load(g, gt + t * o_pad + ob);
    if constexpr (kBias) bias_acc += g;
    for (std::size_t i = 0; i < N; ++i) acc[i] += g * src[i][t];
  }
  const std::size_t lanes = std::min(kLanes, s.out_channels - ob);
  if constexpr (kBias) {
    for (std::size_t l = 0; l < lanes; ++l) bias_grad[ob + l] += bias_acc[l];
  }
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t l = 0; l < lanes; ++l) {
      weight_grad[(ob + l) * s.w_cols + p + i] += acc[i][l];
    }
  }
}

// weight_grad_chains for `count` (1..8) pairs from p.
template <bool kBias, std::size_t N = 8>
void weight_grad_group(std::size_t count, const float* in_row,
                       const float* gt, std::size_t o_pad, std::size_t ob,
                       const BackwardShape& s, std::size_t p,
                       float* weight_grad, float* bias_grad) noexcept {
  if constexpr (N > 1) {
    if (count < N) {
      weight_grad_group<kBias, N - 1>(count, in_row, gt, o_pad, ob, s, p,
                                      weight_grad, bias_grad);
      return;
    }
  }
  weight_grad_chains<N, kBias>(in_row, gt, o_pad, ob, s, p, weight_grad,
                               bias_grad);
}

}  // namespace

void conv1d_backward_into(const float* in, const float* grad_out,
                          const float* weights, float* grad_in,
                          float* weight_grad, float* bias_grad,
                          std::size_t rows, std::size_t in_channels,
                          std::size_t in_length, std::size_t out_channels,
                          std::size_t kernel, const float* relu_out) {
  const BackwardShape s{in_channels, in_length, out_channels, kernel,
                        in_length - kernel + 1, in_channels * kernel};
  const std::size_t in_cols = in_channels * in_length;
  const std::size_t out_cols = out_channels * s.out_len;
  // One row's gradient, gated by `relu_out` when given, with kernel-1
  // floats either side for the edge vectors' reads; and its time-major
  // copy, output channels padded to whole lanes with zeros (the padding
  // lanes' sums are discarded).
  const std::size_t pad = kernel - 1;
  std::vector<float> staged(pad + out_cols + pad, 0.0F);
  float* g_row = staged.data() + pad;
  const std::size_t o_pad = (out_channels + kLanes - 1) / kLanes * kLanes;
  std::vector<float> gt(s.out_len * o_pad, 0.0F);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* in_row = in + r * in_cols;
    const float* go_row = grad_out + r * out_cols;
    if (relu_out != nullptr) {
      const float* out_row = relu_out + r * out_cols;
      for (std::size_t i = 0; i < out_cols; ++i) {
        g_row[i] = out_row[i] > 0.0F ? go_row[i] : 0.0F;
      }
    } else {
      std::copy(go_row, go_row + out_cols, g_row);
    }
    grad_input_row(g_row, weights, s, grad_in + r * in_cols);
    math::simd::transpose_into(g_row, s.out_len, gt.data(), o_pad,
                               out_channels, s.out_len);

    // Up to eight chains in flight hide the add latency; the bias
    // chain runs with the first group.
    for (std::size_t ob = 0; ob < o_pad; ob += kLanes) {
      for (std::size_t p = 0; p < s.w_cols; p += 8) {
        const std::size_t count = std::min<std::size_t>(8, s.w_cols - p);
        if (p == 0) {
          weight_grad_group<true>(count, in_row, gt.data(), o_pad, ob, s, p,
                                  weight_grad, bias_grad);
        } else {
          weight_grad_group<false>(count, in_row, gt.data(), o_pad, ob, s, p,
                                   weight_grad, bias_grad);
        }
      }
    }
  }
}

void Conv1d::infer_into(const float* in, std::size_t rows,
                        std::size_t /*width*/, float* out) const {
  conv1d_infer_into(in, out, weights_.data().data(), bias_.data().data(),
                    rows, in_channels_, in_length_, out_channels_, kernel_,
                    /*relu=*/false);
}

void Conv1d::infer_relu_into(const float* in, std::size_t rows,
                             float* out) const {
  conv1d_infer_into(in, out, weights_.data().data(), bias_.data().data(),
                    rows, in_channels_, in_length_, out_channels_, kernel_,
                    /*relu=*/true);
}

void Conv1d::train_backward(const float* in, const float* /*out*/,
                            const float* grad_out, std::size_t rows,
                            std::size_t /*width*/, float* grad_in,
                            TrainState& /*state*/) {
  conv1d_backward_into(in, grad_out, weights_.data().data(), grad_in,
                       weight_grad_.data().data(), bias_grad_.data().data(),
                       rows, in_channels_, in_length_, out_channels_, kernel_);
}

void Conv1d::train_backward_relu(const float* in, const float* out,
                                 const float* grad_out, std::size_t rows,
                                 float* grad_in) {
  conv1d_backward_into(in, grad_out, weights_.data().data(), grad_in,
                       weight_grad_.data().data(), bias_grad_.data().data(),
                       rows, in_channels_, in_length_, out_channels_, kernel_,
                       out);
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
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "Conv1d: expected input width " +
                      std::to_string(in_channels_ * in_length_) +
                      ", got " + std::to_string(input_dim));
  }
  return out_channels_ * out_length();
}

}  // namespace soteria::nn
