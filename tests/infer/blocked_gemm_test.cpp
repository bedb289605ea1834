// Bitwise-identity contracts of the SIMD kernels: the GEMMs (matmul's
// register tile, the cache-blocked matmul_at / matmul_bt), the
// register-tiled conv1d kernel with and without its ReLU epilogue, and
// the branch-free window-2 max-pool must produce exactly the bytes of
// the preserved naive references, because every output runs the same
// operations in the same order. GEMM shapes cover every row and column
// remainder of the 2-row x 128-column tile and k past one 256-deep
// block, with A zero in whole tiles, whole rows and scattered entries;
// conv shapes cover every edge of the 4-channel x 96-position tiling,
// and signed zeros and infinities.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "math/matrix.h"
#include "math/rng.h"
#include "nn/activations.h"
#include "nn/conv1d.h"
#include "nn/layer.h"
#include "nn/pooling.h"
#include "oracles/conv1d_reference.h"
#include "oracles/matmul_reference.h"

namespace soteria::math {
namespace {

using oracles::matmul_at_reference;
using oracles::matmul_reference;

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng,
                     bool sprinkle_zeros = false) {
  Matrix m(rows, cols);
  m.fill_uniform(rng, -2.0F, 2.0F);
  if (sprinkle_zeros) {
    // Exact zeros exercise the all-zero row-tile skip.
    auto data = m.data();
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (rng.index(3) == 0) data[i] = 0.0F;
    }
  }
  return m;
}

void expect_bitwise_equal(const Matrix& a, const Matrix& b,
                          const char* label) {
  ASSERT_EQ(a.rows(), b.rows()) << label;
  ASSERT_EQ(a.cols(), b.cols()) << label;
  const auto da = a.data();
  const auto db = b.data();
  ASSERT_EQ(0, std::memcmp(da.data(), db.data(), da.size() * sizeof(float)))
      << label;
}

/// A post-ReLU activation: about half its entries exact zeros, signed
/// either way, the rest positive.
Matrix relu_sparse_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (float& x : m.data()) {
    const std::size_t pick = rng.index(4);
    x = pick == 0   ? -0.0F
        : pick == 1 ? 0.0F
                    : static_cast<float>(rng.uniform(0.0, 2.0));
  }
  return m;
}

TEST(BlockedGemmTest, MatmulMatchesReferenceBitwise) {
  Rng rng(51);
  // (m, k, n) shapes: degenerate, odd, row-tile tails, n below one
  // vector, and k > one 256-deep block.
  const std::size_t shapes[][3] = {{1, 1, 1},   {3, 5, 7},   {4, 4, 4},
                                   {17, 1, 9},  {5, 64, 3},  {33, 300, 5},
                                   {2, 257, 31}, {7, 512, 12}};
  for (const auto& s : shapes) {
    const Matrix a = random_matrix(s[0], s[1], rng, true);
    const Matrix b = random_matrix(s[1], s[2], rng, true);
    expect_bitwise_equal(matmul(a, b), matmul_reference(a, b), "matmul");
  }

  const auto expect_matches = [&](const Matrix& a, std::size_t n,
                                  const char* label) {
    const Matrix b = random_matrix(a.cols(), n, rng, true);
    SCOPED_TRACE(testing::Message() << label << ": m " << a.rows() << ", k "
                                    << a.cols() << ", n " << n);
    expect_bitwise_equal(matmul(a, b), matmul_reference(a, b), label);
  };

  // Every row count 1-9 (whole 2-row tiles and an odd last row) at the
  // column counts the nets run: the classifier's logits (4, below one
  // vector), its hidden layer (128, one whole tile) and the
  // autoencoder's 200/300/1000 (a tile plus a 1-7 vector tail whose
  // last vector overlaps), and every other column tail 16-145; A's
  // zeros sit at different positions in each row.
  for (std::size_t m = 1; m <= 9; ++m) {
    for (const std::size_t n : {4U, 128U, 200U, 300U, 1000U}) {
      expect_matches(relu_sparse_matrix(m, 37, rng), n, "sparse rows");
      if (HasFatalFailure()) return;
    }
  }
  for (std::size_t n = 16; n <= 145; ++n) {
    expect_matches(relu_sparse_matrix(3, 9, rng), n, "column tails");
    if (HasFatalFailure()) return;
  }

  // All-zero rows, alone and filling whole tiles: rows 0-1 (a whole
  // tile), row 4 (beside a nonzero row 5) and the odd last row 8.
  for (const std::size_t n : {4U, 200U}) {
    Matrix a = random_matrix(9, 40, rng);
    for (const std::size_t zero_row : {0U, 1U, 4U, 8U}) {
      for (float& x : a.row(zero_row)) x = 0.0F;
    }
    expect_matches(a, n, "zero rows");
    if (HasFatalFailure()) return;
  }

  // One zero row inside a tile whose other row has no zero: every k of
  // the tile runs, adding that row's zero products.
  for (const std::size_t n : {128U, 300U}) {
    Matrix a = random_matrix(6, 70, rng);
    for (float& x : a.row(3)) x = -0.0F;
    expect_matches(a, n, "zero row in a nonzero tile");
    if (HasFatalFailure()) return;
  }

  // The classifier's hidden layer on one walk set, post-ReLU input.
  expect_matches(relu_sparse_matrix(10, 1952, rng), 128, "product shape");
}

TEST(BlockedGemmTest, MatmulAtMatchesReferenceBitwise) {
  Rng rng(52);
  const std::size_t shapes[][3] = {{1, 1, 1},  {5, 3, 7},   {4, 17, 4},
                                   {64, 5, 3}, {300, 9, 33}, {257, 2, 31}};
  for (const auto& s : shapes) {
    // a is k x m (transposed-A product), b is k x n.
    const Matrix a = random_matrix(s[0], s[1], rng, true);
    const Matrix b = random_matrix(s[0], s[2], rng, true);
    expect_bitwise_equal(matmul_at(a, b), matmul_at_reference(a, b),
                         "matmul_at");
  }
}

TEST(BlockedGemmTest, MatmulBtMatchesReferenceBitwise) {
  // matmul_bt transposes B a 256 x 64 panel at a time; shapes straddle
  // both panel edges (k > 256, n > 64), the row unroll and Dense's
  // backward shape (64 rows, 128 -> 1952).
  Rng rng(53);
  const std::size_t shapes[][3] = {{1, 1, 1},    {3, 5, 7},     {4, 4, 65},
                                   {17, 1, 9},   {5, 257, 3},   {6, 300, 130},
                                   {64, 128, 1952}};
  for (const auto& s : shapes) {
    // a is m x k, b is n x k.
    const Matrix a = random_matrix(s[0], s[1], rng, true);
    const Matrix b = random_matrix(s[2], s[1], rng, true);
    expect_bitwise_equal(matmul_bt(a, b),
                         matmul_reference(a, b.transposed()), "matmul_bt");
  }
}

TEST(BlockedGemmTest, ZeroMatricesStayPositiveZero) {
  // The all-zero tile skip must be invisible: accumulators start at
  // +0.0f either way and finite-input sums never produce -0.0f.
  const Matrix a(3, 8, 0.0F);
  const Matrix b(8, 5, 0.0F);
  const Matrix blocked = matmul(a, b);
  const Matrix reference = matmul_reference(a, b);
  expect_bitwise_equal(blocked, reference, "zero product");
  for (const float x : blocked.data()) {
    EXPECT_FALSE(std::signbit(x));
  }
}

struct ConvShape {
  std::size_t rows, in_channels, in_length, out_channels, kernel;
};

// Runs the kernel and the oracle on the same buffers and compares every
// output byte.
void expect_conv_matches_reference(const ConvShape& s,
                                   const std::vector<float>& in,
                                   const std::vector<float>& weights,
                                   const std::vector<float>& bias) {
  const std::size_t out_len = s.in_length - s.kernel + 1;
  std::vector<float> fast(s.rows * s.out_channels * out_len, -1.0F);
  std::vector<float> oracle(fast.size(), -2.0F);
  nn::conv1d_infer_into(in.data(), fast.data(), weights.data(), bias.data(),
                        s.rows, s.in_channels, s.in_length, s.out_channels,
                        s.kernel, /*relu=*/false);
  oracles::conv1d_infer_reference_into(in.data(), oracle.data(),
                                       weights.data(), bias.data(), s.rows,
                                       s.in_channels, s.in_length,
                                       s.out_channels, s.kernel);
  ASSERT_EQ(0, std::memcmp(fast.data(), oracle.data(),
                           fast.size() * sizeof(float)))
      << "rows " << s.rows << ", in " << s.in_channels << "x" << s.in_length
      << ", out " << s.out_channels << ", kernel " << s.kernel;
}

// With exact-zero taps a group of output channels skips them one by
// one; without any (as in a trained net) it runs branch-free.
void expect_random_conv_matches_reference(const ConvShape& s, Rng& rng,
                                          bool zero_taps) {
  const Matrix in = random_matrix(s.rows, s.in_channels * s.in_length, rng);
  const Matrix weights =
      random_matrix(s.out_channels, s.in_channels * s.kernel, rng, zero_taps);
  const Matrix bias = random_matrix(1, s.out_channels, rng);
  const auto copy = [](const Matrix& m) {
    return std::vector<float>(m.data().begin(), m.data().end());
  };
  expect_conv_matches_reference(s, copy(in), copy(weights), copy(bias));
}

TEST(DirectConv1dTest, MatchesReferenceBitwise) {
  Rng rng(53);
  // The shape grid of Conv1dBackwardTest: output channels 16, 17, 5 and
  // 46 (whole 4-channel tiles and 1-3 left over), kernels 1..5, lengths
  // with a single output position and with 21 and 147 interior ones;
  // each channel count with and without zero taps.
  const std::size_t grid_out_channels[] = {16, 17, 5, 46};
  std::size_t next = 0;
  for (const std::size_t in_channels : {1U, 2U, 16U, 46U, 47U}) {
    for (const std::size_t kernel : {1U, 2U, 3U, 5U}) {
      for (const std::size_t rows : {1U, 3U, 64U}) {
        for (const std::size_t interior : {0U, 21U, 147U}) {
          if (rows == 64 && interior == 21) continue;
          const std::size_t length =
              interior == 0 ? kernel : interior + 2 * (kernel - 1);
          const bool zero_taps = next / 4 % 2 == 0;
          expect_random_conv_matches_reference(
              {rows, in_channels, length, grid_out_channels[next++ % 4],
               kernel},
              rng, zero_taps);
          if (HasFatalFailure()) return;
        }
      }
    }
  }

  // The product CNN's four convolutions (16 filters, kernel 3) at one
  // row and at one walk set's ten.
  for (const std::size_t rows : {1U, 10U}) {
    for (const auto& [in_channels, in_length] :
         {std::pair<std::size_t, std::size_t>{1, 500},
          {16, 498},
          {16, 248},
          {16, 246}}) {
      for (const bool zero_taps : {false, true}) {
        expect_random_conv_matches_reference(
            {rows, in_channels, in_length, 16, 3}, rng, zero_taps);
        if (HasFatalFailure()) return;
      }
    }
  }

  // Output lengths below one 16-wide vector (per-element path), and
  // lengths leaving every remainder 0-15 mod 16 after one and three
  // single vectors, after a full 96-wide tile plus a vector, and after
  // two full tiles. Output-channel counts 1..9 cover 4-channel tiles
  // with 0-3 channels left over.
  std::size_t out_channels = 1;
  const auto next_out_channels = [&] {
    out_channels = out_channels % 9 + 1;
    return out_channels;
  };
  for (std::size_t out_len = 1; out_len < 16; ++out_len) {
    for (const std::size_t kernel : {1U, 3U}) {
      expect_random_conv_matches_reference(
          {2, 3, out_len + kernel - 1, next_out_channels(), kernel}, rng,
          kernel == 1);
      if (HasFatalFailure()) return;
    }
  }
  for (std::size_t rem = 0; rem < 16; ++rem) {
    for (const std::size_t base : {16U, 48U, 112U, 192U}) {
      for (const std::size_t kernel : {1U, 3U}) {
        for (const bool zero_taps : {false, true}) {
          expect_random_conv_matches_reference(
              {2, 2, base + rem + kernel - 1, next_out_channels(), kernel},
              rng, zero_taps);
          if (HasFatalFailure()) return;
        }
      }
    }
  }

  // Signed zeros and infinities: a -0.0f bias must come out as -0.0f
  // where nothing is added to it (an all-zero filter, or only zero
  // taps), +/-0 inputs flip the sign of zero sums, and +/-inf inputs
  // are never multiplied by a skipped zero tap (which would give NaN).
  // Without zero taps every group runs branch-free, from the same
  // -0.0f biases.
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {0.0F, -0.0F, inf, -inf};
  for (const std::size_t out_len : {5U, 16U, 37U, 131U}) {
    for (const bool zero_taps : {true, false}) {
      const ConvShape s{3, 4, out_len + 2, 7, 3};
      std::vector<float> in(s.rows * s.in_channels * s.in_length);
      for (float& x : in) {
        // Mostly signed zeros, so many sums stay exactly zero.
        const std::size_t pick = rng.index(12);
        x = pick < 8 ? specials[pick % 2]
            : pick < 9 ? specials[2 + rng.index(2)]
                       : static_cast<float>(rng.uniform(-2.0, 2.0));
      }
      std::vector<float> weights(s.out_channels * s.in_channels * s.kernel);
      for (std::size_t o = 0; o < s.out_channels; ++o) {
        for (std::size_t j = 0; j < s.in_channels * s.kernel; ++j) {
          float& w = weights[o * s.in_channels * s.kernel + j];
          const bool zero_channel = j / s.kernel == 2;  // input channel 2
          const bool zero_filter = o == 3;  // bias -0.0f
          if (zero_taps &&
              (zero_channel || zero_filter || rng.index(3) == 0)) {
            w = rng.index(2) == 0 ? 0.0F : -0.0F;
          } else {
            w = static_cast<float>(rng.uniform(-2.0, 2.0));
          }
        }
      }
      std::vector<float> bias(s.out_channels);
      for (std::size_t o = 0; o < s.out_channels; ++o) {
        bias[o] = o % 3 == 0 ? -0.0F
                  : o % 3 == 1 ? 0.0F
                               : static_cast<float>(rng.uniform(-2.0, 2.0));
      }
      expect_conv_matches_reference(s, in, weights, bias);
      if (HasFatalFailure()) return;
    }
  }
}

// Runs the kernel with its ReLU epilogue and, on a second buffer,
// without it and then Relu::infer_into in place; compares every byte.
void expect_relu_epilogue_matches(const ConvShape& s,
                                  const std::vector<float>& in,
                                  const std::vector<float>& weights,
                                  const std::vector<float>& bias) {
  const std::size_t out_cols = s.out_channels * (s.in_length - s.kernel + 1);
  std::vector<float> fused(s.rows * out_cols, -1.0F);
  std::vector<float> chain(fused.size(), -2.0F);
  nn::conv1d_infer_into(in.data(), fused.data(), weights.data(), bias.data(),
                        s.rows, s.in_channels, s.in_length, s.out_channels,
                        s.kernel, /*relu=*/true);
  nn::conv1d_infer_into(in.data(), chain.data(), weights.data(), bias.data(),
                        s.rows, s.in_channels, s.in_length, s.out_channels,
                        s.kernel, /*relu=*/false);
  nn::Relu().infer_into(chain.data(), s.rows, out_cols, chain.data());
  ASSERT_EQ(0, std::memcmp(fused.data(), chain.data(),
                           fused.size() * sizeof(float)))
      << "rows " << s.rows << ", in " << s.in_channels << "x" << s.in_length
      << ", out " << s.out_channels << ", kernel " << s.kernel;
}

TEST(DirectConv1dTest, ReluEpilogueMatchesConvThenRelu) {
  Rng rng(54);
  // Outputs below one vector (the per-element path), one vector, and
  // tiles plus an overlapping vector, with and without zero taps:
  // -0.0f biases (and an all-zero filter, whose outputs are its bias)
  // must store +0.0f, NaN and +/-inf inputs give NaN and +/-inf sums
  // (NaN stores +0.0f, +inf itself, -inf +0.0f).
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {0.0F, -0.0F, inf, -inf, nan};
  for (const std::size_t out_len : {5U, 16U, 37U, 131U}) {
    for (const bool zero_taps : {true, false}) {
      const ConvShape s{3, 4, out_len + 2, 7, 3};
      std::vector<float> in(s.rows * s.in_channels * s.in_length);
      for (float& x : in) {
        const std::size_t pick = rng.index(16);
        x = pick < 5 ? specials[pick]
                     : static_cast<float>(rng.uniform(-2.0, 2.0));
      }
      std::vector<float> weights(s.out_channels * s.in_channels * s.kernel);
      for (std::size_t o = 0; o < s.out_channels; ++o) {
        for (std::size_t j = 0; j < s.in_channels * s.kernel; ++j) {
          float& w = weights[o * s.in_channels * s.kernel + j];
          if (zero_taps && (o == 3 || rng.index(3) == 0)) {
            w = rng.index(2) == 0 ? 0.0F : -0.0F;
          } else {
            w = static_cast<float>(rng.uniform(-2.0, 2.0));
          }
        }
      }
      std::vector<float> bias(s.out_channels);
      for (std::size_t o = 0; o < s.out_channels; ++o) {
        bias[o] = o % 3 == 0 ? -0.0F
                  : o % 3 == 1 ? 0.0F
                               : static_cast<float>(rng.uniform(-2.0, 2.0));
      }
      expect_relu_epilogue_matches(s, in, weights, bias);
      if (HasFatalFailure()) return;
    }
  }

  // The product CNN's four convolutions at one walk set's ten rows,
  // about half their sums negative.
  const auto copy = [](const Matrix& m) {
    return std::vector<float>(m.data().begin(), m.data().end());
  };
  for (const auto& [in_channels, in_length] :
       {std::pair<std::size_t, std::size_t>{1, 500},
        {16, 498},
        {16, 248},
        {16, 246}}) {
    const ConvShape s{10, in_channels, in_length, 16, 3};
    expect_relu_epilogue_matches(
        s, copy(random_matrix(s.rows, in_channels * in_length, rng)),
        copy(random_matrix(16, in_channels * 3, rng)),
        copy(random_matrix(1, 16, rng)));
    if (HasFatalFailure()) return;
  }
}

/// The window loop MaxPool1d's contract states: each window's max
/// seeded with its first element and replaced only by a strictly
/// greater one, with that element's index in the channel as the argmax.
void max_pool_reference(const std::vector<float>& in, std::size_t rows,
                        std::size_t channels, std::size_t in_length,
                        std::size_t window, std::vector<float>& out,
                        std::vector<std::uint32_t>& argmax) {
  const std::size_t out_len = in_length / window;
  out.assign(rows * channels * out_len, 0.0F);
  argmax.assign(out.size(), 0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < channels; ++c) {
      const float* chan = in.data() + (r * channels + c) * in_length;
      for (std::size_t t = 0; t < out_len; ++t) {
        std::size_t best = t * window;
        for (std::size_t k = 1; k < window; ++k) {
          if (chan[t * window + k] > chan[best]) best = t * window + k;
        }
        out[(r * channels + c) * out_len + t] = chan[best];
        argmax[(r * channels + c) * out_len + t] =
            static_cast<std::uint32_t>(best);
      }
    }
  }
}

TEST(MaxPoolKernelTest, MatchesScalarLoopBitwise) {
  // Inference and training forward (its argmax too) against the loop,
  // at window 2 (the select) and 3 (the loop), with even and odd
  // lengths (a dropped tail) and the product's 16x496 and 16x244. Most
  // inputs are drawn from a few specials, so windows hold NaN first or
  // second, +/-inf, +0/-0 ties and equal values.
  Rng rng(56);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {0.0F, -0.0F, inf, -inf, nan, 1.0F, -1.0F};
  const std::size_t shapes[][2] = {{1, 2}, {3, 7}, {16, 496}, {16, 244}};
  for (const std::size_t window : {2U, 3U}) {
    for (const auto& [channels, in_length] : shapes) {
      if (window > in_length) continue;
      constexpr std::size_t kRows = 3;
      const std::size_t width = channels * in_length;
      std::vector<float> in(kRows * width);
      for (float& x : in) {
        const std::size_t pick = rng.index(10);
        x = pick < 7 ? specials[pick]
                     : static_cast<float>(rng.uniform(-2.0, 2.0));
      }
      std::vector<float> want;
      std::vector<std::uint32_t> want_argmax;
      max_pool_reference(in, kRows, channels, in_length, window, want,
                         want_argmax);

      nn::MaxPool1d pool(channels, in_length, window);
      std::vector<float> got(want.size(), -3.0F);
      pool.infer_into(in.data(), kRows, width, got.data());
      nn::TrainState state;
      pool.reserve_training(kRows, width, state);
      std::vector<float> trained(want.size(), -4.0F);
      pool.train_forward(in.data(), kRows, width, trained.data(), state);

      SCOPED_TRACE(testing::Message() << "window " << window << ", "
                                      << channels << "x" << in_length);
      ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                               want.size() * sizeof(float)));
      ASSERT_EQ(0, std::memcmp(trained.data(), want.data(),
                               want.size() * sizeof(float)));
      ASSERT_TRUE(std::equal(want_argmax.begin(), want_argmax.end(),
                             state.argmax.begin()));
    }
  }
}

}  // namespace
}  // namespace soteria::math
