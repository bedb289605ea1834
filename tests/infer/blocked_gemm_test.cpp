// Bitwise-identity contracts of the SIMD kernels: the GEMMs (matmul's
// register tile, which the backward kernels matmul_at_into and
// matmul_bt_into run too), the register-tiled conv1d kernel with and
// without its ReLU epilogue, and the branch-free window-2 max-pool must
// produce exactly the bytes of the preserved naive references, because
// every output runs the same operations in the same order. GEMM shapes
// cover every row and column remainder of the 2-row x 128-column tile
// and k past matmul_bt_into's 256-deep panel, with A zero in whole
// tiles, whole rows and scattered entries; conv shapes cover every edge
// of the 4-channel x 96-position tiling, and signed zeros and
// infinities, and the backward conv's masked edge vectors.
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

/// `c` plus A^T * B through matmul_at_into (`a` is k x m, `b` k x n).
Matrix at_into(const Matrix& a, const Matrix& b, Matrix c) {
  matmul_at_into(a.data().data(), b.data().data(), c.data().data(),
                 a.cols(), a.rows(), b.cols());
  return c;
}

/// A * B^T through matmul_bt_into (`a` is m x k, `b` n x k), over a
/// result full of garbage it must overwrite.
Matrix bt_into(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows(), -7.0F);
  matmul_bt_into(a.data().data(), b.data().data(), c.data().data(),
                 a.rows(), a.cols(), b.rows());
  return c;
}

/// Two accumulating matmul_at_into calls from a nonzero `c`, each
/// against `c` plus the k-i-j oracle's product; `a` and `a2` are k x m.
void expect_at_accumulates(const Matrix& a, const Matrix& a2, std::size_t n,
                           Rng& rng, const char* label) {
  SCOPED_TRACE(testing::Message() << label << ": m " << a.cols() << ", k "
                                  << a.rows() << ", n " << n);
  Matrix want = random_matrix(a.cols(), n, rng);
  Matrix got = want;
  for (const Matrix* lhs : {&a, &a2}) {
    const Matrix b = random_matrix(lhs->rows(), n, rng, true);
    got = at_into(*lhs, b, got);
    want += matmul_at_reference(*lhs, b);
    expect_bitwise_equal(got, want, label);
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(BlockedGemmTest, MatmulAtMatchesReferenceBitwise) {
  Rng rng(52);
  // (k, m, n): a is k x m (transposed-A product), b is k x n.
  const std::size_t shapes[][3] = {{1, 1, 1},  {5, 3, 7},   {4, 17, 4},
                                   {64, 5, 3}, {300, 9, 33}, {257, 2, 31}};
  for (const auto& s : shapes) {
    const Matrix a = random_matrix(s[0], s[1], rng, true);
    const Matrix b = random_matrix(s[0], s[2], rng, true);
    expect_bitwise_equal(at_into(a, b, Matrix(s[1], s[2], 0.0F)),
                         matmul_at_reference(a, b), "matmul_at_into");
  }

  // Post-ReLU A (Dense's input): odd and even m, so a last row of C
  // runs alone, at every column tail n = 1..145 (below one vector, a
  // vector tail that overlaps the vector before it, or a whole tile
  // before one that overlaps the tile).
  for (std::size_t n = 1; n <= 145; ++n) {
    const std::size_t m = n % 2 == 0 ? 6 : 7;
    expect_at_accumulates(relu_sparse_matrix(11, m, rng),
                          relu_sparse_matrix(5, m, rng), n, rng,
                          "column tails");
    if (HasFatalFailure()) return;
  }

  // Whole zero tiles: columns 0-1 of A (C's first 2-row tile) all +0,
  // column 4 all -0 beside a nonzero column 5, and the odd last column
  // 8 all +0.
  for (const std::size_t n : {4U, 128U, 200U}) {
    Matrix a = relu_sparse_matrix(40, 9, rng);
    for (std::size_t kk = 0; kk < a.rows(); ++kk) {
      a(kk, 0) = 0.0F;
      a(kk, 1) = 0.0F;
      a(kk, 4) = -0.0F;
      a(kk, 8) = 0.0F;
    }
    expect_at_accumulates(a, relu_sparse_matrix(3, 9, rng), n, rng,
                          "zero tiles");
    if (HasFatalFailure()) return;
  }

  // Dense's weight-gradient shapes: the classifier's hidden layer
  // (1952 -> 128) and the autoencoder's first (1000 -> 200), each at a
  // 64-row batch and a 6-row last batch.
  expect_at_accumulates(relu_sparse_matrix(64, 1952, rng),
                        relu_sparse_matrix(6, 1952, rng), 128, rng,
                        "Dense(1952->128)");
  if (HasFatalFailure()) return;
  expect_at_accumulates(relu_sparse_matrix(64, 1000, rng),
                        relu_sparse_matrix(6, 1000, rng), 200, rng,
                        "Dense(1000->200)");
}

TEST(BlockedGemmTest, MatmulBtMatchesReferenceBitwise) {
  // matmul_bt_into transposes B a panel of up to 128 columns x 256 k at
  // a time; shapes straddle both panel edges (k > 256 and > 512, n >
  // 128), odd m, and Dense's backward shape (64 rows, 128 -> 1952).
  Rng rng(53);
  const std::size_t shapes[][3] = {{1, 1, 1},    {3, 5, 7},     {4, 4, 65},
                                   {17, 1, 9},   {5, 257, 3},   {6, 300, 130},
                                   {3, 600, 17}, {64, 128, 1952}};
  const auto expect_matches = [&](const Matrix& a, const Matrix& b,
                                  const char* label) {
    SCOPED_TRACE(testing::Message() << label << ": m " << a.rows() << ", k "
                                    << a.cols() << ", n " << b.rows());
    expect_bitwise_equal(bt_into(a, b), matmul_reference(a, b.transposed()),
                         label);
  };
  for (const auto& s : shapes) {
    // a is m x k, b is n x k.
    expect_matches(random_matrix(s[0], s[1], rng, true),
                   random_matrix(s[2], s[1], rng, true), "shapes");
    if (HasFatalFailure()) return;
  }

  // Post-ReLU-gated gradients as A, odd and even m, every column tail
  // n = 1..145, with k past one 256-deep panel every third n.
  for (std::size_t n = 1; n <= 145; ++n) {
    const std::size_t k = n % 3 == 0 ? 270 : 23;
    expect_matches(relu_sparse_matrix(n % 2 == 0 ? 4 : 5, k, rng),
                   random_matrix(n, k, rng, true), "column tails");
    if (HasFatalFailure()) return;
  }

  // Whole zero tiles: rows 0-1 of A all +0, row 4 all -0 beside a
  // nonzero row 5, and the odd last row 8 all +0.
  for (const std::size_t n : {4U, 130U, 200U}) {
    Matrix a = relu_sparse_matrix(9, 300, rng);
    for (const std::size_t zero_row : {0U, 1U, 8U}) {
      for (float& x : a.row(zero_row)) x = 0.0F;
    }
    for (float& x : a.row(4)) x = -0.0F;
    expect_matches(a, random_matrix(n, 300, rng), "zero tiles");
    if (HasFatalFailure()) return;
  }

  // The autoencoder's widest input gradient: Dense(200->1000) backward
  // (k 1000, four panels deep).
  expect_matches(relu_sparse_matrix(64, 1000, rng),
                 random_matrix(200, 1000, rng), "Dense(200->1000)");
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

TEST(Conv1dBackwardEdgeTest, EdgeVectorsMatchReferenceBitwise) {
  // Grad-input positions that miss a tap run in masked edge vectors
  // that read past a channel's gradient row into its neighbours (or the
  // staged row's padding). Shapes: inputs of 16-19 with outputs below
  // one vector, kernels whose first kernel-1 positions span more than
  // one vector, and a kernel of 1 (no edges). Gradients hold +/-inf
  // next to every channel's ends, so a masked lane that leaked a
  // neighbour's value would turn a finite oracle sum infinite or NaN.
  Rng rng(57);
  const float inf = std::numeric_limits<float>::infinity();
  const ConvShape shapes[] = {{2, 3, 16, 5, 5},  {3, 5, 18, 7, 5},
                              {2, 4, 19, 17, 4}, {2, 3, 60, 6, 20},
                              {1, 2, 45, 3, 18}, {2, 5, 40, 9, 1}};
  for (const ConvShape& s : shapes) {
    const std::size_t out_len = s.in_length - s.kernel + 1;
    const Matrix in = random_matrix(s.rows, s.in_channels * s.in_length, rng);
    const Matrix weights =
        random_matrix(s.out_channels, s.in_channels * s.kernel, rng, true);
    Matrix grad_out = random_matrix(s.rows, s.out_channels * out_len, rng);
    for (std::size_t r = 0; r < s.rows; ++r) {
      for (std::size_t o = 0; o < s.out_channels; ++o) {
        grad_out(r, o * out_len) = o % 2 == 0 ? inf : -inf;
        grad_out(r, o * out_len + out_len - 1) = o % 2 == 0 ? -inf : inf;
      }
    }
    std::vector<float> fast_gi(in.size(), -1.0F);
    std::vector<float> fast_wg(weights.size(), 0.0F);
    std::vector<float> fast_bg(s.out_channels, 0.0F);
    std::vector<float> oracle_gi(in.size(), 0.0F);
    std::vector<float> oracle_wg = fast_wg;
    std::vector<float> oracle_bg = fast_bg;
    nn::conv1d_backward_into(in.data().data(), grad_out.data().data(),
                             weights.data().data(), fast_gi.data(),
                             fast_wg.data(), fast_bg.data(), s.rows,
                             s.in_channels, s.in_length, s.out_channels,
                             s.kernel);
    oracles::conv1d_backward_reference(
        in.data().data(), grad_out.data().data(), weights.data().data(),
        oracle_gi.data(), oracle_wg.data(), oracle_bg.data(), s.rows,
        s.in_channels, s.in_length, s.out_channels, s.kernel);
    SCOPED_TRACE(testing::Message()
                 << "rows " << s.rows << ", in " << s.in_channels << "x"
                 << s.in_length << ", out " << s.out_channels << ", kernel "
                 << s.kernel);
    ASSERT_EQ(0, std::memcmp(fast_gi.data(), oracle_gi.data(),
                             fast_gi.size() * sizeof(float)));
    ASSERT_EQ(0, std::memcmp(fast_wg.data(), oracle_wg.data(),
                             fast_wg.size() * sizeof(float)));
    ASSERT_EQ(0, std::memcmp(fast_bg.data(), oracle_bg.data(),
                             fast_bg.size() * sizeof(float)));
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
