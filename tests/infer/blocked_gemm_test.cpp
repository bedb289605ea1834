// Bitwise-identity contracts of the blocked kernels: the cache-blocked
// GEMM (matmul / matmul_at) and the direct conv1d kernel must produce
// exactly the bytes of the preserved naive references for finite
// inputs, because every per-output accumulation runs the same
// statement over k in the same ascending order. Shapes deliberately
// straddle the block (256) and row-unroll (4) boundaries.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "math/matrix.h"
#include "math/rng.h"
#include "nn/conv1d.h"
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

TEST(BlockedGemmTest, MatmulMatchesReferenceBitwise) {
  Rng rng(51);
  // (m, k, n) shapes: degenerate, odd, unroll tails, and k > one block.
  const std::size_t shapes[][3] = {{1, 1, 1},   {3, 5, 7},   {4, 4, 4},
                                   {17, 1, 9},  {5, 64, 3},  {33, 300, 5},
                                   {2, 257, 31}, {7, 512, 12}};
  for (const auto& s : shapes) {
    const Matrix a = random_matrix(s[0], s[1], rng, true);
    const Matrix b = random_matrix(s[1], s[2], rng, true);
    expect_bitwise_equal(matmul(a, b), matmul_reference(a, b), "matmul");
  }
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

TEST(DirectConv1dTest, MatchesReferenceBitwise) {
  Rng rng(53);
  struct Shape {
    std::size_t rows, in_channels, in_length, out_channels, kernel;
  };
  // Odd and even output-channel counts (pairing tail), kernels 1..5,
  // single- and multi-channel inputs.
  const Shape shapes[] = {{1, 1, 8, 1, 3},  {2, 1, 30, 4, 3},
                          {3, 2, 20, 5, 3}, {4, 3, 16, 7, 1},
                          {2, 4, 25, 6, 5}, {5, 2, 12, 2, 4}};
  for (const auto& s : shapes) {
    const std::size_t out_len = s.in_length - s.kernel + 1;
    Matrix in = random_matrix(s.rows, s.in_channels * s.in_length, rng);
    Matrix weights =
        random_matrix(s.out_channels, s.in_channels * s.kernel, rng, true);
    Matrix bias = random_matrix(1, s.out_channels, rng);
    std::vector<float> fast(s.rows * s.out_channels * out_len, -1.0F);
    std::vector<float> oracle(fast.size(), -2.0F);
    nn::conv1d_infer_into(in.data().data(), fast.data(),
                          weights.data().data(), bias.data().data(), s.rows,
                          s.in_channels, s.in_length, s.out_channels,
                          s.kernel);
    oracles::conv1d_infer_reference_into(in.data().data(), oracle.data(),
                                         weights.data().data(),
                                         bias.data().data(), s.rows,
                                         s.in_channels, s.in_length,
                                         s.out_channels, s.kernel);
    ASSERT_EQ(0, std::memcmp(fast.data(), oracle.data(),
                             fast.size() * sizeof(float)))
        << s.out_channels << " channels, kernel " << s.kernel;
  }
}

}  // namespace
}  // namespace soteria::math
