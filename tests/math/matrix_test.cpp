#include "math/matrix.h"

#include <gtest/gtest.h>

#include "expect_error.h"
#include "math/rng.h"

namespace soteria::math {
namespace {

TEST(Matrix, DefaultIsEmpty) {
  const Matrix m;
  EXPECT_EQ(m.rows(), 0U);
  EXPECT_EQ(m.cols(), 0U);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, FillConstructor) {
  const Matrix m(2, 3, 1.5F);
  EXPECT_EQ(m.rows(), 2U);
  EXPECT_EQ(m.cols(), 3U);
  EXPECT_EQ(m.size(), 6U);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_FLOAT_EQ(m(r, c), 1.5F);
  }
}

TEST(Matrix, ValueConstructorRowMajor) {
  const Matrix m(2, 2, {1.0F, 2.0F, 3.0F, 4.0F});
  EXPECT_FLOAT_EQ(m(0, 0), 1.0F);
  EXPECT_FLOAT_EQ(m(0, 1), 2.0F);
  EXPECT_FLOAT_EQ(m(1, 0), 3.0F);
  EXPECT_FLOAT_EQ(m(1, 1), 4.0F);
}

TEST(Matrix, ValueConstructorSizeMismatchThrows) {
  EXPECT_ERROR(Matrix(2, 2, {1.0F, 2.0F}), core::ErrorCode::kInvalidArgument);
}

TEST(Matrix, AtThrowsOutOfRange) {
  Matrix m(2, 2);
  EXPECT_ERROR((void)m.at(2, 0), core::ErrorCode::kOutOfRange);
  EXPECT_ERROR((void)m.at(0, 2), core::ErrorCode::kOutOfRange);
  EXPECT_NO_THROW((void)m.at(1, 1));
}

TEST(Matrix, RowSpanWritesThrough) {
  Matrix m(2, 3);
  auto row = m.row(1);
  row[2] = 9.0F;
  EXPECT_FLOAT_EQ(m(1, 2), 9.0F);
  EXPECT_ERROR((void)m.row(2), core::ErrorCode::kOutOfRange);
}

TEST(Matrix, AddSubtract) {
  Matrix a(1, 3, {1.0F, 2.0F, 3.0F});
  const Matrix b(1, 3, {10.0F, 20.0F, 30.0F});
  a += b;
  EXPECT_FLOAT_EQ(a(0, 1), 22.0F);
  a -= b;
  EXPECT_FLOAT_EQ(a(0, 1), 2.0F);
}

TEST(Matrix, AddShapeMismatchThrows) {
  Matrix a(1, 3);
  const Matrix b(3, 1);
  EXPECT_ERROR(a += b, core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR(a -= b, core::ErrorCode::kInvalidArgument);
}

TEST(Matrix, ScalarScale) {
  Matrix a(1, 2, {2.0F, -4.0F});
  a *= 0.5F;
  EXPECT_FLOAT_EQ(a(0, 0), 1.0F);
  EXPECT_FLOAT_EQ(a(0, 1), -2.0F);
}

TEST(Matrix, Transpose) {
  const Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3U);
  EXPECT_EQ(t.cols(), 2U);
  EXPECT_FLOAT_EQ(t(2, 1), 6.0F);
  EXPECT_FLOAT_EQ(t(0, 1), 4.0F);
}

TEST(Matrix, FillRandomRanges) {
  Rng rng(1);
  Matrix m(10, 10);
  m.fill_uniform(rng, -1.0F, 1.0F);
  for (float x : m.data()) {
    EXPECT_GE(x, -1.0F);
    EXPECT_LT(x, 1.0F);
  }
}

TEST(Matmul, MatchesHandComputedProduct) {
  const Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  const Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
  const Matrix c = matmul(a, b);
  ASSERT_EQ(c.rows(), 2U);
  ASSERT_EQ(c.cols(), 2U);
  EXPECT_FLOAT_EQ(c(0, 0), 58.0F);
  EXPECT_FLOAT_EQ(c(0, 1), 64.0F);
  EXPECT_FLOAT_EQ(c(1, 0), 139.0F);
  EXPECT_FLOAT_EQ(c(1, 1), 154.0F);
}

TEST(Matmul, ThrowsOnDimensionMismatch) {
  EXPECT_ERROR((void)matmul(Matrix(2, 3), Matrix(2, 3)),
               core::ErrorCode::kInvalidArgument);
}

TEST(Matmul, VariantsAgreeWithExplicitTransposes) {
  Rng rng(3);
  Matrix a(4, 6);
  Matrix b(6, 5);
  a.fill_normal(rng, 0.0F, 1.0F);
  b.fill_normal(rng, 0.0F, 1.0F);
  const Matrix reference = matmul(a, b);

  // A * (B^T)^T, and (A^T)^T * B added to zeros.
  const Matrix bt = b.transposed();
  const Matrix at = a.transposed();
  Matrix via_bt(4, 5, -1.0F);
  Matrix via_at(4, 5, 0.0F);
  matmul_bt_into(a.data().data(), bt.data().data(), via_bt.data().data(), 4,
                 6, 5);
  matmul_at_into(at.data().data(), b.data().data(), via_at.data().data(), 4,
                 6, 5);
  for (std::size_t r = 0; r < reference.rows(); ++r) {
    for (std::size_t c = 0; c < reference.cols(); ++c) {
      EXPECT_NEAR(via_bt(r, c), reference(r, c), 1e-4);
      EXPECT_NEAR(via_at(r, c), reference(r, c), 1e-4);
    }
  }
}

TEST(Matrix, EqualityIsStructural) {
  const Matrix a(1, 2, {1.0F, 2.0F});
  const Matrix b(1, 2, {1.0F, 2.0F});
  const Matrix c(1, 2, {1.0F, 3.0F});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace soteria::math
