#include "math/matrix.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "math/lanes.h"
#include "math/rng.h"

namespace soteria::math {

namespace {

void require_same_shape(const Matrix& a, const Matrix& b, const char* what) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument(std::string(what) + ": shape mismatch " +
                                a.shape_string() + " vs " + b.shape_string());
  }
}

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<float> values)
    : rows_(rows), cols_(cols), data_(std::move(values)) {
  if (data_.size() != rows_ * cols_) {
    throw std::invalid_argument("Matrix: value count " +
                                std::to_string(data_.size()) +
                                " != rows*cols " +
                                std::to_string(rows_ * cols_));
  }
}

float& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("Matrix::at(" + std::to_string(r) + "," +
                            std::to_string(c) + ") on " + shape_string());
  }
  return data_[r * cols_ + c];
}

float Matrix::at(std::size_t r, std::size_t c) const {
  return const_cast<Matrix*>(this)->at(r, c);
}

std::span<float> Matrix::row(std::size_t r) {
  if (r >= rows_) {
    throw std::out_of_range("Matrix::row(" + std::to_string(r) + ") on " +
                            shape_string());
  }
  return std::span<float>(data_).subspan(r * cols_, cols_);
}

std::span<const float> Matrix::row(std::size_t r) const {
  if (r >= rows_) {
    throw std::out_of_range("Matrix::row(" + std::to_string(r) + ") on " +
                            shape_string());
  }
  return std::span<const float>(data_).subspan(r * cols_, cols_);
}

void Matrix::fill(float value) noexcept {
  for (float& x : data_) x = value;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  require_same_shape(*this, other, "Matrix::operator+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  require_same_shape(*this, other, "Matrix::operator-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(float scalar) noexcept {
  for (float& x : data_) x *= scalar;
  return *this;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  return out;
}

double Matrix::frobenius_norm() const noexcept {
  double acc = 0.0;
  for (float x : data_) acc += static_cast<double>(x) * x;
  return std::sqrt(acc);
}

void Matrix::fill_uniform(Rng& rng, float lo, float hi) {
  for (float& x : data_) x = static_cast<float>(rng.uniform(lo, hi));
}

void Matrix::fill_normal(Rng& rng, float mean, float stddev) {
  for (float& x : data_) x = static_cast<float>(rng.normal(mean, stddev));
}

std::string Matrix::shape_string() const {
  return "[" + std::to_string(rows_) + "x" + std::to_string(cols_) + "]";
}

namespace {

/// k-panel height for the blocked kernels (matmul_at_into,
/// matmul_bt_into): a panel of B rows (up to kKBlock x n floats) stays
/// hot in L2 while every row tile of A streams across it.
constexpr std::size_t kKBlock = 256;

/// A-row tile height: four C rows accumulate against each B row load,
/// quartering the B traffic per flop.
constexpr std::size_t kRowUnroll = 4;

/// Row tile of matmul_into: kTileRows rows x kTileVectors vectors of
/// C, held in registers across all of k.
constexpr std::size_t kTileRows = 2;
constexpr std::size_t kTileVectors = 8;

/// Rows [i, i + R) x V vectors of C's columns from j, accumulated in
/// registers across all of k and stored once. Vector v covers columns
/// j + v*kLanes, except the last, which ends at n when the columns run
/// out first (n >= kLanes): it then overlaps the one before, and its
/// recomputed columns come out with the same bits. A k is skipped only
/// when every row of the tile has a zero there.
template <std::size_t R, std::size_t V>
void gemm_tile(const float* a, const float* b, float* c, std::size_t k,
               std::size_t n, std::size_t i, std::size_t j) noexcept {
  const std::size_t last = std::min(j + (V - 1) * simd::kLanes,
                                    n - simd::kLanes);
  simd::Lanes acc[R][V] = {};
  for (std::size_t kk = 0; kk < k; ++kk) {
    float ak[R];
    bool any = false;
    for (std::size_t r = 0; r < R; ++r) {
      ak[r] = a[(i + r) * k + kk];
      any |= ak[r] != 0.0F;
    }
    if (!any) continue;
    const float* brow = b + kk * n;
    for (std::size_t v = 0; v < V; ++v) {
      simd::Lanes x;
      simd::load(x, brow + (v + 1 < V ? j + v * simd::kLanes : last));
      for (std::size_t r = 0; r < R; ++r) acc[r][v] += ak[r] * x;
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    float* crow = c + (i + r) * n;
    for (std::size_t v = 0; v < V; ++v) {
      simd::store(crow + (v + 1 < V ? j + v * simd::kLanes : last),
                  acc[r][v]);
    }
  }
}

/// Every column of rows [i, i + R), n >= kLanes: full tiles, then one
/// tile of as many vectors as the columns left need.
template <std::size_t R>
void gemm_rows(const float* a, const float* b, float* c, std::size_t k,
               std::size_t n, std::size_t i) noexcept {
  constexpr std::size_t kTileCols = kTileVectors * simd::kLanes;
  std::size_t j = 0;
  for (; j + kTileCols <= n; j += kTileCols) {
    gemm_tile<R, kTileVectors>(a, b, c, k, n, i, j);
  }
  if (j == n) return;
  switch ((n - j + simd::kLanes - 1) / simd::kLanes) {
    case 1: gemm_tile<R, 1>(a, b, c, k, n, i, j); break;
    case 2: gemm_tile<R, 2>(a, b, c, k, n, i, j); break;
    case 3: gemm_tile<R, 3>(a, b, c, k, n, i, j); break;
    case 4: gemm_tile<R, 4>(a, b, c, k, n, i, j); break;
    case 5: gemm_tile<R, 5>(a, b, c, k, n, i, j); break;
    case 6: gemm_tile<R, 6>(a, b, c, k, n, i, j); break;
    case 7: gemm_tile<R, 7>(a, b, c, k, n, i, j); break;
    default: gemm_tile<R, 8>(a, b, c, k, n, i, j); break;
  }
}

}  // namespace

void matmul_into(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n) noexcept {
  // Per output cell the k-products accumulate from +0 in ascending kk
  // order with the reference's `acc + aik * bkj`, so the result is
  // bit-identical to it for finite B. Adding the product of a zero
  // A entry the reference skips (the other rows of the tile are not
  // zero there) is bitwise-neutral: a signed zero never changes a
  // nonzero or non-finite accumulator, and the accumulators start at +0
  // and can never turn -0 (exact cancellation rounds to +0 in
  // round-to-nearest).
  if (n < simd::kLanes) {
    // Narrower than one vector (a classifier's logits): the
    // reference's loop.
    std::fill(c, c + m * n, 0.0F);
    for (std::size_t i = 0; i < m; ++i) {
      float* crow = c + i * n;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float aik = a[i * k + kk];
        if (aik == 0.0F) continue;
        const float* brow = b + kk * n;
        for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
      }
    }
    return;
  }
  std::size_t i = 0;
  for (; i + kTileRows <= m; i += kTileRows) {
    gemm_rows<kTileRows>(a, b, c, k, n, i);
  }
  for (; i < m; ++i) gemm_rows<1>(a, b, c, k, n, i);
}

void matmul_at_into(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n) noexcept {
  std::fill(c, c + m * n, 0.0F);
  for (std::size_t kb = 0; kb < k; kb += kKBlock) {
    const std::size_t kend = std::min(kb + kKBlock, k);
    std::size_t i = 0;
    for (; i + kRowUnroll <= m; i += kRowUnroll) {
      float* c0 = c + (i + 0) * n;
      float* c1 = c + (i + 1) * n;
      float* c2 = c + (i + 2) * n;
      float* c3 = c + (i + 3) * n;
      for (std::size_t kk = kb; kk < kend; ++kk) {
        const float* arow = a + kk * m;
        const float a0k = arow[i + 0];
        const float a1k = arow[i + 1];
        const float a2k = arow[i + 2];
        const float a3k = arow[i + 3];
        if (a0k == 0.0F && a1k == 0.0F && a2k == 0.0F && a3k == 0.0F) {
          continue;
        }
        const float* brow = b + kk * n;
        for (std::size_t j = 0; j < n; ++j) {
          c0[j] += a0k * brow[j];
          c1[j] += a1k * brow[j];
          c2[j] += a2k * brow[j];
          c3[j] += a3k * brow[j];
        }
      }
    }
    for (; i < m; ++i) {
      float* crow = c + i * n;
      for (std::size_t kk = kb; kk < kend; ++kk) {
        const float aki = a[kk * m + i];
        if (aki == 0.0F) continue;
        const float* brow = b + kk * n;
        for (std::size_t j = 0; j < n; ++j) crow[j] += aki * brow[j];
      }
    }
  }
}

void matmul_bt_into(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n) noexcept {
  // matmul_into's loop over B^T, transposed one panel (kKBlock k x
  // kPanelCols columns of C) at a time into a stack buffer: per output
  // cell the k-products still accumulate in ascending kk order with
  // the same statement, so the result is bit-identical to
  // matmul_into(a, transpose(b)) for finite inputs.
  constexpr std::size_t kPanelCols = 64;
  alignas(64) float panel[kKBlock * kPanelCols];
  std::fill(c, c + m * n, 0.0F);
  for (std::size_t jb = 0; jb < n; jb += kPanelCols) {
    const std::size_t cols = std::min(kPanelCols, n - jb);
    for (std::size_t kb = 0; kb < k; kb += kKBlock) {
      const std::size_t depth = std::min(kKBlock, k - kb);
      for (std::size_t j = 0; j < cols; ++j) {
        const float* brow = b + (jb + j) * k + kb;
        for (std::size_t kk = 0; kk < depth; ++kk) {
          panel[kk * cols + j] = brow[kk];
        }
      }
      std::size_t i = 0;
      for (; i + kRowUnroll <= m; i += kRowUnroll) {
        const float* a0 = a + (i + 0) * k + kb;
        const float* a1 = a + (i + 1) * k + kb;
        const float* a2 = a + (i + 2) * k + kb;
        const float* a3 = a + (i + 3) * k + kb;
        float* c0 = c + (i + 0) * n + jb;
        float* c1 = c + (i + 1) * n + jb;
        float* c2 = c + (i + 2) * n + jb;
        float* c3 = c + (i + 3) * n + jb;
        for (std::size_t kk = 0; kk < depth; ++kk) {
          const float a0k = a0[kk];
          const float a1k = a1[kk];
          const float a2k = a2[kk];
          const float a3k = a3[kk];
          if (a0k == 0.0F && a1k == 0.0F && a2k == 0.0F && a3k == 0.0F) {
            continue;
          }
          const float* prow = panel + kk * cols;
          for (std::size_t j = 0; j < cols; ++j) {
            c0[j] += a0k * prow[j];
            c1[j] += a1k * prow[j];
            c2[j] += a2k * prow[j];
            c3[j] += a3k * prow[j];
          }
        }
      }
      for (; i < m; ++i) {
        const float* arow = a + i * k + kb;
        float* crow = c + i * n + jb;
        for (std::size_t kk = 0; kk < depth; ++kk) {
          const float aik = arow[kk];
          if (aik == 0.0F) continue;
          const float* prow = panel + kk * cols;
          for (std::size_t j = 0; j < cols; ++j) crow[j] += aik * prow[j];
        }
      }
    }
  }
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("matmul: inner dimensions " +
                                a.shape_string() + " * " + b.shape_string());
  }
  Matrix c(a.rows(), b.cols(), 0.0F);
  matmul_into(a.data().data(), b.data().data(), c.data().data(), a.rows(),
              a.cols(), b.cols());
  return c;
}

Matrix matmul_bt(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("matmul_bt: inner dimensions " +
                                a.shape_string() + " * " + b.shape_string() +
                                "^T");
  }
  Matrix c(a.rows(), b.rows(), 0.0F);
  matmul_bt_into(a.data().data(), b.data().data(), c.data().data(), a.rows(),
                 a.cols(), b.rows());
  return c;
}

Matrix matmul_at(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("matmul_at: inner dimensions " +
                                a.shape_string() + "^T * " +
                                b.shape_string());
  }
  Matrix c(a.cols(), b.cols(), 0.0F);
  matmul_at_into(a.data().data(), b.data().data(), c.data().data(), a.cols(),
                 a.rows(), b.cols());
  return c;
}

}  // namespace soteria::math
