#include "math/matrix.h"

#include <algorithm>
#include <utility>

#include "math/lanes.h"
#include "math/rng.h"
#include "soteria/error.h"

namespace soteria::math {

namespace {

void require_same_shape(const Matrix& a, const Matrix& b, const char* what) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      std::string(what) + ": shape mismatch " +
                      a.shape_string() + " vs " + b.shape_string());
  }
}

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<float> values)
    : rows_(rows), cols_(cols), data_(std::move(values)) {
  if (data_.size() != rows_ * cols_) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "Matrix: value count " +
                      std::to_string(data_.size()) +
                      " != rows*cols " +
                      std::to_string(rows_ * cols_));
  }
}

float& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) {
    throw core::Error(core::ErrorCode::kOutOfRange,
                      "Matrix::at(" + std::to_string(r) + "," +
                      std::to_string(c) + ") on " + shape_string());
  }
  return data_[r * cols_ + c];
}

float Matrix::at(std::size_t r, std::size_t c) const {
  return const_cast<Matrix*>(this)->at(r, c);
}

std::span<float> Matrix::row(std::size_t r) {
  if (r >= rows_) {
    throw core::Error(core::ErrorCode::kOutOfRange,
                      "Matrix::row(" + std::to_string(r) + ") on " +
                      shape_string());
  }
  return std::span<float>(data_).subspan(r * cols_, cols_);
}

std::span<const float> Matrix::row(std::size_t r) const {
  if (r >= rows_) {
    throw core::Error(core::ErrorCode::kOutOfRange,
                      "Matrix::row(" + std::to_string(r) + ") on " +
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

void Matrix::fill_uniform(Rng& rng, float lo, float hi) {
  for (float& x : data_) x = static_cast<float>(rng.uniform(lo, hi));
}

void Matrix::fill_normal(Rng& rng, float mean, float stddev) {
  for (float& x : data_) x = static_cast<float>(rng.normal(mean, stddev));
}

std::string Matrix::shape_string() const {
  std::string shape = "[";
  shape += std::to_string(rows_);
  shape += 'x';
  shape += std::to_string(cols_);
  shape += ']';
  return shape;
}

namespace {

using simd::kLanes;

/// Row tile of the GEMMs: kTileRows rows x kTileVectors vectors of C,
/// held in registers across all of k and stored once.
constexpr std::size_t kTileRows = 2;
constexpr std::size_t kTileVectors = 8;
constexpr std::size_t kTileCols = kTileVectors * kLanes;

/// Depth of matmul_bt_into's stack panel of B^T (kPanelDepth x
/// kTileCols floats, 128 KB).
constexpr std::size_t kPanelDepth = 256;

/// Where a tile finds its operands. kPacked: A is m x k, B k x n and
/// C m x n, row-major and dense (matmul_into). kTransposedA: the same,
/// but A is stored k x m, A(i, kk) = a[kk * lda + i] (matmul_at_into).
/// kPanel: A(i, kk) = a[i * lda + kk], B(kk, j) = b[kk * n + j] and
/// C(i, j) = c[i * ldc + j] (matmul_bt_into's panels of B^T).
enum class Layout { kPacked, kTransposedA, kPanel };

/// A's and C's row strides: kPacked's are k and n and it passes none
/// (so matmul_into's tiles take the arguments they always took); the
/// other layouts pass (lda, ldc).
constexpr std::pair<std::size_t, std::size_t> row_strides(
    std::size_t k, std::size_t n) noexcept {
  return {k, n};
}
constexpr std::pair<std::size_t, std::size_t> row_strides(
    std::size_t /*k*/, std::size_t /*n*/, std::size_t lda,
    std::size_t ldc) noexcept {
  return {lda, ldc};
}

/// How a tile's register sums reach C.
enum class Store {
  kOverwrite,  ///< C = the sum from +0 (matmul_into)
  kAdd,        ///< C += the sum from +0 (matmul_at_into)
  kContinue,   ///< the sum starts from C (matmul_bt_into's later panels,
               ///< each one tile wide, so no tile overlaps another)
};

/// Rows [i, i + R) x V vectors of C's columns from j, accumulated in
/// registers across all of k and stored once. Vector v covers columns
/// j + v*kLanes, except the last, which ends at n when the columns run
/// out first (n >= kLanes): it then overlaps columns covered before it
/// (by the vector before it, or by the tile before it when V is 1) and
/// recomputes them with the same bits; kAdd adds only its new columns.
/// A k is skipped only when every row of the tile has a zero there.
template <std::size_t R, std::size_t V, Layout L, Store S,
          typename... Strides>
void gemm_tile(const float* a, const float* b, float* c, std::size_t k,
               std::size_t n, std::size_t i, std::size_t j,
               Strides... strides) noexcept {
  const auto [lda, ldc] = row_strides(k, n, strides...);
  const std::size_t last = std::min(j + (V - 1) * kLanes, n - kLanes);
  simd::Lanes acc[R][V] = {};
  if constexpr (S == Store::kContinue) {
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t v = 0; v < V; ++v) {
        simd::load(acc[r][v],
                   c + (i + r) * ldc + (v + 1 < V ? j + v * kLanes : last));
      }
    }
  }
  for (std::size_t kk = 0; kk < k; ++kk) {
    float ak[R];
    bool any = false;
    for (std::size_t r = 0; r < R; ++r) {
      ak[r] = L == Layout::kTransposedA ? a[kk * lda + i + r]
                                        : a[(i + r) * lda + kk];
      any |= ak[r] != 0.0F;
    }
    if (!any) continue;
    const float* brow = b + kk * n;
    for (std::size_t v = 0; v < V; ++v) {
      simd::Lanes x;
      simd::load(x, brow + (v + 1 < V ? j + v * kLanes : last));
      for (std::size_t r = 0; r < R; ++r) acc[r][v] += ak[r] * x;
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    float* crow = c + (i + r) * ldc;
    for (std::size_t v = 0; v < V; ++v) {
      if constexpr (S == Store::kAdd) {
        // The last vector's first `done` columns were added before it.
        const std::size_t done = v + 1 < V ? 0 : j + v * kLanes - last;
        float* dst = crow + (v + 1 < V ? j + v * kLanes : last);
        if (done == 0) {
          simd::Lanes sum;
          simd::load(sum, dst);
          sum += acc[r][v];
          simd::store(dst, sum);
        } else {
          for (std::size_t l = done; l < kLanes; ++l) dst[l] += acc[r][v][l];
        }
      } else {
        simd::store(crow + (v + 1 < V ? j + v * kLanes : last), acc[r][v]);
      }
    }
  }
}

/// Every column of rows [i, i + R), n >= kLanes: full tiles, then one
/// tile of as many vectors as the columns left need.
template <std::size_t R, Layout L, Store S, typename... Strides>
void gemm_rows(const float* a, const float* b, float* c, std::size_t k,
               std::size_t n, std::size_t i, Strides... st) noexcept {
  std::size_t j = 0;
  for (; j + kTileCols <= n; j += kTileCols) {
    gemm_tile<R, kTileVectors, L, S>(a, b, c, k, n, i, j, st...);
  }
  if (j == n) return;
  switch ((n - j + kLanes - 1) / kLanes) {
    case 1: gemm_tile<R, 1, L, S>(a, b, c, k, n, i, j, st...); break;
    case 2: gemm_tile<R, 2, L, S>(a, b, c, k, n, i, j, st...); break;
    case 3: gemm_tile<R, 3, L, S>(a, b, c, k, n, i, j, st...); break;
    case 4: gemm_tile<R, 4, L, S>(a, b, c, k, n, i, j, st...); break;
    case 5: gemm_tile<R, 5, L, S>(a, b, c, k, n, i, j, st...); break;
    case 6: gemm_tile<R, 6, L, S>(a, b, c, k, n, i, j, st...); break;
    case 7: gemm_tile<R, 7, L, S>(a, b, c, k, n, i, j, st...); break;
    default: gemm_tile<R, 8, L, S>(a, b, c, k, n, i, j, st...); break;
  }
}

/// Rows [0, m) of C in 2-row tiles, then an odd last row (matmul_into
/// runs the same loop itself).
template <Layout L, Store S, typename... Strides>
void gemm(const float* a, const float* b, float* c, std::size_t m,
          std::size_t k, std::size_t n, Strides... st) noexcept {
  std::size_t i = 0;
  for (; i + kTileRows <= m; i += kTileRows) {
    gemm_rows<kTileRows, L, S>(a, b, c, k, n, i, st...);
  }
  for (; i < m; ++i) gemm_rows<1, L, S>(a, b, c, k, n, i, st...);
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
  if (n < kLanes) {
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
    gemm_rows<kTileRows, Layout::kPacked, Store::kOverwrite>(a, b, c, k, n,
                                                             i);
  }
  for (; i < m; ++i) {
    gemm_rows<1, Layout::kPacked, Store::kOverwrite>(a, b, c, k, n, i);
  }
}

void matmul_at_into(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n) noexcept {
  // matmul_into's tile with A read down its columns; each cell's sum
  // (from +0, ascending kk, as the reference's) is added to C once.
  if (n < kLanes) {
    for (std::size_t i = 0; i < m; ++i) {
      float sum[kLanes] = {};
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float aki = a[kk * m + i];
        if (aki == 0.0F) continue;
        const float* brow = b + kk * n;
        for (std::size_t j = 0; j < n; ++j) sum[j] += aki * brow[j];
      }
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += sum[j];
    }
    return;
  }
  gemm<Layout::kTransposedA, Store::kAdd>(a, b, c, m, k, n, m, n);
}

void matmul_bt_into(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n) noexcept {
  // matmul_into's tile over B^T, one panel of up to kTileCols columns
  // and kPanelDepth k at a time, transposed onto the stack. A panel's
  // first k block overwrites C and the later ones continue its sums
  // from there, so per cell the k-products still add from +0 in
  // ascending kk order: bit-identical to matmul_into(a, transpose(b))
  // for finite inputs.
  if (n < kLanes) {
    std::fill(c, c + m * n, 0.0F);
    for (std::size_t i = 0; i < m; ++i) {
      float* crow = c + i * n;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float aik = a[i * k + kk];
        if (aik == 0.0F) continue;
        for (std::size_t j = 0; j < n; ++j) crow[j] += aik * b[j * k + kk];
      }
    }
    return;
  }
  alignas(64) float panel[kPanelDepth * kTileCols];
  for (std::size_t jb = 0; jb < n; jb += kTileCols) {
    std::size_t cols = std::min(kTileCols, n - jb);
    if (cols < kLanes) {
      // Less than a vector left: one vector that ends at n, redoing
      // columns of the panel before from +0.
      jb = n - kLanes;
      cols = kLanes;
    }
    for (std::size_t kb = 0; kb < k; kb += kPanelDepth) {
      const std::size_t depth = std::min(kPanelDepth, k - kb);
      simd::transpose_into(b + jb * k + kb, k, panel, cols, cols, depth);
      if (kb == 0) {
        gemm<Layout::kPanel, Store::kOverwrite>(a + kb, panel, c + jb, m,
                                                depth, cols, k, n);
      } else {
        gemm<Layout::kPanel, Store::kContinue>(a + kb, panel, c + jb, m,
                                               depth, cols, k, n);
      }
    }
  }
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "matmul: inner dimensions " +
                      a.shape_string() + " * " + b.shape_string());
  }
  Matrix c(a.rows(), b.cols(), 0.0F);
  matmul_into(a.data().data(), b.data().data(), c.data().data(), a.rows(),
              a.cols(), b.cols());
  return c;
}

}  // namespace soteria::math
