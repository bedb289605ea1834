// Dense row-major float matrix used throughout the NN substrate and PCA.
//
// The class keeps a single invariant: data_.size() == rows_ * cols_.
// Element access is bounds-checked in debug builds (assert) and raw in
// release builds; the checked `at()` form throws and is used at API
// boundaries.
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace soteria::math {

class Rng;

/// Dense rows x cols matrix of float, row-major.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// rows x cols matrix, all elements set to `fill`.
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0F);

  /// rows x cols matrix adopting `values` (row-major). Throws
  /// core::Error{kInvalidArgument} if sizes disagree.
  Matrix(std::size_t rows, std::size_t cols, std::vector<float> values);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  /// Unchecked element access (asserted in debug builds).
  [[nodiscard]] float& operator()(std::size_t r, std::size_t c) noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  [[nodiscard]] float operator()(std::size_t r, std::size_t c) const noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Checked element access; throws core::Error{kOutOfRange}.
  [[nodiscard]] float& at(std::size_t r, std::size_t c);
  [[nodiscard]] float at(std::size_t r, std::size_t c) const;

  /// Row view (length == cols()).
  [[nodiscard]] std::span<float> row(std::size_t r);
  [[nodiscard]] std::span<const float> row(std::size_t r) const;

  /// Raw storage access (row-major).
  [[nodiscard]] std::span<float> data() noexcept { return data_; }
  [[nodiscard]] std::span<const float> data() const noexcept { return data_; }

  /// Sets every element to `value`.
  void fill(float value) noexcept;

  /// Element-wise addition / subtraction. Throw on shape mismatch.
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);

  /// Scalar scaling in place.
  Matrix& operator*=(float scalar) noexcept;

  /// Matrix transpose.
  [[nodiscard]] Matrix transposed() const;

  /// Fills with uniform deviates in [lo, hi).
  void fill_uniform(Rng& rng, float lo, float hi);

  /// Fills with normal deviates.
  void fill_normal(Rng& rng, float mean, float stddev);

  /// Human-readable shape string, e.g. "[3x4]".
  [[nodiscard]] std::string shape_string() const;

  [[nodiscard]] bool operator==(const Matrix& other) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// C = A * B, through matmul_into. Throws on inner-dimension mismatch.
[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b);

/// Raw-pointer kernel behind matmul: writes the m x n product of
/// row-major `a` (m x k) and `b` (k x n) into `c`, overwriting it.
/// No aliasing between `c` and the inputs. nn::Dense::infer_into runs
/// it on Sequential::infer's arena buffers. Register-tiled: a tile of 2
/// rows x 8 vectors of 16 columns of C (1 row for an odd last row,
/// fewer vectors at the right edge, the last one overlapping the one
/// before) stays in registers across all of k and is stored once; a k
/// is skipped only when every row of the tile is zero there, so the
/// post-ReLU zeros of a whole tile cost nothing. Each output cell adds
/// its k-products in ascending k from +0, so the result is
/// bit-identical to the naive i-k-j oracle (tests/oracles) whenever B
/// is finite. n < 16 (a classifier's logits) runs the oracle's loop.
void matmul_into(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n) noexcept;

/// Dense's weight-gradient kernel: `a` is k x m, `b` is k x n; adds
/// A^T * B (m x n) to `c`. matmul_into's register tile with A read
/// down its columns: each cell sums its k-products from +0 in ascending
/// k, skipping a k only where the whole tile's A is zero, and the sum
/// is added to `c` in the tile's store. Bit-identical to adding the
/// naive k-i-j oracle's product (tests/oracles) for finite B.
void matmul_at_into(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n) noexcept;

/// Dense's input-gradient kernel: `a` is m x k, `b` is n x k; writes
/// A * B^T (m x n) into `c`, overwriting it. It transposes B in
/// register-blocked 16 x 16 blocks onto a stack panel of up to 128
/// columns and 256 k and runs matmul_into's tile over it (a panel past
/// the first 256 k continues the sums from `c`); it allocates nothing.
/// Per output cell the order is matmul_into's, so the result is
/// bit-identical to the oracle on the transpose of B for finite inputs.
void matmul_bt_into(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n) noexcept;

}  // namespace soteria::math
