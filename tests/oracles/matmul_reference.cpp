#include "oracles/matmul_reference.h"

#include <stdexcept>

namespace soteria::oracles {

using math::Matrix;

Matrix matmul_reference(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("matmul_reference: inner dimensions " +
                                a.shape_string() + " * " + b.shape_string());
  }
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  Matrix c(m, n, 0.0F);
  // i-k-j loop order: the inner loop streams over contiguous rows of B
  // and C, which is the cache-friendly order for row-major data.
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c.data().data() + i * n;
    const float* arow = a.data().data() + i * k;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = arow[kk];
      if (aik == 0.0F) continue;
      const float* brow = b.data().data() + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

Matrix matmul_at_reference(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("matmul_at_reference: inner dimensions " +
                                a.shape_string() + "^T * " +
                                b.shape_string());
  }
  const std::size_t m = a.cols(), k = a.rows(), n = b.cols();
  Matrix c(m, n, 0.0F);
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* arow = a.data().data() + kk * m;
    const float* brow = b.data().data() + kk * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float aki = arow[i];
      if (aki == 0.0F) continue;
      float* crow = c.data().data() + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aki * brow[j];
    }
  }
  return c;
}

}  // namespace soteria::oracles
