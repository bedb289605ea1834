// Principal Component Analysis via power iteration with deflation.
//
// The paper projects 1000-dimensional Soteria feature vectors (and the
// baseline's graph-theoretic vectors) onto their top-2 principal
// components to visualise class separation (Figs. 8-11). Power iteration
// on the centred data matrix avoids forming the d x d covariance matrix,
// keeping the fit O(iters * n * d) — fast even at d = 1000 on one core.
#pragma once

#include <cstddef>
#include <vector>

#include "math/matrix.h"
#include "math/rng.h"

namespace soteria::math {

/// Fitted PCA model: top-k components of the input's covariance.
class Pca {
 public:
  /// Fits `k` principal components to `data` (rows = observations,
  /// columns = variables). Throws core::Error{kInvalidArgument} if `k` is 0,
  /// exceeds the number of variables, or `data` has < 2 rows.
  static Pca fit(const Matrix& data, std::size_t k,
                 std::size_t max_iterations = 300, double tolerance = 1e-7);

  /// Projects observations onto the fitted components -> n x k scores.
  /// Throws if the column count differs from the training data.
  [[nodiscard]] Matrix transform(const Matrix& data) const;

  /// Component matrix, k x d (each row a unit-norm direction).
  [[nodiscard]] const Matrix& components() const noexcept {
    return components_;
  }

  /// Variance captured by each component, descending.
  [[nodiscard]] const std::vector<double>& explained_variance()
      const noexcept {
    return explained_variance_;
  }

  /// Fraction of total variance captured by each component.
  [[nodiscard]] const std::vector<double>& explained_variance_ratio()
      const noexcept {
    return explained_variance_ratio_;
  }

  /// Per-variable training means (used for centring at transform time).
  [[nodiscard]] const std::vector<float>& means() const noexcept {
    return means_;
  }

 private:
  Pca() = default;

  Matrix components_;
  std::vector<float> means_;
  std::vector<double> explained_variance_;
  std::vector<double> explained_variance_ratio_;
};

}  // namespace soteria::math
