#include "math/pca.h"

#include <cmath>

#include "soteria/error.h"

namespace soteria::math {

namespace {

// Normalizes v in place; returns its pre-normalization L2 norm.
double normalize(std::vector<double>& v) {
  double norm = 0.0;
  for (double x : v) norm += x * x;
  norm = std::sqrt(norm);
  if (norm > 0.0) {
    for (double& x : v) x /= norm;
  }
  return norm;
}

}  // namespace

Pca Pca::fit(const Matrix& data, std::size_t k, std::size_t max_iterations,
             double tolerance) {
  const std::size_t n = data.rows();
  const std::size_t d = data.cols();
  if (k == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "Pca::fit: k must be > 0");
  }
  if (k > d) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "Pca::fit: k exceeds variable count");
  }
  if (n < 2) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "Pca::fit: need at least 2 observations");
  }

  Pca pca;
  pca.means_.assign(d, 0.0F);
  for (std::size_t j = 0; j < d; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += data(i, j);
    pca.means_[j] = static_cast<float>(acc / static_cast<double>(n));
  }

  // Centred copy in double for numerical stability of the iteration.
  std::vector<double> centred(n * d);
  double total_variance = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      const double v = static_cast<double>(data(i, j)) - pca.means_[j];
      centred[i * d + j] = v;
      total_variance += v * v;
    }
  }
  total_variance /= static_cast<double>(n - 1);

  pca.components_ = Matrix(k, d);
  pca.explained_variance_.reserve(k);
  pca.explained_variance_ratio_.reserve(k);

  Rng rng(0x9ca5eedULL);
  std::vector<double> v(d);
  std::vector<double> xv(n);
  for (std::size_t comp = 0; comp < k; ++comp) {
    for (double& x : v) x = rng.normal();
    normalize(v);

    double eigenvalue = 0.0;
    for (std::size_t iter = 0; iter < max_iterations; ++iter) {
      // v <- X^T (X v) / (n - 1), the covariance product without
      // materializing the covariance matrix.
      for (std::size_t i = 0; i < n; ++i) {
        const double* rowp = centred.data() + i * d;
        double acc = 0.0;
        for (std::size_t j = 0; j < d; ++j) acc += rowp[j] * v[j];
        xv[i] = acc;
      }
      std::vector<double> next(d, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        const double* rowp = centred.data() + i * d;
        const double w = xv[i];
        for (std::size_t j = 0; j < d; ++j) next[j] += w * rowp[j];
      }
      for (double& x : next) x /= static_cast<double>(n - 1);

      const double new_eigenvalue = normalize(next);
      double delta = 0.0;
      for (std::size_t j = 0; j < d; ++j)
        delta += std::abs(next[j] - v[j]);
      v = std::move(next);
      const bool converged =
          std::abs(new_eigenvalue - eigenvalue) <
              tolerance * std::max(1.0, std::abs(new_eigenvalue)) &&
          delta < tolerance * static_cast<double>(d);
      eigenvalue = new_eigenvalue;
      if (converged) break;
    }

    for (std::size_t j = 0; j < d; ++j)
      pca.components_(comp, j) = static_cast<float>(v[j]);
    pca.explained_variance_.push_back(eigenvalue);
    pca.explained_variance_ratio_.push_back(
        total_variance > 0.0 ? eigenvalue / total_variance : 0.0);

    // Deflate: remove the captured direction from every observation.
    for (std::size_t i = 0; i < n; ++i) {
      double* rowp = centred.data() + i * d;
      double proj = 0.0;
      for (std::size_t j = 0; j < d; ++j) proj += rowp[j] * v[j];
      for (std::size_t j = 0; j < d; ++j) rowp[j] -= proj * v[j];
    }
  }
  return pca;
}

Matrix Pca::transform(const Matrix& data) const {
  const std::size_t d = means_.size();
  if (data.cols() != d) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "Pca::transform: column count " +
                          std::to_string(data.cols()) +
                          " != fitted dimension " + std::to_string(d));
  }
  const std::size_t k = components_.rows();
  Matrix scores(data.rows(), k);
  for (std::size_t i = 0; i < data.rows(); ++i) {
    for (std::size_t comp = 0; comp < k; ++comp) {
      double acc = 0.0;
      for (std::size_t j = 0; j < d; ++j) {
        acc += (static_cast<double>(data(i, j)) - means_[j]) *
               components_(comp, j);
      }
      scores(i, comp) = static_cast<float>(acc);
    }
  }
  return scores;
}

}  // namespace soteria::math
