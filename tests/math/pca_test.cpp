#include "math/pca.h"

#include <gtest/gtest.h>

#include <cmath>

#include "expect_error.h"
#include "math/rng.h"

namespace soteria::math {
namespace {

// Data stretched along a known direction: PCA must recover it.
Matrix anisotropic_data(std::size_t n, Rng& rng) {
  Matrix data(n, 3);
  for (std::size_t i = 0; i < n; ++i) {
    const double main_axis = rng.normal(0.0, 10.0);  // along (1,1,0)/sqrt2
    const double noise1 = rng.normal(0.0, 0.1);
    const double noise2 = rng.normal(0.0, 0.1);
    data(i, 0) = static_cast<float>(main_axis + noise1);
    data(i, 1) = static_cast<float>(main_axis - noise1);
    data(i, 2) = static_cast<float>(noise2 + 5.0);  // offset, tiny variance
  }
  return data;
}

TEST(Pca, RecoversDominantDirection) {
  Rng rng(1);
  const auto data = anisotropic_data(500, rng);
  const auto pca = Pca::fit(data, 1);
  const auto& c = pca.components();
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  // Direction is +-(1,1,0)/sqrt(2).
  EXPECT_NEAR(std::abs(c(0, 0)), inv_sqrt2, 0.02);
  EXPECT_NEAR(std::abs(c(0, 1)), inv_sqrt2, 0.02);
  EXPECT_NEAR(std::abs(c(0, 2)), 0.0, 0.05);
}

TEST(Pca, ExplainedVarianceRatioDescendsAndSums) {
  Rng rng(2);
  const auto data = anisotropic_data(500, rng);
  const auto pca = Pca::fit(data, 3);
  const auto& ratios = pca.explained_variance_ratio();
  ASSERT_EQ(ratios.size(), 3U);
  EXPECT_GE(ratios[0], ratios[1]);
  EXPECT_GE(ratios[1], ratios[2] - 1e-9);
  EXPECT_GT(ratios[0], 0.95);  // dominant direction carries ~all variance
  double total = 0.0;
  for (double r : ratios) total += r;
  EXPECT_NEAR(total, 1.0, 0.02);
}

TEST(Pca, ComponentsAreOrthonormal) {
  Rng rng(3);
  Matrix data(200, 5);
  data.fill_normal(rng, 0.0F, 1.0F);
  const auto pca = Pca::fit(data, 3);
  const auto& c = pca.components();
  for (std::size_t i = 0; i < 3; ++i) {
    double norm = 0.0;
    for (std::size_t j = 0; j < 5; ++j) norm += c(i, j) * c(i, j);
    EXPECT_NEAR(norm, 1.0, 1e-4);
    for (std::size_t k = i + 1; k < 3; ++k) {
      double dot = 0.0;
      for (std::size_t j = 0; j < 5; ++j) dot += c(i, j) * c(k, j);
      EXPECT_NEAR(dot, 0.0, 1e-2);
    }
  }
}

TEST(Pca, TransformCentersData) {
  Rng rng(4);
  const auto data = anisotropic_data(300, rng);
  const auto pca = Pca::fit(data, 2);
  const auto scores = pca.transform(data);
  ASSERT_EQ(scores.rows(), 300U);
  ASSERT_EQ(scores.cols(), 2U);
  double mean0 = 0.0;
  for (std::size_t i = 0; i < scores.rows(); ++i) mean0 += scores(i, 0);
  mean0 /= static_cast<double>(scores.rows());
  EXPECT_NEAR(mean0, 0.0, 1e-3);
}

TEST(Pca, TransformValidatesWidth) {
  Rng rng(5);
  Matrix data(50, 4);
  data.fill_normal(rng, 0.0F, 1.0F);
  const auto pca = Pca::fit(data, 2);
  EXPECT_ERROR((void)pca.transform(Matrix(3, 5)),
               core::ErrorCode::kInvalidArgument);
}

TEST(Pca, FitValidatesArguments) {
  Matrix data(10, 4, 1.0F);
  EXPECT_ERROR((void)Pca::fit(data, 0), core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR((void)Pca::fit(data, 5), core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR((void)Pca::fit(Matrix(1, 4), 2),
               core::ErrorCode::kInvalidArgument);
}

TEST(Pca, DeterministicAcrossCalls) {
  Rng rng(6);
  const auto data = anisotropic_data(100, rng);
  const auto a = Pca::fit(data, 2);
  const auto b = Pca::fit(data, 2);
  EXPECT_EQ(a.components(), b.components());
}

}  // namespace
}  // namespace soteria::math
