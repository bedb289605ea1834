#include "nn/optimizer.h"

#include <gtest/gtest.h>

#include <cmath>

#include "expect_error.h"

namespace soteria::nn {
namespace {

// Minimizes f(x) = 0.5 * ||x - target||^2 with gradient x - target.
double optimize_quadratic(Adam& optimizer, std::size_t steps) {
  math::Matrix x(1, 4, {5.0F, -3.0F, 2.0F, 8.0F});
  const math::Matrix target(1, 4, {1.0F, 1.0F, 1.0F, 1.0F});
  math::Matrix grad(1, 4);
  const std::vector<ParamRef> params{{&x, &grad}};
  for (std::size_t i = 0; i < steps; ++i) {
    for (std::size_t c = 0; c < 4; ++c) grad(0, c) = x(0, c) - target(0, c);
    optimizer.step(params);
  }
  double err = 0.0;
  for (std::size_t c = 0; c < 4; ++c) {
    err += std::abs(x(0, c) - target(0, c));
  }
  return err;
}

TEST(Adam, ConvergesOnQuadratic) {
  Adam adam(0.1);
  EXPECT_LT(optimize_quadratic(adam, 500), 1e-2);
}

TEST(Adam, FirstStepSizeIsLearningRate) {
  // With bias correction, the very first Adam update is ~lr * sign(g).
  Adam adam(0.01);
  math::Matrix x(1, 2, {1.0F, 1.0F});
  math::Matrix grad(1, 2, {100.0F, -0.001F});
  const std::vector<ParamRef> params{{&x, &grad}};
  adam.step(params);
  EXPECT_NEAR(x(0, 0), 1.0F - 0.01F, 1e-4);
  EXPECT_NEAR(x(0, 1), 1.0F + 0.01F, 1e-3);
}

TEST(Adam, Validation) {
  EXPECT_ERROR(Adam(0.0), core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR(Adam(-0.1), core::ErrorCode::kInvalidArgument);
  EXPECT_DOUBLE_EQ(Adam(0.25).learning_rate(), 0.25);
}

TEST(Adam, RejectsChangedParameterList) {
  Adam adam(0.01);
  math::Matrix a(1, 2), ga(1, 2), b(1, 3), gb(1, 3);
  const std::vector<ParamRef> one{{&a, &ga}};
  adam.step(one);
  const std::vector<ParamRef> two{{&a, &ga}, {&b, &gb}};
  EXPECT_ERROR(adam.step(two), core::ErrorCode::kInvalidArgument);
}

TEST(Adam, RejectsNullAndMismatchedRefs) {
  Adam adam(0.1);
  math::Matrix a(1, 2), wrong_grad(1, 3);
  const std::vector<ParamRef> null_ref{{&a, nullptr}};
  EXPECT_ERROR(adam.step(null_ref), core::ErrorCode::kInvalidArgument);
  const std::vector<ParamRef> mismatched{{&a, &wrong_grad}};
  EXPECT_ERROR(adam.step(mismatched), core::ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace soteria::nn
