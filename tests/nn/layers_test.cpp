#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>

#include "expect_error.h"
#include "gradient_check.h"
#include "math/rng.h"
#include "nn/activations.h"
#include "nn/conv1d.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/pooling.h"

namespace soteria::nn {
namespace {

using testing::check_input_gradient;
using testing::check_parameter_gradients;
using testing::infer;
using testing::LayerHarness;

math::Matrix random_batch(std::size_t rows, std::size_t cols,
                          std::uint64_t seed) {
  math::Rng rng(seed);
  math::Matrix m(rows, cols);
  m.fill_normal(rng, 0.0F, 1.0F);
  return m;
}

// ---------------------------------------------------------------- Dense

TEST(Dense, ForwardIsAffine) {
  math::Rng rng(1);
  Dense layer(2, 3, rng);
  layer.weights() = math::Matrix(2, 3, {1, 2, 3, 4, 5, 6});
  layer.bias() = math::Matrix(1, 3, {10, 20, 30});
  const math::Matrix input(1, 2, {1.0F, 2.0F});
  const auto out = infer(layer, input);
  EXPECT_FLOAT_EQ(out(0, 0), 1 * 1 + 2 * 4 + 10);
  EXPECT_FLOAT_EQ(out(0, 1), 1 * 2 + 2 * 5 + 20);
  EXPECT_FLOAT_EQ(out(0, 2), 1 * 3 + 2 * 6 + 30);
}

TEST(Dense, RejectsZeroDims) {
  math::Rng rng(1);
  EXPECT_ERROR(Dense(0, 3, rng), core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR(Dense(3, 0, rng), core::ErrorCode::kInvalidArgument);
}

TEST(Dense, RejectsWrongInputWidth) {
  math::Rng rng(1);
  Dense layer(4, 2, rng);
  EXPECT_ERROR((void)infer(layer, math::Matrix(1, 3)),
               core::ErrorCode::kInvalidArgument);
  EXPECT_EQ(layer.output_dimension(4), 2U);
  EXPECT_ERROR((void)layer.output_dimension(5),
               core::ErrorCode::kInvalidArgument);
}

TEST(Dense, InputGradientMatchesNumeric) {
  math::Rng rng(2);
  Dense layer(4, 3, rng);
  check_input_gradient(layer, random_batch(2, 4, 3));
}

TEST(Dense, ParameterGradientsMatchNumeric) {
  math::Rng rng(4);
  Dense layer(3, 2, rng);
  check_parameter_gradients(layer, random_batch(2, 3, 5));
}

TEST(Dense, GradientsAccumulateUntilZeroed) {
  math::Rng rng(6);
  Dense layer(2, 2, rng);
  const auto input = random_batch(1, 2, 7);
  LayerHarness harness(layer);
  const auto out = harness.forward(input);
  (void)harness.backward(out);
  std::vector<ParamRef> params;
  layer.collect_parameters(params);
  const float first = params[0].grad->data()[0];
  (void)harness.forward(input);
  (void)harness.backward(out);
  EXPECT_NEAR(params[0].grad->data()[0], 2.0F * first, 1e-4);
  layer.zero_gradients();
  EXPECT_FLOAT_EQ(params[0].grad->data()[0], 0.0F);
}

TEST(Dense, ParameterCount) {
  math::Rng rng(8);
  Dense layer(10, 5, rng);
  EXPECT_EQ(layer.parameter_count(), 10 * 5 + 5U);
  EXPECT_EQ(layer.name(), "Dense(10->5)");
}

// ----------------------------------------------------------------- ReLU

TEST(Relu, ForwardClampsNegatives) {
  Relu relu;
  const math::Matrix in(1, 4, {-1.0F, 0.0F, 2.0F, -3.0F});
  const auto out = infer(relu, in);
  EXPECT_FLOAT_EQ(out(0, 0), 0.0F);
  EXPECT_FLOAT_EQ(out(0, 2), 2.0F);
}

TEST(Relu, BackwardMasksBlockedUnits) {
  Relu relu;
  const math::Matrix in(1, 3, {-1.0F, 2.0F, 3.0F});
  LayerHarness harness(relu);
  (void)harness.forward(in);
  const math::Matrix grad(1, 3, {5.0F, 5.0F, 5.0F});
  const auto gin = harness.backward(grad);
  EXPECT_FLOAT_EQ(gin(0, 0), 0.0F);
  EXPECT_FLOAT_EQ(gin(0, 1), 5.0F);
}

TEST(Relu, EdgeInputsGateTheGradientByTheirOutput) {
  // Training runs ReLU in place, so backward sees only the output and
  // passes a gradient iff the output is > 0: NaN (output 0) and -0.0
  // block, +inf passes.
  Relu relu;
  EXPECT_TRUE(relu.trains_in_place());
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const math::Matrix in(1, 4, {nan, -0.0F, inf, 0.0F});
  LayerHarness harness(relu);
  const auto out = harness.forward(in);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(out(0, 0)), 0U);  // NaN -> +0
  EXPECT_EQ(std::bit_cast<std::uint32_t>(out(0, 1)), 0U);  // -0 -> +0
  EXPECT_EQ(out(0, 2), inf);
  const auto gin = harness.backward(math::Matrix(1, 4, 3.0F));
  EXPECT_EQ(std::bit_cast<std::uint32_t>(gin(0, 0)), 0U);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(gin(0, 1)), 0U);
  EXPECT_EQ(gin(0, 2), 3.0F);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(gin(0, 3)), 0U);
}

TEST(Relu, GradientMatchesNumeric) {
  Relu relu;
  // Keep values away from the kink for finite differences.
  math::Matrix in(2, 3, {-1.0F, 2.0F, 0.5F, -0.4F, 1.2F, -2.0F});
  check_input_gradient(relu, in);
}

// --------------------------------------------------------------- Conv1d

TEST(Conv1d, ForwardMatchesHandComputation) {
  math::Rng rng(10);
  Conv1d conv(1, 4, 1, 2, rng);
  std::vector<ParamRef> params;
  conv.collect_parameters(params);
  // kernel [1, 2], bias 0.5
  params[0].value->data()[0] = 1.0F;
  params[0].value->data()[1] = 2.0F;
  params[1].value->data()[0] = 0.5F;
  const math::Matrix in(1, 4, {1.0F, 2.0F, 3.0F, 4.0F});
  const auto out = infer(conv, in);
  ASSERT_EQ(out.cols(), 3U);
  EXPECT_FLOAT_EQ(out(0, 0), 1 + 4 + 0.5F);
  EXPECT_FLOAT_EQ(out(0, 1), 2 + 6 + 0.5F);
  EXPECT_FLOAT_EQ(out(0, 2), 3 + 8 + 0.5F);
}

TEST(Conv1d, MultiChannelShapes) {
  math::Rng rng(11);
  Conv1d conv(3, 10, 5, 3, rng);
  EXPECT_EQ(conv.out_length(), 8U);
  EXPECT_EQ(conv.output_dimension(30), 40U);
  EXPECT_ERROR((void)conv.output_dimension(29),
               core::ErrorCode::kInvalidArgument);
  const auto out = infer(conv, random_batch(2, 30, 12));
  EXPECT_EQ(out.rows(), 2U);
  EXPECT_EQ(out.cols(), 40U);
}

TEST(Conv1d, Validation) {
  math::Rng rng(13);
  EXPECT_ERROR(Conv1d(0, 4, 1, 2, rng), core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR(Conv1d(1, 4, 1, 5, rng), core::ErrorCode::kInvalidArgument);
  Conv1d conv(1, 4, 1, 2, rng);
  EXPECT_ERROR((void)infer(conv, math::Matrix(1, 5)),
               core::ErrorCode::kInvalidArgument);
}

TEST(Conv1d, InputGradientMatchesNumeric) {
  math::Rng rng(14);
  Conv1d conv(2, 6, 3, 2, rng);
  check_input_gradient(conv, random_batch(2, 12, 15));
}

TEST(Conv1d, ParameterGradientsMatchNumeric) {
  math::Rng rng(16);
  Conv1d conv(2, 5, 2, 3, rng);
  check_parameter_gradients(conv, random_batch(2, 10, 17));
}

// ------------------------------------------------------------ MaxPool1d

TEST(MaxPool1d, ForwardPicksWindowMax) {
  MaxPool1d pool(1, 6, 2);
  const math::Matrix in(1, 6, {1.0F, 5.0F, 2.0F, 2.0F, 9.0F, -1.0F});
  const auto out = infer(pool, in);
  ASSERT_EQ(out.cols(), 3U);
  EXPECT_FLOAT_EQ(out(0, 0), 5.0F);
  EXPECT_FLOAT_EQ(out(0, 1), 2.0F);
  EXPECT_FLOAT_EQ(out(0, 2), 9.0F);
}

TEST(MaxPool1d, DropsRemainder) {
  MaxPool1d pool(1, 5, 2);
  EXPECT_EQ(pool.out_length(), 2U);
  const math::Matrix in(1, 5, {1, 2, 3, 4, 99});
  const auto out = infer(pool, in);
  EXPECT_EQ(out.cols(), 2U);  // the 99 in the tail is dropped
}

TEST(MaxPool1d, BackwardRoutesToArgmax) {
  MaxPool1d pool(1, 4, 2);
  const math::Matrix in(1, 4, {1.0F, 5.0F, 7.0F, 2.0F});
  LayerHarness harness(pool);
  (void)harness.forward(in);
  const math::Matrix grad(1, 2, {10.0F, 20.0F});
  const auto gin = harness.backward(grad);
  EXPECT_FLOAT_EQ(gin(0, 0), 0.0F);
  EXPECT_FLOAT_EQ(gin(0, 1), 10.0F);
  EXPECT_FLOAT_EQ(gin(0, 2), 20.0F);
  EXPECT_FLOAT_EQ(gin(0, 3), 0.0F);
}

TEST(MaxPool1d, WindowTwoBackwardWritesEveryInputOnce) {
  // Two channels of odd length 7 (the last element has no window), a
  // tie (the first element wins) and -0 output gradients: the argmax
  // slot gets 0 + g, so -0 lands as +0, and every other input +0.
  MaxPool1d pool(2, 7, 2);
  const math::Matrix in(1, 14, {1, 5, 7, 2, 3, 3, 9,     //
                                -1, -2, 0, 4, 6, 1, 8});
  LayerHarness harness(pool);
  (void)harness.forward(in);
  const math::Matrix grad(1, 6, {-0.0F, 2, 3, 4, -0.0F, 6});
  const auto gin = harness.backward(grad);
  const std::vector<float> expected = {0, 0, 2, 0, 3, 0, 0,  //
                                       4, 0, 0, 0, 6, 0, 0};
  ASSERT_EQ(gin.cols(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(gin(0, i)),
              std::bit_cast<std::uint32_t>(expected[i]))
        << i;
  }
}

TEST(MaxPool1d, MultiChannelIndependence) {
  MaxPool1d pool(2, 4, 2);
  const math::Matrix in(1, 8, {1, 9, 0, 0, 5, 1, 2, 8});
  const auto out = infer(pool, in);
  ASSERT_EQ(out.cols(), 4U);
  EXPECT_FLOAT_EQ(out(0, 0), 9.0F);
  EXPECT_FLOAT_EQ(out(0, 2), 5.0F);
  EXPECT_FLOAT_EQ(out(0, 3), 8.0F);
}

TEST(MaxPool1d, Validation) {
  EXPECT_ERROR(MaxPool1d(0, 4, 2), core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR(MaxPool1d(1, 4, 5), core::ErrorCode::kInvalidArgument);
  MaxPool1d pool(1, 4, 2);
  EXPECT_ERROR((void)infer(pool, math::Matrix(1, 5)),
               core::ErrorCode::kInvalidArgument);
}

// -------------------------------------------------------------- Dropout

TEST(Dropout, IdentityAtInference) {
  math::Rng rng(20);
  Dropout dropout(0.5, rng);
  const auto in = random_batch(2, 8, 21);
  EXPECT_TRUE(dropout.identity_at_inference());
  EXPECT_EQ(infer(dropout, in), in);
}

TEST(Dropout, TrainingZeroesAndRescales) {
  math::Rng rng(22);
  Dropout dropout(0.5, rng);
  math::Matrix in(1, 2000, 1.0F);
  LayerHarness harness(dropout);
  const auto out = harness.forward(in);
  std::size_t zeros = 0;
  for (float x : out.data()) {
    if (x == 0.0F) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(x, 2.0F);  // inverted dropout scale 1/(1-p)
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 2000.0, 0.5, 0.05);
}

TEST(Dropout, BackwardUsesSameMask) {
  math::Rng rng(23);
  Dropout dropout(0.5, rng);
  math::Matrix in(1, 100, 1.0F);
  LayerHarness harness(dropout);
  const auto out = harness.forward(in);
  const math::Matrix grad(1, 100, 1.0F);
  const auto gin = harness.backward(grad);
  for (std::size_t c = 0; c < 100; ++c) {
    EXPECT_FLOAT_EQ(gin(0, c), out(0, c));  // same zero pattern & scale
  }
}

TEST(Dropout, ZeroRateIsIdentityEvenInTraining) {
  math::Rng rng(24);
  Dropout dropout(0.0, rng);
  const auto in = random_batch(1, 5, 25);
  LayerHarness harness(dropout);
  EXPECT_EQ(harness.forward(in), in);
  EXPECT_EQ(harness.backward(in), in);
}

TEST(Dropout, RateValidation) {
  math::Rng rng(26);
  EXPECT_ERROR(Dropout(-0.1, rng), core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR(Dropout(1.0, rng), core::ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace soteria::nn
