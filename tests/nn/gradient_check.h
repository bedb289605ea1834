// Layer test harness and numerical gradient checks: drives one layer's
// training kernels on Matrix batches the way a TrainingWorkspace does
// (in place where the layer trains in place), and compares analytic
// backprop gradients against central finite differences of a scalar
// loss.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "math/matrix.h"
#include "nn/layer.h"

namespace soteria::nn::testing {

/// The layer's inference kernel on a Matrix batch. Throws
/// core::Error{kInvalidArgument} if the layer rejects the input width.
inline math::Matrix infer(const Layer& layer, const math::Matrix& input) {
  math::Matrix out(input.rows(), layer.output_dimension(input.cols()));
  layer.infer_into(input.data().data(), input.rows(), input.cols(),
                   out.data().data());
  return out;
}

/// One layer's train_forward / train_backward on Matrix batches, with
/// its TrainState held here as a workspace would hold it.
class LayerHarness {
 public:
  explicit LayerHarness(Layer& layer) : layer_(layer) {}

  /// train_forward on `input`; runs in place (over a copy of `input`)
  /// when the layer trains in place. Throws core::Error{kInvalidArgument}
  /// if the layer rejects the input width.
  math::Matrix forward(const math::Matrix& input) {
    const std::size_t out_width = layer_.output_dimension(input.cols());
    layer_.reserve_training(input.rows(), input.cols(), state_);
    input_ = input;
    if (layer_.trains_in_place()) {
      output_ = input;
      layer_.train_forward(output_.data().data(), input.rows(), input.cols(),
                           output_.data().data(), state_);
    } else {
      output_ = math::Matrix(input.rows(), out_width);
      layer_.train_forward(input_.data().data(), input.rows(), input.cols(),
                           output_.data().data(), state_);
    }
    return output_;
  }

  /// train_backward after the last forward; returns d(loss)/d(input).
  math::Matrix backward(const math::Matrix& grad_output) {
    EXPECT_EQ(grad_output.rows(), output_.rows());
    EXPECT_EQ(grad_output.cols(), output_.cols());
    math::Matrix grad_input(input_.rows(), input_.cols());
    const float* in = layer_.trains_in_place() ? output_.data().data()
                                               : input_.data().data();
    layer_.train_backward(in, output_.data().data(),
                          grad_output.data().data(), input_.rows(),
                          input_.cols(), grad_input.data().data(), state_);
    return grad_input;
  }

 private:
  Layer& layer_;
  TrainState state_;
  math::Matrix input_;
  math::Matrix output_;
};

/// Scalar loss used by the checks: L = sum(output^2) / 2, so
/// dL/d(output) = output.
inline double half_square_sum(const math::Matrix& m) {
  double acc = 0.0;
  for (float x : m.data()) acc += 0.5 * static_cast<double>(x) * x;
  return acc;
}

/// Verifies d(loss)/d(input) returned by the layer's train_backward
/// against finite differences. The layer must be deterministic in
/// training for this to be valid (no dropout).
inline void check_input_gradient(Layer& layer, math::Matrix input,
                                 double tolerance = 2e-2) {
  LayerHarness harness(layer);
  const math::Matrix output = harness.forward(input);
  const math::Matrix analytic = harness.backward(output);  // dL/dout = out

  const float eps = 1e-3F;
  for (std::size_t r = 0; r < input.rows(); ++r) {
    for (std::size_t c = 0; c < input.cols(); ++c) {
      const float saved = input(r, c);
      input(r, c) = saved + eps;
      const double plus = half_square_sum(harness.forward(input));
      input(r, c) = saved - eps;
      const double minus = half_square_sum(harness.forward(input));
      input(r, c) = saved;
      const double numeric = (plus - minus) / (2.0 * eps);
      EXPECT_NEAR(analytic(r, c), numeric,
                  tolerance * std::max(1.0, std::abs(numeric)))
          << "input gradient mismatch at (" << r << ", " << c << ")";
    }
  }
}

/// Verifies parameter gradients against finite differences.
inline void check_parameter_gradients(Layer& layer,
                                      const math::Matrix& input,
                                      double tolerance = 2e-2) {
  LayerHarness harness(layer);
  layer.zero_gradients();
  const math::Matrix output = harness.forward(input);
  (void)harness.backward(output);

  std::vector<ParamRef> params;
  layer.collect_parameters(params);
  const float eps = 1e-3F;
  for (std::size_t p = 0; p < params.size(); ++p) {
    auto values = params[p].value->data();
    const auto grads = params[p].grad->data();
    for (std::size_t i = 0; i < values.size(); ++i) {
      const float saved = values[i];
      values[i] = saved + eps;
      const double plus = half_square_sum(harness.forward(input));
      values[i] = saved - eps;
      const double minus = half_square_sum(harness.forward(input));
      values[i] = saved;
      const double numeric = (plus - minus) / (2.0 * eps);
      EXPECT_NEAR(grads[i], numeric,
                  tolerance * std::max(1.0, std::abs(numeric)))
          << "parameter " << p << " gradient mismatch at index " << i;
    }
  }
}

}  // namespace soteria::nn::testing
