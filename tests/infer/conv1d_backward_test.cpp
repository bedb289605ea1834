// Bitwise-identity contract of the training conv kernel:
// nn::conv1d_backward_into (and so Conv1d::backward) must produce
// exactly the grad-input, weight-grad and bias-grad bytes of the scalar
// reference loop in tests/oracles, including when gradients accumulate
// over several calls. The sweep covers channel counts on both sides of
// the 16-wide lanes, kernel == in_length (a single output position),
// and lengths whose interiors end in partial tiles.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "math/matrix.h"
#include "math/rng.h"
#include "nn/conv1d.h"
#include "oracles/conv1d_reference.h"

namespace soteria::nn {
namespace {

struct Shape {
  std::size_t rows, in_channels, in_length, out_channels, kernel;
};

std::string describe(const Shape& s) {
  return "rows " + std::to_string(s.rows) + ", in " +
         std::to_string(s.in_channels) + "x" + std::to_string(s.in_length) +
         ", out " + std::to_string(s.out_channels) + ", kernel " +
         std::to_string(s.kernel);
}

// Uniform values with exact zeros mixed in, as ReLU outputs and their
// gradients have them.
std::vector<float> random_values(std::size_t n, math::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) {
    x = rng.index(4) == 0
            ? 0.0F
            : static_cast<float>(rng.uniform(-2.0, 2.0));
  }
  return v;
}

void expect_same_bytes(const std::vector<float>& fast,
                       const std::vector<float>& oracle,
                       const std::string& what) {
  ASSERT_EQ(fast.size(), oracle.size()) << what;
  EXPECT_EQ(0, std::memcmp(fast.data(), oracle.data(),
                           fast.size() * sizeof(float)))
      << what;
}

// Two backward calls on fresh inputs and gradients, accumulating into
// the same weight/bias gradients, compared after each call.
void check_shape(const Shape& s, math::Rng& rng) {
  const std::size_t out_len = s.in_length - s.kernel + 1;
  const std::size_t in_size = s.rows * s.in_channels * s.in_length;
  const std::size_t out_size = s.rows * s.out_channels * out_len;
  const auto weights =
      random_values(s.out_channels * s.in_channels * s.kernel, rng);
  std::vector<float> fast_wg(weights.size(), 0.0F);
  std::vector<float> fast_bg(s.out_channels, 0.0F);
  auto oracle_wg = fast_wg;
  auto oracle_bg = fast_bg;
  for (int call = 0; call < 2; ++call) {
    const auto in = random_values(in_size, rng);
    const auto grad_out = random_values(out_size, rng);
    std::vector<float> fast_gi(in_size, -1.0F);
    std::vector<float> oracle_gi(in_size, 0.0F);
    conv1d_backward_into(in.data(), grad_out.data(), weights.data(),
                         fast_gi.data(), fast_wg.data(), fast_bg.data(),
                         s.rows, s.in_channels, s.in_length, s.out_channels,
                         s.kernel);
    oracles::conv1d_backward_reference(
        in.data(), grad_out.data(), weights.data(), oracle_gi.data(),
        oracle_wg.data(), oracle_bg.data(), s.rows, s.in_channels,
        s.in_length, s.out_channels, s.kernel);
    const std::string where = describe(s) + ", call " + std::to_string(call);
    expect_same_bytes(fast_gi, oracle_gi, "grad-input, " + where);
    expect_same_bytes(fast_wg, oracle_wg, "weight-grad, " + where);
    expect_same_bytes(fast_bg, oracle_bg, "bias-grad, " + where);
  }
}

TEST(Conv1dBackwardTest, MatchesReferenceBitwise) {
  math::Rng rng(61);
  // Output channels rotate through one lane exactly (16), one past it
  // (17), a padded lane (5) and the paper's 46.
  const std::size_t out_channels[] = {16, 17, 5, 46};
  std::size_t next = 0;
  for (const std::size_t in_channels : {1U, 2U, 16U, 46U, 47U}) {
    for (const std::size_t kernel : {1U, 2U, 3U, 5U}) {
      for (const std::size_t rows : {1U, 3U, 64U}) {
        // kernel == in_length; an interior of 21 (a 16-lane vector plus
        // a scalar tail); an interior of 147 (a 128-wide tile, a vector
        // and a tail).
        for (const std::size_t interior : {0U, 21U, 147U}) {
          // At 64 rows the long length alone covers the tiles.
          if (rows == 64 && interior == 21) continue;
          const std::size_t length =
              interior == 0 ? kernel : interior + 2 * (kernel - 1);
          const Shape s{rows, in_channels, length,
                        out_channels[next++ % 4], kernel};
          check_shape(s, rng);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(Conv1dBackwardTest, LayerBackwardMatchesReference) {
  // The product shape's inner convolutions: 16 filters over 16
  // channels, length 496, kernel 3, batch 64.
  const Shape s{64, 16, 496, 16, 3};
  math::Rng rng(67);
  Conv1d layer(s.in_channels, s.in_length, s.out_channels, s.kernel, rng);
  math::Matrix input(s.rows, s.in_channels * s.in_length,
                     random_values(s.rows * s.in_channels * s.in_length, rng));
  const std::size_t out_cols = s.out_channels * layer.out_length();
  math::Matrix grad_out(s.rows, out_cols,
                        random_values(s.rows * out_cols, rng));
  math::Matrix output(s.rows, out_cols);
  TrainState state;
  layer.train_forward(input.data().data(), s.rows, input.cols(),
                      output.data().data(), state);
  layer.zero_gradients();
  math::Matrix grad_in(s.rows, input.cols());
  layer.train_backward(input.data().data(), output.data().data(),
                       grad_out.data().data(), s.rows, input.cols(),
                       grad_in.data().data(), state);

  std::vector<ParamRef> params;
  layer.collect_parameters(params);
  ASSERT_EQ(params.size(), 2U);
  std::vector<float> oracle_gi(input.size(), 0.0F);
  std::vector<float> oracle_wg(layer.weights().size(), 0.0F);
  std::vector<float> oracle_bg(s.out_channels, 0.0F);
  oracles::conv1d_backward_reference(
      input.data().data(), grad_out.data().data(),
      layer.weights().data().data(), oracle_gi.data(), oracle_wg.data(),
      oracle_bg.data(), s.rows, s.in_channels, s.in_length, s.out_channels,
      s.kernel);
  const auto bytes = [](const math::Matrix& m) {
    return std::vector<float>(m.data().begin(), m.data().end());
  };
  expect_same_bytes(bytes(grad_in), oracle_gi, "grad-input");
  expect_same_bytes(bytes(*params[0].grad), oracle_wg, "weight-grad");
  expect_same_bytes(bytes(*params[1].grad), oracle_bg, "bias-grad");
}

}  // namespace
}  // namespace soteria::nn
