// Bitwise-identity contracts of the Conv1d+ReLU training fusion. The
// conv backward with Relu's gate folded in (conv1d_backward_into's
// `relu_out`) must give exactly the bytes of Relu::train_backward
// followed by the ungated kernel, and a TrainingWorkspace, which fuses
// every Conv1d directly followed by a Relu, must give exactly the bytes
// of the layer-by-layer chain (each layer's train_forward and
// train_backward on its own buffers), outputs and every parameter
// gradient alike. (The workspace computes no input gradient for the
// net: training never reads it.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "math/matrix.h"
#include "math/rng.h"
#include "nn/activations.h"
#include "nn/cnn.h"
#include "nn/conv1d.h"
#include "nn/sequential.h"

namespace soteria::nn {
namespace {

void expect_same_bytes(const float* got, const float* want, std::size_t n,
                       const std::string& what) {
  EXPECT_EQ(0, std::memcmp(got, want, n * sizeof(float))) << what;
}

struct ConvShape {
  std::size_t rows, in_channels, in_length, out_channels, kernel;
};

/// Draws from a few specials, so the gate sees NaN, -0.0f, +0.0f and
/// +inf outputs (a NaN or +/-0 output blocks its gradient, +inf passes
/// it), besides positive and negative values.
std::vector<float> relu_outputs(std::size_t n, math::Rng& rng) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {nan, -0.0F, 0.0F, inf};
  std::vector<float> v(n);
  for (float& x : v) {
    const std::size_t pick = rng.index(8);
    x = pick < 4 ? specials[pick]
                 : static_cast<float>(rng.uniform(-1.0, 2.0));
  }
  return v;
}

std::vector<float> gradients(std::size_t n, math::Rng& rng, bool all_zero) {
  std::vector<float> v(n, 0.0F);
  if (all_zero) return v;
  for (float& x : v) {
    const std::size_t pick = rng.index(6);
    x = pick == 0   ? 0.0F
        : pick == 1 ? -0.0F
                    : static_cast<float>(rng.uniform(-2.0, 2.0));
  }
  return v;
}

// Two accumulating backward calls, gated in the kernel and gated by
// Relu::train_backward first, compared after each.
void check_gate(const ConvShape& s, math::Rng& rng, bool zero_gradients) {
  const std::size_t out_len = s.in_length - s.kernel + 1;
  const std::size_t in_size = s.rows * s.in_channels * s.in_length;
  const std::size_t out_cols = s.out_channels * out_len;
  const std::size_t w_size = s.out_channels * s.in_channels * s.kernel;
  std::vector<float> weights(w_size);
  for (float& w : weights) w = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<float> fused_wg(w_size, 0.0F);
  std::vector<float> fused_bg(s.out_channels, 0.0F);
  std::vector<float> chain_wg = fused_wg;
  std::vector<float> chain_bg = fused_bg;
  for (int call = 0; call < 2; ++call) {
    std::vector<float> in(in_size);
    for (float& x : in) x = static_cast<float>(rng.uniform(-2.0, 2.0));
    const auto out = relu_outputs(s.rows * out_cols, rng);
    const auto grad_out = gradients(s.rows * out_cols, rng, zero_gradients);

    std::vector<float> fused_gi(in_size, -1.0F);
    conv1d_backward_into(in.data(), grad_out.data(), weights.data(),
                         fused_gi.data(), fused_wg.data(), fused_bg.data(),
                         s.rows, s.in_channels, s.in_length, s.out_channels,
                         s.kernel, out.data());

    std::vector<float> gated(grad_out.size(), -3.0F);
    TrainState state;
    Relu().train_backward(nullptr, out.data(), grad_out.data(), s.rows,
                          out_cols, gated.data(), state);
    std::vector<float> chain_gi(in_size, -2.0F);
    conv1d_backward_into(in.data(), gated.data(), weights.data(),
                         chain_gi.data(), chain_wg.data(), chain_bg.data(),
                         s.rows, s.in_channels, s.in_length, s.out_channels,
                         s.kernel);

    const std::string where =
        "rows " + std::to_string(s.rows) + ", in " +
        std::to_string(s.in_channels) + "x" + std::to_string(s.in_length) +
        ", out " + std::to_string(s.out_channels) + ", kernel " +
        std::to_string(s.kernel) + ", call " + std::to_string(call);
    expect_same_bytes(fused_gi.data(), chain_gi.data(), in_size,
                      "grad-input, " + where);
    expect_same_bytes(fused_wg.data(), chain_wg.data(), w_size,
                      "weight-grad, " + where);
    expect_same_bytes(fused_bg.data(), chain_bg.data(), s.out_channels,
                      "bias-grad, " + where);
  }
}

TEST(FusedReluTrainingTest, GatedConvBackwardMatchesReluThenConv) {
  math::Rng rng(71);
  // Output channels below, at and past one 16-wide lane (the staged
  // transpose's edges), outputs below one vector and with interior
  // tails, and the product CNN's four convolutions at 64 rows.
  const ConvShape shapes[] = {
      {3, 1, 7, 5, 3},     {2, 4, 20, 16, 3},   {3, 5, 40, 17, 2},
      {2, 16, 131, 46, 3}, {1, 3, 3, 9, 3},     {64, 1, 500, 16, 3},
      {64, 16, 498, 16, 3}, {64, 16, 248, 16, 3}, {64, 16, 246, 16, 3}};
  for (const ConvShape& s : shapes) {
    for (const bool zero_gradients : {false, true}) {
      check_gate(s, rng, zero_gradients);
      if (HasFatalFailure()) return;
    }
  }
}

/// The product classifier's shape (cpu_scaled_config's CNN: 16 filters,
/// dense 128, width 500).
Sequential product_cnn(std::uint64_t seed) {
  CnnConfig arch;
  arch.input_length = 500;
  arch.filters = 16;
  arch.dense_units = 128;
  math::Rng rng(seed);
  return build_cnn(arch, rng);
}

/// Every layer's train_forward into its own buffer, then every
/// train_backward in reverse into its own gradient buffer.
struct Chain {
  std::vector<std::vector<float>> outputs;
  std::vector<TrainState> states;
};

Chain run_chain(Sequential& model, const std::vector<float>& input,
                std::size_t rows, const std::vector<float>& grad_output) {
  const auto& layers = model.layers();
  Chain chain;
  chain.states.resize(layers.size());
  std::vector<std::size_t> widths{input.size() / rows};
  const float* x = input.data();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    Layer& layer = *layers[i];
    widths.push_back(layer.output_dimension(widths[i]));
    layer.reserve_training(rows, widths[i], chain.states[i]);
    chain.outputs.emplace_back(rows * widths[i + 1]);
    layer.train_forward(x, rows, widths[i], chain.outputs[i].data(),
                        chain.states[i]);
    x = chain.outputs[i].data();
  }
  std::vector<float> grad = grad_output;
  for (std::size_t i = layers.size(); i-- > 0;) {
    std::vector<float> grad_in(rows * widths[i]);
    const float* in = i == 0 ? input.data() : chain.outputs[i - 1].data();
    layers[i]->train_backward(in, chain.outputs[i].data(), grad.data(), rows,
                              widths[i], grad_in.data(), chain.states[i]);
    grad = std::move(grad_in);
  }
  return chain;
}

TEST(FusedReluTrainingTest, WorkspaceMatchesLayerByLayerChain) {
  // Two nets from one seed draw the same weights and dropout masks; one
  // trains through a 64-row workspace (its four Conv1d+ReLU pairs
  // fused), the other layer by layer. Batches of 64 rows, 63 (an odd
  // last GEMM row, a prefix of the workspace) and 1.
  Sequential fused = product_cnn(72);
  Sequential chained = product_cnn(72);
  TrainingWorkspace workspace(fused, 500, 64);
  math::Rng rng(73);
  for (const std::size_t rows : {64U, 63U, 1U}) {
    fused.zero_gradients();
    chained.zero_gradients();
    // TF-IDF-like input: non-negative, about two thirds exact zeros.
    std::vector<float> input(rows * 500);
    for (float& x : input) {
      x = rng.bernoulli(0.35) ? static_cast<float>(rng.uniform(0.0, 1.0))
                              : 0.0F;
    }
    std::vector<float> grad_output(rows * 4);
    for (float& g : grad_output) {
      g = static_cast<float>(rng.uniform(-0.5, 0.5));
    }

    std::copy(input.begin(), input.end(), workspace.input());
    const float* out = workspace.forward(rows);
    const std::vector<float> fused_out(out, out + rows * 4);
    workspace.backward(grad_output.data());
    const Chain chain = run_chain(chained, input, rows, grad_output);

    const std::string where = std::to_string(rows) + " rows";
    expect_same_bytes(fused_out.data(), chain.outputs.back().data(),
                      rows * 4, "logits, " + where);
    const auto fused_params = fused.parameters();
    const auto chained_params = chained.parameters();
    ASSERT_EQ(fused_params.size(), chained_params.size());
    for (std::size_t p = 0; p < fused_params.size(); ++p) {
      expect_same_bytes(fused_params[p].grad->data().data(),
                        chained_params[p].grad->data().data(),
                        fused_params[p].grad->size(),
                        "gradient of parameter " + std::to_string(p) +
                            ", " + where);
    }
  }
}

}  // namespace
}  // namespace soteria::nn
