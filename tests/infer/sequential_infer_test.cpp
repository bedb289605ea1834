// The one inference path's identity contract: Sequential::infer, which
// every detector and classifier scoring call runs through, must
// reproduce the layer-by-layer chain (each layer's infer_into into a
// fresh matrix, Dropout's copy included) bit for bit (0 ulp: both
// drive the same kernels in the same order) while touching no layer
// state. System-level behaviour is pinned by the golden verdicts in
// tests/soteria/golden_bytes_test.cpp.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>

#include "expect_error.h"
#include "math/rng.h"
#include "nn/autoencoder.h"
#include "nn/cnn.h"

namespace soteria::nn {
namespace {

/// Same shape and the same bits in every element (so -0.0 vs 0.0 and
/// NaN payloads count as differences).
void expect_bits_equal(const math::Matrix& got, const math::Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  const auto g = got.data();
  const auto w = want.data();
  for (std::size_t i = 0; i < g.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(g[i]),
              std::bit_cast<std::uint32_t>(w[i]))
        << "element " << i;
  }
}

/// Every layer's infer_into, in order, each into a fresh matrix.
math::Matrix layer_by_layer(const Sequential& model, const math::Matrix& in) {
  math::Matrix activation = in;
  for (const auto& layer : model.layers()) {
    math::Matrix out(activation.rows(),
                     layer->output_dimension(activation.cols()));
    layer->infer_into(activation.data().data(), activation.rows(),
                      activation.cols(), out.data().data());
    activation = std::move(out);
  }
  return activation;
}

void expect_infer_matches_chain(Sequential& model, std::size_t input_dim,
                                  std::size_t rows, math::Rng& rng) {
  math::Matrix in(rows, input_dim);
  in.fill_uniform(rng, -1.5F, 1.5F);
  const math::Matrix got = model.infer(in);
  EXPECT_EQ(got.cols(), model.output_dimension(input_dim));
  expect_bits_equal(got, layer_by_layer(model, in));
}

CnnConfig small_cnn(std::size_t input_length) {
  CnnConfig arch;
  arch.input_length = input_length;
  arch.filters = 6;
  arch.dense_units = 24;
  return arch;
}

AutoencoderConfig small_autoencoder(std::size_t input_dim) {
  AutoencoderConfig arch;
  arch.input_dim = input_dim;
  arch.hidden_dims = {32, 40, 32};
  return arch;
}

TEST(SequentialInferTest, CnnMatchesForwardBitwise) {
  math::Rng rng(61);
  const CnnConfig arch = small_cnn(60);
  // The built model has Dropout layers; infer skips them as inference
  // identities and must still match the chain, which runs their copy.
  Sequential model = build_cnn(arch, rng);
  for (const std::size_t rows : {0U, 1U, 3U, 8U}) {
    expect_infer_matches_chain(model, arch.input_length, rows, rng);
  }
}

TEST(SequentialInferTest, ProductCnnOnReluSparseInputMatchesChainBitwise) {
  // The product classifier's shape (16 filters, dense 128, width 500),
  // where infer runs every Conv1d with its Relu fused into the store,
  // on TF-IDF-like input: non-negative with about half exact zeros, so
  // every layer sees zeros the way a verdict's walks feed it.
  math::Rng rng(66);
  CnnConfig arch;
  arch.input_length = 500;
  arch.filters = 16;
  arch.dense_units = 128;
  const Sequential model = build_cnn(arch, rng);
  for (const std::size_t rows : {1U, 7U, 10U}) {
    math::Matrix in(rows, arch.input_length);
    for (float& x : in.data()) {
      x = rng.bernoulli(0.5) ? static_cast<float>(rng.uniform(0.0, 1.0))
                             : 0.0F;
    }
    expect_bits_equal(model.infer(in), layer_by_layer(model, in));
    if (HasFatalFailure()) return;
  }
}

TEST(SequentialInferTest, AutoencoderMatchesForwardBitwise) {
  math::Rng rng(62);
  const AutoencoderConfig arch = small_autoencoder(48);
  Sequential model = build_autoencoder(arch, rng);
  for (const std::size_t rows : {0U, 1U, 3U, 8U}) {
    expect_infer_matches_chain(model, arch.input_dim, rows, rng);
  }
}

TEST(SequentialInferTest, ArenaIsReusableAcrossBatchSizes) {
  math::Rng rng(63);
  AutoencoderConfig arch;
  arch.input_dim = 20;
  arch.hidden_dims = {16};
  Sequential model = build_autoencoder(arch, rng);
  // Shrinking then growing the batch must not disturb results: the
  // arena is grow-only and every buffer is fully overwritten per call.
  for (const std::size_t rows : {6U, 1U, 9U, 2U}) {
    expect_infer_matches_chain(model, arch.input_dim, rows, rng);
  }
}

TEST(SequentialInferTest, NetsOfDifferentWidthsShareTheArena) {
  // Every net on a thread scores through the same thread_local arena.
  // Alternating a wide CNN and a narrower autoencoder (each call
  // resizing or reusing what the other left) keeps each bit-equal to
  // its own chain.
  math::Rng rng(64);
  const CnnConfig cnn_arch = small_cnn(90);
  const AutoencoderConfig ae_arch = small_autoencoder(12);
  Sequential cnn = build_cnn(cnn_arch, rng);
  Sequential autoencoder = build_autoencoder(ae_arch, rng);
  for (const std::size_t rows : {4U, 1U, 7U, 2U}) {
    expect_infer_matches_chain(cnn, cnn_arch.input_length, rows, rng);
    expect_infer_matches_chain(autoencoder, ae_arch.input_dim, rows + 5,
                                 rng);
  }
}

TEST(SequentialInferTest, InferValidatesWidthAndEmptyModel) {
  math::Rng rng(65);
  AutoencoderConfig arch;
  arch.input_dim = 6;
  arch.hidden_dims = {4};
  const Sequential model = build_autoencoder(arch, rng);
  EXPECT_ERROR((void)model.infer(math::Matrix(1, 5)),
               core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR((void)model.infer(math::Matrix(0, 7)),
               core::ErrorCode::kInvalidArgument);
  EXPECT_EQ(model.infer(math::Matrix(0, 6)).rows(), 0U);
  EXPECT_ERROR((void)Sequential{}.infer(math::Matrix(1, 6)),
               core::ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace soteria::nn
