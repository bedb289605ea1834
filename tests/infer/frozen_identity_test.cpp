// The compiled nets' identity contract: nn::FrozenNet, which every
// detector and classifier scoring call runs through, must reproduce
// Sequential::infer bit-for-bit (0 ulp: it drives the same kernels in
// the same order). System-level behaviour is pinned by the golden
// verdicts in tests/soteria/golden_bytes_test.cpp.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "math/rng.h"
#include "nn/autoencoder.h"
#include "nn/cnn.h"
#include "nn/dense.h"
#include "nn/frozen.h"

namespace soteria::core {
namespace {

void expect_net_matches(const nn::Sequential& model, std::size_t input_dim,
                        std::size_t rows, math::Rng& rng) {
  const nn::FrozenNet net = nn::FrozenNet::compile(model, input_dim);
  EXPECT_EQ(net.output_dim(), model.output_dimension(input_dim));
  math::Matrix in(rows, input_dim);
  in.fill_uniform(rng, -1.5F, 1.5F);
  const math::Matrix oracle = model.infer(in);
  std::vector<float> fused(rows * net.output_dim(), -7.0F);
  nn::FrozenNet::Scratch scratch;
  net.infer_into(in.data().data(), rows, fused.data(), scratch);
  ASSERT_EQ(fused.size(), oracle.data().size());
  EXPECT_EQ(0, std::memcmp(fused.data(), oracle.data().data(),
                           fused.size() * sizeof(float)));
}

TEST(FrozenNetTest, CnnMatchesSequentialBitwise) {
  math::Rng rng(61);
  nn::CnnConfig arch;
  arch.input_length = 60;
  arch.filters = 6;
  arch.dense_units = 24;
  // Dropout layers are present in the built model and must compile
  // away as inference identities.
  nn::Sequential model = nn::build_cnn(arch, rng);
  for (const std::size_t rows : {1U, 3U, 8U}) {
    expect_net_matches(model, arch.input_length, rows, rng);
  }
}

TEST(FrozenNetTest, AutoencoderMatchesSequentialBitwise) {
  math::Rng rng(62);
  nn::AutoencoderConfig arch;
  arch.input_dim = 48;
  arch.hidden_dims = {32, 40, 32};
  nn::Sequential model = nn::build_autoencoder(arch, rng);
  for (const std::size_t rows : {1U, 5U}) {
    expect_net_matches(model, arch.input_dim, rows, rng);
  }
}

TEST(FrozenNetTest, ScratchIsReusableAcrossBatchSizes) {
  math::Rng rng(63);
  nn::AutoencoderConfig arch;
  arch.input_dim = 20;
  arch.hidden_dims = {16};
  nn::Sequential model = nn::build_autoencoder(arch, rng);
  const nn::FrozenNet net = nn::FrozenNet::compile(model, arch.input_dim);
  nn::FrozenNet::Scratch scratch;
  // Shrinking then growing the batch must not disturb results: buffers
  // are grow-only and fully overwritten per call.
  for (const std::size_t rows : {6U, 1U, 9U, 2U}) {
    math::Matrix in(rows, arch.input_dim);
    in.fill_uniform(rng, -1.0F, 1.0F);
    const math::Matrix oracle = model.infer(in);
    std::vector<float> fused(rows * net.output_dim());
    net.infer_into(in.data().data(), rows, fused.data(), scratch);
    EXPECT_EQ(0, std::memcmp(fused.data(), oracle.data().data(),
                             fused.size() * sizeof(float)));
  }
}

TEST(FrozenNetTest, RefersToLayerWeightsAcrossMoves) {
  // The net holds no copy of the weights: it reads the layers' own
  // tensors, which stay put when the owning Sequential moves, and it
  // sees in-place updates (the next training step) on the next call.
  math::Rng rng(64);
  nn::AutoencoderConfig arch;
  arch.input_dim = 12;
  arch.hidden_dims = {8};
  nn::Sequential model = nn::build_autoencoder(arch, rng);
  const nn::FrozenNet net = nn::FrozenNet::compile(model, arch.input_dim);
  const nn::Sequential moved = std::move(model);
  expect_net_matches(moved, arch.input_dim, 3, rng);

  math::Matrix in(2, arch.input_dim);
  in.fill_uniform(rng, -1.0F, 1.0F);
  const math::Matrix before = net.infer(in);
  auto* dense = dynamic_cast<nn::Dense*>(moved.layers().front().get());
  ASSERT_NE(dense, nullptr);
  dense->bias().data()[0] += 1.0F;
  const math::Matrix after = net.infer(in);
  EXPECT_NE(before, after);
  const math::Matrix oracle = moved.infer(in);
  EXPECT_EQ(0, std::memcmp(after.data().data(), oracle.data().data(),
                           after.data().size() * sizeof(float)));
}

TEST(FrozenNetTest, InferValidatesWidthAndCompilation) {
  math::Rng rng(65);
  nn::AutoencoderConfig arch;
  arch.input_dim = 6;
  arch.hidden_dims = {4};
  const nn::Sequential model = nn::build_autoencoder(arch, rng);
  const nn::FrozenNet net = nn::FrozenNet::compile(model, arch.input_dim);
  EXPECT_THROW((void)net.infer(math::Matrix(1, 5)), std::invalid_argument);
  EXPECT_EQ(net.infer(math::Matrix(0, 6)).rows(), 0U);
  EXPECT_THROW((void)nn::FrozenNet{}.infer(math::Matrix(1, 6)),
               std::logic_error);
}

}  // namespace
}  // namespace soteria::core
