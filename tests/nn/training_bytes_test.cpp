// Product-shape training bytes: the classifier CNN and the detector
// autoencoder at the shapes cpu_scaled_config() trains (CNN: 16
// filters, dense 128, width 500; autoencoder: 1000 -> 200/300/200 ->
// 1000), each trained for two Adam epochs of 64-row batches plus a
// 6-row last batch, must save parameter bytes equal to a committed
// hash. tiny_config's golden hash (tests/soteria/golden_bytes_test.cpp)
// covers neither the Conv1d kernels' 4-channel tiles nor a short last
// batch; these do. Any change to the training arithmetic, its order or
// the dropout draws shows up here as a byte diff.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "math/matrix.h"
#include "math/rng.h"
#include "nn/autoencoder.h"
#include "nn/cnn.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"

namespace soteria::nn {
namespace {

// Two full 64-row batches' worth of rows would hide the short batch;
// 70 rows are one 64-row batch and one 6-row batch per epoch.
constexpr std::size_t kRows = 70;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kEpochs = 2;

// FNV-1a-64 of each net's save_parameters() bytes after training,
// computed with the per-layer Matrix-returning training path
// (Layer::forward / Layer::backward, each layer caching its batch).
constexpr std::uint64_t kProductCnnHash = 0xac76f92c02fb8255ULL;
constexpr std::uint64_t kProductAutoencoderHash = 0x43638cd2f461ab73ULL;

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex(std::uint64_t value) {
  char text[19];
  std::snprintf(text, sizeof text, "0x%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

std::uint64_t parameter_hash(const Sequential& model) {
  std::ostringstream out(std::ios::binary);
  model.save_parameters(out);
  return fnv1a64(out.str());
}

// TF-IDF-like rows: non-negative, about two thirds exact zeros, so the
// GEMM kernels' all-zero tile skips are exercised as in production.
math::Matrix sparse_features(std::size_t rows, std::size_t cols,
                             math::Rng& rng) {
  math::Matrix m(rows, cols);
  for (float& x : m.data()) {
    x = rng.bernoulli(0.35) ? static_cast<float>(rng.uniform(0.0, 1.0))
                            : 0.0F;
  }
  return m;
}

TEST(ProductTrainingBytes, CnnMatchesCommittedHash) {
  math::Rng rng(2101);
  const math::Matrix features = sparse_features(kRows, 500, rng);
  std::vector<std::size_t> labels(kRows);
  for (std::size_t i = 0; i < kRows; ++i) labels[i] = i % 4;

  CnnConfig arch;
  arch.input_length = 500;
  arch.classes = 4;
  arch.filters = 16;
  arch.dense_units = 128;
  Sequential model = build_cnn(arch, rng);
  Adam optimizer(1e-3);
  const TrainReport report = train_classifier(
      model, features, labels, optimizer,
      make_train_config(kEpochs, kBatch), rng);
  ASSERT_EQ(report.epoch_losses.size(), kEpochs);
  const std::uint64_t hash = parameter_hash(model);
  EXPECT_EQ(hash, kProductCnnHash) << "got " << hex(hash);
}

TEST(ProductTrainingBytes, AutoencoderMatchesCommittedHash) {
  math::Rng rng(2102);
  const math::Matrix features = sparse_features(kRows, 1000, rng);

  AutoencoderConfig arch;
  arch.input_dim = 1000;
  arch.hidden_dims = {2000, 3000, 2000};
  arch.width_scale = 0.1;  // 200/300/200, as in cpu_scaled_config()
  Sequential model = build_autoencoder(arch, rng);
  ASSERT_EQ(model.layers().front()->output_dimension(1000), 200U);
  Adam optimizer(1e-3);
  const TrainReport report =
      train_regression(model, features, features, optimizer,
                       make_train_config(kEpochs, kBatch), rng);
  ASSERT_EQ(report.epoch_losses.size(), kEpochs);
  const std::uint64_t hash = parameter_hash(model);
  EXPECT_EQ(hash, kProductAutoencoderHash) << "got " << hex(hash);
}

}  // namespace
}  // namespace soteria::nn
