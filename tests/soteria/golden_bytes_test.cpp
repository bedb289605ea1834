// Golden-bytes regression: training from a fixed seed must produce a
// byte-stable model file — equal to a committed hash, across
// independent runs, across thread counts, and across a save -> load ->
// save round trip. Any nondeterminism smuggled into the pipeline
// (iteration-order-dependent accumulation, shared RNG streams,
// uninitialized padding in the writers) shows up here as a byte diff,
// and so does any kernel change that reorders a float accumulation.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "dataset/generator.h"
#include "soteria/presets.h"
#include "soteria/system.h"

namespace soteria::core {
namespace {

std::string save_bytes(const SoteriaSystem& system) {
  std::ostringstream out(std::ios::binary);
  system.save(out);
  return out.str();
}

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// FNV-1a-64 of train_tiny(1)'s save() bytes. The value was computed
// with the scalar reference training kernels, so it pins the SIMD
// kernels to their accumulation order. The library builds with
// -ffp-contract=off (src/CMakeLists.txt), so the value is the same in
// Release, ASan and TSan builds.
constexpr std::uint64_t kTinyModelHash = 0xcd48f4baee2aa499ULL;

SoteriaSystem train_tiny(std::size_t num_threads) {
  dataset::DatasetConfig data_config;
  data_config.scale = 0.008;
  math::Rng rng(31);
  const auto data = dataset::generate_dataset(data_config, rng);
  SoteriaConfig config = tiny_config();
  config.seed = 31;
  config.num_threads = num_threads;
  return SoteriaSystem::train(data.train, config);
}

struct GoldenBytesFixture : public ::testing::Test {
  static void SetUpTestSuite() {
    bytes = new std::string(save_bytes(train_tiny(1)));
  }
  static void TearDownTestSuite() {
    delete bytes;
    bytes = nullptr;
  }
  static std::string* bytes;
};

std::string* GoldenBytesFixture::bytes = nullptr;

TEST_F(GoldenBytesFixture, SaveMatchesCommittedHash) {
  EXPECT_EQ(fnv1a64(*bytes), kTinyModelHash)
      << "trained model bytes differ from the committed golden hash";
}

TEST_F(GoldenBytesFixture, SaveIsByteStableAcrossRunsAndThreadCounts) {
  // Second training run at a different thread count: same seed, same
  // corpus, so the serialized model must be bit-identical.
  const auto again = save_bytes(train_tiny(4));
  ASSERT_FALSE(bytes->empty());
  ASSERT_EQ(bytes->size(), again.size());
  EXPECT_TRUE(*bytes == again)
      << "retrained model bytes diverged from the first run";
}

TEST_F(GoldenBytesFixture, SaveLoadSaveRoundTripsIdentically) {
  std::istringstream in(*bytes, std::ios::binary);
  const auto loaded = SoteriaSystem::load(in);
  const auto resaved = save_bytes(loaded);
  ASSERT_EQ(bytes->size(), resaved.size());
  EXPECT_TRUE(*bytes == resaved)
      << "save -> load -> save changed the byte stream";
}

TEST_F(GoldenBytesFixture, LoadedModelScoresMatchOriginalBytes) {
  // Two independent loads of the same bytes must agree on a verdict —
  // guards against load-order-dependent state.
  std::istringstream in_a(*bytes, std::ios::binary);
  std::istringstream in_b(*bytes, std::ios::binary);
  auto a = SoteriaSystem::load(in_a);
  auto b = SoteriaSystem::load(in_b);
  EXPECT_DOUBLE_EQ(a.detector().threshold(), b.detector().threshold());

  dataset::DatasetConfig data_config;
  data_config.scale = 0.008;
  math::Rng rng(32);
  const auto data = dataset::generate_dataset(data_config, rng);
  math::Rng rng_a(33);
  math::Rng rng_b(33);
  const auto verdict_a = a.analyze(data.test.front().cfg, rng_a);
  const auto verdict_b = b.analyze(data.test.front().cfg, rng_b);
  EXPECT_DOUBLE_EQ(verdict_a.reconstruction_error,
                   verdict_b.reconstruction_error);
  EXPECT_EQ(verdict_a.adversarial, verdict_b.adversarial);
  EXPECT_EQ(verdict_a.predicted, verdict_b.predicted);
}

}  // namespace
}  // namespace soteria::core
