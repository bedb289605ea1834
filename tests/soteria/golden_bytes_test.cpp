// Golden-bytes regression: training from a fixed seed must produce a
// byte-stable model file — equal to a committed hash, across
// independent runs, across thread counts, and across a save -> load ->
// save round trip. Any nondeterminism smuggled into the pipeline
// (iteration-order-dependent accumulation, shared RNG streams,
// uninitialized padding in the writers) shows up here as a byte diff,
// and so does any kernel change that reorders a float accumulation.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "cfg/labeling_cache.h"
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

// Verdicts of train_tiny(1) on golden_cfgs() (the first kGoldenSamples
// test samples of a fixed corpus), sample i analyzed with
// Rng(33).child(i), and the
// FNV-1a-64 of those samples' extract() floats (walk rows, then pooled
// rows, DBL before LBL). Computed at the commit before the fused
// extractor and compiled nets became the only analysis path, so they
// pin that change to the behaviour it replaced.
struct GoldenVerdict {
  bool adversarial;
  dataset::Family predicted;
  std::uint64_t error_bits;  ///< bit pattern of reconstruction_error
};
constexpr std::size_t kGoldenSamples = 8;
constexpr std::array<GoldenVerdict, kGoldenSamples> kGoldenVerdicts = {{
    {false, dataset::Family::kGafgyt, 0x3ff3ce0dd68ddf94ULL},
    {false, dataset::Family::kGafgyt, 0x3ff3907ff090c823ULL},
    {true, dataset::Family::kGafgyt, 0x3ff4cf4417d20032ULL},
    {true, dataset::Family::kGafgyt, 0x3ffbab6ecc8dbd53ULL},
    {false, dataset::Family::kGafgyt, 0x3ff3e31358564d70ULL},
    {false, dataset::Family::kGafgyt, 0x3ff118eb30fb905eULL},
    {true, dataset::Family::kGafgyt, 0x3ff6f66661b1bab1ULL},
    {false, dataset::Family::kGafgyt, 0x3ff15b9e60d75089ULL},
}};
constexpr std::uint64_t kGoldenFeatureHash = 0x4aa0e5dcc780c017ULL;

std::vector<cfg::Cfg> golden_cfgs() {
  dataset::DatasetConfig data_config;
  data_config.scale = 0.008;
  math::Rng rng(32);
  const auto data = dataset::generate_dataset(data_config, rng);
  std::vector<cfg::Cfg> cfgs;
  for (std::size_t i = 0; i < kGoldenSamples; ++i) {
    cfgs.push_back(data.test.at(i).cfg);
  }
  return cfgs;
}

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

void expect_golden_verdicts(const SoteriaSystem& system) {
  const auto verdicts = system.analyze_batch(golden_cfgs(), math::Rng(33));
  ASSERT_EQ(verdicts.size(), kGoldenSamples);
  for (std::size_t i = 0; i < kGoldenSamples; ++i) {
    EXPECT_EQ(verdicts[i].adversarial, kGoldenVerdicts[i].adversarial)
        << "sample " << i;
    EXPECT_EQ(verdicts[i].predicted, kGoldenVerdicts[i].predicted)
        << "sample " << i;
    EXPECT_EQ(bits_of(verdicts[i].reconstruction_error),
              kGoldenVerdicts[i].error_bits)
        << "sample " << i;
  }
}

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
    system = new SoteriaSystem(train_tiny(1));
    bytes = new std::string(save_bytes(*system));
  }
  static void TearDownTestSuite() {
    delete bytes;
    delete system;
    bytes = nullptr;
    system = nullptr;
  }
  static SoteriaSystem* system;
  static std::string* bytes;
};

SoteriaSystem* GoldenBytesFixture::system = nullptr;
std::string* GoldenBytesFixture::bytes = nullptr;

TEST_F(GoldenBytesFixture, SaveMatchesCommittedHash) {
  EXPECT_EQ(fnv1a64(*bytes), kTinyModelHash)
      << "trained model bytes differ from the committed golden hash";
}

TEST_F(GoldenBytesFixture, VerdictsMatchCommittedGoldens) {
  expect_golden_verdicts(*system);
}

TEST_F(GoldenBytesFixture, ExtractMatchesCommittedHash) {
  const auto cfgs = golden_cfgs();
  std::string floats;
  const auto append = [&floats](const std::vector<float>& row) {
    floats.append(reinterpret_cast<const char*>(row.data()),
                  row.size() * sizeof(float));
  };
  const math::Rng base(33);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    math::Rng rng = base.child(i);
    const auto features = system->extract(cfgs[i], rng);
    for (const auto& row : features.dbl) append(row);
    for (const auto& row : features.lbl) append(row);
    append(features.pooled_dbl);
    append(features.pooled_lbl);
  }
  EXPECT_EQ(fnv1a64(floats), kGoldenFeatureHash);
}

TEST_F(GoldenBytesFixture, StoreKeyHashesMatchCommittedValues) {
  // Two of a feature-store key's three parts: the CFG content hash
  // (also the labeling cache's key) and the pipeline fingerprint. A
  // change to either value makes every existing store miss.
  graph::DiGraph diamond(4);
  diamond.add_edge(0, 1);
  diamond.add_edge(0, 2);
  diamond.add_edge(1, 3);
  diamond.add_edge(2, 3);
  EXPECT_EQ(cfg::LabelingCache::content_hash(cfg::Cfg(diamond, 0)),
            0x97f855f01e7e1f01ULL);
  EXPECT_EQ(system->pipeline().fingerprint().value,
            0xef21c28ba3d961efULL);
}

TEST_F(GoldenBytesFixture, ScoreFeaturesAgreesWithAnalyze) {
  // The attackers' oracle view of a bundle (one pass of each CNN) must
  // say what a verdict says about the same walks.
  const auto cfgs = golden_cfgs();
  const math::Rng base(33);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    math::Rng extract_rng = base.child(i);
    const auto features = system->extract(cfgs[i], extract_rng);
    const auto scores = system->score_features(features);
    math::Rng analyze_rng = base.child(i);
    const auto verdict = system->analyze(cfgs[i], analyze_rng);

    EXPECT_EQ(bits_of(scores.detector_score),
              bits_of(verdict.reconstruction_error))
        << "sample " << i;
    EXPECT_EQ(bits_of(scores.detector_score), kGoldenVerdicts[i].error_bits)
        << "sample " << i;
    EXPECT_EQ(scores.threshold, system->detector().threshold());
    EXPECT_EQ(scores.adversarial, verdict.adversarial) << "sample " << i;
    EXPECT_EQ(scores.predicted, verdict.predicted) << "sample " << i;
    std::size_t total = 0;
    for (const std::size_t v : scores.votes) total += v;
    EXPECT_EQ(total, features.dbl.size() + features.lbl.size())
        << "sample " << i;
  }
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

  // A loaded system scores the golden samples exactly like the
  // original: the nets are compiled on load, not only after train.
  expect_golden_verdicts(a);
}

}  // namespace
}  // namespace soteria::core
