// Deterministic load sweep: every seeded arrival pattern (uniform
// storm, bursty, adversarially skewed hot key) replayed through the
// micro-batched AnalysisService at {1,2,4,8} workers x {1,4,16}
// max_batch, and every verdict stream compared bit-exactly against one
// serial analyze_batch over the same arrivals. This is the determinism
// contract's enforcement arm: if batching or worker scheduling ever
// leaks into the math, one of the 12 combinations diverges and names
// the culprit. Carries the `serve`
// ctest label; the sanitize builds run it under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dataset/generator.h"
#include "load_harness.h"
#include "serve/service.h"
#include "soteria/presets.h"
#include "soteria/system.h"
#include "store/feature_store.h"

namespace soteria::serve {
namespace {

using testing::ArrivalPattern;
using testing::arrival_indices;
using testing::submit_all;

constexpr std::uint64_t kSweepSeed = 71;
constexpr std::size_t kRequests = 24;

struct LoadSweepFixture : public ::testing::Test {
  static void SetUpTestSuite() {
    dataset::DatasetConfig data_config;
    data_config.scale = 0.008;
    math::Rng rng(61);
    const auto data = dataset::generate_dataset(data_config, rng);

    core::SoteriaConfig config = core::tiny_config();
    config.seed = 61;
    model = new std::shared_ptr<const core::SoteriaSystem>(
        std::make_shared<const core::SoteriaSystem>(
            core::SoteriaSystem::train(data.train, config)));

    corpus = new std::vector<std::shared_ptr<const cfg::Cfg>>();
    for (const auto& sample : data.test) {
      corpus->push_back(std::make_shared<const cfg::Cfg>(sample.cfg));
    }

    // One persistent store shared by every combination: repeated
    // (content, fingerprint, walk-seed) keys hit instead of re-walking,
    // which keeps the 12-combination sweep fast — and doubles as a
    // check that verdicts stay bit-identical with the store in play.
    store_dir = new std::filesystem::path(
        std::filesystem::temp_directory_path() / "soteria_load_sweep_store");
    std::error_code ec;
    std::filesystem::remove_all(*store_dir, ec);  // stale runs
    store = new std::shared_ptr<store::FeatureStore>(
        std::make_shared<store::FeatureStore>(
            store::StoreConfig{store_dir->string()}));
  }
  static void TearDownTestSuite() {
    delete store;
    store = nullptr;
    std::error_code ec;
    std::filesystem::remove_all(*store_dir, ec);
    delete store_dir;
    store_dir = nullptr;
    delete corpus;
    corpus = nullptr;
    delete model;
    model = nullptr;
  }

  /// The ground truth for a pattern: serial analyze_batch over the
  /// arrival sequence, request i drawing from Rng(seed).child(i) —
  /// exactly what the service must reproduce at any concurrency.
  [[nodiscard]] static std::vector<core::Verdict> serial_expected(
      const std::vector<std::size_t>& indices) {
    std::vector<const cfg::Cfg*> cfgs;
    std::vector<math::Rng> rngs;
    cfgs.reserve(indices.size());
    rngs.reserve(indices.size());
    const math::Rng base(kSweepSeed);
    for (std::size_t i = 0; i < indices.size(); ++i) {
      cfgs.push_back((*corpus)[indices[i]].get());
      rngs.push_back(base.child(i));
    }
    core::AnalyzeOptions options;
    options.num_threads = 1;
    options.feature_store = *store;
    return (*model)->analyze_batch(cfgs, rngs, options);
  }

  static void run_sweep(ArrivalPattern pattern, std::uint64_t pattern_seed) {
    const auto indices =
        arrival_indices(pattern, corpus->size(), kRequests, pattern_seed);
    ASSERT_EQ(indices.size(), kRequests);
    const auto expected = serial_expected(indices);
    ASSERT_EQ(expected.size(), kRequests);

    for (const std::size_t workers : {1U, 2U, 4U, 8U}) {
      for (const std::size_t batch : {1U, 4U, 16U}) {
        SCOPED_TRACE("workers=" + std::to_string(workers) +
                     " batch=" + std::to_string(batch));
        ServiceConfig config;
        config.seed = kSweepSeed;
        config.num_threads = workers;
        config.max_batch = batch;
        config.feature_store = *store;
        AnalysisService service(*model, config);

        auto tickets = submit_all(service, *corpus, indices);
        ASSERT_EQ(tickets.size(), kRequests);
        // Ids are dense, in arrival order.
        for (std::size_t i = 0; i < tickets.size(); ++i) {
          ASSERT_EQ(tickets[i].id, i);
        }
        for (std::size_t i = 0; i < tickets.size(); ++i) {
          const auto verdict = tickets[i].verdict.get();
          EXPECT_EQ(verdict.adversarial, expected[i].adversarial)
              << "request " << i;
          EXPECT_EQ(verdict.predicted, expected[i].predicted)
              << "request " << i;
          EXPECT_EQ(verdict.reconstruction_error,
                    expected[i].reconstruction_error)
              << "request " << i;
        }

        const auto stats = service.stats();
        EXPECT_EQ(stats.accepted, kRequests);
        EXPECT_EQ(stats.completed, kRequests);
        EXPECT_EQ(stats.failed, 0U);
        EXPECT_GE(stats.batches, 1U);
      }
    }
  }

  static std::shared_ptr<const core::SoteriaSystem>* model;
  static std::vector<std::shared_ptr<const cfg::Cfg>>* corpus;
  static std::filesystem::path* store_dir;
  static std::shared_ptr<store::FeatureStore>* store;
};

std::shared_ptr<const core::SoteriaSystem>* LoadSweepFixture::model = nullptr;
std::vector<std::shared_ptr<const cfg::Cfg>>* LoadSweepFixture::corpus =
    nullptr;
std::filesystem::path* LoadSweepFixture::store_dir = nullptr;
std::shared_ptr<store::FeatureStore>* LoadSweepFixture::store = nullptr;

TEST_F(LoadSweepFixture, ArrivalPatternsAreSeededAndPure) {
  // Same (pattern, seed) => same arrivals; different seed => different.
  const auto a = arrival_indices(ArrivalPattern::kUniformStorm, 7, 64, 9);
  const auto b = arrival_indices(ArrivalPattern::kUniformStorm, 7, 64, 9);
  const auto c = arrival_indices(ArrivalPattern::kUniformStorm, 7, 64, 10);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  for (const std::size_t index : a) EXPECT_LT(index, 7U);

  // The skewed pattern really is skewed: its hot key dominates.
  const auto skew =
      arrival_indices(ArrivalPattern::kSkewedHotKey, 7, 200, 9);
  std::vector<std::size_t> counts(7, 0);
  for (const std::size_t index : skew) ++counts[index];
  EXPECT_GE(*std::max_element(counts.begin(), counts.end()), 120U);
}

TEST_F(LoadSweepFixture, UniformStormBitIdenticalAcrossAllCombinations) {
  run_sweep(ArrivalPattern::kUniformStorm, 101);
}

TEST_F(LoadSweepFixture, BurstyArrivalsBitIdenticalAcrossAllCombinations) {
  run_sweep(ArrivalPattern::kBursty, 102);
}

TEST_F(LoadSweepFixture, SkewedShardKeysBitIdenticalAcrossAllCombinations) {
  run_sweep(ArrivalPattern::kSkewedHotKey, 103);
}

}  // namespace
}  // namespace soteria::serve
