// End-to-end feature-store determinism: verdicts must be bit-identical
// with the store off, cold (populating), and warm (serving hits) — at
// any thread count, through analyze_batch and the async
// serve::AnalysisService, and across a hot model swap (whose new
// pipeline fingerprint must miss instead of reading the old model's
// vectors). Also exercises the acceptance path: a store directory with
// injected corrupt entries opens, quarantines, and serves misses
// without an error surfacing to analysis. Carries the `store` ctest
// label; the sanitize builds run it under TSan.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dataset/generator.h"
#include "serve/service.h"
#include "soteria/presets.h"
#include "soteria/system.h"
#include "store/feature_store.h"

namespace soteria::store {
namespace {

namespace fs = std::filesystem;

/// A shared copy of `cfg`, the form AnalysisService::submit takes.
std::shared_ptr<const cfg::Cfg> shared(const cfg::Cfg& cfg) {
  return std::make_shared<const cfg::Cfg>(cfg);
}

void expect_verdicts_equal(const std::vector<core::Verdict>& actual,
                           const std::vector<core::Verdict>& expected,
                           const char* what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].adversarial, expected[i].adversarial)
        << what << ": sample " << i;
    EXPECT_EQ(actual[i].reconstruction_error,
              expected[i].reconstruction_error)
        << what << ": sample " << i;
    EXPECT_EQ(actual[i].predicted, expected[i].predicted)
        << what << ": sample " << i;
  }
}

// Training dominates suite wall-clock: two tiny systems (different
// seeds => different vocabularies => different fingerprints) are
// trained once and shared read-only by every test.
struct StoreIdentityFixture : public ::testing::Test {
  static void SetUpTestSuite() {
    dataset::DatasetConfig data_config;
    data_config.scale = 0.008;
    math::Rng rng(29);
    data = new dataset::Dataset(dataset::generate_dataset(data_config, rng));

    core::SoteriaConfig config = core::tiny_config();
    config.seed = 29;
    model_a = new std::shared_ptr<const core::SoteriaSystem>(
        std::make_shared<const core::SoteriaSystem>(
            core::SoteriaSystem::train(data->train, config)));
    config.seed = 31;
    model_b = new std::shared_ptr<const core::SoteriaSystem>(
        std::make_shared<const core::SoteriaSystem>(
            core::SoteriaSystem::train(data->train, config)));
  }
  static void TearDownTestSuite() {
    delete model_b;
    delete model_a;
    delete data;
    model_b = nullptr;
    model_a = nullptr;
    data = nullptr;
  }

  void SetUp() override {
    dir_ = fs::current_path() /
           ("soteria_store_identity_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::shared_ptr<FeatureStore> open_store() const {
    StoreConfig config;
    config.directory = dir_.string();
    return std::make_shared<FeatureStore>(config);
  }

  [[nodiscard]] static std::vector<cfg::Cfg> test_cfgs(std::size_t n) {
    std::vector<cfg::Cfg> cfgs;
    for (std::size_t i = 0; i < std::min(n, data->test.size()); ++i) {
      cfgs.push_back(data->test[i].cfg);
    }
    return cfgs;
  }

  [[nodiscard]] static const core::SoteriaSystem& a() { return **model_a; }
  [[nodiscard]] static const core::SoteriaSystem& b() { return **model_b; }

  fs::path dir_;
  static dataset::Dataset* data;
  static std::shared_ptr<const core::SoteriaSystem>* model_a;
  static std::shared_ptr<const core::SoteriaSystem>* model_b;
};

dataset::Dataset* StoreIdentityFixture::data = nullptr;
std::shared_ptr<const core::SoteriaSystem>* StoreIdentityFixture::model_a =
    nullptr;
std::shared_ptr<const core::SoteriaSystem>* StoreIdentityFixture::model_b =
    nullptr;

TEST_F(StoreIdentityFixture, FingerprintIsStableAndTrainingSensitive) {
  EXPECT_NE(a().pipeline().fingerprint().value, 0u);
  EXPECT_EQ(a().pipeline().fingerprint(),
            a().pipeline().fingerprint());
  // Different training seed => different vocabularies => different
  // fingerprint (this is what keys model swaps to clean misses).
  EXPECT_NE(a().pipeline().fingerprint(),
            b().pipeline().fingerprint());

  // A save/load round trip preserves the fingerprint: a reloaded model
  // keeps hitting the entries it wrote.
  std::stringstream stream(std::ios::binary | std::ios::in | std::ios::out);
  a().save(stream);
  const auto reloaded = core::SoteriaSystem::load(stream);
  EXPECT_EQ(reloaded.pipeline().fingerprint(),
            a().pipeline().fingerprint());
}

TEST_F(StoreIdentityFixture, BatchVerdictsBitIdenticalColdWarmAndOff) {
  const auto cfgs = test_cfgs(12);
  const math::Rng rng(417);
  const auto baseline = a().analyze_batch(cfgs, rng);

  core::AnalyzeOptions with_store;
  with_store.feature_store = open_store();

  // Cold: every sample misses and is written.
  const auto cold = a().analyze_batch(cfgs, rng, with_store);
  expect_verdicts_equal(cold, baseline, "cold store vs no store");
  EXPECT_EQ(with_store.feature_store->stats().hits, 0u);
  EXPECT_EQ(with_store.feature_store->stats().writes, cfgs.size());

  // Warm, across several thread counts: every sample hits, and the
  // verdicts stay bit-identical to the storeless baseline.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    core::AnalyzeOptions options = with_store;
    options.num_threads = threads;
    const auto before = with_store.feature_store->stats().hits;
    const auto warm = a().analyze_batch(cfgs, rng, options);
    expect_verdicts_equal(warm, baseline, "warm store vs no store");
    EXPECT_EQ(with_store.feature_store->stats().hits,
              before + cfgs.size());
  }
}

TEST_F(StoreIdentityFixture, WarmVerdictsSurviveProcessRestart) {
  const auto cfgs = test_cfgs(8);
  const math::Rng rng(99);
  const auto baseline = a().analyze_batch(cfgs, rng);

  {
    core::AnalyzeOptions options;
    options.feature_store = open_store();
    (void)a().analyze_batch(cfgs, rng, options);
  }

  // A new store instance over the same directory (a "restart") serves
  // the persisted entries.
  core::AnalyzeOptions options;
  options.feature_store = open_store();
  const auto warm = a().analyze_batch(cfgs, rng, options);
  expect_verdicts_equal(warm, baseline, "restarted store vs no store");
  EXPECT_EQ(options.feature_store->stats().hits, cfgs.size());
  EXPECT_EQ(options.feature_store->stats().misses, 0u);
}

TEST_F(StoreIdentityFixture, SingleAnalyzeMatchesBatchAndUsesStore) {
  const auto cfgs = test_cfgs(4);
  const math::Rng rng(7);
  const auto batch = a().analyze_batch(cfgs, rng);

  core::AnalyzeOptions options;
  options.feature_store = open_store();
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const auto cold = a().analyze(cfgs[i], rng.child(i), options);
    EXPECT_EQ(cold.reconstruction_error, batch[i].reconstruction_error);
    const auto warm = a().analyze(cfgs[i], rng.child(i), options);
    EXPECT_EQ(warm.reconstruction_error, batch[i].reconstruction_error);
    EXPECT_EQ(warm.predicted, batch[i].predicted);
  }
  EXPECT_EQ(options.feature_store->stats().hits, cfgs.size());
}

TEST_F(StoreIdentityFixture, RetrainedModelMissesInsteadOfReadingStale) {
  const auto cfgs = test_cfgs(6);
  const math::Rng rng(55);

  core::AnalyzeOptions options;
  options.feature_store = open_store();
  (void)a().analyze_batch(cfgs, rng, options);  // warm with model A

  // Model B (different fingerprint) must never see A's vectors: all
  // misses, verdicts identical to B without any store.
  const auto baseline_b = b().analyze_batch(cfgs, rng);
  const auto with_store_b = b().analyze_batch(cfgs, rng, options);
  expect_verdicts_equal(with_store_b, baseline_b,
                        "model B on store warmed by model A");
  EXPECT_EQ(options.feature_store->stats().hits, 0u);
  EXPECT_EQ(options.feature_store->stats().corrupt_entries, 0u);

  // And B's cold pass wrote its own entries alongside A's.
  const auto warm_b = b().analyze_batch(cfgs, rng, options);
  expect_verdicts_equal(warm_b, baseline_b, "model B warm");
  EXPECT_EQ(options.feature_store->stats().hits, cfgs.size());
}

TEST_F(StoreIdentityFixture, CorruptedEntriesDegradeToMissesDuringAnalysis) {
  const auto cfgs = test_cfgs(6);
  const math::Rng rng(23);
  const auto baseline = a().analyze_batch(cfgs, rng);

  {
    core::AnalyzeOptions options;
    options.feature_store = open_store();
    (void)a().analyze_batch(cfgs, rng, options);
  }

  // Inject corruption into every persisted entry.
  std::size_t tampered = 0;
  for (const auto& item : fs::recursive_directory_iterator(dir_)) {
    if (!item.is_regular_file()) continue;
    fs::resize_file(item.path(), fs::file_size(item.path()) - 3);
    ++tampered;
  }
  ASSERT_EQ(tampered, cfgs.size());

  // The store opens (header-size validation quarantines at open),
  // analysis serves misses, and the verdicts are still bit-identical.
  core::AnalyzeOptions options;
  options.feature_store = open_store();
  const auto verdicts = a().analyze_batch(cfgs, rng, options);
  expect_verdicts_equal(verdicts, baseline, "analysis over corrupt store");
  const auto stats = options.feature_store->stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.corrupt_entries, cfgs.size());
  EXPECT_EQ(stats.writes, cfgs.size());  // repopulated

  // And the repopulated store is healthy again.
  const auto warm = a().analyze_batch(cfgs, rng, options);
  expect_verdicts_equal(warm, baseline, "repopulated store");
  EXPECT_EQ(options.feature_store->stats().hits, cfgs.size());
}

std::vector<core::Verdict> collect(
    std::vector<std::future<core::Verdict>>& futures) {
  std::vector<core::Verdict> verdicts;
  verdicts.reserve(futures.size());
  for (auto& future : futures) verdicts.push_back(future.get());
  return verdicts;
}

TEST_F(StoreIdentityFixture, ServiceVerdictsBitIdenticalColdAndWarm) {
  const auto cfgs = test_cfgs(10);
  const math::Rng rng(641);
  const auto baseline = a().analyze_batch(cfgs, rng);

  serve::ServiceConfig config;
  config.seed = 641;  // request i walks with Rng(641).child(i)
  config.num_threads = 2;
  config.feature_store = open_store();

  const auto run_service = [&] {
    serve::AnalysisService service(
        *model_a, config);
    std::vector<std::future<core::Verdict>> futures;
    for (const auto& cfg : cfgs) {
      auto ticket = service.submit(shared(cfg));
      ASSERT_TRUE(ticket.accepted());
      futures.push_back(std::move(ticket.verdict));
    }
    const auto verdicts = collect(futures);
    service.shutdown(serve::ShutdownPolicy::kDrain);
    expect_verdicts_equal(verdicts, baseline, "service vs analyze_batch");
  };

  run_service();  // cold: populates
  EXPECT_EQ(config.feature_store->stats().writes, cfgs.size());
  run_service();  // warm: hits, still bit-identical
  EXPECT_EQ(config.feature_store->stats().hits, cfgs.size());
}

TEST_F(StoreIdentityFixture, ServiceModelSwapMissesOnOldEntries) {
  const auto cfgs = test_cfgs(8);
  const math::Rng rng(901);

  serve::ServiceConfig config;
  config.seed = 901;
  config.num_threads = 1;
  config.feature_store = open_store();

  serve::AnalysisService service(
      *model_a, config);

  // First half under model A (populating A-fingerprint entries).
  std::vector<std::future<core::Verdict>> first_half;
  for (std::size_t i = 0; i < cfgs.size() / 2; ++i) {
    auto ticket = service.submit(shared(cfgs[i]));
    ASSERT_TRUE(ticket.accepted());
    first_half.push_back(std::move(ticket.verdict));
  }
  const auto verdicts_a = collect(first_half);  // drain before the swap

  service.swap_model(*model_b);

  // Second half under model B: same CFGs, request ids continue. B's
  // fingerprint differs, so these must be store misses that still
  // produce exactly B's cold verdicts.
  const auto misses_before = config.feature_store->stats().misses;
  std::vector<std::future<core::Verdict>> second_half;
  for (std::size_t i = 0; i < cfgs.size() / 2; ++i) {
    auto ticket = service.submit(shared(cfgs[i]));
    ASSERT_TRUE(ticket.accepted());
    second_half.push_back(std::move(ticket.verdict));
  }
  const auto verdicts_b = collect(second_half);
  service.shutdown(serve::ShutdownPolicy::kDrain);

  EXPECT_EQ(config.feature_store->stats().misses - misses_before,
            cfgs.size() / 2);

  // Expected verdicts: request id i maps to Rng(seed).child(i); the
  // post-swap requests took ids continuing after the first half.
  for (std::size_t i = 0; i < cfgs.size() / 2; ++i) {
    const auto expected_a = a().analyze(cfgs[i], rng.child(i), {});
    EXPECT_EQ(verdicts_a[i].reconstruction_error,
              expected_a.reconstruction_error)
        << "pre-swap request " << i;
    const auto expected_b =
        b().analyze(cfgs[i], rng.child(cfgs.size() / 2 + i), {});
    EXPECT_EQ(verdicts_b[i].reconstruction_error,
              expected_b.reconstruction_error)
        << "post-swap request " << i;
    EXPECT_EQ(verdicts_b[i].predicted, expected_b.predicted)
        << "post-swap request " << i;
  }
}

}  // namespace
}  // namespace soteria::store
