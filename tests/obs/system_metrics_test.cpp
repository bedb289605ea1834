// End-to-end metrics correctness over the real pipeline: the same
// analyze_batch must produce identical counter values, identical
// histogram record counts, and identical value-histogram contents at
// every thread count (per-thread shards + span-context propagation
// make scheduling invisible); a disabled registry must record nothing;
// and every export must round-trip through the in-tree JSON parser.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/json.h"
#include "dataset/generator.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "soteria/presets.h"
#include "soteria/system.h"

namespace soteria::core {
namespace {

/// AnalyzeOptions with an explicit thread count.
AnalyzeOptions with_threads(std::size_t threads) {
  AnalyzeOptions options;
  options.num_threads = threads;
  return options;
}

// Shared tiny experiment, trained once with collection on so one
// test can assert on the training-time breakdown. The registry is
// reset and disabled afterwards; every test manages its own window.
struct ObsSystemFixture : public ::testing::Test {
  static void SetUpTestSuite() {
    obs::registry().reset();
    obs::set_enabled(false);

    dataset::DatasetConfig data_config;
    data_config.scale = 0.008;
    math::Rng rng(23);
    data = new dataset::Dataset(
        dataset::generate_dataset(data_config, rng));

    SoteriaConfig config = tiny_config();
    config.seed = 23;
    obs::set_enabled(true);
    system = new SoteriaSystem(SoteriaSystem::train(data->train, config));
    train_snapshot = new obs::Snapshot(obs::registry().snapshot());

    obs::set_enabled(false);
    obs::registry().reset();

    cfgs = new std::vector<cfg::Cfg>();
    for (const auto& sample : data->test) cfgs->push_back(sample.cfg);
  }
  static void TearDownTestSuite() {
    obs::set_enabled(false);
    obs::registry().reset();
    delete cfgs;
    delete train_snapshot;
    delete system;
    delete data;
    cfgs = nullptr;
    train_snapshot = nullptr;
    system = nullptr;
    data = nullptr;
  }

  void TearDown() override {
    obs::set_enabled(false);
    obs::registry().reset();
  }

  /// One enabled analyze_batch window at the given thread count.
  static obs::Snapshot batch_snapshot(std::size_t threads) {
    obs::registry().reset();
    obs::set_enabled(true);
    const math::Rng rng(7);
    (void)system->analyze_batch(*cfgs, rng, with_threads(threads));
    obs::set_enabled(false);
    auto snap = obs::registry().snapshot();
    obs::registry().reset();
    return snap;
  }

  static bool is_span(const std::string& name) {
    return name.rfind(std::string(obs::kTimePrefix), 0) == 0;
  }

  static dataset::Dataset* data;
  static SoteriaSystem* system;
  static obs::Snapshot* train_snapshot;
  static std::vector<cfg::Cfg>* cfgs;
};

dataset::Dataset* ObsSystemFixture::data = nullptr;
SoteriaSystem* ObsSystemFixture::system = nullptr;
obs::Snapshot* ObsSystemFixture::train_snapshot = nullptr;
std::vector<cfg::Cfg>* ObsSystemFixture::cfgs = nullptr;

TEST_F(ObsSystemFixture, TrainingEmitsFullStageBreakdown) {
  const auto& h = train_snapshot->histograms;
  EXPECT_EQ(h.at("t/soteria.train").count, 1U);
  EXPECT_EQ(h.at("t/soteria.train/pipeline.fit").count, 1U);
  EXPECT_EQ(h.at("t/soteria.train/pipeline.fit/vocab.build").count, 1U);
  EXPECT_GT(h.at("t/soteria.train/pipeline.fit/cfg.label.dbl").count, 0U);
  EXPECT_GT(h.at("t/soteria.train/pipeline.fit/features.walks").count, 0U);
  EXPECT_GT(h.at("t/soteria.train/extract/pipeline.extract").count, 0U);
  EXPECT_GT(
      h.at("t/soteria.train/extract/pipeline.extract/features.ngrams").count,
      0U);
  EXPECT_GT(
      h.at("t/soteria.train/extract/pipeline.extract/features.tfidf").count,
      0U);
  EXPECT_EQ(h.at("t/soteria.train/detector.train").count, 1U);
  EXPECT_GT(h.at("t/soteria.train/detector.train/nn.epoch").count, 0U);
  EXPECT_EQ(h.at("t/soteria.train/classifier.train").count, 1U);

  // Span nesting: a child's total time cannot exceed its parent's.
  EXPECT_LE(h.at("t/soteria.train/pipeline.fit").sum,
            h.at("t/soteria.train").sum);

  EXPECT_GT(train_snapshot->counters.at("soteria.nn.epochs"), 0U);
  EXPECT_GT(train_snapshot->counters.at("soteria.features.walks"), 0U);
  EXPECT_GT(train_snapshot->counters.at("soteria.features.walk_steps"), 0U);
  EXPECT_TRUE(train_snapshot->gauges.count("soteria.nn.loss") == 1U);
  EXPECT_GT(train_snapshot->histograms.at("soteria.detector.score").count,
            0U);
}

TEST_F(ObsSystemFixture, AnalyzeBatchCountersMatchVerdicts) {
  obs::registry().reset();
  obs::set_enabled(true);
  const math::Rng rng(7);
  const auto verdicts = system->analyze_batch(*cfgs, rng, with_threads(1));
  obs::set_enabled(false);
  const auto snap = obs::registry().snapshot();

  std::size_t flagged = 0;
  for (const auto& v : verdicts) flagged += v.adversarial ? 1 : 0;

  EXPECT_EQ(snap.counters.at("soteria.detector.analyzed"), cfgs->size());
  EXPECT_EQ(snap.counters.at("soteria.classifier.predictions"),
            cfgs->size());
  const auto it = snap.counters.find("soteria.detector.flagged");
  const std::uint64_t counted =
      it == snap.counters.end() ? 0 : it->second;
  EXPECT_EQ(counted, flagged);
  EXPECT_EQ(snap.histograms.at("soteria.detector.sample_error").count,
            cfgs->size());
  EXPECT_EQ(snap.histograms.at("t/soteria.analyze_batch").count, 1U);
  EXPECT_EQ(
      snap.histograms.at("t/soteria.analyze_batch/pipeline.extract").count,
      cfgs->size());
}

// The tentpole invariant: aggregation is identical at 1, 4, and
// hardware_threads() threads — counters and gauges exactly, histogram
// record counts exactly, and value-histogram contents exactly (the
// recorded values are deterministic; only timing durations vary).
TEST_F(ObsSystemFixture, AggregationIsThreadCountInvariant) {
  const auto reference = batch_snapshot(1);
  ASSERT_FALSE(reference.empty());

  for (const std::size_t threads :
       {std::size_t{4}, runtime::hardware_threads()}) {
    const auto snap = batch_snapshot(threads);

    EXPECT_EQ(snap.counters, reference.counters)
        << "counter mismatch at " << threads << " threads";
    EXPECT_EQ(snap.gauges, reference.gauges)
        << "gauge mismatch at " << threads << " threads";

    ASSERT_EQ(snap.histograms.size(), reference.histograms.size());
    for (const auto& [name, expected] : reference.histograms) {
      ASSERT_EQ(snap.histograms.count(name), 1U)
          << "missing histogram " << name << " at " << threads
          << " threads";
      const auto& actual = snap.histograms.at(name);
      EXPECT_EQ(actual.count, expected.count)
          << name << " count at " << threads << " threads";
      if (!is_span(name)) {
        // Deterministic values: identical multiset, so identical
        // buckets and range; the sum may differ only by merge order.
        EXPECT_EQ(actual.buckets, expected.buckets)
            << name << " buckets at " << threads << " threads";
        EXPECT_DOUBLE_EQ(actual.min, expected.min) << name;
        EXPECT_DOUBLE_EQ(actual.max, expected.max) << name;
        EXPECT_NEAR(actual.sum, expected.sum,
                    1e-9 * (1.0 + std::abs(expected.sum)))
            << name;
      }
    }
  }
}

TEST_F(ObsSystemFixture, DisabledRegistryRecordsNothingDuringAnalysis) {
  obs::registry().reset();
  ASSERT_FALSE(obs::enabled());
  const math::Rng rng(7);
  (void)system->analyze_batch(*cfgs, rng, with_threads(4));
  EXPECT_TRUE(obs::registry().snapshot().empty());
}

TEST_F(ObsSystemFixture, ExportsRoundTripThroughJsonParser) {
  const auto snap = batch_snapshot(1);
  const auto doc = bench::json::parse(obs::export_json(snap));

  const auto& counters = doc.at("counters").as_object();
  ASSERT_EQ(counters.size(), snap.counters.size());
  for (const auto& [name, value] : snap.counters) {
    EXPECT_DOUBLE_EQ(counters.at(name).as_number(),
                     static_cast<double>(value));
  }
  const auto& histograms = doc.at("histograms").as_object();
  ASSERT_EQ(histograms.size(), snap.histograms.size());
  for (const auto& [name, data] : snap.histograms) {
    EXPECT_DOUBLE_EQ(histograms.at(name).at("count").as_number(),
                     static_cast<double>(data.count));
  }

  // The text report names the major stages.
  const auto text = obs::export_text(snap);
  for (const char* needle :
       {"soteria.analyze_batch", "pipeline.extract", "features.ngrams",
        "detector.score", "classifier.predict",
        "soteria.detector.analyzed"}) {
    EXPECT_NE(text.find(needle), std::string::npos)
        << "text report missing " << needle;
  }
}

}  // namespace
}  // namespace soteria::core
