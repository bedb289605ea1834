// Determinism contract of the parallel batch engine: every result that
// can be computed on N threads must be bit-identical to the serial
// computation, because each sample draws from an RNG child keyed by its
// index rather than from a shared sequential stream.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "dataset/generator.h"
#include "features/pipeline.h"
#include "obs/metrics.h"
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

// Trains the same tiny experiment twice — serially and on 4 threads —
// once for the whole suite (training dominates test time).
struct ParallelDeterminismFixture : public ::testing::Test {
  static void SetUpTestSuite() {
    dataset::DatasetConfig data_config;
    data_config.scale = 0.008;
    math::Rng rng(29);
    data = new dataset::Dataset(dataset::generate_dataset(data_config, rng));

    SoteriaConfig config = tiny_config();
    config.seed = 29;
    config.num_threads = 1;
    serial = new SoteriaSystem(SoteriaSystem::train(data->train, config));
    config.num_threads = 4;
    parallel = new SoteriaSystem(SoteriaSystem::train(data->train, config));
  }
  static void TearDownTestSuite() {
    delete parallel;
    delete serial;
    delete data;
    parallel = nullptr;
    serial = nullptr;
    data = nullptr;
  }

  [[nodiscard]] static std::vector<cfg::Cfg> test_cfgs(std::size_t n) {
    std::vector<cfg::Cfg> cfgs;
    for (std::size_t i = 0; i < std::min(n, data->test.size()); ++i) {
      cfgs.push_back(data->test[i].cfg);
    }
    return cfgs;
  }

  static dataset::Dataset* data;
  static SoteriaSystem* serial;
  static SoteriaSystem* parallel;
};

dataset::Dataset* ParallelDeterminismFixture::data = nullptr;
SoteriaSystem* ParallelDeterminismFixture::serial = nullptr;
SoteriaSystem* ParallelDeterminismFixture::parallel = nullptr;

TEST_F(ParallelDeterminismFixture, TrainedSystemsSerializeIdentically) {
  std::stringstream serial_stream;
  std::stringstream parallel_stream;
  serial->save(serial_stream);
  parallel->save(parallel_stream);
  // Byte-for-byte equality of the full save stream: vocabularies,
  // detector weights, thresholds, classifier weights — everything.
  EXPECT_EQ(serial_stream.str(), parallel_stream.str());
}

TEST_F(ParallelDeterminismFixture, TrainIsByteIdenticalAtOneTwoFourThreads) {
  // Two threads is where the detector and the classifier CNNs train
  // concurrently, one per runner; 1 runs them in turn, 4 leaves runners
  // idle. All three must save the same bytes.
  SoteriaConfig config = tiny_config();
  config.seed = 29;
  config.num_threads = 2;
  const auto two = SoteriaSystem::train(data->train, config);
  std::stringstream serial_stream;
  std::stringstream two_stream;
  std::stringstream four_stream;
  serial->save(serial_stream);
  two.save(two_stream);
  parallel->save(four_stream);
  EXPECT_EQ(serial_stream.str(), two_stream.str());
  EXPECT_EQ(serial_stream.str(), four_stream.str());
}

TEST_F(ParallelDeterminismFixture, FitIsThreadCountInvariant) {
  std::vector<cfg::Cfg> corpus;
  for (const auto& s : data->train) corpus.push_back(s.cfg);
  const auto config = tiny_config().pipeline;

  math::Rng rng_a(31);
  const auto serial_fit =
      features::FeaturePipeline::fit(corpus, config, rng_a, 1);
  for (std::size_t threads : {2U, 8U}) {
    math::Rng rng_b(31);
    const auto parallel_fit =
        features::FeaturePipeline::fit(corpus, config, rng_b, threads);
    std::stringstream a;
    std::stringstream b;
    serial_fit.save(a);
    parallel_fit.save(b);
    EXPECT_EQ(a.str(), b.str()) << threads << " threads";
  }
}

TEST_F(ParallelDeterminismFixture, AnalyzeBatchIsThreadCountInvariant) {
  const auto cfgs = test_cfgs(12);
  ASSERT_FALSE(cfgs.empty());
  const math::Rng rng(33);
  const auto baseline = serial->analyze_batch(cfgs, rng, with_threads(1));
  ASSERT_EQ(baseline.size(), cfgs.size());
  for (std::size_t threads : {2U, 8U}) {
    const auto verdicts = serial->analyze_batch(cfgs, rng, with_threads(threads));
    ASSERT_EQ(verdicts.size(), baseline.size());
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      EXPECT_EQ(verdicts[i].adversarial, baseline[i].adversarial);
      EXPECT_EQ(verdicts[i].predicted, baseline[i].predicted);
      // Bit-identical, not approximately equal: same arithmetic in the
      // same order regardless of which thread ran the sample.
      EXPECT_EQ(verdicts[i].reconstruction_error,
                baseline[i].reconstruction_error)
          << "sample " << i << " with " << threads << " threads";
    }
  }
}

TEST_F(ParallelDeterminismFixture, AnalyzeBatchMatchesPerSampleChildren) {
  const auto cfgs = test_cfgs(6);
  const math::Rng rng(35);
  const auto batch = serial->analyze_batch(cfgs, rng, with_threads(4));
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    math::Rng sample_rng = rng.child(i);
    const auto verdict = serial->analyze(cfgs[i], sample_rng);
    EXPECT_EQ(batch[i].adversarial, verdict.adversarial);
    EXPECT_EQ(batch[i].predicted, verdict.predicted);
    EXPECT_EQ(batch[i].reconstruction_error, verdict.reconstruction_error);
  }
}

TEST_F(ParallelDeterminismFixture, AnalyzeBatchDoesNotAdvanceCallerRng) {
  const auto cfgs = test_cfgs(4);
  math::Rng rng(37);
  (void)serial->analyze_batch(cfgs, rng, with_threads(2));
  math::Rng fresh(37);
  EXPECT_EQ(rng.engine()(), fresh.engine()());
}

TEST_F(ParallelDeterminismFixture, AnalyzeBatchDefaultUsesConfigThreads) {
  const auto cfgs = test_cfgs(5);
  const math::Rng rng(39);
  // `parallel` was trained with num_threads = 4; default options must
  // defer to config().num_threads and agree with the explicit serial
  // call.
  const auto defaulted = parallel->analyze_batch(cfgs, rng, AnalyzeOptions{});
  const auto explicit_serial = parallel->analyze_batch(cfgs, rng, with_threads(1));
  ASSERT_EQ(defaulted.size(), explicit_serial.size());
  for (std::size_t i = 0; i < defaulted.size(); ++i) {
    EXPECT_EQ(defaulted[i].reconstruction_error,
              explicit_serial[i].reconstruction_error);
    EXPECT_EQ(defaulted[i].predicted, explicit_serial[i].predicted);
  }
}

TEST_F(ParallelDeterminismFixture, AnalyzeBatchEmptyInput) {
  const math::Rng rng(41);
  EXPECT_TRUE(serial->analyze_batch({}, rng, with_threads(4)).empty());
}

TEST_F(ParallelDeterminismFixture, AnalyzeBatchExpiredDeadlineThrows) {
  const auto cfgs = test_cfgs(4);
  const math::Rng rng(43);
  AnalyzeOptions options;
  options.deadline = std::chrono::steady_clock::time_point::min();
  try {
    (void)serial->analyze_batch(cfgs, rng, options);
    FAIL() << "expected Error{kDeadlineExceeded}";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
  }
  // A generous deadline changes nothing about the verdicts.
  options.deadline =
      std::chrono::steady_clock::now() + std::chrono::hours(1);
  const auto relaxed = serial->analyze_batch(cfgs, rng, options);
  const auto baseline = serial->analyze_batch(cfgs, rng, with_threads(1));
  ASSERT_EQ(relaxed.size(), baseline.size());
  for (std::size_t i = 0; i < relaxed.size(); ++i) {
    EXPECT_EQ(relaxed[i].reconstruction_error,
              baseline[i].reconstruction_error);
  }
}

TEST_F(ParallelDeterminismFixture, ClassifierPredictMatchesSerialOnFourThreads) {
  // Four threads predict on one shared classifier, each through its own
  // inference arena and each stopping its vote early where the bundle
  // allows; every class must equal the serial one, and every call
  // records the rows it ran.
  const auto cfgs = test_cfgs(24);
  ASSERT_FALSE(cfgs.empty());
  const FamilyClassifier& classifier = serial->classifier();
  const math::Rng base(45);
  std::vector<features::SampleFeatures> bundles;
  std::vector<dataset::Family> expected;
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    math::Rng rng = base.child(i);
    bundles.push_back(serial->pipeline().extract(cfgs[i], rng));
    expected.push_back(classifier.predict(bundles.back()));
  }

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 3;
  std::vector<std::vector<dataset::Family>> results(
      kThreads, std::vector<dataset::Family>(bundles.size()));
  obs::registry().reset();
  obs::set_enabled(true);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different bundle, so the threads
      // predict different bundles at the same time.
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t j = 0; j < bundles.size(); ++j) {
          const std::size_t i = (j + t * 5) % bundles.size();
          results[t][i] = classifier.predict(bundles[i]);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  obs::set_enabled(false);
  const auto snapshot = obs::registry().snapshot();
  obs::registry().reset();

  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(results[t], expected) << "thread " << t;
  }
  EXPECT_EQ(snapshot.histograms.at("soteria.classifier.rows").count,
            kThreads * kRounds * bundles.size());
}

}  // namespace
}  // namespace soteria::core
