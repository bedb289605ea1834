// AnalysisService contract: backpressure rejection at exact capacity,
// deadline expiry of queued work, drain-vs-cancel shutdown, hot model
// swap under concurrent submission, and — above all — verdict streams
// bit-identical to a serial analyze_batch over the same inputs. Carries
// the `serve` ctest label; the sanitize builds run it under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "dataset/generator.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "serve/service.h"
#include "soteria/presets.h"
#include "soteria/system.h"

namespace soteria::serve {
namespace {

using core::ErrorCode;
using Clock = std::chrono::steady_clock;

/// Expired before it was ever queued — deterministic deadline expiry.
constexpr auto kAlreadyExpired = Clock::time_point::min();

/// A shared copy of `cfg`, the form AnalysisService::submit takes.
std::shared_ptr<const cfg::Cfg> shared(const cfg::Cfg& cfg) {
  return std::make_shared<const cfg::Cfg>(cfg);
}

// Training dominates suite wall-clock, so two tiny systems (different
// seeds => different weights and thresholds) are trained once and
// shared read-only by every test.
struct ServiceFixture : public ::testing::Test {
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

  [[nodiscard]] static std::vector<cfg::Cfg> test_cfgs(std::size_t n) {
    std::vector<cfg::Cfg> cfgs;
    for (std::size_t i = 0; i < std::min(n, data->test.size()); ++i) {
      cfgs.push_back(data->test[i].cfg);
    }
    return cfgs;
  }

  static dataset::Dataset* data;
  static std::shared_ptr<const core::SoteriaSystem>* model_a;
  static std::shared_ptr<const core::SoteriaSystem>* model_b;
};

dataset::Dataset* ServiceFixture::data = nullptr;
std::shared_ptr<const core::SoteriaSystem>* ServiceFixture::model_a = nullptr;
std::shared_ptr<const core::SoteriaSystem>* ServiceFixture::model_b = nullptr;

void expect_verdicts_equal(const core::Verdict& actual,
                           const core::Verdict& expected,
                           std::size_t index) {
  EXPECT_EQ(actual.adversarial, expected.adversarial) << "request " << index;
  EXPECT_EQ(actual.predicted, expected.predicted) << "request " << index;
  // Bit-identical, not approximately equal: the service must run the
  // same arithmetic in the same order as the serial batch.
  EXPECT_EQ(actual.reconstruction_error, expected.reconstruction_error)
      << "request " << index;
}

TEST_F(ServiceFixture, NullSystemIsRejected) {
  try {
    AnalysisService service(nullptr, ServiceConfig{});
    FAIL() << "expected core::Error";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
  }
}

TEST_F(ServiceFixture, ThreadCountAboveCapIsRejected) {
  // Rejected before any worker starts.
  ServiceConfig config;
  config.num_threads = runtime::kMaxThreads + 1;
  try {
    AnalysisService service(*model_a, config);
    FAIL() << "expected core::Error";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
  }
}

TEST_F(ServiceFixture, VerdictStreamBitIdenticalToSerialAnalyzeBatch) {
  const auto cfgs = test_cfgs(10);
  ASSERT_FALSE(cfgs.empty());

  ServiceConfig config;
  config.num_threads = 3;
  config.queue_depth = 64;
  config.seed = 33;
  AnalysisService service(*model_a, config);

  std::vector<AnalysisService::Ticket> tickets;
  tickets.reserve(cfgs.size());
  for (const auto& cfg : cfgs) {
    auto ticket = service.submit(shared(cfg));
    ASSERT_TRUE(ticket.accepted());
    tickets.push_back(std::move(ticket));
  }
  // Accepted ids are dense and in submission order — the property that
  // makes the comparison below meaningful.
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_EQ(tickets[i].id, i);
  }

  core::AnalyzeOptions serial;
  serial.num_threads = 1;
  const auto expected =
      (*model_a)->analyze_batch(cfgs, math::Rng(33), serial);
  ASSERT_EQ(expected.size(), tickets.size());
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    expect_verdicts_equal(tickets[i].verdict.get(), expected[i], i);
  }

  const auto stats = service.stats();
  EXPECT_EQ(stats.accepted, cfgs.size());
  EXPECT_EQ(stats.completed, cfgs.size());
  EXPECT_EQ(stats.rejected, 0U);
  EXPECT_EQ(stats.expired, 0U);
  // Every completion flowed through a drained micro-batch, and no batch
  // can hold more requests than were ever submitted.
  EXPECT_GE(stats.batches, 1U);
  EXPECT_LE(stats.batches, cfgs.size());
}

TEST_F(ServiceFixture, VerdictsInvariantAcrossWorkerCounts) {
  const auto cfgs = test_cfgs(6);
  ASSERT_FALSE(cfgs.empty());
  std::vector<std::vector<core::Verdict>> runs;
  for (const std::size_t threads : {1U, 4U}) {
    ServiceConfig config;
    config.num_threads = threads;
    config.seed = 35;
    AnalysisService service(*model_a, config);
    std::vector<AnalysisService::Ticket> tickets;
    for (const auto& cfg : cfgs) {
      auto ticket = service.submit(shared(cfg));
      ASSERT_TRUE(ticket.accepted());
      tickets.push_back(std::move(ticket));
    }
    std::vector<core::Verdict> verdicts;
    verdicts.reserve(tickets.size());
    for (auto& ticket : tickets) verdicts.push_back(ticket.verdict.get());
    runs.push_back(std::move(verdicts));
  }
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    expect_verdicts_equal(runs[1][i], runs[0][i], i);
  }
}

TEST_F(ServiceFixture, BackpressureRejectsAtExactCapacity) {
  const auto cfgs = test_cfgs(1);
  ASSERT_FALSE(cfgs.empty());

  ServiceConfig config;
  config.queue_depth = 3;
  config.num_threads = 1;
  AnalysisService service(*model_a, config);
  service.pause();  // pin the queue: nothing is dequeued below

  std::vector<AnalysisService::Ticket> accepted;
  for (int i = 0; i < 3; ++i) {
    auto ticket = service.submit(shared(cfgs[0]));
    ASSERT_TRUE(ticket.accepted()) << i;
    accepted.push_back(std::move(ticket));
  }
  // Submission queue_depth + 1 is rejected immediately — not blocked.
  auto rejected = service.submit(shared(cfgs[0]));
  EXPECT_FALSE(rejected.accepted());
  EXPECT_EQ(rejected.status, ErrorCode::kQueueFull);
  EXPECT_FALSE(rejected.verdict.valid());

  EXPECT_EQ(service.stats().queue_depth, 3U);
  EXPECT_EQ(service.stats().rejected, 1U);

  service.resume();
  for (auto& ticket : accepted) EXPECT_NO_THROW((void)ticket.verdict.get());
  EXPECT_EQ(service.stats().completed, 3U);

  // The rejected submission did not burn an id: accepted ids stay dense.
  auto next = service.submit(shared(cfgs[0]));
  ASSERT_TRUE(next.accepted());
  EXPECT_EQ(next.id, 3U);
  EXPECT_NO_THROW((void)next.verdict.get());
}

TEST_F(ServiceFixture, QueuedRequestExpiresBeforeWastingAWorker) {
  const auto cfgs = test_cfgs(1);
  ASSERT_FALSE(cfgs.empty());

  ServiceConfig config;
  config.num_threads = 1;
  AnalysisService service(*model_a, config);
  service.pause();

  auto doomed = service.submit(shared(cfgs[0]), kAlreadyExpired);
  auto healthy = service.submit(shared(cfgs[0]));
  ASSERT_TRUE(doomed.accepted());
  ASSERT_TRUE(healthy.accepted());
  service.resume();

  try {
    (void)doomed.verdict.get();
    FAIL() << "expected Error{kDeadlineExceeded}";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
  }
  EXPECT_NO_THROW((void)healthy.verdict.get());

  const auto stats = service.stats();
  EXPECT_EQ(stats.expired, 1U);
  EXPECT_EQ(stats.completed, 1U);
}

TEST_F(ServiceFixture, DestructorDrainsQueuedRequests) {
  const auto cfgs = test_cfgs(3);
  ASSERT_EQ(cfgs.size(), 3U);

  std::vector<AnalysisService::Ticket> tickets;
  {
    ServiceConfig config;
    config.num_threads = 2;
    config.seed = 37;
    AnalysisService service(*model_a, config);
    service.pause();  // everything is still queued at destruction
    for (const auto& cfg : cfgs) {
      auto ticket = service.submit(shared(cfg));
      ASSERT_TRUE(ticket.accepted());
      tickets.push_back(std::move(ticket));
    }
  }

  core::AnalyzeOptions serial;
  serial.num_threads = 1;
  const auto expected =
      (*model_a)->analyze_batch(cfgs, math::Rng(37), serial);
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    ASSERT_EQ(tickets[i].verdict.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "request " << i;
    expect_verdicts_equal(tickets[i].verdict.get(), expected[tickets[i].id],
                          i);
  }
}

TEST_F(ServiceFixture, DrainShutdownFinishesQueuedRequests) {
  const auto cfgs = test_cfgs(4);
  ASSERT_FALSE(cfgs.empty());

  ServiceConfig config;
  config.num_threads = 2;
  AnalysisService service(*model_a, config);
  service.pause();
  std::vector<AnalysisService::Ticket> tickets;
  for (const auto& cfg : cfgs) {
    auto ticket = service.submit(shared(cfg));
    ASSERT_TRUE(ticket.accepted());
    tickets.push_back(std::move(ticket));
  }

  service.shutdown(ShutdownPolicy::kDrain);
  for (auto& ticket : tickets) EXPECT_NO_THROW((void)ticket.verdict.get());

  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, cfgs.size());
  EXPECT_EQ(stats.cancelled, 0U);

  // Post-shutdown submissions are typed rejections, not hangs.
  auto late = service.submit(shared(cfgs[0]));
  EXPECT_EQ(late.status, ErrorCode::kShuttingDown);
  EXPECT_EQ(service.stats().rejected, 1U);
}

TEST_F(ServiceFixture, CancelShutdownFailsQueuedRequests) {
  const auto cfgs = test_cfgs(4);
  ASSERT_FALSE(cfgs.empty());

  ServiceConfig config;
  config.num_threads = 2;
  AnalysisService service(*model_a, config);
  service.pause();
  std::vector<AnalysisService::Ticket> tickets;
  for (const auto& cfg : cfgs) {
    auto ticket = service.submit(shared(cfg));
    ASSERT_TRUE(ticket.accepted());
    tickets.push_back(std::move(ticket));
  }

  service.shutdown(ShutdownPolicy::kCancel);
  for (auto& ticket : tickets) {
    try {
      (void)ticket.verdict.get();
      FAIL() << "expected Error{kCancelled}";
    } catch (const core::Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCancelled);
    }
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.cancelled, cfgs.size());
  EXPECT_EQ(stats.completed, 0U);
}

TEST_F(ServiceFixture, HotSwapPublishesToSubsequentRequests) {
  const auto cfgs = test_cfgs(1);
  ASSERT_FALSE(cfgs.empty());

  ServiceConfig config;
  config.num_threads = 1;
  config.seed = 40;
  AnalysisService service(*model_a, config);

  auto before = service.submit(shared(cfgs[0]));
  ASSERT_TRUE(before.accepted());
  const auto verdict_before = before.verdict.get();

  service.swap_model(*model_b);
  EXPECT_EQ(service.model().get(), model_b->get());
  EXPECT_EQ(service.stats().swaps, 1U);

  auto after = service.submit(shared(cfgs[0]));
  ASSERT_TRUE(after.accepted());
  const auto verdict_after = after.verdict.get();

  // Each verdict is bit-identical to the owning model's serial answer
  // for that request id.
  {
    math::Rng rng = math::Rng(40).child(0);
    expect_verdicts_equal(verdict_before,
                          (*model_a)->analyze(cfgs[0], rng), 0);
  }
  {
    math::Rng rng = math::Rng(40).child(1);
    expect_verdicts_equal(verdict_after, (*model_b)->analyze(cfgs[0], rng),
                          1);
  }

  try {
    service.swap_model(nullptr);
    FAIL() << "expected Error{kInvalidArgument}";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
  }
}

TEST_F(ServiceFixture, ConcurrentSubmissionAndSwapStaysDeterministic) {
  const auto cfgs = test_cfgs(6);
  ASSERT_FALSE(cfgs.empty());

  ServiceConfig config;
  config.num_threads = 2;
  config.queue_depth = 8;  // small enough that backpressure really fires
  config.seed = 50;
  AnalysisService service(*model_a, config);

  constexpr int kSubmitters = 3;
  std::mutex results_mutex;
  // (cfg index, ticket) pairs from every submitter.
  std::vector<std::pair<std::size_t, AnalysisService::Ticket>> submitted;

  std::atomic<bool> stop_swapping{false};
  std::thread swapper([&] {
    bool use_b = true;
    while (!stop_swapping.load()) {
      service.swap_model(use_b ? *model_b : *model_a);
      use_b = !use_b;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (std::size_t i = 0; i < cfgs.size(); ++i) {
        for (;;) {
          auto ticket = service.submit(shared(cfgs[i]));
          if (ticket.accepted()) {
            std::lock_guard<std::mutex> lock(results_mutex);
            submitted.emplace_back(i, std::move(ticket));
            break;
          }
          ASSERT_EQ(ticket.status, ErrorCode::kQueueFull);
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& submitter : submitters) submitter.join();
  stop_swapping.store(true);
  swapper.join();

  ASSERT_EQ(submitted.size(), kSubmitters * cfgs.size());
  for (auto& [cfg_index, ticket] : submitted) {
    const auto verdict = ticket.verdict.get();
    // Whichever model was current when the worker picked the request
    // up, the verdict must be *that* model's bit-exact serial answer
    // for this request id — never a torn mixture.
    math::Rng rng_a = math::Rng(50).child(ticket.id);
    math::Rng rng_b = math::Rng(50).child(ticket.id);
    const auto expected_a = (*model_a)->analyze(cfgs[cfg_index], rng_a);
    const auto expected_b = (*model_b)->analyze(cfgs[cfg_index], rng_b);
    const bool matches_a =
        verdict.adversarial == expected_a.adversarial &&
        verdict.predicted == expected_a.predicted &&
        verdict.reconstruction_error == expected_a.reconstruction_error;
    const bool matches_b =
        verdict.adversarial == expected_b.adversarial &&
        verdict.predicted == expected_b.predicted &&
        verdict.reconstruction_error == expected_b.reconstruction_error;
    EXPECT_TRUE(matches_a || matches_b) << "request " << ticket.id;
  }
  EXPECT_EQ(service.stats().completed, submitted.size());
}

TEST_F(ServiceFixture, ServeMetricsAreRecorded) {
  const auto cfgs = test_cfgs(3);
  ASSERT_FALSE(cfgs.empty());

  obs::registry().reset();
  obs::set_enabled(true);
  {
    ServiceConfig config;
    config.num_threads = 1;
    AnalysisService service(*model_a, config);
    std::vector<AnalysisService::Ticket> tickets;
    for (const auto& cfg : cfgs) {
      auto ticket = service.submit(shared(cfg));
      ASSERT_TRUE(ticket.accepted());
      tickets.push_back(std::move(ticket));
    }
    for (auto& ticket : tickets) (void)ticket.verdict.get();
    service.shutdown(ShutdownPolicy::kDrain);
  }
  obs::set_enabled(false);
  const auto snapshot = obs::registry().snapshot();
  obs::registry().reset();

  EXPECT_EQ(snapshot.counters.at("serve.requests.accepted"), cfgs.size());
  EXPECT_EQ(snapshot.counters.at("serve.requests.completed"), cfgs.size());
  // Batch-level instrumentation: at least one drained batch, and the
  // per-batch sizes must add up to exactly the requests served.
  const auto& batch_span = snapshot.histograms.at("t/serve.batch");
  EXPECT_GE(batch_span.count, 1U);
  const auto& batch_size = snapshot.histograms.at("serve.batch.size");
  EXPECT_EQ(batch_size.count, batch_span.count);
  EXPECT_EQ(batch_size.sum, static_cast<double>(cfgs.size()));
  // Per-request instrumentation: one queue-wait and one end-to-end
  // sample per completed request.
  EXPECT_EQ(snapshot.histograms.at("serve.queue.wait").count, cfgs.size());
  EXPECT_EQ(snapshot.histograms.at("serve.request.e2e").count, cfgs.size());
  EXPECT_TRUE(snapshot.gauges.count("serve.queue.depth"));
}

TEST_F(ServiceFixture, LoadPathsCarryTypedErrorCodes) {
  try {
    (void)core::SoteriaSystem::load_file("/nonexistent/model.bin");
    FAIL() << "expected Error{kIoError}";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIoError);
  }

  std::istringstream garbage("not a model");
  try {
    (void)core::SoteriaSystem::load(garbage);
    FAIL() << "expected Error{kCorruptModel}";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptModel);
  }

  // Swapping in a model file loads it first, so a failed load leaves
  // the published model untouched.
  ServiceConfig config;
  config.num_threads = 1;
  AnalysisService service(*model_a, config);
  try {
    service.swap_model(std::make_shared<const core::SoteriaSystem>(
        core::SoteriaSystem::load_file("/nonexistent/model.bin")));
    FAIL() << "expected Error{kIoError}";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIoError);
  }
  EXPECT_EQ(service.model().get(), model_a->get());
  EXPECT_EQ(service.stats().swaps, 0U);
}

}  // namespace
}  // namespace soteria::serve
