// Micro-batch boundary properties: the places where batching could
// corrupt the service contract if it were wired naively. Deadline
// expiry and analysis failure of a request drained into a batch
// alongside healthy ones, shutdown landing between drain and execute
// (both policies), and a hot swap landing in the same window (no torn
// batches). The config.batch_hook test seam makes each race
// deterministic: it runs after the batch is drained and the model
// pinned, before inference starts. Carries the `serve` ctest label; the
// sanitize builds run it under TSan.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "dataset/generator.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "soteria/presets.h"
#include "soteria/system.h"

namespace soteria::serve {
namespace {

using core::ErrorCode;
using Clock = std::chrono::steady_clock;

constexpr auto kAlreadyExpired = Clock::time_point::min();

struct BatchFixture : public ::testing::Test {
  static void SetUpTestSuite() {
    dataset::DatasetConfig data_config;
    data_config.scale = 0.008;
    math::Rng rng(43);
    data = new dataset::Dataset(dataset::generate_dataset(data_config, rng));

    core::SoteriaConfig config = core::tiny_config();
    config.seed = 43;
    model_a = new std::shared_ptr<const core::SoteriaSystem>(
        std::make_shared<const core::SoteriaSystem>(
            core::SoteriaSystem::train(data->train, config)));
    config.seed = 47;
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

  [[nodiscard]] static std::shared_ptr<const cfg::Cfg> sample(std::size_t i) {
    return std::make_shared<const cfg::Cfg>(
        data->test[i % data->test.size()].cfg);
  }

  static dataset::Dataset* data;
  static std::shared_ptr<const core::SoteriaSystem>* model_a;
  static std::shared_ptr<const core::SoteriaSystem>* model_b;
};

dataset::Dataset* BatchFixture::data = nullptr;
std::shared_ptr<const core::SoteriaSystem>* BatchFixture::model_a = nullptr;
std::shared_ptr<const core::SoteriaSystem>* BatchFixture::model_b = nullptr;

TEST_F(BatchFixture, ZeroMaxBatchIsRejected) {
  ServiceConfig config;
  config.max_batch = 0;
  try {
    AnalysisService service(*model_a, config);
    FAIL() << "expected core::Error";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
  }
}

TEST_F(BatchFixture, ExpiredRequestInsideDrainedBatchFailsAlone) {
  // Three requests drained as ONE batch; the middle one is already
  // expired. It must fail with kDeadlineExceeded while its batchmates
  // complete — expiry is per-request even after batching.
  ServiceConfig config;
  config.num_threads = 1;
  config.max_batch = 8;
  AnalysisService service(*model_a, config);
  service.pause();  // all three queue up before any drain

  auto first = service.submit(sample(0));
  auto doomed = service.submit(sample(1), kAlreadyExpired);
  auto last = service.submit(sample(2));
  ASSERT_TRUE(first.accepted());
  ASSERT_TRUE(doomed.accepted());
  ASSERT_TRUE(last.accepted());
  service.resume();

  EXPECT_NO_THROW((void)first.verdict.get());
  try {
    (void)doomed.verdict.get();
    FAIL() << "expected Error{kDeadlineExceeded}";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
  }
  EXPECT_NO_THROW((void)last.verdict.get());

  const auto stats = service.stats();
  EXPECT_EQ(stats.expired, 1U);
  EXPECT_EQ(stats.completed, 2U);
  // One drain: all three left the queue together.
  EXPECT_EQ(stats.batches, 1U);
}

TEST_F(BatchFixture, FailingRequestInsideDrainedBatchFailsAlone) {
  // Four requests drained as ONE batch; the third is an empty CFG,
  // which analysis rejects. It fails alone with kInvalidArgument while
  // its batchmates complete with their serial verdicts.
  ServiceConfig config;
  config.num_threads = 1;
  config.max_batch = 8;
  config.seed = 53;
  const std::vector<std::shared_ptr<const cfg::Cfg>> cfgs = {
      sample(0), sample(1), std::make_shared<const cfg::Cfg>(), sample(2)};
  constexpr std::size_t kBad = 2;
  std::vector<core::Verdict> expected(cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    if (i != kBad) {
      expected[i] = (*model_a)->analyze(*cfgs[i], math::Rng(53).child(i), {});
    }
  }

  obs::registry().reset();
  obs::set_enabled(true);
  AnalysisService service(*model_a, config);
  service.pause();  // all four queue up before any drain
  std::vector<AnalysisService::Ticket> tickets;
  for (const auto& cfg : cfgs) {
    auto ticket = service.submit(cfg);
    ASSERT_TRUE(ticket.accepted());
    tickets.push_back(std::move(ticket));
  }
  service.resume();

  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    if (i == kBad) {
      try {
        (void)tickets[i].verdict.get();
        FAIL() << "expected Error{kInvalidArgument}";
      } catch (const core::Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
      }
      continue;
    }
    const auto verdict = tickets[i].verdict.get();
    EXPECT_EQ(verdict.adversarial, expected[i].adversarial) << "request " << i;
    EXPECT_EQ(verdict.predicted, expected[i].predicted) << "request " << i;
    EXPECT_EQ(verdict.reconstruction_error, expected[i].reconstruction_error)
        << "request " << i;
  }

  service.shutdown(ShutdownPolicy::kDrain);
  obs::set_enabled(false);
  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, 3U);
  EXPECT_EQ(stats.failed, 1U);
  EXPECT_EQ(stats.batches, 1U);
  // Each request is analyzed once: the failure re-runs nothing.
  EXPECT_EQ(obs::registry().snapshot().counters.at(
                "soteria.detector.analyzed"),
            stats.completed);
  obs::registry().reset();
}

TEST_F(BatchFixture, HotSwapBetweenDrainAndExecuteNeverTearsABatch) {
  // The hook fires after the batch is drained and its model pinned. We
  // block inside it, land a swap to model_b, then let the batch run:
  // every verdict in the batch must come from model_a (the pinned
  // model), never a mixture — and the NEXT batch must use model_b.
  std::promise<void> drained;
  std::promise<void> swapped;
  auto drained_future = drained.get_future();
  auto swapped_future = swapped.get_future();
  bool first_batch = true;  // hook runs on the single worker thread

  ServiceConfig config;
  config.num_threads = 1;
  config.max_batch = 8;
  config.seed = 77;
  config.batch_hook = [&](std::size_t) {
    if (!first_batch) return;
    first_batch = false;
    drained.set_value();        // batch is off the queue, model pinned
    swapped_future.wait();      // hold until the swap has landed
  };
  AnalysisService service(*model_a, config);
  service.pause();

  constexpr std::size_t kBatch = 4;
  std::vector<AnalysisService::Ticket> tickets;
  for (std::size_t i = 0; i < kBatch; ++i) {
    auto ticket = service.submit(sample(i));
    ASSERT_TRUE(ticket.accepted());
    tickets.push_back(std::move(ticket));
  }
  service.resume();

  drained_future.wait();
  service.swap_model(*model_b);
  swapped.set_value();

  for (std::size_t i = 0; i < kBatch; ++i) {
    const auto verdict = tickets[i].verdict.get();
    math::Rng rng = math::Rng(77).child(i);
    const auto expected = (*model_a)->analyze(*sample(i), rng);
    EXPECT_EQ(verdict.adversarial, expected.adversarial) << "request " << i;
    EXPECT_EQ(verdict.reconstruction_error, expected.reconstruction_error)
        << "request " << i;
  }

  // A post-swap submission runs on model_b.
  auto after = service.submit(sample(0));
  ASSERT_TRUE(after.accepted());
  const auto verdict = after.verdict.get();
  math::Rng rng = math::Rng(77).child(kBatch);
  const auto expected = (*model_b)->analyze(*sample(0), rng);
  EXPECT_EQ(verdict.reconstruction_error, expected.reconstruction_error);
}

TEST_F(BatchFixture, CancelShutdownMidBatchSparesTheDrainedBatch) {
  // One worker, max_batch 2, five queued requests. The hook blocks the
  // first drained batch while we issue shutdown(kCancel): the two
  // drained requests are already the worker's property and must
  // complete; the three still queued must fail with kCancelled.
  std::promise<void> drained;
  std::promise<void> cancelled;
  auto drained_future = drained.get_future();
  auto cancelled_future = cancelled.get_future();
  bool first_batch = true;

  ServiceConfig config;
  config.num_threads = 1;
  config.max_batch = 2;
  config.batch_hook = [&](std::size_t) {
    if (!first_batch) return;
    first_batch = false;
    drained.set_value();
    cancelled_future.wait();
  };
  AnalysisService service(*model_a, config);
  service.pause();

  constexpr std::size_t kTotal = 5;
  std::vector<AnalysisService::Ticket> tickets;
  for (std::size_t i = 0; i < kTotal; ++i) {
    auto ticket = service.submit(sample(i));
    ASSERT_TRUE(ticket.accepted());
    tickets.push_back(std::move(ticket));
  }
  service.resume();
  drained_future.wait();  // exactly 2 requests are in the worker's hands

  // shutdown() joins the workers, so it must not run on this thread
  // until the hook is released — release first, then shut down.
  cancelled.set_value();
  service.shutdown(ShutdownPolicy::kCancel);

  std::size_t completed = 0;
  std::size_t cancelled_count = 0;
  for (auto& ticket : tickets) {
    try {
      (void)ticket.verdict.get();
      ++completed;
    } catch (const core::Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCancelled);
      ++cancelled_count;
    }
  }
  // The drained batch (2) completes; the rest are cancelled — unless
  // the worker drained a second batch before shutdown won the race.
  // What must NEVER happen: a drained request getting cancelled.
  EXPECT_EQ(completed + cancelled_count, kTotal);
  EXPECT_GE(completed, 2U);
  EXPECT_EQ(completed % 2, completed == kTotal ? 1U : 0U);

  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, completed);
  EXPECT_EQ(stats.cancelled, cancelled_count);
}

TEST_F(BatchFixture, DrainShutdownMidBatchFinishesEverything) {
  std::promise<void> drained;
  std::promise<void> released;
  auto drained_future = drained.get_future();
  auto released_future = released.get_future();
  bool first_batch = true;

  ServiceConfig config;
  config.num_threads = 1;
  config.max_batch = 2;
  config.batch_hook = [&](std::size_t) {
    if (!first_batch) return;
    first_batch = false;
    drained.set_value();
    released_future.wait();
  };
  AnalysisService service(*model_a, config);
  service.pause();

  constexpr std::size_t kTotal = 5;
  std::vector<AnalysisService::Ticket> tickets;
  for (std::size_t i = 0; i < kTotal; ++i) {
    auto ticket = service.submit(sample(i));
    ASSERT_TRUE(ticket.accepted());
    tickets.push_back(std::move(ticket));
  }
  service.resume();
  drained_future.wait();

  released.set_value();
  service.shutdown(ShutdownPolicy::kDrain);

  for (auto& ticket : tickets) EXPECT_NO_THROW((void)ticket.verdict.get());
  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, kTotal);
  EXPECT_EQ(stats.cancelled, 0U);
  // max_batch 2 over 5 requests needs at least ceil(5/2) = 3 drains.
  EXPECT_GE(stats.batches, 3U);
}

}  // namespace
}  // namespace soteria::serve
