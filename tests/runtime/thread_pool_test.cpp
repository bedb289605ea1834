#include "runtime/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "expect_error.h"

namespace soteria::runtime {
namespace {

TEST(ResolveThreads, ZeroMeansHardware) {
  EXPECT_EQ(resolve_threads(0), hardware_threads());
  EXPECT_GE(hardware_threads(), 1U);
}

TEST(ResolveThreads, LiteralOtherwise) {
  EXPECT_EQ(resolve_threads(1), 1U);
  EXPECT_EQ(resolve_threads(7), 7U);
  // Oversubscription is allowed: a 1-core machine can still exercise a
  // many-thread pool.
  EXPECT_EQ(resolve_threads(kMaxThreads), kMaxThreads);
}

TEST(ThreadPool, RejectsAbsurdThreadCounts) {
  EXPECT_ERROR(ThreadPool pool(kMaxThreads + 1),
               core::ErrorCode::kInvalidArgument);
}

TEST(ThreadPool, ReportsThreadCount) {
  EXPECT_EQ(ThreadPool(1).thread_count(), 1U);
  EXPECT_EQ(ThreadPool(4).thread_count(), 4U);
  EXPECT_EQ(ThreadPool(0).thread_count(), hardware_threads());
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (std::size_t threads : {1U, 2U, 4U, 8U}) {
    ThreadPool pool(threads);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " with " << threads
                                   << " threads";
    }
  }
}

TEST(ThreadPool, ZeroTasksReturnsImmediately) {
  ThreadPool pool(4);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SingleThreadRunsOnCallerInOrder) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for(10, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0U);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, PoolIsReusableAcrossRegions) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(100, [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 4950U);
  }
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  for (std::size_t threads : {1U, 4U}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.parallel_for(100,
                          [&](std::size_t i) {
                            if (i == 37) {
                              throw std::runtime_error("boom");
                            }
                          }),
        std::runtime_error);
    // The pool survives a poisoned region.
    std::atomic<std::size_t> count{0};
    pool.parallel_for(10, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 10U);
  }
}

TEST(ThreadPool, ExceptionSkipsUnclaimedIndices) {
  ThreadPool pool(2);
  std::atomic<std::size_t> executed{0};
  constexpr std::size_t kN = 10000;
  try {
    pool.parallel_for(kN, [&](std::size_t i) {
      if (i == 0) throw std::runtime_error("early");
      executed.fetch_add(1);
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error&) {
  }
  // Index 0 is claimed first (by some runner); once it throws, the
  // region is poisoned and most of the remaining indices are skipped.
  EXPECT_LT(executed.load(), kN - 1);
}

TEST(ThreadPool, NestedRegionsRunSeriallyWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<std::size_t> inner_total{0};
  pool.parallel_for(8, [&](std::size_t) {
    EXPECT_TRUE(in_parallel_region());
    // A body that calls back into the engine must not deadlock; it runs
    // the nested region inline on the current thread.
    parallel_for(4, 10, [&](std::size_t j) { inner_total.fetch_add(j); });
  });
  EXPECT_FALSE(in_parallel_region());
  EXPECT_EQ(inner_total.load(), 8U * 45U);
}

TEST(ThreadPool, WorkersActuallyParticipate) {
  // With enough indices and a brief busy-wait, a 4-thread pool should
  // execute bodies on more than one distinct thread. This is inherently
  // scheduling-dependent, so retry a few times before declaring failure.
  for (int attempt = 0; attempt < 5; ++attempt) {
    ThreadPool pool(4);
    std::mutex mutex;
    std::set<std::thread::id> ids;
    pool.parallel_for(64, [&](std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      const std::scoped_lock lock(mutex);
      ids.insert(std::this_thread::get_id());
    });
    if (ids.size() > 1) return;
  }
  FAIL() << "4-thread pool never used a second thread across 5 attempts";
}

TEST(ParallelMap, CollectsResultsByIndex) {
  for (std::size_t threads : {1U, 2U, 8U}) {
    const auto out = parallel_map(threads, 100, [](std::size_t i) {
      return static_cast<int>(i * i);
    });
    ASSERT_EQ(out.size(), 100U);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], static_cast<int>(i * i));
    }
  }
}

TEST(FreeParallelFor, RejectsAbsurdThreadCounts) {
  EXPECT_ERROR(
      parallel_for(kMaxThreads + 1, 10, [](std::size_t) {}),
               core::ErrorCode::kInvalidArgument);
}

TEST(FreeParallelFor, SingleIndexRunsInline) {
  const auto caller = std::this_thread::get_id();
  parallel_for(8, 1, [&](std::size_t i) {
    EXPECT_EQ(i, 0U);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

}  // namespace
}  // namespace soteria::runtime
