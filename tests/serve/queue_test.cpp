// BoundedMpmcQueue contract: backpressure at exact capacity, FIFO
// delivery, pause/close/take_all semantics, and multi-producer /
// multi-consumer safety (this suite carries the `serve` ctest label and
// runs under TSan in the sanitize builds).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/queue.h"

namespace soteria::serve {
namespace {

TEST(BoundedMpmcQueue, ZeroCapacityIsRejectedWithTypedError) {
  try {
    BoundedMpmcQueue<int> queue(0);
    FAIL() << "expected core::Error";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.code(), core::ErrorCode::kInvalidArgument);
  }
}

TEST(BoundedMpmcQueue, RejectsAtExactCapacity) {
  BoundedMpmcQueue<int> queue(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(queue.try_push(i), PushStatus::kAccepted) << i;
  }
  EXPECT_EQ(queue.size(), 4U);
  // The capacity + 1 push is rejected, not blocked or dropped silently.
  EXPECT_EQ(queue.try_push(4), PushStatus::kFull);
  EXPECT_EQ(queue.size(), 4U);
  // Freeing one slot re-admits exactly one item.
  EXPECT_EQ(queue.pop_batch(1), std::vector<int>{0});
  EXPECT_EQ(queue.try_push(4), PushStatus::kAccepted);
  EXPECT_EQ(queue.try_push(5), PushStatus::kFull);
}

TEST(BoundedMpmcQueue, DeliversFifo) {
  BoundedMpmcQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) ASSERT_EQ(queue.try_push(i), PushStatus::kAccepted);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(queue.pop_batch(1), std::vector<int>{i});
  }
}

TEST(BoundedMpmcQueue, CloseStopsProducersAndDrainsConsumers) {
  BoundedMpmcQueue<int> queue(8);
  ASSERT_EQ(queue.try_push(1), PushStatus::kAccepted);
  ASSERT_EQ(queue.try_push(2), PushStatus::kAccepted);
  queue.close();
  EXPECT_EQ(queue.try_push(3), PushStatus::kClosed);
  // Consumers still see the queued items, then the exit sentinel.
  EXPECT_EQ(queue.pop_batch(1), std::vector<int>{1});
  EXPECT_EQ(queue.pop_batch(1), std::vector<int>{2});
  EXPECT_TRUE(queue.pop_batch(1).empty());
}

TEST(BoundedMpmcQueue, TakeAllEmptiesAtomically) {
  BoundedMpmcQueue<int> queue(8);
  for (int i = 0; i < 3; ++i) ASSERT_EQ(queue.try_push(i), PushStatus::kAccepted);
  const auto taken = queue.take_all();
  EXPECT_EQ(taken, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(queue.size(), 0U);
  queue.close();
  EXPECT_TRUE(queue.pop_batch(1).empty());
}

TEST(BoundedMpmcQueue, PauseHoldsConsumersUntilResume) {
  BoundedMpmcQueue<int> queue(4);
  queue.pause();
  ASSERT_EQ(queue.try_push(7), PushStatus::kAccepted);

  std::atomic<bool> popped{false};
  std::thread consumer([&] {
    EXPECT_EQ(queue.pop_batch(1), std::vector<int>{7});
    popped.store(true);
  });
  // The consumer must not make progress while paused (a bounded wait —
  // this can only fail if pause is broken, never spuriously pass).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(popped.load());
  EXPECT_EQ(queue.size(), 1U);

  queue.resume();
  consumer.join();
  EXPECT_TRUE(popped.load());
}

TEST(BoundedMpmcQueue, ConcurrentProducersAndConsumersLoseNothing) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 200;
  BoundedMpmcQueue<int> queue(16);

  std::mutex sink_mutex;
  std::vector<int> sink;
  std::vector<std::thread> consumers;
  consumers.reserve(kConsumers);
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      for (auto items = queue.pop_batch(1); !items.empty();
           items = queue.pop_batch(1)) {
        std::lock_guard<std::mutex> lock(sink_mutex);
        sink.push_back(items.front());
      }
    });
  }

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int value = p * kPerProducer + i;
        // Backpressure shows up as kFull under load; retry until the
        // consumers free a slot.
        while (queue.try_push(value) == PushStatus::kFull) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& producer : producers) producer.join();
  queue.close();
  for (auto& consumer : consumers) consumer.join();

  ASSERT_EQ(sink.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  std::sort(sink.begin(), sink.end());
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    ASSERT_EQ(sink[static_cast<std::size_t>(i)], i);
  }
}

}  // namespace
}  // namespace soteria::serve
