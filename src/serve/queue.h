// Bounded MPMC queue — the admission-control primitive of the analysis
// service.
//
// Design goals, in order:
//   1. Explicit backpressure. `try_push` never blocks: when the queue
//      is at capacity it reports kFull immediately, so the caller (and
//      ultimately the remote client) decides whether to retry, shed, or
//      escalate — unbounded buffering is how serving systems fall over.
//   2. Orderly teardown. `close()` stops producers permanently while
//      consumers drain whatever is queued (drain-mode shutdown);
//      `take_all()` empties the queue atomically so a cancel-mode
//      shutdown can fail every pending item exactly once.
//   3. Operability. `pause()` holds consumers without rejecting
//      producers — a maintenance valve (and the hook the backpressure /
//      deadline tests use to pin queue state deterministically).
//
// Implementation: one mutex + one condition variable over a deque.
// Serving queues are short (bounded!) and the per-item work (feature
// extraction + NN inference) is orders of magnitude heavier than a
// lock handoff, so a lock-free ring would buy nothing here.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "soteria/error.h"

namespace soteria::serve {

/// Outcome of a non-blocking push attempt.
enum class PushStatus {
  kAccepted,  ///< item enqueued
  kFull,      ///< at capacity — backpressure, try again later
  kClosed,    ///< queue closed, no new work accepted
};

template <typename T>
class BoundedMpmcQueue {
 public:
  /// Throws core::Error{kInvalidArgument} for a zero capacity.
  explicit BoundedMpmcQueue(std::size_t capacity) : capacity_(capacity) {
    if (capacity == 0) {
      throw core::Error(core::ErrorCode::kInvalidArgument,
                        "BoundedMpmcQueue: capacity must be positive");
    }
  }

  BoundedMpmcQueue(const BoundedMpmcQueue&) = delete;
  BoundedMpmcQueue& operator=(const BoundedMpmcQueue&) = delete;

  /// Non-blocking enqueue. Rejects (kFull) at exactly `capacity`
  /// queued items; never rejects below it.
  [[nodiscard]] PushStatus try_push(T value) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return PushStatus::kClosed;
      if (items_.size() >= capacity_) return PushStatus::kFull;
      items_.push_back(std::move(value));
    }
    consumers_.notify_one();
    return PushStatus::kAccepted;
  }

  /// Blocks until an item is available (and the queue is not paused) or
  /// the queue is closed and drained, then takes up to `max_items`
  /// queued items in one lock hold — the micro-batching primitive: a
  /// consumer that takes N items per wakeup costs one lock round-trip
  /// per *batch* instead of one per request. Returns items in FIFO
  /// order; an empty vector means the queue is closed and drained (the
  /// consumer's exit signal). `max_items` of 0 is treated as 1.
  [[nodiscard]] std::vector<T> pop_batch(std::size_t max_items) {
    std::vector<T> batch;
    std::unique_lock<std::mutex> lock(mutex_);
    consumers_.wait(lock, [&] {
      return (!paused_ && !items_.empty()) || (closed_ && items_.empty());
    });
    const std::size_t count =
        std::min(std::max<std::size_t>(max_items, 1), items_.size());
    batch.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      batch.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    return batch;
  }

  /// Holds consumers (pop_batch blocks even when items are queued).
  /// Producers are unaffected: the queue keeps filling until capacity
  /// rejects.
  void pause() {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = true;
  }

  /// Releases paused consumers.
  void resume() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      paused_ = false;
    }
    consumers_.notify_all();
  }

  /// Permanently stops producers; implies resume() so consumers can
  /// drain the remaining items and observe the empty-batch sentinel.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
      paused_ = false;
    }
    consumers_.notify_all();
  }

  /// Atomically removes and returns every queued item (cancel-mode
  /// shutdown: each pending item is failed exactly once by the caller).
  [[nodiscard]] std::vector<T> take_all() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<T> taken;
    taken.reserve(items_.size());
    for (auto& item : items_) taken.push_back(std::move(item));
    items_.clear();
    return taken;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable consumers_;
  std::deque<T> items_;    // guarded by mutex_
  bool paused_ = false;    // guarded by mutex_
  bool closed_ = false;    // guarded by mutex_
};

}  // namespace soteria::serve
