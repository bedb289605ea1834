#include "runtime/thread_pool.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>

#include "obs/trace.h"
#include "soteria/error.h"

namespace soteria::runtime {

namespace {

thread_local bool t_in_parallel_region = false;

/// Restores the reentrancy flag on scope exit (exception-safe).
struct RegionGuard {
  bool previous;
  RegionGuard() : previous(t_in_parallel_region) {
    t_in_parallel_region = true;
  }
  ~RegionGuard() { t_in_parallel_region = previous; }
};

}  // namespace

std::size_t hardware_threads() noexcept {
  const unsigned detected = std::thread::hardware_concurrency();
  return detected == 0 ? 1 : static_cast<std::size_t>(detected);
}

std::size_t resolve_threads(std::size_t requested) noexcept {
  return requested == 0 ? hardware_threads() : requested;
}

bool in_parallel_region() noexcept { return t_in_parallel_region; }

/// One parallel_for region. Runners (queued worker tasks plus the
/// caller) claim indices through `next` until the range drains or an
/// exception poisons the region; the caller waits until every runner
/// has signalled completion, so no body can still be executing when
/// parallel_for returns.
struct Region {
  const std::function<void(std::size_t)>* body = nullptr;
  /// Slotted variant (exactly one of body / body_slotted is set): the
  /// runner passes its claimed slot id alongside each index.
  const std::function<void(std::size_t, std::size_t)>* body_slotted =
      nullptr;
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> next_slot{0};
  std::atomic<bool> poisoned{false};
  std::size_t total_runners = 0;

  std::mutex mutex;
  std::condition_variable done;
  std::size_t finished_runners = 0;  // guarded by mutex
  std::exception_ptr error;          // guarded by mutex

  /// The caller's span nesting at region start, installed on every
  /// runner so a traced stage records the same path no matter which
  /// thread executes it (per-path aggregates stay thread-count
  /// invariant). Empty when tracing is off.
  obs::SpanContext span_context;

  void run_indices() {
    RegionGuard guard;
    const obs::SpanContextGuard span_guard(span_context);
    // Claimed once per runner, never contended again: every index this
    // runner executes shares the slot, and slots stay < total_runners.
    const std::size_t slot =
        next_slot.fetch_add(1, std::memory_order_relaxed);
    while (!poisoned.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        if (body_slotted != nullptr) {
          (*body_slotted)(slot, i);
        } else {
          (*body)(i);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!error) error = std::current_exception();
        poisoned.store(true, std::memory_order_relaxed);
      }
    }
    std::lock_guard<std::mutex> lock(mutex);
    ++finished_runners;
    if (finished_runners == total_runners) done.notify_all();
  }
};

struct ThreadPool::Impl {
  std::vector<std::thread> workers;
  std::deque<std::function<void()>> queue;  // guarded by mutex
  std::mutex mutex;
  std::condition_variable wake;
  bool stopping = false;  // guarded by mutex

  /// Launches `region` (body already installed) over `n` indices and
  /// blocks until every runner has finished. Queued tasks own the
  /// region state independently of this stack frame; the caller waits
  /// for every runner (started or not), so no body outlives the call.
  void run_region(std::shared_ptr<Region> region, std::size_t n) {
    region->n = n;
    region->span_context = obs::current_span_context();
    const std::size_t queued_runners = std::min(workers.size(), n - 1);
    region->total_runners = queued_runners + 1;

    {
      std::lock_guard<std::mutex> lock(mutex);
      for (std::size_t r = 0; r < queued_runners; ++r) {
        queue.emplace_back([region] { region->run_indices(); });
      }
    }
    if (queued_runners == 1) {
      wake.notify_one();
    } else {
      wake.notify_all();
    }

    region->run_indices();

    std::unique_lock<std::mutex> lock(region->mutex);
    region->done.wait(lock, [&] {
      return region->finished_runners == region->total_runners;
    });
    if (region->error) std::rethrow_exception(region->error);
  }

  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex);
        wake.wait(lock, [&] { return stopping || !queue.empty(); });
        if (queue.empty()) return;  // stopping and drained
        task = std::move(queue.front());
        queue.pop_front();
      }
      task();
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads) : impl_(new Impl) {
  const std::size_t resolved = resolve_threads(threads);
  if (resolved > kMaxThreads) {
    delete impl_;
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "ThreadPool: " + std::to_string(resolved) +
                      " threads exceeds the cap of " +
                      std::to_string(kMaxThreads));
  }
  impl_->workers.reserve(resolved - 1);
  for (std::size_t i = 0; i + 1 < resolved; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->wake.notify_all();
  for (auto& worker : impl_->workers) worker.join();
  delete impl_;
}

std::size_t ThreadPool::thread_count() const noexcept {
  return impl_->workers.size() + 1;
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (impl_->workers.empty() || n == 1 || t_in_parallel_region) {
    RegionGuard guard;
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  auto region = std::make_shared<Region>();
  region->body = &body;
  impl_->run_region(std::move(region), n);
}

void ThreadPool::parallel_for_slots(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  if (impl_->workers.empty() || n == 1 || t_in_parallel_region) {
    RegionGuard guard;
    for (std::size_t i = 0; i < n; ++i) body(0, i);
    return;
  }
  auto region = std::make_shared<Region>();
  region->body_slotted = &body;
  impl_->run_region(std::move(region), n);
}

void parallel_for(std::size_t num_threads, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  const std::size_t resolved = resolve_threads(num_threads);
  if (resolved > kMaxThreads) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "parallel_for: " + std::to_string(resolved) +
                      " threads exceeds the cap of " +
                      std::to_string(kMaxThreads));
  }
  if (resolved == 1 || n <= 1 || t_in_parallel_region) {
    RegionGuard guard;
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool pool(resolved);
  pool.parallel_for(n, body);
}

void parallel_for_slots(
    std::size_t num_threads, std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& body) {
  const std::size_t resolved = resolve_threads(num_threads);
  if (resolved > kMaxThreads) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "parallel_for_slots: " + std::to_string(resolved) +
                          " threads exceeds the cap of " +
                          std::to_string(kMaxThreads));
  }
  if (resolved == 1 || n <= 1 || t_in_parallel_region) {
    RegionGuard guard;
    for (std::size_t i = 0; i < n; ++i) body(0, i);
    return;
  }
  ThreadPool pool(resolved);
  pool.parallel_for_slots(n, body);
}

}  // namespace soteria::runtime
