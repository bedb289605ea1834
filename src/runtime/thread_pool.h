// Parallel batch engine: a fixed-size thread pool with a
// `parallel_for` / `parallel_map` API over index ranges.
//
// Design goals, in order:
//   1. Determinism. The pool never decides *what* a task computes, only
//      *when* — callers derive one RNG child per index (math::Rng::child)
//      and write results by index, so outputs are bit-identical to a
//      serial loop at any thread count.
//   2. Simplicity. No work stealing, no futures: one atomic claim
//      counter per region, the caller thread participates as a runner,
//      and the region returns when every runner has finished.
//   3. Safety. The first exception thrown by any index is rethrown in
//      the caller after the region drains; a body that calls back into
//      the pool (reentrancy) degrades to an inline serial loop instead
//      of deadlocking.
#pragma once

#include <cstddef>
#include <functional>
#include <thread>
#include <type_traits>
#include <vector>

namespace soteria::runtime {

/// Upper bound accepted for any thread-count knob, as a configuration
/// corruption guard (oversubscription beyond this is never useful).
inline constexpr std::size_t kMaxThreads = 256;

/// Detected hardware concurrency, never less than 1.
[[nodiscard]] std::size_t hardware_threads() noexcept;

/// Resolves a user-facing thread knob: 0 means "all hardware threads",
/// anything else is taken literally (so tests can oversubscribe a small
/// machine and still exercise real concurrency). Never returns 0.
[[nodiscard]] std::size_t resolve_threads(std::size_t requested) noexcept;

/// True while the calling thread is executing inside a parallel region
/// (used to run nested regions serially instead of deadlocking).
[[nodiscard]] bool in_parallel_region() noexcept;

/// Fixed-size pool of `threads - 1` workers; the caller thread is the
/// remaining runner, so `ThreadPool(1)` owns no threads and every
/// region runs serially on the caller.
class ThreadPool {
 public:
  /// `threads` is resolved via resolve_threads (0 = hardware). Throws
  /// core::Error{kInvalidArgument} above kMaxThreads.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Configured concurrency (workers + the participating caller).
  [[nodiscard]] std::size_t thread_count() const noexcept;

  /// Runs body(0) ... body(n-1), each exactly once, distributed over
  /// the workers and the calling thread. Blocks until every index has
  /// completed (or the region was poisoned by an exception). The first
  /// exception thrown by any body is rethrown here; remaining unclaimed
  /// indices are skipped once an exception occurs. Reentrant calls from
  /// inside a body run serially inline.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

  /// parallel_for whose body also receives a dense *slot* id. Each
  /// runner (worker or caller) claims one slot for the whole region, so
  /// slot values are < thread_count(), every index executed by the same
  /// runner sees the same slot, and no two concurrent bodies share one.
  /// This is the seam for per-thread partial accumulators: callers
  /// allocate thread_count() buffers up front, bodies write only to
  /// buffer[slot], and the buffers are merged after the region returns
  /// — no locks, no per-chunk allocation, one merge at the end.
  /// Serial and reentrant fallbacks run everything on slot 0.
  void parallel_for_slots(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& body);

 private:
  struct Impl;
  Impl* impl_;
};

/// One-shot region over a short-lived pool: resolves `num_threads`,
/// runs serially when the resolved count is 1 (or n <= 1, or the caller
/// is already inside a region), otherwise spins up a pool for the
/// duration of the loop. Heavy phases (training, corpus extraction,
/// batch analysis) amortize the pool construction; callers with many
/// small regions should hold their own ThreadPool.
void parallel_for(std::size_t num_threads, std::size_t n,
                  const std::function<void(std::size_t)>& body);

/// One-shot slotted region (see ThreadPool::parallel_for_slots): slot
/// values are < resolve_threads(num_threads), so callers size their
/// per-slot accumulator arrays to that count. Runs serially on slot 0
/// when the resolved count is 1 (or n <= 1, or inside another region).
void parallel_for_slots(
    std::size_t num_threads, std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& body);

/// Map-by-index counterpart of the free parallel_for.
template <typename F>
[[nodiscard]] auto parallel_map(std::size_t num_threads, std::size_t n,
                                F&& fn)
    -> std::vector<std::invoke_result_t<F&, std::size_t>> {
  std::vector<std::invoke_result_t<F&, std::size_t>> out(n);
  parallel_for(num_threads, n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace soteria::runtime
