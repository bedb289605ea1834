// Asynchronous analysis service: a trained SoteriaSystem behind a
// bounded-queue, deadline-aware, hot-swappable, micro-batching request
// API — the long-lived serving path the blocking analyze/analyze_batch
// calls don't provide.
//
// Contract highlights:
//
//  * Admission control. `submit` never blocks: at `queue_depth` pending
//    requests it returns a rejected Ticket (ErrorCode::kQueueFull), and
//    after shutdown begins it returns kShuttingDown. Backpressure is a
//    first-class answer, not an exception.
//  * Determinism. Accepted requests receive dense ids 0, 1, 2, ... and
//    request i is analyzed with `Rng(config.seed).child(i)` — exactly
//    the per-index split analyze_batch uses — so the verdict stream is
//    bit-identical to a serial `analyze_batch` over the same CFGs in
//    submission order, at any worker count or micro-batch size.
//  * Micro-batching. A worker drains up to `max_batch` queued requests
//    in one queue-lock hold and pins the model once for them, so the
//    lock round-trip, gauge reads and model pinning are paid once per
//    batch. It then analyzes each request with its own
//    `SoteriaSystem::analyze` call; a request that throws fails alone,
//    with its own exception, and its batchmates are unaffected.
//    Because every request carries its own `child(id)` generator,
//    batch composition never affects verdicts.
//  * Deadlines. A request whose deadline passes while it waits in the
//    queue is expired at drain time (Error{kDeadlineExceeded}) before
//    it wastes a worker on inference — including requests drained into
//    a batch alongside healthy ones.
//  * Hot swap. `swap_model` atomically publishes a new trained system:
//    the model is pinned once per drained batch, so an in-flight batch
//    finishes entirely on the model it started with (never a torn
//    batch) and later batches see the new one. No lock is held during
//    inference.
//  * Shutdown. `shutdown(kDrain)` stops intake and finishes every
//    queued request; `shutdown(kCancel)` fails queued-but-unstarted
//    requests with Error{kCancelled}; a batch already drained by a
//    worker always runs to completion under either policy. The
//    destructor drains.
//
// Workers are `worker_count()` threads the service owns: started by the
// constructor, joined by shutdown.
//
// Observability (when the obs registry is enabled): gauge
// `serve.queue.depth`; counters `serve.requests.{accepted,rejected,
// expired,completed,cancelled,failed}` and `serve.model.swaps`;
// histograms `t/serve.batch` (inference time of one drained batch),
// `serve.batch.size` (requests per drained batch),
// `serve.request.e2e` (submit-to-verdict seconds), and
// `serve.queue.wait` (time spent queued, seconds).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "cfg/cfg.h"
#include "math/rng.h"
#include "serve/queue.h"
#include "soteria/error.h"
#include "soteria/system.h"

namespace soteria::serve {

/// What happens to queued-but-unstarted requests when the service stops.
enum class ShutdownPolicy {
  kDrain,   ///< finish every queued request, then stop
  kCancel,  ///< fail queued requests with Error{kCancelled}
};

/// Result of a submission attempt. `verdict` is valid only when
/// `accepted()`; it yields the Verdict or rethrows the request's
/// failure (Error{kDeadlineExceeded}, Error{kCancelled}, or whatever
/// inference threw).
struct Ticket {
  std::uint64_t id = 0;
  core::ErrorCode status = core::ErrorCode::kOk;
  std::future<core::Verdict> verdict;

  [[nodiscard]] bool accepted() const noexcept {
    return status == core::ErrorCode::kOk;
  }
};

struct ServiceConfig {
  /// Maximum queued (accepted but not yet running) requests; submission
  /// `queue_depth + 1` is rejected with kQueueFull.
  std::size_t queue_depth = 256;

  /// Worker threads (runtime::resolve_threads semantics: 0 = all
  /// hardware threads).
  std::size_t num_threads = 0;

  /// Micro-batch bound: a worker drains up to this many queued requests
  /// per wakeup and runs them on one pinned model. 1 disables batching;
  /// verdicts are bit-identical at any setting. Zero is rejected with
  /// Error{kInvalidArgument}.
  std::size_t max_batch = 8;

  /// Base seed: request i draws walks from Rng(seed).child(i).
  std::uint64_t seed = 0;

  /// Persistent feature store shared by every worker (passed via
  /// AnalyzeOptions on each request); nullptr = cold extraction.
  /// Because entries are keyed by pipeline fingerprint, a hot-swapped
  /// model with different fitted state naturally misses instead of
  /// reading the old model's vectors.
  std::shared_ptr<store::FeatureStore> feature_store;

  /// Test-only hook: invoked by the draining worker after a batch is
  /// taken off the queue and the model pinned, before the batch
  /// executes (argument: batch size). Lets the micro-batch boundary
  /// property tests land a hot swap or a shutdown deterministically
  /// between drain and execute. Leave empty in production.
  std::function<void(std::size_t)> batch_hook;
};

/// Point-in-time counters (monotonic since construction, except
/// queue_depth which is instantaneous).
struct ServiceStats {
  std::uint64_t accepted = 0;   ///< admitted into the queue
  std::uint64_t rejected = 0;   ///< kQueueFull + kShuttingDown rejections
  std::uint64_t expired = 0;    ///< deadline passed while queued
  std::uint64_t completed = 0;  ///< verdict delivered
  std::uint64_t cancelled = 0;  ///< failed by a cancel-mode shutdown
  std::uint64_t failed = 0;     ///< inference threw
  std::uint64_t swaps = 0;      ///< models published via swap_model
  std::uint64_t batches = 0;    ///< micro-batches drained by workers
  std::size_t queue_depth = 0;  ///< requests queued right now
};

class AnalysisService {
 public:
  using Ticket = ::soteria::serve::Ticket;

  /// Validates, then starts `config.num_threads` worker threads. Throws
  /// core::Error{kInvalidArgument} for a null system, a zero max_batch,
  /// a zero queue_depth, or a thread count that resolves above
  /// runtime::kMaxThreads; no thread starts before validation passes.
  explicit AnalysisService(std::shared_ptr<const core::SoteriaSystem> system,
                           ServiceConfig config = {});

  /// Runs shutdown(ShutdownPolicy::kDrain) if the service is still up.
  ~AnalysisService();

  AnalysisService(const AnalysisService&) = delete;
  AnalysisService& operator=(const AnalysisService&) = delete;

  /// Non-blocking submission with an absolute deadline (the default
  /// never expires). Throws core::Error{kInvalidArgument} for a null cfg.
  [[nodiscard]] Ticket submit(
      std::shared_ptr<const cfg::Cfg> cfg,
      std::chrono::steady_clock::time_point deadline =
          std::chrono::steady_clock::time_point::max());

  /// Submission under a caller-allocated request id (walks are drawn
  /// from Rng(seed).child(id)), for callers that choose the ids — e.g.
  /// a load generator replaying a corpus under repeating ids, so every
  /// replay hits the same feature-store keys. A service must not mix
  /// keyed and plain submissions (ids could collide and the dense-id
  /// invariant would belong to nobody). Admission control, stats, and
  /// deadlines behave exactly like submit().
  [[nodiscard]] Ticket submit_keyed(
      std::shared_ptr<const cfg::Cfg> cfg,
      std::chrono::steady_clock::time_point deadline, std::uint64_t id);

  /// Atomically publishes `system` to subsequent batches. Throws
  /// core::Error{kInvalidArgument} for null. To swap in a model file,
  /// load it first (`SoteriaSystem::load_file`): a failed load then
  /// never touches the published model.
  void swap_model(std::shared_ptr<const core::SoteriaSystem> system);

  /// The currently published model.
  [[nodiscard]] std::shared_ptr<const core::SoteriaSystem> model() const;

  /// Maintenance valve: hold workers (queued requests wait, submissions
  /// keep filling the queue until backpressure) / release them.
  void pause();
  void resume();

  /// Stops intake, applies `policy` to queued work, joins the workers.
  /// Idempotent; later calls are no-ops (the first policy wins).
  void shutdown(ShutdownPolicy policy);

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }
  /// Resolved worker count (after resolve_threads).
  [[nodiscard]] std::size_t worker_count() const noexcept {
    return worker_count_;
  }

 private:
  struct Request {
    std::uint64_t id = 0;
    std::shared_ptr<const cfg::Cfg> cfg;
    std::chrono::steady_clock::time_point deadline;
    std::chrono::steady_clock::time_point enqueued;
    std::promise<core::Verdict> promise;
  };

  [[nodiscard]] Ticket submit_internal(
      std::shared_ptr<const cfg::Cfg> cfg,
      std::chrono::steady_clock::time_point deadline,
      std::optional<std::uint64_t> external_id);
  void worker_loop();

  ServiceConfig config_;
  std::size_t worker_count_;
  math::Rng base_rng_;  ///< never advanced; only child() is used
  /// Guards only the published-model pointer; held for a shared_ptr
  /// copy, never during inference. (A std::atomic<std::shared_ptr>
  /// would do, but libstdc++'s lock-bit protocol is opaque to TSan and
  /// the serve suite must stay sanitizer-clean.)
  mutable std::mutex model_mutex_;
  std::shared_ptr<const core::SoteriaSystem> model_;
  BoundedMpmcQueue<Request> queue_;

  /// Serializes id allocation with enqueue so accepted ids are dense and
  /// queue order matches id order (the determinism contract), and so no
  /// submission can slip past an in-progress shutdown.
  std::mutex submit_mutex_;
  std::uint64_t next_id_ = 0;       // guarded by submit_mutex_
  std::atomic<bool> accepting_{true};

  std::mutex shutdown_mutex_;
  bool shut_down_ = false;  // guarded by shutdown_mutex_

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> swaps_{0};
  std::atomic<std::uint64_t> batches_{0};

  std::vector<std::thread> workers_;
};

}  // namespace soteria::serve
