#include "serve/service.h"

#include <exception>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"

namespace soteria::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

AnalysisService::AnalysisService(
    std::shared_ptr<const core::SoteriaSystem> system, ServiceConfig config)
    : config_(std::move(config)),
      worker_count_(runtime::resolve_threads(config_.num_threads)),
      base_rng_(config_.seed),
      model_(std::move(system)),
      queue_(config_.queue_depth) {
  if (model_ == nullptr) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "AnalysisService: null system");
  }
  if (config_.max_batch == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "AnalysisService: max_batch must be positive");
  }
  if (worker_count_ > runtime::kMaxThreads) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "AnalysisService: " + std::to_string(worker_count_) +
                          " threads exceeds the cap of " +
                          std::to_string(runtime::kMaxThreads));
  }
  workers_.reserve(worker_count_);
  for (std::size_t i = 0; i < worker_count_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

AnalysisService::~AnalysisService() { shutdown(ShutdownPolicy::kDrain); }

AnalysisService::Ticket AnalysisService::submit(
    std::shared_ptr<const cfg::Cfg> cfg, Clock::time_point deadline) {
  return submit_internal(std::move(cfg), deadline, std::nullopt);
}

AnalysisService::Ticket AnalysisService::submit_keyed(
    std::shared_ptr<const cfg::Cfg> cfg, Clock::time_point deadline,
    std::uint64_t id) {
  return submit_internal(std::move(cfg), deadline, id);
}

AnalysisService::Ticket AnalysisService::submit_internal(
    std::shared_ptr<const cfg::Cfg> cfg, Clock::time_point deadline,
    std::optional<std::uint64_t> external_id) {
  if (cfg == nullptr) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "AnalysisService::submit: null cfg");
  }
  Ticket ticket;
  Request request;
  request.cfg = std::move(cfg);
  request.deadline = deadline;
  auto verdict = request.promise.get_future();
  {
    // Id allocation and enqueue are one atomic step: accepted ids stay
    // dense and queue order matches id order (the analyze_batch
    // bit-identity contract), and no submission can race past an
    // in-progress shutdown.
    std::lock_guard<std::mutex> lock(submit_mutex_);
    if (!accepting_.load(std::memory_order_relaxed)) {
      ticket.status = core::ErrorCode::kShuttingDown;
    } else {
      const std::uint64_t id = external_id ? *external_id : next_id_;
      request.id = id;
      request.enqueued = Clock::now();
      switch (queue_.try_push(std::move(request))) {
        case PushStatus::kAccepted:
          if (!external_id) ++next_id_;
          ticket.id = id;
          ticket.status = core::ErrorCode::kOk;
          ticket.verdict = std::move(verdict);
          break;
        case PushStatus::kFull:
          ticket.status = core::ErrorCode::kQueueFull;
          break;
        case PushStatus::kClosed:
          ticket.status = core::ErrorCode::kShuttingDown;
          break;
      }
    }
  }
  auto& registry = obs::registry();
  if (ticket.accepted()) {
    accepted_.fetch_add(1, std::memory_order_relaxed);
    registry.counter_add("serve.requests.accepted");
    // queue_.size() takes the queue lock, so only pay for it when the
    // registry is actually collecting.
    if (registry.enabled()) {
      registry.gauge_set("serve.queue.depth",
                         static_cast<double>(queue_.size()));
    }
  } else {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    registry.counter_add("serve.requests.rejected");
  }
  return ticket;
}

void AnalysisService::worker_loop() {
  auto& registry = obs::registry();
  for (;;) {
    std::vector<Request> batch = queue_.pop_batch(config_.max_batch);
    if (batch.empty()) break;  // closed and drained
    const auto start = Clock::now();
    if (registry.enabled()) {
      registry.gauge_set("serve.queue.depth",
                         static_cast<double>(queue_.size()));
      registry.record("serve.batch.size",
                      static_cast<double>(batch.size()));
      for (const auto& request : batch) {
        registry.record("serve.queue.wait",
                        seconds_between(request.enqueued, start));
      }
    }
    batches_.fetch_add(1, std::memory_order_relaxed);

    // Pin the published model once per batch: every request in the
    // batch runs on the same system (no torn batches), and an
    // in-flight batch finishes on the model it was drained under even
    // when a hot swap lands mid-execution.
    const auto model = this->model();
    if (config_.batch_hook) config_.batch_hook(batch.size());

    // Each request carries its own fresh child generator, which both
    // keys the feature store and makes the verdict independent of how
    // requests were packed into batches. One analyze call per request,
    // so a throw fails that request alone.
    core::AnalyzeOptions options;
    options.feature_store = config_.feature_store;
    const obs::Span span("serve.batch");
    for (auto& request : batch) {
      // Deadline triage at drain time: a request whose deadline passed
      // while queued is expired without wasting inference on it.
      if (start >= request.deadline) {
        expired_.fetch_add(1, std::memory_order_relaxed);
        registry.counter_add("serve.requests.expired");
        request.promise.set_exception(std::make_exception_ptr(core::Error(
            core::ErrorCode::kDeadlineExceeded,
            "AnalysisService: deadline passed while request was queued")));
        continue;
      }
      try {
        core::Verdict verdict = model->analyze(
            *request.cfg, base_rng_.child(request.id), options);
        // Count *before* fulfilling the promise: a caller unblocked by
        // the future must observe the completion in stats().
        completed_.fetch_add(1, std::memory_order_relaxed);
        registry.counter_add("serve.requests.completed");
        registry.record("serve.request.e2e",
                        seconds_between(request.enqueued, Clock::now()));
        request.promise.set_value(std::move(verdict));
      } catch (...) {
        failed_.fetch_add(1, std::memory_order_relaxed);
        registry.counter_add("serve.requests.failed");
        request.promise.set_exception(std::current_exception());
      }
    }
  }
}

void AnalysisService::swap_model(
    std::shared_ptr<const core::SoteriaSystem> system) {
  if (system == nullptr) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "AnalysisService::swap_model: null system");
  }
  {
    const std::lock_guard<std::mutex> lock(model_mutex_);
    model_ = std::move(system);
  }
  swaps_.fetch_add(1, std::memory_order_relaxed);
  obs::registry().counter_add("serve.model.swaps");
}

std::shared_ptr<const core::SoteriaSystem> AnalysisService::model() const {
  const std::lock_guard<std::mutex> lock(model_mutex_);
  return model_;
}

void AnalysisService::pause() { queue_.pause(); }

void AnalysisService::resume() { queue_.resume(); }

void AnalysisService::shutdown(ShutdownPolicy policy) {
  // The lock covers the whole teardown so a second caller returns only
  // after the first finished joining the workers.
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  if (shut_down_) return;
  shut_down_ = true;
  {
    std::lock_guard<std::mutex> submit_lock(submit_mutex_);
    accepting_.store(false, std::memory_order_relaxed);
  }
  if (policy == ShutdownPolicy::kCancel) {
    auto pending = queue_.take_all();
    for (auto& request : pending) {
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      obs::registry().counter_add("serve.requests.cancelled");
      request.promise.set_exception(std::make_exception_ptr(core::Error(
          core::ErrorCode::kCancelled,
          "AnalysisService: request cancelled by shutdown")));
    }
  }
  queue_.close();
  for (auto& worker : workers_) worker.join();
}

ServiceStats AnalysisService::stats() const {
  ServiceStats stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.expired = expired_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.cancelled = cancelled_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  stats.swaps = swaps_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.queue_depth = queue_.size();
  return stats;
}

}  // namespace soteria::serve
