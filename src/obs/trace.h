// Scoped wall-clock tracing with nesting.
//
// A `Span` is an RAII timer: construction notes the steady-clock start,
// destruction records the elapsed seconds into the registry's histogram
// named after the span's *path* — the "/"-joined chain of enclosing
// span names on the current thread, prefixed with `kTimePrefix` so
// exporters can tell stage timings from value histograms. Nested spans
// therefore produce a per-stage breakdown like
//
//   t/soteria.train
//   t/soteria.train/pipeline.fit
//   t/soteria.train/pipeline.fit/features.walks
//
// While the registry is disabled a Span is two relaxed atomic loads and
// nothing else — no clock read, no string work.
//
// Parallel regions: `runtime::ThreadPool` captures the caller's span
// context when a region starts and installs it on every runner (workers
// *and* the participating caller), so a stage's path is identical no
// matter which thread executes it — and so per-path aggregates are
// identical at every thread count.
#pragma once

#include <chrono>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace soteria::obs {

/// Histogram-name prefix identifying span timings (values in seconds).
inline constexpr std::string_view kTimePrefix = "t/";

/// Captured span nesting state of the current thread; cheap to copy
/// into worker threads. Empty while tracing is disabled.
struct SpanContext {
  std::string path;
};

/// The calling thread's current span path ("" at top level).
[[nodiscard]] SpanContext current_span_context();

/// Installs a captured span context on the current thread for the
/// lifetime of the guard (used by the thread pool around parallel
/// regions); restores the previous context on destruction.
class SpanContextGuard {
 public:
  explicit SpanContextGuard(const SpanContext& context);
  ~SpanContextGuard();

  SpanContextGuard(const SpanContextGuard&) = delete;
  SpanContextGuard& operator=(const SpanContextGuard&) = delete;

 private:
  std::string saved_;
};

/// RAII stage timer. `name` must outlive nothing — it is copied into
/// the thread's path immediately.
class Span {
 public:
  explicit Span(std::string_view name,
                MetricsRegistry& registry = obs::registry());
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  MetricsRegistry* registry_ = nullptr;  ///< null when disabled
  std::size_t parent_length_ = 0;        ///< path length to restore
  std::chrono::steady_clock::time_point start_;
};

}  // namespace soteria::obs
