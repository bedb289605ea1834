// Pipeline observability: a lightweight, thread-safe metrics registry.
//
// A `MetricsRegistry` holds named counters, gauges, and fixed-bucket
// histograms. Writes land in per-thread shards (one uncontended mutex
// each, registered with the registry on first use), so instrumentation
// composes with `runtime::ThreadPool` without cross-thread lock
// contention; `snapshot()` merges the shards on read. Aggregated
// counter values and record counts are independent of how work was
// scheduled across threads — the metrics correctness tests assert this
// at several thread counts.
//
// The registry is *disabled by default*: every write entry point is a
// single relaxed atomic load away from a no-op, so instrumented hot
// paths cost nothing measurable until observability is switched on
// with `obs::set_enabled` (which the CLI's `--metrics` flag calls).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace soteria::obs {

/// Number of finite histogram bucket boundaries. Bucket i covers
/// (bound(i-1), bound(i)] with bound(i) = 1e-6 * 2^i, spanning one
/// microsecond to ~67 seconds for latencies (and, the same boundaries
/// being pure magnitudes, ~1e-6 to ~134 for value distributions such as
/// reconstruction-error scores). One extra overflow bucket catches
/// everything larger.
inline constexpr std::size_t kHistogramBuckets = 27;

/// Upper bound of finite bucket `i` (i < kHistogramBuckets).
[[nodiscard]] double bucket_upper_bound(std::size_t i) noexcept;

/// Aggregated state of one histogram: moments plus fixed log-scale
/// bucket counts (last slot = overflow). Plain data; merging two
/// histograms adds counts and widens min/max.
struct HistogramData {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< meaningful only when count > 0
  double max = 0.0;  ///< meaningful only when count > 0
  std::array<std::uint64_t, kHistogramBuckets + 1> buckets{};

  void record(double value) noexcept;
  void merge(const HistogramData& other) noexcept;

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  /// Bucket-resolution quantile estimate (upper bound of the bucket
  /// holding the q-th record, clamped by the recorded max). q in [0, 1].
  [[nodiscard]] double quantile(double q) const noexcept;
};

/// Merged, point-in-time view of a registry. Ordered maps so exporters
/// and tests see a deterministic iteration order.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;

  [[nodiscard]] bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Thread-safe named-metric registry with per-thread write shards.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(bool enabled = false);
  ~MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Toggles collection. Disabling does not discard already-recorded
  /// data; `reset()` does.
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Adds `delta` to the named counter. No-op while disabled.
  void counter_add(std::string_view name, std::uint64_t delta = 1);

  /// Sets the named gauge; concurrent writers resolve last-write-wins
  /// via a registry-wide version stamp. No-op while disabled.
  void gauge_set(std::string_view name, double value);

  /// Records one observation into the named histogram. No-op while
  /// disabled.
  void record(std::string_view name, double value);

  /// Merges every thread's shard into one consistent view. Safe to call
  /// while other threads keep recording (each shard is locked briefly).
  [[nodiscard]] Snapshot snapshot() const;

  /// Clears all recorded data in every shard (the enabled flag is
  /// unchanged).
  void reset();

 private:
  struct GaugeCell {
    std::uint64_t version = 0;
    double value = 0.0;
  };
  struct Shard {
    std::mutex mutex;
    std::map<std::string, std::uint64_t, std::less<>> counters;
    std::map<std::string, GaugeCell, std::less<>> gauges;
    std::map<std::string, HistogramData, std::less<>> histograms;
  };

  /// This thread's shard for this registry, created and registered on
  /// first use.
  [[nodiscard]] Shard& local_shard();

  std::atomic<bool> enabled_;
  std::atomic<std::uint64_t> gauge_version_{0};
  const std::uint64_t id_;  ///< process-unique, keys the TLS shard cache
  mutable std::mutex shards_mutex_;
  std::vector<std::shared_ptr<Shard>> shards_;
};

/// The process-wide default registry all built-in instrumentation
/// writes to. Starts disabled.
[[nodiscard]] MetricsRegistry& registry() noexcept;

/// Convenience toggles for the default registry.
inline void set_enabled(bool enabled) noexcept {
  registry().set_enabled(enabled);
}
[[nodiscard]] inline bool enabled() noexcept { return registry().enabled(); }

}  // namespace soteria::obs
