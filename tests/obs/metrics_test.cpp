#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

namespace soteria::obs {
namespace {

TEST(HistogramBuckets, BoundsDoubleFromOneMicrosecond) {
  EXPECT_DOUBLE_EQ(bucket_upper_bound(0), 1e-6);
  for (std::size_t i = 1; i < kHistogramBuckets; ++i) {
    EXPECT_DOUBLE_EQ(bucket_upper_bound(i), 2.0 * bucket_upper_bound(i - 1));
  }
  EXPECT_GT(bucket_upper_bound(kHistogramBuckets - 1), 60.0);
}

TEST(HistogramData, RecordTracksMoments) {
  HistogramData h;
  EXPECT_EQ(h.count, 0U);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);

  h.record(2e-6);
  h.record(4e-6);
  h.record(6e-6);
  EXPECT_EQ(h.count, 3U);
  EXPECT_DOUBLE_EQ(h.sum, 12e-6);
  EXPECT_DOUBLE_EQ(h.min, 2e-6);
  EXPECT_DOUBLE_EQ(h.max, 6e-6);
  EXPECT_DOUBLE_EQ(h.mean(), 4e-6);

  std::uint64_t bucketed = 0;
  for (const auto c : h.buckets) bucketed += c;
  EXPECT_EQ(bucketed, h.count);
}

TEST(HistogramData, OverflowValuesLandInLastBucket) {
  HistogramData h;
  h.record(1e9);  // far beyond the largest finite bound
  EXPECT_EQ(h.buckets[kHistogramBuckets], 1U);
  EXPECT_EQ(h.count, 1U);
}

TEST(HistogramData, QuantileIsClampedByMax) {
  HistogramData h;
  for (int i = 0; i < 100; ++i) h.record(3e-6);
  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 3e-6);
  EXPECT_LE(p50, h.max + 1e-12);
  EXPECT_LE(h.quantile(1.0), h.max + 1e-12);
}

TEST(HistogramData, QuantilesAreOrderedAndBounded) {
  // Latency reports print p50 and p99 through quantile(); pin the
  // properties those numbers rely on.
  HistogramData histogram;
  for (int i = 1; i <= 1000; ++i) histogram.record(i * 0.001);  // 1ms..1s
  const double p50 = histogram.quantile(0.50);
  const double p99 = histogram.quantile(0.99);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, histogram.max);
  EXPECT_GE(p50, histogram.min);
}

TEST(HistogramData, MergeAddsCountsAndWidensRange) {
  HistogramData a;
  HistogramData b;
  a.record(1e-6);
  a.record(2e-6);
  b.record(8e-6);
  a.merge(b);
  EXPECT_EQ(a.count, 3U);
  EXPECT_DOUBLE_EQ(a.min, 1e-6);
  EXPECT_DOUBLE_EQ(a.max, 8e-6);
  std::uint64_t bucketed = 0;
  for (const auto c : a.buckets) bucketed += c;
  EXPECT_EQ(bucketed, 3U);
}

TEST(MetricsRegistry, DisabledByDefaultAndRecordsNothing) {
  MetricsRegistry reg;
  EXPECT_FALSE(reg.enabled());
  reg.counter_add("c");
  reg.gauge_set("g", 1.0);
  reg.record("h", 0.5);
  EXPECT_TRUE(reg.snapshot().empty());
}

TEST(MetricsRegistry, CountersAccumulate) {
  MetricsRegistry reg(true);
  reg.counter_add("a");
  reg.counter_add("a", 4);
  reg.counter_add("b", 2);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("a"), 5U);
  EXPECT_EQ(snap.counters.at("b"), 2U);
  EXPECT_EQ(snap.counters.size(), 2U);
}

TEST(MetricsRegistry, GaugeLastWriteWins) {
  MetricsRegistry reg(true);
  reg.gauge_set("loss", 0.8);
  reg.gauge_set("loss", 0.3);
  EXPECT_DOUBLE_EQ(reg.snapshot().gauges.at("loss"), 0.3);
}

TEST(MetricsRegistry, HistogramsAggregate) {
  MetricsRegistry reg(true);
  reg.record("h", 1.0);
  reg.record("h", 3.0);
  const auto snap = reg.snapshot();
  const auto& h = snap.histograms.at("h");
  EXPECT_EQ(h.count, 2U);
  EXPECT_DOUBLE_EQ(h.sum, 4.0);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 3.0);
}

TEST(MetricsRegistry, DisablingKeepsDataAndStopsWrites) {
  MetricsRegistry reg(true);
  reg.counter_add("kept", 7);
  reg.set_enabled(false);
  reg.counter_add("kept", 100);
  reg.counter_add("new");
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("kept"), 7U);
  EXPECT_EQ(snap.counters.count("new"), 0U);
}

TEST(MetricsRegistry, ResetClearsEverythingButKeepsEnabled) {
  MetricsRegistry reg(true);
  reg.counter_add("c");
  reg.gauge_set("g", 2.0);
  reg.record("h", 1.0);
  reg.reset();
  EXPECT_TRUE(reg.snapshot().empty());
  EXPECT_TRUE(reg.enabled());
  reg.counter_add("c", 3);
  EXPECT_EQ(reg.snapshot().counters.at("c"), 3U);
}

// Each writer thread gets its own shard; the merged totals must be
// exact regardless of scheduling. This is the TSan target for the
// sharded write path.
TEST(MetricsRegistry, ConcurrentWritersMergeExactly) {
  MetricsRegistry reg(true);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 2000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&reg, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        reg.counter_add("events");
        reg.record("values", static_cast<double>(t + 1));
        reg.gauge_set("last", static_cast<double>(t));
      }
    });
  }
  for (auto& w : writers) w.join();
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("events"), kThreads * kPerThread);
  EXPECT_EQ(snap.histograms.at("values").count, kThreads * kPerThread);
  EXPECT_GE(snap.gauges.at("last"), 0.0);
  EXPECT_LT(snap.gauges.at("last"), static_cast<double>(kThreads));
}

// Snapshotting while writers are active must be safe and observe a
// consistent (if partial) view.
TEST(MetricsRegistry, SnapshotIsSafeDuringWrites) {
  MetricsRegistry reg(true);
  std::thread writer([&reg] {
    for (std::size_t i = 0; i < 5000; ++i) reg.counter_add("busy");
  });
  std::uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    const auto snap = reg.snapshot();
    const auto it = snap.counters.find("busy");
    const std::uint64_t seen = it == snap.counters.end() ? 0 : it->second;
    EXPECT_GE(seen, last);
    last = seen;
  }
  writer.join();
  EXPECT_EQ(reg.snapshot().counters.at("busy"), 5000U);
}

// The disabled fast path is one relaxed atomic load; even a generous
// wall-clock bound verifies there is no hidden locking or allocation.
TEST(MetricsRegistry, DisabledWritesAreCheap) {
  MetricsRegistry reg;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < 2'000'000; ++i) {
    reg.counter_add("hot");
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed.count(), 2.0);
  EXPECT_TRUE(reg.snapshot().empty());
}

TEST(GlobalRegistry, ToggleRoundTrips) {
  const bool was_enabled = enabled();
  set_enabled(true);
  EXPECT_TRUE(enabled());
  set_enabled(false);
  EXPECT_FALSE(enabled());
  set_enabled(was_enabled);
}

}  // namespace
}  // namespace soteria::obs
