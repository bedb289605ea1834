// Result accumulation, order statistics, and output for the benchmark
// binary. Every metric carries its unit and the number of samples it
// was computed from; failed output checks are counted, not thrown.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 for an
/// empty list.
[[nodiscard]] double quantile(std::vector<double> values, double q);

[[nodiscard]] double median(const std::vector<double>& values);

/// The highest latency percentile with at least ten samples beyond it,
/// capped at p99 (so p99 whenever there are >= 1000 samples).
struct TailPercentile {
  double percentile = 0.0;  ///< e.g. 99.0, or lower for small samples
  double value = 0.0;
};
[[nodiscard]] TailPercentile tail_percentile(const std::vector<double>& values);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;  ///< human-readable qualifier (printed, not in JSON)
};

/// Everything one run reports: metrics, operation accounting, and the
/// failed output checks (each counted as failed operations).
class Result {
 public:
  void add(std::string name, double value, std::string unit,
           std::size_t samples, std::string note = {});
  /// Counts `operations` attempted operations.
  void attempt(std::uint64_t operations) { attempted_ += operations; }
  /// Records a failed output check worth `operations` failed operations.
  void fail(const std::string& why, std::uint64_t operations = 1);

  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] const Metric* find(const std::string& name) const;
  [[nodiscard]] std::uint64_t attempted() const noexcept {
    return attempted_;
  }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& errors() const noexcept {
    return errors_;
  }

 private:
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

/// JSON string literal (quotes and escapes) for `text`.
[[nodiscard]] std::string json_string(const std::string& text);

/// A number with all its digits (shortest round-trip form); non-finite
/// values become null.
[[nodiscard]] std::string json_number(double value);

}  // namespace perfbench
