#include "math/stats.h"

#include <algorithm>
#include <cmath>

#include "soteria/error.h"

namespace soteria::math {

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double mu = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - mu) * (x - mu);
  return std::sqrt(acc / static_cast<double>(xs.size()));
}

double min(std::span<const double> xs) {
  if (xs.empty()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "stats::min: empty input");
  }
  return *std::min_element(xs.begin(), xs.end());
}

double max(std::span<const double> xs) {
  if (xs.empty()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "stats::max: empty input");
  }
  return *std::max_element(xs.begin(), xs.end());
}

double median(std::span<const double> xs) {
  if (xs.empty()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "stats::median: empty input");
  }
  std::vector<double> copy(xs.begin(), xs.end());
  std::sort(copy.begin(), copy.end());
  const std::size_t n = copy.size();
  if (n % 2 == 1) return copy[n / 2];
  return 0.5 * (copy[n / 2 - 1] + copy[n / 2]);
}

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "stats::percentile: empty input");
  }
  if (p < 0.0 || p > 100.0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "stats::percentile: p outside [0,100]");
  }
  std::vector<double> copy(xs.begin(), xs.end());
  std::sort(copy.begin(), copy.end());
  if (copy.size() == 1) return copy.front();
  const double rank = p / 100.0 * static_cast<double>(copy.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return copy[lo] + frac * (copy[hi] - copy[lo]);
}

}  // namespace soteria::math
