// Descriptive statistics used for detector thresholds, dataset summaries,
// and the graph-theoretic baseline features.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace soteria::math {

/// Arithmetic mean; 0 for an empty range.
[[nodiscard]] double mean(std::span<const double> xs) noexcept;

/// Population standard deviation; 0 for ranges with < 2 elements.
[[nodiscard]] double stddev(std::span<const double> xs) noexcept;

/// Minimum / maximum. Throw core::Error{kInvalidArgument} on empty input.
[[nodiscard]] double min(std::span<const double> xs);
[[nodiscard]] double max(std::span<const double> xs);

/// Median (average of middle two for even sizes). Throws on empty input.
[[nodiscard]] double median(std::span<const double> xs);

/// p-th percentile with linear interpolation, p in [0, 100]. Throws on
/// empty input or p outside range.
[[nodiscard]] double percentile(std::span<const double> xs, double p);

}  // namespace soteria::math
