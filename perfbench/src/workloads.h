// The benchmark's three workloads (see ../README.md for why each one
// exists and which layers it stresses).
#pragma once

#include <cstdint>
#include <string>

#include "report.h"

namespace perfbench {

struct RunOptions {
  std::string workload;  ///< scan-cold | serve-replay | scan-large
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the measured window
  bool trace = false;     ///< per-layer traced run instead of end to end
  /// Scratch directory inside the checkout (model file, feature
  /// stores, span dumps); created and emptied by the caller.
  std::string workdir;
};

/// Thread counts, all explicit (never 0 = "all hardware threads").
inline constexpr std::size_t kTrainThreads = 2;
inline constexpr std::size_t kScanColdThreads = 2;
inline constexpr std::size_t kServeWorkers = 2;
inline constexpr std::size_t kScanLargeThreads = 1;

/// Threads the named workload analyzes with (0 for an unknown name).
[[nodiscard]] std::size_t workload_threads(const std::string& workload);

/// Runs one workload. End-to-end mode reports the end-to-end metrics,
/// traced mode the per-layer ones (and writes the span dump into the
/// workdir). Failed output checks are recorded in the result.
[[nodiscard]] Result run_workload(const RunOptions& options);

}  // namespace perfbench
