// Read-merge-write helper for the repo-root BENCH_perf.json: a flat
// machine-readable summary of the perf benchmarks, one top-level
// section per bench binary, each mapping a metric name to a number
// (kernel rates, sweep timings, ...). Benches update only their
// own section, so running perf_nn and perf_graph in either order
// converges to the same document.
#pragma once

#include <map>
#include <string>

namespace soteria::bench {

/// Replaces the `section` object of the JSON document at `path` with
/// `values` (created if absent; other sections preserved — a bench owns
/// its section, so stale keys from an older sweep shape never linger)
/// and rewrites the file with sorted keys and stable formatting.
/// Returns false (without throwing) when the file cannot be written; a
/// malformed existing document is replaced rather than merged.
bool update_perf_json(const std::string& path, const std::string& section,
                      const std::map<std::string, double>& values);

}  // namespace soteria::bench
