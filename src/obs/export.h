// Text and JSON exporters for metric snapshots.
//
// `export_text` renders a human-oriented report: counters, gauges, a
// stage-timing tree built from the span paths (histograms whose name
// starts with trace.h's kTimePrefix, values in seconds, printed in
// ms), and the remaining value histograms with quantile estimates.
// `export_json` emits one machine-readable document whose structure is
// mirrored by the obs test suite through the JSON parser in
// bench/common/json.h.
#pragma once

#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace soteria::obs {

/// Human-readable report of `snapshot`.
[[nodiscard]] std::string export_text(const Snapshot& snapshot);

/// JSON document:
///   {"counters": {name: n, ...},
///    "gauges": {name: x, ...},
///    "histograms": {name: {"count": n, "sum": x, "min": x, "max": x,
///                          "mean": x, "p50": x, "p95": x,
///                          "buckets": [{"le": bound, "count": n}, ...]},
///                   ...}}
/// Span timings keep their "t/..." names; non-finite numbers are
/// emitted as null (JSON has no NaN/Inf).
[[nodiscard]] std::string export_json(const Snapshot& snapshot);

/// Appends `text` to `out` as a quoted JSON string: quotes and
/// backslashes are backslash-escaped, newline, carriage return and tab
/// become `\n`, `\r` and `\t`, and every other byte below 0x20 becomes
/// `\u00XX`; other bytes are copied unchanged. Every JSON writer in the
/// project escapes through this one function.
void append_json_string(std::string& out, std::string_view text);

}  // namespace soteria::obs
