// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark's own code around its calls into
// each library module (the library itself is not instrumented): name,
// start, end, parent span, and the request id the work belongs to.
// Recording is single-threaded — the traced run drives the layers
// serially so that each span's time is that layer's alone. Spans stay
// in memory until write_json() at the end of the run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

struct SpanRecord {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;            ///< index into spans(), -1 for a root
  std::int64_t request = -1;  ///< request / sample id, -1 for none
};

/// Per-name aggregate of span self times (duration minus the part of
/// the interval covered by child spans).
struct LayerTime {
  std::size_t calls = 0;
  double total_ms = 0.0;  ///< summed self time
  [[nodiscard]] double mean_ms() const {
    return calls == 0 ? 0.0 : total_ms / static_cast<double>(calls);
  }
};

class Tracer {
 public:
  /// RAII span: opened on construction under the innermost open span,
  /// closed on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::int64_t request = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }

  /// Self time per span name.
  [[nodiscard]] std::map<std::string, LayerTime> layer_times() const;

  /// Summed duration of the spans named `name`, in seconds.
  [[nodiscard]] double total_seconds(const std::string& name) const;

  /// Summed duration of the direct children of spans named `parent`.
  [[nodiscard]] double children_seconds(const std::string& parent) const;

  /// Writes every span (times in microseconds from the first span's
  /// start) plus `header` fields to `path`. Returns false when the file
  /// cannot be written.
  bool write_json(const std::string& path,
                  const std::vector<std::pair<std::string, std::string>>&
                      header) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_;  ///< stack of open span indices
};

}  // namespace perfbench
