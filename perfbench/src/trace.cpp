#include "trace.h"

#include <fstream>

namespace perfbench {

Tracer::Scope::Scope(Tracer& tracer, std::string name, std::int64_t request)
    : tracer_(tracer), index_(tracer.spans_.size()) {
  SpanRecord record;
  record.name = std::move(name);
  record.parent =
      tracer.open_.empty() ? -1 : static_cast<int>(tracer.open_.back());
  record.request = request;
  tracer.spans_.push_back(std::move(record));
  tracer.open_.push_back(index_);
  // Last, so the bookkeeping above is outside the measured interval.
  tracer.spans_[index_].start = Clock::now();
}

Tracer::Scope::~Scope() {
  tracer_.spans_[index_].end = Clock::now();
  tracer_.open_.pop_back();
}

std::map<std::string, LayerTime> Tracer::layer_times() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const auto& span : spans_) {
    if (span.parent >= 0) {
      child_ms[static_cast<std::size_t>(span.parent)] +=
          1e3 * seconds_between(span.start, span.end);
    }
  }
  std::map<std::string, LayerTime> layers;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& layer = layers[spans_[i].name];
    ++layer.calls;
    layer.total_ms +=
        1e3 * seconds_between(spans_[i].start, spans_[i].end) - child_ms[i];
  }
  return layers;
}

double Tracer::total_seconds(const std::string& name) const {
  double total = 0.0;
  for (const auto& span : spans_) {
    if (span.name == name) total += seconds_between(span.start, span.end);
  }
  return total;
}

double Tracer::children_seconds(const std::string& parent) const {
  double total = 0.0;
  for (const auto& span : spans_) {
    if (span.parent >= 0 &&
        spans_[static_cast<std::size_t>(span.parent)].name == parent) {
      total += seconds_between(span.start, span.end);
    }
  }
  return total;
}

bool Tracer::write_json(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& header) const {
  std::ofstream out(path);
  if (!out) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::now() : spans_.front().start;
  const auto micros = [&](Clock::time_point t) {
    return json_number(1e6 * seconds_between(origin, t));
  };
  out << "{";
  for (const auto& [key, value] : header) {
    out << json_string(key) << ": " << value << ", ";
  }
  out << "\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i
        << ", \"name\": " << json_string(span.name)
        << ", \"start_us\": " << micros(span.start)
        << ", \"end_us\": " << micros(span.end)
        << ", \"parent\": " << span.parent
        << ", \"request\": " << span.request << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
