#include "obs/export.h"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string_view>

#include "obs/trace.h"

namespace soteria::obs {

void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

namespace {

std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

std::string format_ms(double seconds) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", seconds * 1e3);
  return buffer;
}

bool is_span_name(std::string_view name) {
  return name.substr(0, kTimePrefix.size()) == kTimePrefix;
}

/// Nesting depth of a span path: number of '/' separators past the
/// "t/" prefix.
std::size_t span_depth(std::string_view name) {
  std::size_t depth = 0;
  for (const char c : name.substr(kTimePrefix.size())) {
    depth += c == '/' ? 1 : 0;
  }
  return depth;
}

/// Last path component of a span name ("t/a/b/c" -> "c").
std::string_view span_leaf(std::string_view name) {
  const auto slash = name.rfind('/');
  return slash == std::string_view::npos ? name : name.substr(slash + 1);
}

void append_json_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out += buffer;
}

}  // namespace

std::string export_text(const Snapshot& snapshot) {
  std::ostringstream out;

  bool have_spans = false;
  bool have_values = false;
  for (const auto& [name, data] : snapshot.histograms) {
    (is_span_name(name) ? have_spans : have_values) = true;
    (void)data;
  }

  if (have_spans) {
    out << "== stage timings (ms) ==\n";
    out << "  stage" << std::string(43, ' ')
        << "count      total       mean        p95\n";
    // The map is name-ordered, and a span's path sorts directly before
    // its children's paths, so plain iteration walks the tree in
    // depth-first order; indent by depth.
    for (const auto& [name, data] : snapshot.histograms) {
      if (!is_span_name(name)) continue;
      const std::size_t depth = span_depth(name);
      std::string label(2 * depth, ' ');
      label += span_leaf(name);
      if (label.size() < 46) label.resize(46, ' ');
      char row[128];
      std::snprintf(row, sizeof(row), "%8llu %10s %10s %10s",
                    static_cast<unsigned long long>(data.count),
                    format_ms(data.sum).c_str(),
                    format_ms(data.mean()).c_str(),
                    format_ms(data.quantile(0.95)).c_str());
      out << "  " << label << row << "\n";
    }
  }

  if (!snapshot.counters.empty()) {
    out << "== counters ==\n";
    for (const auto& [name, value] : snapshot.counters) {
      out << "  " << name << " = " << value << "\n";
    }
  }

  if (!snapshot.gauges.empty()) {
    out << "== gauges ==\n";
    for (const auto& [name, value] : snapshot.gauges) {
      out << "  " << name << " = " << format_double(value) << "\n";
    }
  }

  if (have_values) {
    out << "== distributions ==\n";
    for (const auto& [name, data] : snapshot.histograms) {
      if (is_span_name(name)) continue;
      out << "  " << name << ": count " << data.count << ", mean "
          << format_double(data.mean()) << ", p50 "
          << format_double(data.quantile(0.5)) << ", p95 "
          << format_double(data.quantile(0.95)) << ", min "
          << format_double(data.min) << ", max "
          << format_double(data.max) << "\n";
    }
  }

  if (snapshot.empty()) out << "(no metrics recorded)\n";
  return out.str();
}

std::string export_json(const Snapshot& snapshot) {
  std::string out;
  out += "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    out += std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    append_json_number(out, value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, data] : snapshot.histograms) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ":{\"count\":";
    out += std::to_string(data.count);
    out += ",\"sum\":";
    append_json_number(out, data.sum);
    out += ",\"min\":";
    append_json_number(out, data.min);
    out += ",\"max\":";
    append_json_number(out, data.max);
    out += ",\"mean\":";
    append_json_number(out, data.mean());
    out += ",\"p50\":";
    append_json_number(out, data.quantile(0.5));
    out += ",\"p95\":";
    append_json_number(out, data.quantile(0.95));
    out += ",\"buckets\":[";
    bool first_bucket = true;
    for (std::size_t i = 0; i < data.buckets.size(); ++i) {
      if (data.buckets[i] == 0) continue;  // sparse: skip empty buckets
      if (!first_bucket) out += ',';
      first_bucket = false;
      out += "{\"le\":";
      if (i < kHistogramBuckets) {
        append_json_number(out, bucket_upper_bound(i));
      } else {
        out += "null";  // overflow bucket
      }
      out += ",\"count\":";
      out += std::to_string(data.buckets[i]);
      out += '}';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace soteria::obs
