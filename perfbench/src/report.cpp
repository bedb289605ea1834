#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + fraction * (values[upper] - values[lower]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

TailPercentile tail_percentile(const std::vector<double>& values) {
  TailPercentile tail;
  if (values.empty()) return tail;
  const double n = static_cast<double>(values.size());
  // Ten samples beyond the reported rank, never more than p99.
  const double level = std::clamp((n - 10.0) / n, 0.5, 0.99);
  tail.percentile = 100.0 * level;
  tail.value = quantile(values, level);
  return tail;
}

void Result::add(std::string name, double value, std::string unit,
                 std::size_t samples, std::string note) {
  metrics_.push_back(Metric{std::move(name), value, std::move(unit), samples,
                            std::move(note)});
}

void Result::fail(const std::string& why, std::uint64_t operations) {
  failed_ += operations;
  errors_.push_back(why);
}

const Metric* Result::find(const std::string& name) const {
  for (const auto& metric : metrics_) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

}  // namespace perfbench
