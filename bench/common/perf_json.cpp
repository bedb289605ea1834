#include "common/perf_json.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/json.h"
#include "obs/export.h"

namespace soteria::bench {

namespace {

void write_escaped(std::ostream& out, const std::string& s) {
  std::string quoted;
  obs::append_json_string(quoted, s);
  out << quoted;
}

void write_number(std::ostream& out, double v) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  std::ostringstream tmp;
  tmp.precision(9);
  tmp << v;
  out << tmp.str();
}

}  // namespace

bool update_perf_json(const std::string& path, const std::string& section,
                      const std::map<std::string, double>& values) {
  // Existing sections survive; `section` is replaced wholesale so keys
  // from an older sweep shape can't linger next to the new ones.
  std::map<std::string, std::map<std::string, double>> document;
  {
    std::ifstream in(path);
    if (in) {
      std::stringstream buffer;
      buffer << in.rdbuf();
      try {
        const auto parsed = json::parse(buffer.str());
        for (const auto& [name, body] : parsed.as_object()) {
          for (const auto& [key, value] : body.as_object()) {
            if (value.type() == json::Value::Type::kNumber) {
              document[name][key] = value.as_number();
            }
          }
        }
      } catch (const std::runtime_error&) {
        document.clear();  // malformed: rebuild from scratch
      }
    }
  }
  document[section] = values;

  std::ofstream out(path);
  if (!out) return false;
  out << "{\n";
  bool first_section = true;
  for (const auto& [name, body] : document) {
    if (!first_section) out << ",\n";
    first_section = false;
    out << "  ";
    write_escaped(out, name);
    out << ": {\n";
    bool first_key = true;
    for (const auto& [key, value] : body) {
      if (!first_key) out << ",\n";
      first_key = false;
      out << "    ";
      write_escaped(out, key);
      out << ": ";
      write_number(out, value);
    }
    out << "\n  }";
  }
  out << "\n}\n";
  return out.good();
}

}  // namespace soteria::bench
