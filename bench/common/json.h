// Minimal JSON document model + recursive-descent parser.
//
// Reads BENCH_perf.json back for the benches' read-merge-write
// (perf_json) and lets the obs and perf test suites round-trip the
// library's JSON exports; the library itself only writes JSON. It
// parses the full JSON grammar the exporter emits: objects, arrays,
// strings (with \uXXXX escapes decoded to UTF-8), numbers, booleans,
// null. Not a streaming parser; documents are metric-dump sized.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace soteria::bench::json {

/// One JSON value. Objects use ordered maps so iteration (and
/// re-serialization in tests) is deterministic.
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;  // null

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept {
    return type_ == Type::kNull;
  }

  /// Typed accessors; each throws std::runtime_error on a type
  /// mismatch so tests fail with a message instead of UB.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<Value>& as_array() const;
  [[nodiscard]] const std::map<std::string, Value>& as_object() const;

  /// Object member access; throws std::runtime_error if this is not an
  /// object or the key is absent.
  [[nodiscard]] const Value& at(const std::string& key) const;

  /// True if this is an object containing `key`.
  [[nodiscard]] bool contains(const std::string& key) const;

  static Value make_bool(bool v);
  static Value make_number(double v);
  static Value make_string(std::string v);
  static Value make_array(std::vector<Value> v);
  static Value make_object(std::map<std::string, Value> v);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::map<std::string, Value> object_;
};

/// Parses one JSON document. Throws std::runtime_error (with a byte
/// offset in the message) on malformed input or trailing garbage.
[[nodiscard]] Value parse(std::string_view text);

}  // namespace soteria::bench::json
