#include "common/json.h"

#include <cctype>
#include <charconv>
#include <stdexcept>
#include <utility>

namespace soteria::bench::json {

bool Value::as_bool() const {
  if (type_ != Type::kBool) throw std::runtime_error("json: not a bool");
  return bool_;
}

double Value::as_number() const {
  if (type_ != Type::kNumber) throw std::runtime_error("json: not a number");
  return number_;
}

const std::string& Value::as_string() const {
  if (type_ != Type::kString) throw std::runtime_error("json: not a string");
  return string_;
}

const std::vector<Value>& Value::as_array() const {
  if (type_ != Type::kArray) throw std::runtime_error("json: not an array");
  return array_;
}

const std::map<std::string, Value>& Value::as_object() const {
  if (type_ != Type::kObject) throw std::runtime_error("json: not an object");
  return object_;
}

const Value& Value::at(const std::string& key) const {
  const auto& object = as_object();
  const auto it = object.find(key);
  if (it == object.end()) {
    throw std::runtime_error("json: missing key '" + key + "'");
  }
  return it->second;
}

bool Value::contains(const std::string& key) const {
  return type_ == Type::kObject && object_.count(key) > 0;
}

Value Value::make_bool(bool v) {
  Value value;
  value.type_ = Type::kBool;
  value.bool_ = v;
  return value;
}

Value Value::make_number(double v) {
  Value value;
  value.type_ = Type::kNumber;
  value.number_ = v;
  return value;
}

Value Value::make_string(std::string v) {
  Value value;
  value.type_ = Type::kString;
  value.string_ = std::move(v);
  return value;
}

Value Value::make_array(std::vector<Value> v) {
  Value value;
  value.type_ = Type::kArray;
  value.array_ = std::move(v);
  return value;
}

Value Value::make_object(std::map<std::string, Value> v) {
  Value value;
  value.type_ = Type::kObject;
  value.object_ = std::move(v);
  return value;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at offset " +
                             std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Value parse_value() {
    skip_whitespace();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Value::make_string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Value::make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Value::make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value();
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    std::map<std::string, Value> members;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return Value::make_object(std::move(members));
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      members[std::move(key)] = parse_value();
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}'");
    }
    return Value::make_object(std::move(members));
  }

  Value parse_array() {
    expect('[');
    std::vector<Value> items;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return Value::make_array(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']'");
    }
    return Value::make_array(std::move(items));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      // RFC 8259: U+0000 through U+001F must be escaped inside strings.
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out += esc;
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u':
          append_utf8(out, parse_hex4());
          break;
        default:
          fail("bad escape");
      }
    }
    return out;
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("short \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("bad \\u digit");
      }
    }
    return code;
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    double number = 0.0;
    const auto* first = text_.data() + start;
    const auto* last = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(first, last, number);
    if (ec != std::errc() || end != last) fail("bad number");
    return Value::make_number(number);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace soteria::bench::json
