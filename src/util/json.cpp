#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace rups::util {

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string json_number(double v) {
  if (std::isnan(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

namespace {

constexpr std::size_t kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json: " + why + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  void append_utf8(std::string& out, unsigned code) {
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

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') break;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          append_utf8(out, code);  // surrogate pairs kept as-is (diagnostic use)
          break;
        }
        default: fail("unknown escape");
      }
    }
    return out;
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc() || end != text_.data() + pos_) fail("bad number");
    return value;
  }

  JsonValue parse_value(std::size_t depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    const char c = peek();
    if (c == '{') {
      ++pos_;
      JsonValue::Object obj;
      if (peek() == '}') {
        ++pos_;
        return JsonValue::make_object(std::move(obj));
      }
      while (true) {
        skip_ws();
        std::string key = parse_string();
        expect(':');
        obj.insert_or_assign(std::move(key), parse_value(depth + 1));
        const char next = peek();
        ++pos_;
        if (next == '}') break;
        if (next != ',') fail("expected ',' or '}' in object");
      }
      return JsonValue::make_object(std::move(obj));
    }
    if (c == '[') {
      ++pos_;
      JsonValue::Array arr;
      if (peek() == ']') {
        ++pos_;
        return JsonValue::make_array(std::move(arr));
      }
      while (true) {
        arr.push_back(parse_value(depth + 1));
        const char next = peek();
        ++pos_;
        if (next == ']') break;
        if (next != ',') fail("expected ',' or ']' in array");
      }
      return JsonValue::make_array(std::move(arr));
    }
    if (c == '"') return JsonValue::make_string(parse_string());
    skip_ws();
    if (consume_literal("true")) return JsonValue::make_bool(true);
    if (consume_literal("false")) return JsonValue::make_bool(false);
    if (consume_literal("null")) return JsonValue{};
    return JsonValue::make_number(parse_number());
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(const std::string& text) {
  return Parser(text).parse_document();
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) throw std::runtime_error("json: not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) throw std::runtime_error("json: not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) throw std::runtime_error("json: not a string");
  return string_;
}

const JsonValue::Array& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) throw std::runtime_error("json: not an array");
  return *array_;
}

const JsonValue::Object& JsonValue::as_object() const {
  if (kind_ != Kind::kObject) throw std::runtime_error("json: not an object");
  return *object_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = object_->find(key);
  return it == object_->end() ? nullptr : &it->second;
}

const JsonValue* JsonValue::find_path(const std::string& dotted) const {
  const JsonValue* v = this;
  std::size_t start = 0;
  while (v != nullptr && start <= dotted.size()) {
    const std::size_t dot = dotted.find('.', start);
    const std::string key = dotted.substr(
        start, dot == std::string::npos ? std::string::npos : dot - start);
    v = v->find(key);
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
  return v;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

std::string JsonValue::string_or(const std::string& key,
                                 std::string fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_string() ? v->as_string()
                                        : std::move(fallback);
}

JsonValue JsonValue::make_bool(bool v) {
  JsonValue j;
  j.kind_ = Kind::kBool;
  j.bool_ = v;
  return j;
}

JsonValue JsonValue::make_number(double v) {
  JsonValue j;
  j.kind_ = Kind::kNumber;
  j.number_ = v;
  return j;
}

JsonValue JsonValue::make_string(std::string v) {
  JsonValue j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(v);
  return j;
}

JsonValue JsonValue::make_array(Array v) {
  JsonValue j;
  j.kind_ = Kind::kArray;
  j.array_ = std::make_shared<Array>(std::move(v));
  return j;
}

JsonValue JsonValue::make_object(Object v) {
  JsonValue j;
  j.kind_ = Kind::kObject;
  j.object_ = std::make_shared<Object>(std::move(v));
  return j;
}

}  // namespace rups::util
