#pragma once

// Small generic JSON reader (DOM style) and the writers' shared quoting
// and number formatting. The parser accepts any well-formed document:
// objects, arrays, strings (with escapes and \uXXXX), numbers, booleans,
// null. Diagnostic tooling (obs_diff, bundle inspection) reads whatever a
// bench, google-benchmark or a diagnostics bundle emitted through it;
// obs::MetricsSnapshot::from_json reads through it too and then rejects
// anything outside its own schema.

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace rups::util {

/// Quote and escape a string for JSON output: `"`, `\`, the short escapes
/// (\b \f \n \r \t) and every other control character (< 0x20, emitted as
/// \u00XX). Non-ASCII bytes pass through untouched (UTF-8 stays UTF-8).
/// Every writer on the export path (snapshots, recorder bundles, series,
/// folded profiles, exposition) routes label values through this so
/// embedded quotes or control characters can never corrupt a document.
[[nodiscard]] std::string json_quote(std::string_view s);

/// A JSON number that reads back as the same double ("%.17g"); NaN, which
/// JSON cannot spell, becomes `null`.
[[nodiscard]] std::string json_number(double v);

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  /// Key order is not preserved; duplicate keys keep the last value.
  using Object = std::map<std::string, JsonValue>;

  JsonValue() = default;  // null

  /// Parse a complete document (throws std::runtime_error on malformed
  /// input or trailing garbage; nesting is depth-limited).
  [[nodiscard]] static JsonValue parse(const std::string& text);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind_ == Kind::kString;
  }
  [[nodiscard]] bool is_array() const noexcept {
    return kind_ == Kind::kArray;
  }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::kObject;
  }

  /// Typed accessors; throw std::runtime_error on kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;
  /// find() chained through `.`-separated keys ("context.date" etc).
  [[nodiscard]] const JsonValue* find_path(const std::string& dotted) const;

  /// Convenience: member as number/string with a fallback.
  [[nodiscard]] double number_or(const std::string& key,
                                 double fallback) const;
  [[nodiscard]] std::string string_or(const std::string& key,
                                      std::string fallback) const;

  [[nodiscard]] static JsonValue make_bool(bool v);
  [[nodiscard]] static JsonValue make_number(double v);
  [[nodiscard]] static JsonValue make_string(std::string v);
  [[nodiscard]] static JsonValue make_array(Array v);
  [[nodiscard]] static JsonValue make_object(Object v);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::shared_ptr<Array> array_;    // shared: values are cheaply copyable
  std::shared_ptr<Object> object_;
};

}  // namespace rups::util
