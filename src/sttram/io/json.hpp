// Minimal JSON value builder + emitter + parser, for exporting
// experiment results to downstream tooling (plotting scripts,
// dashboards) and for reading them back (campaign files and golden
// reports).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace sttram {

/// A JSON value (null, bool, number, string, array, object).  Build with
/// the static factories and the array/object helpers; emit with dump().
class Json {
 public:
  Json() : value_(nullptr) {}

  static Json null() { return Json(); }
  static Json boolean(bool b);
  static Json number(double v);
  static Json integer(std::int64_t v);
  static Json string(std::string s);
  static Json array();
  static Json object();

  /// Parses a JSON document (recursive descent, full value syntax).
  /// Throws sttram::Error on malformed input or trailing garbage.
  static Json parse(const std::string& text);

  /// Appends to an array (throws unless this is an array).
  Json& push_back(Json v);
  /// Sets an object key (throws unless this is an object).
  Json& set(const std::string& key, Json v);

  [[nodiscard]] bool is_null() const;
  [[nodiscard]] bool is_bool() const;
  [[nodiscard]] bool is_number() const;  ///< double or integer
  /// True when as_integer() succeeds: an int64, or an integral double
  /// inside [-2^63, 2^63).
  [[nodiscard]] bool is_integer() const;
  [[nodiscard]] bool is_string() const;
  [[nodiscard]] bool is_array() const;
  [[nodiscard]] bool is_object() const;
  [[nodiscard]] std::size_t size() const;

  /// True when this is an object with key `key`.
  [[nodiscard]] bool contains(const std::string& key) const;
  /// Object member access (throws unless an object holding `key`).
  [[nodiscard]] const Json& at(const std::string& key) const;
  /// Array element access (throws unless an array and index in range).
  [[nodiscard]] const Json& at(std::size_t index) const;
  /// Sorted object keys (throws unless an object).
  [[nodiscard]] std::vector<std::string> keys() const;

  /// Value extraction; each throws on a type mismatch.  as_number()
  /// accepts either numeric alternative; as_integer() accepts a double
  /// only when it is integral and inside int64.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] std::int64_t as_integer() const;
  [[nodiscard]] const std::string& as_string() const;

  /// Serializes; `indent` > 0 pretty-prints with that many spaces.
  [[nodiscard]] std::string dump(int indent = 0) const;

 private:
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;
  std::variant<std::nullptr_t, bool, double, std::int64_t, std::string,
               Array, Object>
      value_;

  void emit(std::string& out, int indent, int depth) const;
  static void emit_string(std::string& out, const std::string& s);
};

}  // namespace sttram
