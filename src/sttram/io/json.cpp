#include "sttram/io/json.hpp"

#include <cmath>
#include <cstdio>
#include <optional>

#include "sttram/common/error.hpp"
#include "sttram/common/token.hpp"

namespace sttram {

Json Json::boolean(bool b) {
  Json j;
  j.value_ = b;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.value_ = v;
  return j;
}

Json Json::integer(std::int64_t v) {
  Json j;
  j.value_ = v;
  return j;
}

Json Json::string(std::string s) {
  Json j;
  j.value_ = std::move(s);
  return j;
}

Json Json::array() {
  Json j;
  j.value_ = Array{};
  return j;
}

Json Json::object() {
  Json j;
  j.value_ = Object{};
  return j;
}

bool Json::is_null() const {
  return std::holds_alternative<std::nullptr_t>(value_);
}

bool Json::is_bool() const { return std::holds_alternative<bool>(value_); }

bool Json::is_number() const {
  return std::holds_alternative<double>(value_) ||
         std::holds_alternative<std::int64_t>(value_);
}

bool Json::is_string() const {
  return std::holds_alternative<std::string>(value_);
}

bool Json::is_array() const {
  return std::holds_alternative<Array>(value_);
}

bool Json::is_object() const {
  return std::holds_alternative<Object>(value_);
}

bool Json::contains(const std::string& key) const {
  return is_object() && std::get<Object>(value_).count(key) > 0;
}

const Json& Json::at(const std::string& key) const {
  require(is_object(), "Json::at: not an object");
  const Object& obj = std::get<Object>(value_);
  const auto it = obj.find(key);
  require(it != obj.end(), "Json::at: missing key '" + key + "'");
  return it->second;
}

const Json& Json::at(std::size_t index) const {
  require(is_array(), "Json::at: not an array");
  const Array& arr = std::get<Array>(value_);
  require(index < arr.size(), "Json::at: array index out of range");
  return arr[index];
}

std::vector<std::string> Json::keys() const {
  require(is_object(), "Json::keys: not an object");
  std::vector<std::string> out;
  for (const auto& [key, val] : std::get<Object>(value_)) {
    (void)val;
    out.push_back(key);
  }
  return out;
}

bool Json::as_bool() const {
  require(is_bool(), "Json::as_bool: not a boolean");
  return std::get<bool>(value_);
}

double Json::as_number() const {
  if (std::holds_alternative<double>(value_)) {
    return std::get<double>(value_);
  }
  require(std::holds_alternative<std::int64_t>(value_),
          "Json::as_number: not a number");
  return static_cast<double>(std::get<std::int64_t>(value_));
}

bool Json::is_integer() const {
  return std::holds_alternative<std::int64_t>(value_) ||
         (std::holds_alternative<double>(value_) &&
          to_int64(std::get<double>(value_)).has_value());
}

std::int64_t Json::as_integer() const {
  if (std::holds_alternative<std::int64_t>(value_)) {
    return std::get<std::int64_t>(value_);
  }
  require(std::holds_alternative<double>(value_),
          "Json::as_integer: not a number");
  const std::optional<std::int64_t> v = to_int64(std::get<double>(value_));
  if (!v) {
    throw InvalidArgument("Json::as_integer: " + dump() +
                          " is not an integer inside int64");
  }
  return *v;
}

const std::string& Json::as_string() const {
  require(is_string(), "Json::as_string: not a string");
  return std::get<std::string>(value_);
}

std::size_t Json::size() const {
  if (is_array()) return std::get<Array>(value_).size();
  if (is_object()) return std::get<Object>(value_).size();
  return 0;
}

Json& Json::push_back(Json v) {
  require(is_array(), "Json::push_back: not an array");
  std::get<Array>(value_).push_back(std::move(v));
  return *this;
}

Json& Json::set(const std::string& key, Json v) {
  require(is_object(), "Json::set: not an object");
  std::get<Object>(value_)[key] = std::move(v);
  return *this;
}

void Json::emit_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char ch : s) {
    switch (ch) {
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
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(ch));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

void Json::emit(std::string& out, int indent, int depth) const {
  const std::string pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent) *
                                   (static_cast<std::size_t>(depth) + 1),
                               ' ')
                 : "";
  const std::string close_pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent) *
                                   static_cast<std::size_t>(depth),
                               ' ')
                 : "";
  const char* nl = indent > 0 ? "\n" : "";
  if (std::holds_alternative<std::nullptr_t>(value_)) {
    out += "null";
  } else if (std::holds_alternative<bool>(value_)) {
    out += std::get<bool>(value_) ? "true" : "false";
  } else if (std::holds_alternative<double>(value_)) {
    const double v = std::get<double>(value_);
    if (!std::isfinite(v)) {
      out += "null";  // JSON has no Inf/NaN
    } else {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out += buf;
    }
  } else if (std::holds_alternative<std::int64_t>(value_)) {
    out += std::to_string(std::get<std::int64_t>(value_));
  } else if (std::holds_alternative<std::string>(value_)) {
    emit_string(out, std::get<std::string>(value_));
  } else if (is_array()) {
    const Array& arr = std::get<Array>(value_);
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    out += nl;
    for (std::size_t i = 0; i < arr.size(); ++i) {
      out += pad;
      arr[i].emit(out, indent, depth + 1);
      if (i + 1 < arr.size()) out += ',';
      out += nl;
    }
    out += close_pad;
    out += ']';
  } else {
    const Object& obj = std::get<Object>(value_);
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    out += nl;
    std::size_t i = 0;
    for (const auto& [key, val] : obj) {
      out += pad;
      emit_string(out, key);
      out += indent > 0 ? ": " : ":";
      val.emit(out, indent, depth + 1);
      if (++i < obj.size()) out += ',';
      out += nl;
    }
    out += close_pad;
    out += '}';
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  emit(out, indent, 0);
  return out;
}

namespace {

/// Recursive-descent parser over the serialized text.  Numbers without
/// '.', 'e' or 'E' parse as int64 when they fit, matching what dump()
/// emitted; everything else becomes a double.
///
/// Hardened for untrusted files (campaign descriptions, golden
/// reports): container nesting is capped at kMaxParseDepth so a
/// pathological "[[[[..." cannot exhaust the stack, numbers must be
/// finite (1e999 is rejected, not turned into inf) and fully consumed
/// ("1.2.3" is an error), trailing non-whitespace after the document is
/// rejected, and every message carries the 1-based line and column of
/// the offending byte.
class Parser {
 public:
  /// Deepest accepted object/array nesting.  Far above anything the
  /// library writes (campaign reports nest 4 deep) but well inside the
  /// default stack for the ~3 frames this parser burns per level.
  static constexpr int kMaxParseDepth = 64;

  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  /// Throws InvalidArgument with `msg` plus the line/column of pos_.
  /// Positions are computed only on the error path, so the happy path
  /// never pays for them.
  [[noreturn]] void fail(const std::string& msg) const {
    std::size_t line = 1;
    std::size_t column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw InvalidArgument("Json::parse: " + msg + " at line " +
                          std::to_string(line) + ", column " +
                          std::to_string(column));
  }

  Json parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Json::string(parse_string());
      case 't':
        expect_literal("true");
        return Json::boolean(true);
      case 'f':
        expect_literal("false");
        return Json::boolean(false);
      case 'n':
        expect_literal("null");
        return Json::null();
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    if (++depth_ > kMaxParseDepth) fail("nesting deeper than 64 levels");
    ++pos_;  // '{'
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return obj;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      skip_ws();
      if (peek() != ':') fail("expected ':'");
      ++pos_;
      obj.set(key, parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() != '}') fail("expected ',' or '}'");
      ++pos_;
      --depth_;
      return obj;
    }
  }

  Json parse_array() {
    if (++depth_ > kMaxParseDepth) fail("nesting deeper than 64 levels");
    ++pos_;  // '['
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() != ']') fail("expected ',' or ']'");
      ++pos_;
      --depth_;
      return arr;
    }
  }

  std::string parse_string() {
    ++pos_;  // opening '"'
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
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
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (dump() only ever emits
          // \u00xx control characters, but accept the full range).
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
          break;
        }
        default:
          fail("bad escape character");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    bool integral = true;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string tok = text_.substr(start, pos_ - start);
    pos_ = start;  // errors below point at the number's first byte
    if (tok.empty() || tok == "-") fail("invalid number");
    // The shared token grammar decides what a number is: a token it
    // does not cover entirely ("1.2.3", "1e", "1e+") is malformed, and
    // one that overflows ("1e999") has no JSON representation.
    if (sttram::scan_number(tok) != tok.size()) {
      fail("malformed number '" + tok + "'");
    }
    if (integral) {
      // Out of int64 range falls through to the double path.
      if (const std::optional<std::int64_t> i = sttram::parse_integer(tok)) {
        pos_ = start + tok.size();
        return Json::integer(*i);
      }
    }
    const std::optional<double> v = sttram::parse_number(tok);
    if (!v) fail("non-finite number '" + tok + "'");
    pos_ = start + tok.size();
    return Json::number(*v);
  }

  void expect_literal(const char* lit) {
    const std::string expected(lit);
    if (text_.compare(pos_, expected.size(), expected) != 0) {
      fail("invalid literal");
    }
    pos_ += expected.size();
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace sttram
