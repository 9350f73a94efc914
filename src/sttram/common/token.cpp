#include "sttram/common/token.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string>

namespace sttram {
namespace {

std::size_t skip_digits(std::string_view text, std::size_t pos) {
  while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
  return pos;
}

std::size_t skip_sign(std::string_view text, std::size_t pos) {
  const bool sign = pos < text.size() && (text[pos] == '+' || text[pos] == '-');
  return sign ? pos + 1 : pos;
}

}  // namespace

std::size_t scan_number(std::string_view text) {
  const std::size_t start = skip_sign(text, 0);
  std::size_t pos = skip_digits(text, start);
  std::size_t digits = pos - start;
  if (pos < text.size() && text[pos] == '.') {
    const std::size_t frac = skip_digits(text, pos + 1);
    digits += frac - (pos + 1);
    pos = frac;
  }
  if (digits == 0) return 0;
  if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
    const std::size_t exp_start = skip_sign(text, pos + 1);
    const std::size_t exp_end = skip_digits(text, exp_start);
    if (exp_end > exp_start) pos = exp_end;
  }
  return pos;
}

std::optional<double> parse_number(std::string_view token) {
  if (token.empty() || scan_number(token) != token.size()) return {};
  const double v = std::strtod(std::string(token).c_str(), nullptr);
  if (!std::isfinite(v)) return {};
  return v;
}

std::optional<std::int64_t> parse_integer(std::string_view token) {
  std::string_view literal = token;
  if (literal.size() > 1 && literal[0] == '+' && literal[1] != '-') {
    literal.remove_prefix(1);  // from_chars takes no '+'
  }
  std::int64_t v = 0;
  const char* end = literal.data() + literal.size();
  const auto r = std::from_chars(literal.data(), end, v);
  if (r.ptr == end) {  // all digits: exact, or past int64
    return r.ec == std::errc() ? std::optional<std::int64_t>(v) : std::nullopt;
  }
  const std::optional<double> d = parse_number(token);
  return d ? to_int64(*d) : std::nullopt;
}

std::optional<std::int64_t> to_int64(double v) {
  // -2^63 is exact and 2^63 is the first double past int64; NaN fails.
  if (!(v >= -0x1p63 && v < 0x1p63) || v != std::floor(v)) return {};
  return static_cast<std::int64_t>(v);
}

}  // namespace sttram
