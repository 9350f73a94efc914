#include "sttram/common/format.hpp"

#include <array>
#include <cmath>
#include <cstdio>

namespace sttram {
namespace {

struct Prefix {
  double scale;
  const char* symbol;
};

constexpr std::array<Prefix, 11> kPrefixes = {{
    {1e12, "T"},
    {1e9, "G"},
    {1e6, "M"},
    {1e3, "k"},
    {1.0, ""},
    {1e-3, "m"},
    {1e-6, "u"},
    {1e-9, "n"},
    {1e-12, "p"},
    {1e-15, "f"},
    {1e-18, "a"},
}};

}  // namespace

std::string format_double(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
  return buf;
}

std::string format_si(double value, const std::string& unit, int digits) {
  if (value == 0.0 || !std::isfinite(value)) {
    return format_double(value, digits) + " " + unit;
  }
  const double mag = std::fabs(value);
  for (const auto& p : kPrefixes) {
    if (mag >= p.scale * 0.9995) {
      return format_double(value / p.scale, digits) + " " + p.symbol + unit;
    }
  }
  const auto& last = kPrefixes.back();
  return format_double(value / last.scale, digits) + " " + last.symbol + unit;
}

std::string format(Ohm r, int digits) { return format_si(r.value(), "Ohm", digits); }
std::string format(Ampere i, int digits) { return format_si(i.value(), "A", digits); }
std::string format(Volt v, int digits) { return format_si(v.value(), "V", digits); }
std::string format(Second t, int digits) { return format_si(t.value(), "s", digits); }
std::string format(Joule e, int digits) { return format_si(e.value(), "J", digits); }

std::string format_percent(double ratio, int digits) {
  return format_double(ratio * 100.0, digits) + " %";
}

}  // namespace sttram
