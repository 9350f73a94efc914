// Engineering-notation formatting for human-readable bench output.
#pragma once

#include <string>

#include "sttram/common/units.hpp"

namespace sttram {

/// Formats `value` with an SI prefix and `unit` suffix, e.g.
/// format_si(2.0e-5, "A") == "20 uA".  `digits` controls the number of
/// significant digits.
std::string format_si(double value, const std::string& unit, int digits = 4);

/// Convenience overloads for the common quantities.
std::string format(Ohm r, int digits = 4);
std::string format(Ampere i, int digits = 4);
std::string format(Volt v, int digits = 4);
std::string format(Second t, int digits = 4);
std::string format(Joule e, int digits = 4);

/// Formats a plain double with `digits` significant digits.
std::string format_double(double v, int digits = 4);

/// Formats a ratio as a percentage string, e.g. 0.0413 -> "4.13 %".
std::string format_percent(double ratio, int digits = 3);

}  // namespace sttram
