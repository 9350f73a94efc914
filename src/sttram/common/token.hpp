// Strict number tokens, shared by every untrusted text surface (CLI
// flags, campaign JSON, SPICE decks, trace CSV) so a token reads the
// same everywhere: the whole token is consumed, the value is finite, and
// an integer is read exactly or refused, never wrapped or truncated.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace sttram {

/// Length of the decimal number at the front of `text`:
/// `[+-] digits [. digits] [(e|E) [+-] digits]`, with a digit on at
/// least one side of the point; 0 when there is none.  Hex, inf and nan
/// are not numbers; "2e" ends before the 'e'.
[[nodiscard]] std::size_t scan_number(std::string_view text);

/// The whole `token` as a finite double (correctly rounded, as strtod);
/// empty when it is not exactly one number or overflows.
[[nodiscard]] std::optional<double> parse_number(std::string_view token);

/// The whole `token` as an exact int64: an integer literal, or any number
/// whose value is integral and inside int64 ("1e5" reads 100000).
[[nodiscard]] std::optional<std::int64_t> parse_integer(
    std::string_view token);

/// `v` when it is integral and inside [-2^63, 2^63); empty otherwise.
[[nodiscard]] std::optional<std::int64_t> to_int64(double v);

}  // namespace sttram
