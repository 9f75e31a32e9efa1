// Strict number parsing for command-line flags and environment values.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <system_error>

#include "util/require.hpp"

namespace coyote::util {

/// Parses `text` as a decimal integer in [lo, hi]. Digits only, with a
/// leading '-' accepted for signed types: no '+', no whitespace, no
/// trailing characters, and overflow is an error instead of a wrap.
/// Throws std::invalid_argument naming `what` (the flag or variable the
/// text came from) otherwise.
template <class Int>
[[nodiscard]] Int parseInteger(const std::string& text, Int lo, Int hi,
                               const char* what) {
  Int value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  require(ec == std::errc() && stop == end && value >= lo && value <= hi,
          std::string(what) + ": expected an integer in [" +
              std::to_string(lo) + ", " + std::to_string(hi) + "], got '" +
              text + "'");
  return value;
}

/// Parses `text` as a finite decimal number in [lo, hi]: the whole string
/// (no whitespace, no '+', no trailing characters), and no "inf", "nan",
/// hex form or out-of-range exponent. Throws std::invalid_argument naming
/// `what` otherwise.
[[nodiscard]] inline double parseNumber(const std::string& text, double lo,
                                        double hi, const char* what) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc() && stop == end && std::isfinite(value) &&
      value >= lo && value <= hi) {
    return value;
  }
  char range[64];
  std::snprintf(range, sizeof range, "[%g, %g]", lo, hi);
  throw std::invalid_argument(std::string(what) +
                              ": expected a finite number in " + range +
                              ", got '" + text + "'");
}

}  // namespace coyote::util
