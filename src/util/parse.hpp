// Strict integer parsing for command-line flags and environment values.
#pragma once

#include <charconv>
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

}  // namespace coyote::util
