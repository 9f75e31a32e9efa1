// Small contract-checking helpers shared across the COYOTE libraries.
//
// Follows the C++ Core Guidelines (I.6/E.x): preconditions are checked and
// violations reported as exceptions so that library misuse is diagnosed
// eagerly instead of corrupting downstream computations.
//
// Each helper has a `const char*` overload next to the `std::string` one.
// A string literal binds to the `const char*` overload, so the message
// becomes a std::string only when the check fails. With just the
// `std::string` overload every call would construct the message before
// testing the condition, and messages longer than the small-string
// buffer (15 chars in libstdc++) cost a heap allocation and a free on
// every passing check -- in accessors such as Graph::edge and
// RoutingConfig::ratio that run in the innermost loops. Messages that
// must be concatenated belong inside the failing branch at the call site
// (`if (!ok) throw ...`), for the same reason.
#pragma once

#include <stdexcept>
#include <string>

namespace coyote {

/// Throws std::invalid_argument with `what` unless `cond` holds.
/// Used for checking caller-supplied arguments (preconditions).
inline void require(bool cond, const char* what) {
  if (!cond) throw std::invalid_argument(what);
}
inline void require(bool cond, const std::string& what) {
  if (!cond) throw std::invalid_argument(what);
}

/// Throws std::logic_error with `what` unless `cond` holds.
/// Used for internal invariants that should be unreachable.
inline void ensure(bool cond, const char* what) {
  if (!cond) throw std::logic_error(what);
}
inline void ensure(bool cond, const std::string& what) {
  if (!cond) throw std::logic_error(what);
}

}  // namespace coyote
