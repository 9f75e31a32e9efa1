// Environment-variable knobs, read once at the tool boundary.
//
// The tools and tests read COYOTE_FULL, COYOTE_EXACT and COYOTE_LP_COLD
// here and pass them down as explicit options (exp::RunOptions,
// lp::SimplexOptions); the one library-side read is COYOTE_THREADS, the
// process pool size, which util::ThreadPool::defaultThreads parses with
// a range check. envFlag is the single parsing point so the semantics
// ("set and not '0'") cannot drift between binaries.
#pragma once

#include <cstdlib>

namespace coyote::util {

/// True iff `name` is set to a non-empty value other than "0".
[[nodiscard]] inline bool envFlag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

}  // namespace coyote::util
