// Perf-regression gate: diffs two directories of BENCH_<scenario>.json
// files (see exp/compare.hpp) and exits non-zero on median wall-time
// regressions beyond the threshold or on result drift. CI's bench-smoke
// job runs this against the committed bench/baselines/ snapshot.
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/compare.hpp"
#include "util/parse.hpp"

namespace {

int usage(const char* argv0, int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(
      out,
      "usage: %s <baseline-dir> <candidate-dir> [options]\n"
      "\n"
      "  --threshold <frac>   allowed relative median-seconds growth before\n"
      "                       a scenario counts as regressed (default 0.25;\n"
      "                       1.0 allows a 2x slowdown)\n"
      "  --ratio-tol <frac>   relative tolerance for numeric row fields\n"
      "                       (default 1e-9; rows are deterministic, so any\n"
      "                       larger difference is result drift)\n"
      "  --min-seconds <s>    timing floor: regressions are measured against\n"
      "                       max(baseline median, this), so sub-millisecond\n"
      "                       scenarios don't fail on scheduler noise\n"
      "                       (default 0.01)\n"
      "  --allow-missing      don't fail when a baseline scenario has no\n"
      "                       candidate file\n"
      "\n"
      "Every value is a finite number >= 0.\n"
      "\n"
      "exit status: 0 = pass, 1 = regression/drift found, 2 = usage error\n",
      argv0);
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace coyote;

  exp::CompareOptions opt;
  std::vector<std::string> dirs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs an argument\n", arg.c_str());
        std::exit(usage(argv[0], 2));
      }
      return argv[++i];
    };
    // A finite number >= 0: a NaN threshold would make every comparison
    // against it false, so the gate would silently pass everything.
    const auto nextDouble = [&]() {
      try {
        return util::parseNumber(next(), 0.0,
                                 std::numeric_limits<double>::max(),
                                 arg.c_str());
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(2);
      }
    };
    if (arg == "--help" || arg == "-h") return usage(argv[0], 0);
    if (arg == "--threshold") {
      opt.max_regression = nextDouble();
    } else if (arg == "--ratio-tol") {
      opt.ratio_tolerance = nextDouble();
    } else if (arg == "--min-seconds") {
      opt.min_gate_seconds = nextDouble();
    } else if (arg == "--allow-missing") {
      opt.require_all = false;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage(argv[0], 2);
    } else {
      dirs.push_back(arg);
    }
  }
  if (dirs.size() != 2) return usage(argv[0], 2);

  const exp::CompareReport report =
      exp::compareBenchDirs(dirs[0], dirs[1], opt);
  std::fputs(report.text().c_str(), stdout);
  return report.pass() ? 0 : 1;
}
