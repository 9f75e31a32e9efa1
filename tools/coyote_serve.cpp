// Online TE daemon over the serve::TeService event loop (src/serve/).
//
// Two modes over the same line-delimited util::json protocol (documented
// in src/serve/service.hpp):
//
//   coyote_serve --topo Geant                 stdin/stdout daemon: one
//                                             request line in, one
//                                             response line out
//   coyote_serve --topo Geant --replay t.txt  batch replay: every line of
//                                             the file, responses to
//                                             stdout in input order,
//                                             byte-identical to the
//                                             daemon's answers to the
//                                             same lines (and for any
//                                             COYOTE_THREADS)
//
// Plus trace generation (the replay inputs CI and the tests use):
//
//   coyote_serve --topo Geant --generate 500 --seed 1   seeded mixed trace
//   coyote_serve --topo Geant --flap-trace 40           link-flap trace
//
// COYOTE_LP_COLD=1 cold-starts every LP solve (the warm-start payoff is
// the pivot delta against a default run).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "scheme/registry.hpp"
#include "serve/service.hpp"
#include "serve/trace.hpp"
#include "util/env.hpp"
#include "util/parse.hpp"

namespace {

using namespace coyote;

int usage(const char* argv0, int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(out,
               "usage: %s [options]\n"
               "\n"
               "Network / service options:\n"
               "  --topo <name>      'running-example' (default) or a "
               "Topology Zoo name\n"
               "                     (e.g. Geant, Abilene, Digex)\n"
               "  --demand <model>   gravity (default) | bimodal | uniform\n"
               "  --demand-seed <n>  bimodal demand seed (default 23)\n"
               "  --schemes <a,b,c>  resident scheme keys (default: the "
               "paper's four)\n"
               "  --margin <x>       initial uncertainty margin, a finite "
               "number >= 1\n"
               "                     (default 2.0)\n"
               "\n"
               "Modes (default: stdin/stdout daemon):\n"
               "  --replay <file>    replay a trace file, one response line "
               "per event\n"
               "  --generate <n>     emit an n-event seeded trace to stdout "
               "and exit\n"
               "  --seed <s>         trace seed for --generate (default 1)\n"
               "  --flap-trace <n>   emit an n-flap link up/down trace and "
               "exit\n",
               argv0);
  return code;
}

exp::TopologySpec topoSpec(const std::string& name) {
  if (name == "running-example") {
    exp::TopologySpec spec;
    spec.kind = exp::TopologySpec::Kind::kRunningExample;
    return spec;
  }
  return exp::TopologySpec::zoo(name);
}

/// The value of an integer flag in [0, max]; anything else (junk, a
/// sign, overflow) exits 2 with an error naming the flag.
template <class Int>
Int countFlag(const char* text, const std::string& flag) {
  try {
    return util::parseInteger<Int>(text, 0, std::numeric_limits<Int>::max(),
                                   flag.c_str());
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

/// The value of a margin flag: a finite number >= 1; anything else (junk,
/// inf, nan) exits 2 with an error naming the flag.
double marginFlag(const char* text, const std::string& flag) {
  try {
    return util::parseNumber(text, 1.0, std::numeric_limits<double>::max(),
                             flag.c_str());
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string topo = "running-example";
  exp::DemandSpec demand;
  std::string schemes_csv;
  double margin = 2.0;
  std::string replay_file;
  int generate = -1;
  std::uint64_t seed = 1;
  int flap_trace = -1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs an argument\n", arg.c_str());
        std::exit(usage(argv[0], 2));
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") return usage(argv[0], 0);
    if (arg == "--topo") {
      topo = next();
    } else if (arg == "--demand") {
      const std::string model = next();
      if (model == "gravity") {
        demand.model = exp::DemandSpec::Model::kGravity;
      } else if (model == "bimodal") {
        demand.model = exp::DemandSpec::Model::kBimodal;
      } else if (model == "uniform") {
        demand.model = exp::DemandSpec::Model::kUniform;
      } else {
        std::fprintf(stderr, "unknown demand model: %s\n", model.c_str());
        return 2;
      }
    } else if (arg == "--demand-seed") {
      demand.seed = countFlag<std::uint64_t>(next(), arg);
    } else if (arg == "--schemes") {
      schemes_csv = next();
    } else if (arg == "--margin") {
      margin = marginFlag(next(), arg);
    } else if (arg == "--replay") {
      replay_file = next();
    } else if (arg == "--generate") {
      generate = countFlag<int>(next(), arg);
    } else if (arg == "--seed") {
      seed = countFlag<std::uint64_t>(next(), arg);
    } else if (arg == "--flap-trace") {
      flap_trace = countFlag<int>(next(), arg);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage(argv[0], 2);
    }
  }

  try {
    const Graph g = topoSpec(topo).build();
    const tm::TrafficMatrix base = demand.build(g);

    if (generate >= 0) {
      serve::TraceOptions opt;
      opt.events = generate;
      opt.seed = seed;
      for (const std::string& line : serve::generateTrace(g, base, opt)) {
        std::printf("%s\n", line.c_str());
      }
      return 0;
    }
    if (flap_trace >= 0) {
      for (const std::string& line : serve::linkFlapTrace(g, flap_trace)) {
        std::printf("%s\n", line.c_str());
      }
      return 0;
    }

    serve::ServeOptions opt;
    opt.margin = margin;
    opt.coyote.lp.cold = util::envFlag("COYOTE_LP_COLD");
    opt.schemes = te::SchemeRegistry::builtin().parseList(schemes_csv);

    serve::TeService service(g, base, opt);

    if (!replay_file.empty()) {
      std::ifstream in(replay_file);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", replay_file.c_str());
        return 2;
      }
      std::vector<std::string> lines;
      std::string line;
      while (std::getline(in, line)) {
        if (!line.empty()) lines.push_back(line);
      }
      for (const std::string& resp : service.handleScript(lines)) {
        std::printf("%s\n", resp.c_str());
      }
      return 0;
    }

    // Interactive daemon: one request line in, one response line out, until
    // EOF. Responses flush per line so a piped client never stalls.
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line.empty()) continue;
      std::printf("%s\n", service.handleLine(line).c_str());
      std::fflush(stdout);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "coyote_serve: %s\n", e.what());
    return 1;
  }
}
