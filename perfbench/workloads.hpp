// The benchmark's three workloads (README.md says why each was chosen).
//
// A workload fixes the topology, base matrix, options and thread count;
// the seed feeds only the corner pool, the oblivious pool (seed + 6, so
// the default seed 1 reproduces the sweeps' default pool seeds 1 and 7)
// and, on serve, the event trace.
#pragma once

#include <cstdint>
#include <string>

#include "plan.hpp"
#include "serve/service.hpp"

namespace perfbench {

enum class Kind { kPlan, kServe };

struct Workload {
  const char* name;
  Kind kind;
  unsigned threads;  ///< COYOTE_THREADS, part of the workload's definition
  int min_setups;    ///< set-ups per run, for a steady setup_s median
};

inline constexpr Workload kWorkloads[] = {
    {"plan-geant", Kind::kPlan, 1, 101},
    {"serve-geant", Kind::kServe, 1, 3},
    {"plan-fattree12", Kind::kPlan, 4, 9},
};

/// Events per serve pass: enough that every op kind of the default mix
/// shows up many times and the trace's state (margin, failed links)
/// averages out across seeds; p90 has thirty samples beyond it.
inline constexpr int kServeEvents = 300;

/// nullptr for an unknown name.
[[nodiscard]] const Workload* findWorkload(const std::string& name);

[[nodiscard]] bool isFatTree(const Workload& w);

/// plan-geant: the sweep's defaults (fig06) at margins 1, 2, 3 with the
/// oracle certificate; plan-fattree12: the scaling scenarios' pools and
/// 120 iterations at margin 2, no oracle.
[[nodiscard]] PlanSpec planSpec(const Workload& w, std::uint64_t seed);

/// serve-geant: the daemon's defaults (margin 2, its small corner pool,
/// 300 iterations with patience 20).
[[nodiscard]] coyote::serve::ServeOptions serveOptions(std::uint64_t seed);

}  // namespace perfbench
