#include "workloads.hpp"

namespace perfbench {

const Workload* findWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

bool isFatTree(const Workload& w) {
  return std::string(w.name) == "plan-fattree12";
}

PlanSpec planSpec(const Workload& w, std::uint64_t seed) {
  PlanSpec spec;
  if (isFatTree(w)) {
    // The scaling scenarios' pools and budget (src/exp/scenario.cpp).
    spec.margins = {2.0};
    spec.sweep.pool.source_hotspots = false;
    spec.sweep.pool.max_hotspots = 8;
    spec.sweep.pool.random_corners = 4;
    spec.sweep.pool.pair_hotspots = 4;
    spec.sweep.coyote.oblivious_pool.source_concentrated = false;
    spec.sweep.coyote.oblivious_pool.uniform = false;
    spec.sweep.coyote.oblivious_pool.random_sparse = 4;
    spec.sweep.coyote.splitting.iterations = 120;
  } else {
    spec.margins = {1.0, 2.0, 3.0};
    spec.exact_oracle = true;
  }
  spec.sweep.pool.seed = seed;
  spec.sweep.coyote.oblivious_pool.seed = seed + 6;
  return spec;
}

coyote::serve::ServeOptions serveOptions(std::uint64_t seed) {
  coyote::serve::ServeOptions opt;
  opt.pool.seed = seed;
  opt.coyote.oblivious_pool.seed = seed + 6;
  return opt;
}

}  // namespace perfbench
