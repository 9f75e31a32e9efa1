#include "plan.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

#include "core/splitting_optimizer.hpp"
#include "fibbing/lie_synthesis.hpp"
#include "fibbing/ospf_model.hpp"
#include "routing/ecmp.hpp"
#include "routing/evaluator.hpp"
#include "routing/optu.hpp"
#include "routing/worst_case.hpp"
#include "tm/uncertainty.hpp"

namespace perfbench {

using namespace coyote;

namespace {

constexpr double kTol = 1e-9;
/// ECMP multiplicity budget of the lies: up to 3 fake nodes per next-hop.
constexpr int kLieMultiplicity = 4;

routing::RoutingConfig optimalRouting(const Graph& g,
                                      const std::shared_ptr<const DagSet>& dags,
                                      const tm::TrafficMatrix& d,
                                      const core::CoyoteOptions& copt,
                                      PlanResult& out, Probe& probe) {
  ++out.optu_matrices;
  return probe.call("optu", "routing::optimalRoutingForDemand", [&] {
    return routing::optimalRoutingForDemand(g, dags, d, copt.lp).routing;
  });
}

/// Splitting ratios for `pool`, exactly as core::optimizeAgainstPool
/// computes them without oracle rounds: the exact LP optimum for a
/// single-matrix pool, the splitting optimizer from uniform otherwise, then
/// the better of that and ECMP on the pool.
routing::RoutingConfig optimizeOnPool(const Graph& g,
                                      const std::shared_ptr<const DagSet>& dags,
                                      routing::PerformanceEvaluator& pool,
                                      const core::CoyoteOptions& copt,
                                      const routing::RoutingConfig& ecmp,
                                      PlanResult& out, Probe& probe) {
  routing::RoutingConfig cfg =
      pool.size() == 1
          ? optimalRouting(g, dags, pool.matrix(0), copt, out, probe)
          : probe.call("split", "core::optimizeSplitting", [&] {
              int used = 0;
              routing::RoutingConfig r = core::optimizeSplitting(
                  g, pool, routing::RoutingConfig::uniform(g, dags),
                  copt.splitting, &used);
              out.split_iters += used;
              return r;
            });
  const auto ratio = [&](const routing::RoutingConfig& c) {
    const double r = probe.call("eval", "PerformanceEvaluator::ratioFor",
                                [&] { return pool.ratioFor(c); });
    if (!(r >= 1.0 - kTol)) {
      probe.failLast("pool ratio " + std::to_string(r) + " < 1");
    }
    return r;
  };
  if (copt.ensure_not_worse_than_ecmp && ratio(ecmp) < ratio(cfg)) cfg = ecmp;
  (void)ratio(cfg);  // CoyoteResult::pool_ratio
  return cfg;
}

void addPool(routing::PerformanceEvaluator& pool,
             const std::vector<tm::TrafficMatrix>& matrices, PlanResult& out,
             Probe& probe) {
  out.optu_matrices += static_cast<std::int64_t>(matrices.size());
  probe.call("optu", "PerformanceEvaluator::addPool",
             [&] { pool.addPool(matrices); });
}

}  // namespace

double PlanResult::teRatio() const {
  double worst = 0.0;
  for (const PlanRow& r : rows) worst = std::max(worst, r.ratio[kPartial]);
  return worst;
}

double PlanResult::teRatioExact() const {
  double worst = 0.0;
  for (const PlanRow& r : rows) worst = std::max(worst, r.exact_ratio);
  return worst;
}

PlanResult runPlan(const Graph& g, std::shared_ptr<const DagSet> dags,
                   const tm::TrafficMatrix& base, const PlanSpec& spec,
                   Probe& probe) {
  PlanResult out;
  // NetworkSweep forces oracle_rounds from its exact_oracle flag (off).
  core::CoyoteOptions copt = spec.sweep.coyote;
  copt.oracle_rounds = 0;

  // --- NetworkSweep's constructor: the intact schemes, in list order.
  int span = probe.open("intact schemes", 0);
  const auto engine = probe.call("optu", "routing::OptuEngine", [&] {
    return std::make_shared<routing::OptuEngine>(g, dags, copt.lp);
  });
  const routing::RoutingConfig ecmp = routing::ecmpConfig(g, dags);
  const routing::RoutingConfig base_cfg =
      optimalRouting(g, dags, base, copt, out, probe);
  const routing::RoutingConfig oblivious = [&] {
    // core::coyoteOblivious: a private evaluator over the oblivious pool.
    routing::PerformanceEvaluator pool(g, dags, copt.lp);
    addPool(pool, tm::obliviousPool(g.numNodes(), copt.oblivious_pool), out,
            probe);
    return optimizeOnPool(g, dags, pool, copt, ecmp, out, probe);
  }();
  probe.close(span);

  // --- NetworkSweep::run(margin) per margin, plus the oracle certificate.
  std::optional<routing::RoutingConfig> partial;
  for (std::size_t step = 0; step < spec.margins.size(); ++step) {
    const double margin = spec.margins[step];
    const int group = static_cast<int>(step) + 1;
    span = probe.open("margin " + std::to_string(margin), group);
    const std::size_t first_op = probe.ops().size();

    const tm::DemandBounds box = tm::marginBounds(base, margin);
    routing::PerformanceEvaluator pool(g, dags, copt.lp,
                                       routing::Normalization::kWithinDags,
                                       engine);
    addPool(pool, tm::cornerPool(box, spec.sweep.pool), out, probe);
    partial = optimizeOnPool(g, dags, pool, copt, ecmp, out, probe);

    PlanRow row;
    row.margin = margin;
    const routing::RoutingConfig* schemes[] = {&ecmp, &base_cfg, &oblivious,
                                               &*partial};
    for (const routing::RoutingConfig* cfg : schemes) {
      row.ratio.push_back(probe.call("eval", "PerformanceEvaluator::ratioFor",
                                     [&] { return pool.ratioFor(*cfg); }));
      if (!(row.ratio.back() >= 1.0 - kTol)) {
        probe.failLast("pool ratio " + std::to_string(row.ratio.back()) +
                       " < 1");
      }
    }
    if (row.ratio[kPartial] > row.ratio[kEcmp] + kTol) {
      probe.failLast("COYOTE-pk worse than ECMP on the pool");
    }
    if (margin == 1.0 && std::abs(row.ratio[kPartial] - 1.0) > kTol) {
      probe.failLast("COYOTE-pk is not optimal at margin 1");
    }
    for (std::size_t i = first_op; i < probe.ops().size(); ++i) {
      row.lp_solves += probe.ops()[i].lp.solves;
      row.lp_pivots += probe.ops()[i].lp.iterations;
    }

    if (spec.exact_oracle) {
      row.exact_ratio = probe.call("oracle", "WorstCaseOracle::find", [&] {
        routing::WorstCaseOracle oracle(g, dags, &box, copt.lp);
        return oracle.find(*partial).ratio;
      });
      if (!(row.exact_ratio >= row.ratio[kPartial] - kTol)) {
        probe.failLast("exact ratio below the pool ratio");
      }
    }
    out.rows.push_back(std::move(row));
    probe.close(span);
  }

  // --- Lies realizing the last margin's COYOTE-pk, every destination.
  if (partial.has_value()) {
    span = probe.open("lies", static_cast<int>(spec.margins.size()) + 1);
    fib::OspfModel model(g);
    for (NodeId t = 0; t < g.numNodes(); ++t) {
      model.advertisePrefix(t, t);
      const fib::LiePlan plan = probe.call("lies", "fib::synthesizeLies", [&] {
        return fib::synthesizeLies(g, *partial, t, t, kLieMultiplicity);
      });
      probe.call("lies", "fib::applyPlan",
                 [&] { fib::applyPlan(model, plan); });
      const bool ok = probe.call("lies", "fib::verifyRealization", [&] {
        return fib::verifyRealization(model, *partial, t, t,
                                       kLieMultiplicity) &&
               model.forwardingIsLoopFree(t);
      });
      if (!ok) probe.failLast("lies do not realize the configuration");
      out.lie_fake_nodes += plan.fake_nodes;
      out.lie_routers += plan.routers_lied_to;
      ++out.lie_dests;
      out.lie_verified += ok ? 1 : 0;
    }
    probe.close(span);
  }
  return out;
}

}  // namespace perfbench
