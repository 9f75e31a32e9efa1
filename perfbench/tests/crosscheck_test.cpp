// Same-program cross-checks: the benchmark times the program the paper's
// sweeps and the serve daemon run, not a look-alike.
//
//  * runPlan (layer by layer) reproduces exp::NetworkSweep::run rows bit
//    for bit -- ratios and LP work -- with each plan workload's options on
//    a small network at the default seed;
//  * the closed-loop handleLine replay answers byte for byte what
//    TeService::handleScript answers for the same trace.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/dag_builder.hpp"
#include "exp/sweep.hpp"
#include "plan.hpp"
#include "probe.hpp"
#include "replay.hpp"
#include "serve/service.hpp"
#include "serve/trace.hpp"
#include "tm/traffic_matrix.hpp"
#include "topo/generator.hpp"
#include "topo/zoo.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace coyote;

constexpr std::uint64_t kDefaultSeed = 1;

void expectPlanMatchesSweep(const Graph& g, const tm::TrafficMatrix& base,
                            const PlanSpec& spec) {
  const auto dags = core::augmentedDagsShared(g);
  Probe probe(/*traced=*/false);
  const PlanResult plan = runPlan(g, dags, base, spec, probe);
  for (const OpRecord& op : probe.ops()) {
    EXPECT_FALSE(op.failed) << op.name << ": " << op.failure;
  }

  const exp::NetworkSweep sweep(g, dags, base, spec.sweep);
  std::vector<std::string> keys;
  for (const te::Scheme* s : sweep.schemes()) keys.emplace_back(s->key());
  ASSERT_EQ(keys, (std::vector<std::string>{"ecmp", "base", "oblivious",
                                            "partial"}));
  ASSERT_EQ(plan.rows.size(), spec.margins.size());
  for (const PlanRow& row : plan.rows) {
    const exp::SchemeRow want = sweep.run(row.margin);
    EXPECT_EQ(row.ratio, want.ratio) << "margin " << row.margin;
    EXPECT_EQ(row.lp_solves, want.lp_solves) << "margin " << row.margin;
    EXPECT_EQ(row.lp_pivots, want.lp_pivots) << "margin " << row.margin;
  }
}

TEST(PlanCrossCheck, GeantOptionsOnAbileneMatchNetworkSweep) {
  const Graph g = topo::makeZoo("Abilene");
  const PlanSpec spec =
      planSpec(*findWorkload("plan-geant"), kDefaultSeed);
  ASSERT_TRUE(spec.exact_oracle);
  expectPlanMatchesSweep(g, tm::gravityMatrix(g, 1.0), spec);
}

TEST(PlanCrossCheck, FatTreeOptionsOnFatTree4MatchNetworkSweep) {
  const Graph g = topo::fatTree(4);
  tm::GravityOptions gopt;
  gopt.top_k = 8;
  gopt.endpoint_prefix = "edge";
  const PlanSpec spec =
      planSpec(*findWorkload("plan-fattree12"), kDefaultSeed);
  expectPlanMatchesSweep(g, tm::gravityMatrix(g, 1.0, gopt), spec);
}

TEST(PlanCrossCheck, DefaultSeedReproducesSweepDefaults) {
  const PlanSpec spec = planSpec(*findWorkload("plan-geant"), kDefaultSeed);
  const exp::SweepOptions defaults;
  EXPECT_EQ(spec.sweep.pool.seed, defaults.pool.seed);
  EXPECT_EQ(spec.sweep.coyote.oblivious_pool.seed,
            defaults.coyote.oblivious_pool.seed);
  EXPECT_EQ(spec.sweep.coyote.splitting.iterations,
            defaults.coyote.splitting.iterations);
}

TEST(ReplayCrossCheck, HandleLineReplayMatchesHandleScript) {
  const Graph g = topo::makeZoo("Abilene");
  const tm::TrafficMatrix base = tm::gravityMatrix(g, 1.0);
  serve::TraceOptions topt;
  topt.events = 60;
  topt.seed = kDefaultSeed;
  const std::vector<std::string> trace = serve::generateTrace(g, base, topt);

  serve::TeService closed_loop(g, base, serveOptions(kDefaultSeed));
  Probe probe(/*traced=*/false);
  const std::vector<std::string> got = replay(closed_loop, trace, probe);
  for (const OpRecord& op : probe.ops()) {
    EXPECT_FALSE(op.failed) << op.name << ": " << op.failure;
  }

  serve::TeService batch(g, base, serveOptions(kDefaultSeed));
  const std::vector<std::string> want = batch.handleScript(trace);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "event " << i + 1 << ": " << trace[i];
  }
}

}  // namespace
}  // namespace perfbench
