// serve::TeService + serve trace generation: protocol round-trips,
// malformed-input survival, overflow, zero- and tiny-demand rejection,
// byte identity of line-by-line and batch replays, state answers that do
// not depend on interleaved what-ifs, agreement with the failure sweep,
// what-if pruning by OPTU floors, and the warm-vs-cold LP pivot advantage
// the resident engine exists for.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dag_builder.hpp"
#include "failure/evaluate.hpp"
#include "failure/scenario.hpp"
#include "lp/lp.hpp"
#include "lp/stats.hpp"
#include "routing/optu.hpp"
#include "scheme/registry.hpp"
#include "serve/trace.hpp"
#include "tm/traffic_matrix.hpp"
#include "tm/uncertainty.hpp"
#include "topo/generator.hpp"
#include "topo/zoo.hpp"
#include "util/json.hpp"

namespace coyote::serve {
namespace {

namespace json = util::json;

/// Small options so every event is fast: tiny pool, few optimizer rounds.
ServeOptions quickOptions() {
  ServeOptions opt;
  opt.pool.max_hotspots = 4;
  opt.pool.random_corners = 2;
  opt.pool.pair_hotspots = 2;
  opt.coyote.splitting.iterations = 60;
  return opt;
}

json::Value parsed(const std::string& line) { return json::parse(line); }

TEST(TeService, ProtocolRoundTrip) {
  const Graph g = topo::runningExample();
  TeService service(g, tm::gravityMatrix(g, 1.0), quickOptions());

  // state: read-only snapshot, seq 1.
  json::Value resp = service.handle(parsed(R"({"op":"state","id":"s0"})"));
  EXPECT_EQ(resp["seq"].asNumber(), 1.0);
  EXPECT_EQ(resp["id"].asString(), "s0");
  EXPECT_EQ(resp["op"].asString(), "state");
  EXPECT_TRUE(resp["ok"].asBool());
  EXPECT_EQ(static_cast<int>(resp["nodes"].asNumber()), g.numNodes());
  EXPECT_GT(resp["pool_size"].asNumber(), 0.0);
  EXPECT_EQ(resp["failed"].asArray().size(), 0u);
  const std::size_t num_schemes = resp["schemes"].asArray().size();
  EXPECT_GE(num_schemes, 4u);

  // what-if: evaluation payload with per-scheme ratios >= 1 (ratios are
  // normalized by the unrestricted optimum on the surviving network).
  const std::string& a = g.nodeName(g.edges()[0].src);
  const std::string& b = g.nodeName(g.edges()[0].dst);
  json::Value what_if = json::Value::object();
  what_if["op"] = "what-if";
  json::Value links = json::Value::array();
  json::Value link = json::Value::array();
  link.push_back(a);
  link.push_back(b);
  links.push_back(std::move(link));
  what_if["links"] = std::move(links);
  resp = service.handle(what_if);
  EXPECT_EQ(resp["seq"].asNumber(), 2.0);
  ASSERT_TRUE(resp["ok"].asBool());
  ASSERT_TRUE(resp["evaluated"].asBool());
  ASSERT_EQ(resp["failed"].asArray().size(), 1u);
  const json::Value& ratios = resp["ratios"];
  EXPECT_EQ(ratios.asObject().size() + resp["unroutable"].asArray().size(),
            num_schemes);
  for (const auto& [key, value] : ratios.asObject()) {
    EXPECT_GE(value.asNumber(), 1.0 - 1e-9) << key;
  }

  // A what-if is read-only: the service still reports no failed links.
  resp = service.handle(parsed(R"({"op":"state"})"));
  EXPECT_EQ(resp["failed"].asArray().size(), 0u);

  // link down: state change, evaluated against the survivors.
  json::Value down = json::Value::object();
  down["op"] = "link";
  json::Value l2 = json::Value::array();
  l2.push_back(a);
  l2.push_back(b);
  down["link"] = std::move(l2);
  down["up"] = false;
  resp = service.handle(down);
  ASSERT_TRUE(resp["ok"].asBool());
  EXPECT_EQ(resp["link"].asString(), a + "-" + b);
  EXPECT_EQ(service.failedLinks().size(), 1u);

  // margin move: box and pool change, configurations stay.
  resp = service.handle(parsed(R"({"op":"margin","value":1.5})"));
  ASSERT_TRUE(resp["ok"].asBool());
  EXPECT_EQ(service.margin(), 1.5);

  // demand update: absolute entries, re-evaluated warm.
  json::Value dem = json::Value::object();
  dem["op"] = "demand";
  json::Value set = json::Value::array();
  json::Value entry = json::Value::array();
  entry.push_back(a);
  entry.push_back(b);
  entry.push_back(0.25);
  set.push_back(std::move(entry));
  dem["set"] = std::move(set);
  resp = service.handle(dem);
  ASSERT_TRUE(resp["ok"].asBool());

  // reoptimize + link restore close the loop.
  resp = service.handle(parsed(R"({"op":"reoptimize"})"));
  ASSERT_TRUE(resp["ok"].asBool());
  json::Value up = down;
  up["up"] = true;
  resp = service.handle(up);
  ASSERT_TRUE(resp["ok"].asBool());
  EXPECT_EQ(service.failedLinks().size(), 0u);
  EXPECT_EQ(service.eventsHandled(), 8);
}

TEST(TeService, MalformedRequestsAreErrorResponsesNotDeath) {
  const Graph g = topo::runningExample();
  TeService service(g, tm::gravityMatrix(g, 1.0), quickOptions());

  const std::vector<std::string> bad = {
      "this is not json",
      R"([1,2,3])",
      R"({"no_op":1})",
      R"({"op":"frobnicate"})",
      R"({"op":"link","link":["NoSuchNode","AlsoNot"],"up":false})",
      R"({"op":"link","link":"v1-v2","up":false})",
      R"({"op":"margin","value":0.5})",
      R"({"op":"margin"})",
      R"({"op":"demand"})",
      R"({"op":"demand","scale":-2})",
      R"({"op":"demand","set":[["v1","v1",1.0]]})",
      R"({"op":"what-if","links":"v1-v2"})",
  };
  for (const std::string& line : bad) {
    json::Value resp = parsed(service.handleLine(line));
    EXPECT_FALSE(resp["ok"].asBool()) << line;
    EXPECT_FALSE(resp["error"].asString().empty()) << line;
  }
  // Every bad request consumed a seq; the daemon is alive and clean.
  json::Value resp = parsed(service.handleLine(R"({"op":"state"})"));
  EXPECT_TRUE(resp["ok"].asBool());
  EXPECT_EQ(resp["seq"].asNumber(), static_cast<double>(bad.size() + 1));
  EXPECT_EQ(resp["failed"].asArray().size(), 0u);

  // Restoring a link that never failed is an error, not a state change.
  const std::string& a = g.nodeName(g.edges()[0].src);
  const std::string& b = g.nodeName(g.edges()[0].dst);
  json::Value up = json::Value::object();
  up["op"] = "link";
  json::Value link = json::Value::array();
  link.push_back(a);
  link.push_back(b);
  up["link"] = std::move(link);
  up["up"] = true;
  EXPECT_FALSE(service.handle(up)["ok"].asBool());
}

TEST(TeService, PartialDemandValidationNeverMutates) {
  const Graph g = topo::runningExample();
  TeService service(g, tm::gravityMatrix(g, 1.0), quickOptions());
  const std::string& a = g.nodeName(0);
  const std::string& b = g.nodeName(1);

  // First entry valid, second invalid: the whole update must be rejected
  // and the first entry must NOT have been applied.
  json::Value dem = json::Value::object();
  dem["op"] = "demand";
  json::Value set = json::Value::array();
  json::Value good = json::Value::array();
  good.push_back(a);
  good.push_back(b);
  good.push_back(123.0);
  set.push_back(std::move(good));
  json::Value bad = json::Value::array();
  bad.push_back(a);
  bad.push_back("NoSuchNode");
  bad.push_back(1.0);
  set.push_back(std::move(bad));
  dem["set"] = std::move(set);
  EXPECT_FALSE(service.handle(dem)["ok"].asBool());

  // A valid follow-up shows the matrix is unchanged (same ratios as a
  // fresh service evaluating the same what-if).
  TeService fresh(g, tm::gravityMatrix(g, 1.0), quickOptions());
  json::Value q = json::Value::object();
  q["op"] = "what-if";
  q["links"] = json::Value::array();
  json::Value r1 = service.handle(q);
  json::Value r2 = fresh.handle(q);
  ASSERT_TRUE(r1["ok"].asBool());
  ASSERT_TRUE(r2["ok"].asBool());
  EXPECT_EQ(r1["ratios"].dump(0), r2["ratios"].dump(0));
}

/// A response with its event counters zeroed, so responses to the same
/// question at different points of the stream compare byte for byte.
std::string withoutCounters(const std::string& line) {
  json::Value resp = json::parse(line);
  resp["seq"] = 0L;
  if (resp.find("events") != nullptr) resp["events"] = 0L;
  return resp.dump(0);
}

TEST(TeService, OverflowingEventsAreRejectedWithoutMutating) {
  const Graph g = topo::runningExample();
  TeService service(g, tm::gravityMatrix(g, 1.0), quickOptions());
  const std::string state = R"({"op":"state"})";
  const std::string what_if = R"({"op":"what-if","links":[]})";

  // One scale of 1e300 is still finite; a second overflows the matrix.
  const std::string huge = R"({"op":"demand","scale":1e300})";
  ASSERT_TRUE(parsed(service.handleLine(huge))["ok"].asBool());
  const std::string state_before = withoutCounters(service.handleLine(state));
  const std::string what_if_before =
      withoutCounters(service.handleLine(what_if));
  ASSERT_TRUE(parsed(what_if_before)["ok"].asBool());

  json::Value resp = parsed(service.handleLine(huge));
  EXPECT_FALSE(resp["ok"].asBool());
  EXPECT_NE(resp["error"].asString().find("non-finite"), std::string::npos)
      << resp["error"].asString();
  // A margin whose box overflows, and a non-finite margin, are rejected
  // the same way.
  EXPECT_FALSE(
      parsed(service.handleLine(R"({"op":"margin","value":1e10})"))["ok"]
          .asBool());
  json::Value inf_margin = json::Value::object();
  inf_margin["op"] = "margin";
  inf_margin["value"] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(service.handle(inf_margin)["ok"].asBool());

  EXPECT_EQ(withoutCounters(service.handleLine(state)), state_before);
  EXPECT_EQ(withoutCounters(service.handleLine(what_if)), what_if_before);
  // And the daemon still takes updates: scaling back down recovers.
  EXPECT_TRUE(
      parsed(service.handleLine(R"({"op":"demand","scale":1e-300})"))["ok"]
          .asBool());
}

TEST(TeService, ZeroDemandMatrixIsRejectedWithoutMutating) {
  // A scale that underflows every entry would leave no demand to route
  // and no later scale could recover it; the event is an error instead.
  const Graph g = topo::runningExample();
  TeService service(g, tm::gravityMatrix(g, 1.0), quickOptions());
  const std::string what_if = R"({"op":"what-if","links":[]})";
  const std::string what_if_before =
      withoutCounters(service.handleLine(what_if));

  json::Value resp =
      parsed(service.handleLine(R"({"op":"demand","scale":1e-320})"));
  EXPECT_FALSE(resp["ok"].asBool());
  EXPECT_NE(resp["error"].asString().find("zero demand"), std::string::npos)
      << resp["error"].asString();
  EXPECT_EQ(withoutCounters(service.handleLine(what_if)), what_if_before);
  EXPECT_TRUE(
      parsed(service.handleLine(R"({"op":"reoptimize"})"))["ok"].asBool());
}

TEST(TeService, DeeplyNestedLineIsAnErrorResponseNotDeath) {
  const Graph g = topo::runningExample();
  TeService service(g, tm::gravityMatrix(g, 1.0), quickOptions());
  json::Value resp = parsed(service.handleLine(std::string(100000, '[')));
  EXPECT_FALSE(resp["ok"].asBool());
  EXPECT_NE(resp["error"].asString().find("nesting"), std::string::npos)
      << resp["error"].asString();
  EXPECT_TRUE(parsed(service.handleLine(R"({"op":"state"})"))["ok"].asBool());
}

TEST(TeService, WhatIfMatchesTheFailureSweep) {
  // The daemon and the failure sweep share one post-failure evaluator; with
  // identical pool, margin, schemes and optimizer options, a what-if per
  // single link must agree with the sweep's verdict on that link. Ratios
  // agree to LP tolerance only: the OPTU warm chains differ (one resident
  // engine here, fixed-size chunks there).
  const Graph g = topo::runningExample();
  const tm::TrafficMatrix base = tm::gravityMatrix(g, 1.0);
  const ServeOptions sopt = quickOptions();
  TeService service(g, base, sopt);

  const failure::FailureEvalOptions fopt = sopt;  // incl. splitting.patience
  const failure::FailureEvaluator eval(g, core::augmentedDagsShared(g), base,
                                       fopt);
  const std::vector<failure::FailureScenario> failures =
      failure::singleLinkFailures(g);
  const failure::FailureSweepResult sweep = eval.evaluate(failures);
  ASSERT_EQ(sweep.outcomes.size(), failures.size());
  ASSERT_EQ(eval.schemes(), service.schemes());

  for (std::size_t i = 0; i < failures.size(); ++i) {
    const failure::FailureOutcome& want = sweep.outcomes[i];
    const Edge& e = g.edge(failures[i].links.front());
    json::Value link = json::Value::array();
    link.push_back(g.nodeName(e.src));
    link.push_back(g.nodeName(e.dst));
    json::Value links = json::Value::array();
    links.push_back(std::move(link));
    json::Value q = json::Value::object();
    q["op"] = "what-if";
    q["links"] = std::move(links);
    json::Value got = service.handle(q);
    ASSERT_TRUE(got["ok"].asBool()) << want.label;

    EXPECT_EQ(static_cast<int>(got["disconnected_pairs"].asNumber()),
              want.disconnected_pairs)
        << want.label;
    ASSERT_EQ(got["evaluated"].asBool(), want.evaluated) << want.label;
    if (!want.evaluated) continue;
    std::vector<std::string> unroutable;
    for (const json::Value& key : got["unroutable"].asArray()) {
      unroutable.push_back(key.asString());
    }
    std::vector<std::string> want_unroutable;
    for (std::size_t s = 0; s < eval.schemes().size(); ++s) {
      const std::string key = eval.schemes()[s]->key();
      if (!want.routable[s]) {
        want_unroutable.push_back(key);
        continue;
      }
      const double ratio = got["ratios"][key].asNumber();
      EXPECT_NEAR(ratio, want.ratio[s], 1e-9 * std::abs(want.ratio[s]))
          << want.label << " " << key;
    }
    EXPECT_EQ(unroutable, want_unroutable) << want.label;
  }
}

TEST(ServeTrace, GenerationIsSeededAndDeterministic) {
  const Graph g = topo::runningExample();
  const tm::TrafficMatrix base = tm::gravityMatrix(g, 1.0);
  TraceOptions opt;
  opt.events = 120;
  opt.seed = 7;
  const std::vector<std::string> t1 = generateTrace(g, base, opt);
  const std::vector<std::string> t2 = generateTrace(g, base, opt);
  ASSERT_EQ(t1.size(), 120u);
  EXPECT_EQ(t1, t2);
  opt.seed = 8;
  EXPECT_NE(generateTrace(g, base, opt), t1);

  // Every line is valid protocol input, and the mix covers every op.
  int what_if = 0, demand = 0, link = 0, margin = 0, reopt = 0;
  for (const std::string& line : t1) {
    const json::Value req = json::parse(line);
    const std::string op = req.stringOr("op", "");
    what_if += op == "what-if";
    demand += op == "demand";
    link += op == "link";
    margin += op == "margin";
    reopt += op == "reoptimize";
  }
  EXPECT_EQ(what_if + demand + link + margin + reopt, 120);
  EXPECT_GT(what_if, 0);
  EXPECT_GT(demand, 0);
  EXPECT_GT(link, 0);
  EXPECT_GT(margin, 0);
  EXPECT_GT(reopt, 0);
}

TEST(TeService, ScriptReplayMatchesLineByLineReplay) {
  // handleScript is handleLine over each line: a batch replay answers
  // byte for byte what the stdin daemon answers, what-if runs included.
  const Graph g = topo::makeZoo("Abilene");
  const tm::TrafficMatrix base = tm::gravityMatrix(g, 1.0);
  TraceOptions topt;
  topt.events = 60;
  topt.seed = 1;
  const std::vector<std::string> trace = generateTrace(g, base, topt);

  TeService daemon(g, base, quickOptions());
  std::vector<std::string> by_line;
  for (const std::string& line : trace) {
    by_line.push_back(daemon.handleLine(line));
  }
  TeService batch(g, base, quickOptions());
  const std::vector<std::string> by_script = batch.handleScript(trace);

  ASSERT_EQ(by_script.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(by_script[i], by_line[i]) << "event " << i + 1 << ": "
                                        << trace[i];
    // Every trace event produced a well-formed response; the generator's
    // state events never error (it mirrors the service's failed set).
    json::Value resp = json::parse(by_script[i]);
    EXPECT_TRUE(resp["ok"].asBool()) << by_script[i];
    EXPECT_EQ(resp["seq"].asNumber(), static_cast<double>(i + 1));
  }
}

TEST(TeService, StateEventAnswersDoNotDependOnWhatIfs) {
  // Every event starts each pool matrix from the state's own OPTU basis,
  // and a what-if discards the bases it updated, so dropping the what-if
  // lines from a trace leaves every state event's answer unchanged, byte
  // for byte apart from its seq.
  const Graph g = topo::makeZoo("Abilene");
  const tm::TrafficMatrix base = tm::gravityMatrix(g, 1.0);
  TraceOptions topt;
  topt.events = 120;
  topt.seed = 1;
  const std::vector<std::string> trace = generateTrace(g, base, topt);
  std::vector<std::string> state_events;
  for (const std::string& line : trace) {
    if (json::parse(line).stringOr("op", "") != "what-if") {
      state_events.push_back(line);
    }
  }
  ASSERT_LT(state_events.size(), trace.size());

  TeService mixed(g, base, quickOptions());
  TeService state_only(g, base, quickOptions());
  const std::vector<std::string> with_what_ifs = mixed.handleScript(trace);
  const std::vector<std::string> without =
      state_only.handleScript(state_events);
  std::size_t k = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (json::parse(trace[i]).stringOr("op", "") == "what-if") continue;
    ASSERT_LT(k, without.size());
    EXPECT_TRUE(json::parse(without[k])["ok"].asBool()) << without[k];
    EXPECT_EQ(withoutCounters(with_what_ifs[i]), withoutCounters(without[k]))
        << "event " << i + 1 << ": " << trace[i];
    ++k;
  }
  EXPECT_EQ(k, without.size());
}

TEST(TeService, OptuFloorsPruneWhatIfSolvesWithoutChangingRatios) {
  // A what-if's failed set contains the state's, so the state's OPTU
  // values are floors: matrices whose MxLU / floor bound cannot raise any
  // ratio go unsolved, and the ratios stay those of the full evaluation.
  const Graph g = topo::makeZoo("Abilene");
  const tm::TrafficMatrix base = tm::gravityMatrix(g, 1.0);
  const ServeOptions opt = quickOptions();
  const std::shared_ptr<const DagSet> dags = core::augmentedDagsShared(g);
  const std::vector<const te::Scheme*> schemes =
      te::SchemeRegistry::builtin().defaults();
  const tm::DemandBounds box = tm::marginBounds(base, opt.margin);
  const std::vector<tm::TrafficMatrix> pool = tm::cornerPool(box, opt.pool);
  const auto intact = failure::intactConfigs(g, dags, base, schemes,
                                             opt.coyote, box, pool);
  routing::OptuEngine engine(g, opt.coyote.lp);

  // The state: one failed link, evaluated on every matrix.
  const std::vector<EdgeId> links = failure::physicalLinks(g);
  const failure::FailureScenario state{"", {links[0]}};
  std::vector<lp::Basis> bases(pool.size());
  const failure::FailureOutcome at_state = failure::evaluateFailure(
      g, *dags, base, pool, schemes, intact, state, engine, &bases);
  ASSERT_TRUE(at_state.evaluated);

  const auto solved = [](const failure::FailureOutcome& ev) {
    int count = 0;
    for (const double v : ev.optu) count += v > 0.0;
    return count;
  };
  int evaluated = 0;
  int pruned_solves = 0;
  int full_solves = 0;
  for (std::size_t i = 1; i < links.size(); ++i) {
    const failure::FailureScenario what_if{"", {links[0], links[i]}};
    std::vector<lp::Basis> pruned_bases = bases;
    std::vector<lp::Basis> full_bases = bases;
    const failure::FailureOutcome pruned = failure::evaluateFailure(
        g, *dags, base, pool, schemes, intact, what_if, engine, &pruned_bases,
        &at_state.optu);
    const failure::FailureOutcome full = failure::evaluateFailure(
        g, *dags, base, pool, schemes, intact, what_if, engine, &full_bases);
    ASSERT_EQ(pruned.evaluated, full.evaluated);
    if (!full.evaluated) continue;
    ++evaluated;
    EXPECT_EQ(pruned.routable, full.routable);
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      if (!full.routable[s]) continue;
      EXPECT_NEAR(pruned.ratio[s], full.ratio[s], 1e-9 * full.ratio[s])
          << schemes[s]->key() << " on link " << i;
    }
    EXPECT_EQ(solved(full), static_cast<int>(pool.size()));
    EXPECT_LE(solved(pruned), solved(full)) << "link " << i;
    pruned_solves += solved(pruned);
    full_solves += solved(full);
  }
  EXPECT_GT(evaluated, 0);
  EXPECT_LT(pruned_solves, full_solves);
}

TEST(TeService, TinyDemandIsRejectedAndLeavesNoTrace) {
  // A scale that keeps the entries normal but drives a pool matrix's OPTU
  // to <= routing::kMinNormalization would leave the optimizer an empty
  // pool; the event is refused and the state (memo included) is kept.
  const Graph g = topo::runningExample();
  const tm::TrafficMatrix base = tm::gravityMatrix(g, 1.0);
  const std::string link_down =
      R"({"op":"link","link":["s1","s2"],"up":false})";
  const std::string margin = R"({"op":"margin","value":2.5})";

  TeService service(g, base, quickOptions());
  TeService reference(g, base, quickOptions());
  ASSERT_TRUE(parsed(service.handleLine(margin))["ok"].asBool());
  ASSERT_TRUE(parsed(reference.handleLine(margin))["ok"].asBool());

  json::Value resp =
      parsed(service.handleLine(R"({"op":"demand","scale":1e-300})"));
  EXPECT_FALSE(resp["ok"].asBool());
  EXPECT_NE(resp["error"].asString().find("demand too small"),
            std::string::npos)
      << resp["error"].asString();

  EXPECT_EQ(withoutCounters(service.handleLine(link_down)),
            withoutCounters(reference.handleLine(link_down)));
  EXPECT_TRUE(
      parsed(service.handleLine(R"({"op":"reoptimize"})"))["ok"].asBool());
}

TEST(TeService, WarmResidentEngineBeatsColdOnLinkFlaps) {
  const Graph g = topo::grid(3, 3);
  const tm::TrafficMatrix base = tm::gravityMatrix(g, 1.0);
  const std::vector<std::string> trace = linkFlapTrace(g, 8);
  ASSERT_EQ(trace.size(), 16u);

  const auto replay = [&](bool cold) {
    ServeOptions opt = quickOptions();
    opt.coyote.lp.cold = cold;
    TeService service(g, base, std::move(opt));
    const lp::StatsSnapshot before = lp::statsSnapshot();
    const std::vector<std::string> out = service.handleScript(trace);
    for (const std::string& line : out) {
      EXPECT_TRUE(json::parse(line)["ok"].asBool()) << line;
    }
    return lp::statsSnapshot() - before;
  };

  const lp::StatsSnapshot warm = replay(false);
  const lp::StatsSnapshot cold = replay(true);

  // Far fewer pivots: each flap re-enters the resident engine as a
  // bounds mutation on a warm basis (dual-simplex repaired). The warm
  // run may report more solve() calls -- the OPTU decomposition
  // pre-solve's block LPs count too (lp::SimplexOptions::cold disables
  // the pre-solve along with warm chaining) -- so the bar is on total
  // pivots, which include the block solves' work.
  EXPECT_GE(warm.solves, cold.solves);
  EXPECT_GE(cold.iterations, warm.iterations * 3 / 2)
      << "warm pivots " << warm.iterations << " vs cold " << cold.iterations;
}

}  // namespace
}  // namespace coyote::serve
