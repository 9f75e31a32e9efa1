#include "exp/runner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>

#include "core/local_search.hpp"
#include "core/splitting_optimizer.hpp"
#include "failure/evaluate.hpp"
#include "failure/scenario.hpp"
#include "fibbing/lie_synthesis.hpp"
#include "fibbing/ospf_model.hpp"
#include "hardness/gadgets.hpp"
#include "lp/stats.hpp"
#include "routing/ecmp.hpp"
#include "routing/propagation.hpp"
#include "routing/stretch.hpp"
#include "scheme/registry.hpp"
#include "serve/service.hpp"
#include "serve/trace.hpp"
#include "sim/fluid.hpp"
#include "topo/generator.hpp"
#include "topo/zoo.hpp"
#include "util/mem.hpp"
#include "util/percentile.hpp"
#include "util/require.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace coyote::exp {

namespace json = util::json;

namespace {

// --- Text output --------------------------------------------------------

[[gnu::format(printf, 1, 2)]] std::string formatted(const char* fmt, ...) {
  va_list args, sizing;
  va_start(args, fmt);
  va_copy(sizing, args);
  std::string out(std::vsnprintf(nullptr, 0, fmt, sizing), '\0');
  va_end(sizing);
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

/// One text-table column, printed from the JSON row member `key` ("a.b"
/// descends into the row's object "a"), left-aligned in `width`
/// characters plus a separating space. Numbers print with `precision`
/// decimals, strings as-is, bools as yes/no; a missing member prints
/// "n/a" (how failure rows mark unroutable schemes).
struct Column {
  std::string title;
  std::string key;
  int width = 8;
  int precision = 2;
  /// Bool row member that appends '+' to the cell when true (Table I
  /// marks its exact-adversary networks that way).
  const char* plus_if = nullptr;
};

std::string cellText(const Column& c, const json::Value& row) {
  const json::Value* v = &row;
  for (std::size_t start = 0; v != nullptr;) {
    const std::size_t dot = c.key.find('.', start);
    v = v->find(c.key.substr(start, dot - start));
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
  if (v == nullptr) return "n/a";
  std::string text;
  if (v->isString()) {
    text = v->asString();
  } else if (v->isBool()) {
    text = v->asBool() ? "yes" : "no";
  } else {
    text = formatted("%.*f", c.precision, v->asNumber());
  }
  if (c.plus_if != nullptr) {
    const json::Value* flag = row.find(c.plus_if);
    if (flag != nullptr && flag->asBool()) text += '+';
  }
  return text;
}

/// The leading columns followed by one column per scheme: display name as
/// title, scheme key as JSON key, wide enough for the name plus a space
/// and never narrower than the classic 8-character ratio column.
std::vector<Column> withSchemes(std::vector<Column> columns,
                                const std::vector<const te::Scheme*>& schemes) {
  for (const te::Scheme* s : schemes) {
    const int width =
        std::max(8, static_cast<int>(std::strlen(s->display())) + 2);
    columns.push_back({s->display(), s->key(), width, 2});
  }
  return columns;
}

// One execution of a scenario kind: its inputs, and the rows, summary
// members and verdict the kind's run function produces. The text stream
// comes from the same values: add() prints each table row from the JSON
// row it appends, note() prints the free-text `#` lines, and nothing is
// printed when `print` is off.
struct KindRun {
  KindRun(const Scenario& scenario, const RunOptions& options, bool print_on)
      : s(scenario), opt(options), print(print_on) {}

  const Scenario& s;
  const RunOptions& opt;
  bool print;
  json::Value rows = json::Value::array();
  /// Members merged into the document after `rows`.
  json::Value extra = json::Value::object();
  /// Members merged into the machine-dependent "timing" block (exempt
  /// from the bench_compare drift gate; kServe puts throughput and
  /// latency percentiles here, where they are regression-gated instead).
  json::Value timing_extra = json::Value::object();
  bool ok = true;

  [[gnu::format(printf, 2, 3)]] void note(const char* fmt, ...) const {
    if (!print) return;
    va_list args;
    va_start(args, fmt);
    std::vprintf(fmt, args);
    va_end(args);
    std::fflush(stdout);
  }

  /// Opens a text table: later add() calls print under these columns.
  void table(std::vector<Column> columns) {
    columns_ = std::move(columns);
    if (!print) return;
    for (const Column& c : columns_) {
      std::printf("%-*s ", c.width, c.title.c_str());
    }
    std::printf("\n");
  }

  /// Appends `row` to the rows and prints it under the open table (no
  /// table open: not printed).
  const json::Value& add(json::Value row) {
    rows.push_back(std::move(row));
    const json::Value& added = rows.asArray().back();
    if (print && !columns_.empty()) {
      for (const Column& c : columns_) {
        std::printf("%-*s ", c.width, cellText(c, added).c_str());
      }
      std::printf("\n");
      std::fflush(stdout);
    }
    return added;
  }

 private:
  std::vector<Column> columns_;
};

/// The scheme list a scheme-comparison scenario sweeps: the --schemes
/// selection, or the registry defaults (the paper's four). The CLI
/// validated the keys already; re-resolving here keeps library callers
/// honest (unknown keys throw, naming the key).
std::vector<const te::Scheme*> selectedSchemes(const RunOptions& opt) {
  return te::SchemeRegistry::builtin().resolve(opt.schemes);
}

json::Value schemeRowJson(const std::vector<const te::Scheme*>& schemes,
                          const SchemeRow& r) {
  json::Value row = json::Value::object();
  row["margin"] = r.margin;
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    row[schemes[i]->key()] = r.ratio[i];
  }
  // Solver-work telemetry; `lp_`-prefixed fields (the per-margin totals
  // and the per-scheme breakdown objects) are exempt from the
  // bench_compare drift gate (pivot counts are toolchain-sensitive).
  row["lp_solves"] = static_cast<double>(r.lp_solves);
  row["lp_pivots"] = static_cast<double>(r.lp_pivots);
  json::Value solves = json::Value::object();
  json::Value pivots = json::Value::object();
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    solves[schemes[i]->key()] = static_cast<double>(r.scheme_lp_solves[i]);
    pivots[schemes[i]->key()] = static_cast<double>(r.scheme_lp_pivots[i]);
  }
  row["lp_scheme_solves"] = std::move(solves);
  row["lp_scheme_pivots"] = std::move(pivots);
  return row;
}

// --- kSchemes (Figs. 6-8 and the zoo/synthetic extension grid) --------

void runSchemes(KindRun& r) {
  const Scenario& s = r.s;
  const Graph g = s.topology.build();
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix base = s.demand.build(g);
  const std::vector<const te::Scheme*> schemes = selectedSchemes(r.opt);

  SweepOptions sopt = s.sweep;
  sopt.exact_oracle = sopt.exact_oracle || r.opt.exact;
  if (r.opt.exact && s.exact_env_upgrades_eval) sopt.exact_eval = true;

  r.note("# %s, %s base matrix\n", s.topology.label().c_str(),
         s.demand.name());
  r.note("# ratios are worst-case link utilization relative to the\n"
         "# demands-aware optimum within the same augmented DAGs\n");
  r.table(withSchemes({{"margin", "margin", 8, 1}}, schemes));
  const NetworkSweep sweep(g, dags, base, sopt, schemes);
  for (const double margin : s.grid(r.opt.full)) {
    r.add(schemeRowJson(schemes, sweep.run(margin)));
  }
}

// --- kTable (Table I) -------------------------------------------------

void runTable(KindRun& r) {
  const Scenario& s = r.s;
  const std::vector<double>& margins = s.grid(r.opt.full);
  const std::vector<const te::Scheme*> schemes = selectedSchemes(r.opt);
  std::string grid;
  for (const double m : margins) grid += formatted(" %.1f", m);
  r.note("# Table I: gravity base model, margins%s\n", grid.c_str());
  r.note("# networks with <= %d nodes use the exact slave-LP adversary "
         "('+'); larger ones the corner pool\n",
         s.exact_node_limit);
  r.table(withSchemes(
      {{"network", "network", 14, 2, "exact"}, {"margin", "margin", 8, 1}},
      schemes));

  for (const std::string& name : s.networkList(r.opt.full)) {
    const Graph g = topo::makeZoo(name);
    const auto dags = core::augmentedDagsShared(g);
    const tm::TrafficMatrix base = s.demand.build(g);

    SweepOptions sopt = s.sweep;
    sopt.exact_eval =
        (s.exact_node_limit > 0 && g.numNodes() <= s.exact_node_limit) ||
        (r.opt.exact && s.exact_env_upgrades_eval);
    sopt.exact_oracle = sopt.exact_eval || r.opt.exact;

    const NetworkSweep sweep(g, dags, base, sopt, schemes);
    for (const double margin : margins) {
      json::Value row = schemeRowJson(schemes, sweep.run(margin));
      row["network"] = name;
      row["exact"] = sopt.exact_eval;
      r.add(std::move(row));
    }
  }
}

// --- kLocalSearch (Fig. 9) --------------------------------------------

void runLocalSearch(KindRun& r) {
  const Scenario& s = r.s;
  const Graph base_graph = s.topology.build();
  const tm::TrafficMatrix base = s.demand.build(base_graph);

  r.note("# %s, %s base matrix, local-search weights\n",
         s.topology.label().c_str(), s.demand.name());
  r.table({{"margin", "margin", 8, 1},
           {"ECMP", "ecmp", 8, 2},
           {"COYOTE-pk", "partial", 12, 2},
           {"moves", "moves", 8, 0},
           {"ECMP/pk", "ecmp_over_partial", 10, 2}});

  double gap_sum = 0.0;
  int gap_rows = 0;
  for (const double margin : s.grid(r.opt.full)) {
    const tm::DemandBounds box = tm::marginBounds(base, margin);

    core::LocalSearchOptions ls = s.local_search;
    if (r.opt.full) ls.max_moves_per_round = s.ls_full_moves;
    const core::LocalSearchResult found =
        core::localSearchWeights(base_graph, box, ls);

    Graph g = base_graph;
    for (EdgeId e = 0; e < g.numEdges(); ++e) g.setWeight(e, found.weights[e]);
    const auto dags = core::augmentedDagsShared(g);

    const lp::SimplexOptions& lp = s.sweep.coyote.lp;
    routing::PerformanceEvaluator pool(g, dags, lp);
    tm::PoolOptions popt;
    popt.source_hotspots = false;
    popt.random_corners = 6;
    pool.addPool(tm::cornerPool(box, popt));

    core::CoyoteOptions copt;
    copt.lp = lp;
    copt.splitting.iterations = 300;
    copt.oracle_rounds = 2;  // Abilene-scale: exact cutting planes are cheap
    const core::CoyoteResult pk_res =
        core::optimizeAgainstPool(g, pool, &box, copt);
    // Exact within-box worst case for both schemes (one slave LP per edge).
    const double ecmp =
        routing::findWorstCaseDemand(g, routing::ecmpConfig(g, dags), &box, lp)
            .ratio;
    const double pk =
        routing::findWorstCaseDemand(g, pk_res.routing, &box, lp).ratio;

    // Distance-from-optimum comparison; margin 1 rows are excluded (both
    // schemes sit at the optimum and the quotient degenerates).
    if (pk > 1.02) {
      gap_sum += (ecmp - 1.0) / (pk - 1.0);
      ++gap_rows;
    }

    json::Value row = json::Value::object();
    row["margin"] = margin;
    row["ecmp"] = ecmp;
    row["partial"] = pk;
    row["moves"] = found.accepted_moves;
    row["ecmp_over_partial"] = ecmp / pk;
    r.add(std::move(row));
  }
  if (gap_rows > 0) {
    const double avg_gap = 100.0 * gap_sum / gap_rows;
    r.note("# ECMP's average distance-from-optimum is %.0f%% of COYOTE's "
           "(paper: ~180%%)\n",
           avg_gap);
    r.extra["ecmp_gap_percent"] = avg_gap;
  }
}

// --- kQuantization (Fig. 10) ------------------------------------------

void runQuantization(KindRun& r) {
  const Scenario& s = r.s;
  const Graph g = s.topology.build();
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix base = s.demand.build(g);

  r.note("# %s, %s base matrix: ECMP vs quantized COYOTE\n",
         s.topology.label().c_str(), s.demand.name());
  std::vector<Column> columns = {{"margin", "margin", 8, 1},
                                 {"ECMP", "ecmp", 8, 2}};
  for (const int k : s.quantize_multiplicities) {
    const std::string ks = std::to_string(k);
    columns.push_back({"COYOTE-" + ks + "NH", "quantized." + ks, 12, 2});
  }
  columns.push_back({"COYOTE-ideal", "ideal", 12, 2});
  r.table(std::move(columns));

  for (const double margin : s.grid(r.opt.full)) {
    const tm::DemandBounds box = tm::marginBounds(base, margin);
    routing::PerformanceEvaluator pool(g, dags, s.sweep.coyote.lp);
    pool.addPool(tm::cornerPool(box, s.sweep.pool));

    const double ecmp = pool.ratioFor(routing::ecmpConfig(g, dags));
    const core::CoyoteResult ideal =
        core::optimizeAgainstPool(g, pool, &box, s.sweep.coyote);

    json::Value row = json::Value::object();
    row["margin"] = margin;
    row["ecmp"] = ecmp;
    json::Value quantized = json::Value::object();
    // k virtual links per interface allow multiplicity k+1 per next-hop.
    for (const int k : s.quantize_multiplicities) {
      quantized[std::to_string(k)] =
          pool.ratioFor(fib::quantizeConfig(g, ideal.routing, k + 1));
    }
    row["quantized"] = std::move(quantized);
    row["ideal"] = ideal.pool_ratio;
    r.add(std::move(row));
  }
}

// --- kStretch (Fig. 11) -----------------------------------------------

void runStretch(KindRun& r) {
  const Scenario& s = r.s;
  r.note("# average path stretch vs ECMP, margin %.1f\n", s.fixed_margin);
  r.table({{"network", "network", 14},
           {"COYOTE-obl", "oblivious", 16, 3},
           {"COYOTE-pk", "partial", 18, 3}});

  for (const std::string& name : s.networkList(r.opt.full)) {
    const Graph g = topo::makeZoo(name);
    const auto dags = core::augmentedDagsShared(g);
    const tm::TrafficMatrix base = s.demand.build(g);
    const tm::DemandBounds box = tm::marginBounds(base, s.fixed_margin);

    const routing::RoutingConfig ecmp = routing::ecmpConfig(g, dags);
    const core::CoyoteOptions& copt = s.sweep.coyote;
    const core::CoyoteResult obl = core::coyoteOblivious(g, dags, copt);
    const core::CoyoteResult pk = core::coyoteWithBounds(g, dags, box, copt);

    json::Value row = json::Value::object();
    row["network"] = name;
    row["oblivious"] = routing::averageStretch(g, obl.routing, ecmp);
    row["partial"] = routing::averageStretch(g, pk.routing, ecmp);
    r.add(std::move(row));
  }
}

// --- kPrototype (Fig. 12) ---------------------------------------------

struct PrototypeSchedule {
  NodeId s1, s2;
  void install(sim::FluidNetwork& net) const {
    net.addFlow({s2, 1, 2.0, 0.0, 15.0});   // scenario 1: (0, 2)
    net.addFlow({s1, 0, 1.0, 15.0, 30.0});  // scenario 2: (1, 1)
    net.addFlow({s2, 1, 1.0, 15.0, 30.0});
    net.addFlow({s1, 0, 2.0, 30.0, 45.0});  // scenario 3: (2, 0)
  }
};

void prototypeReport(KindRun& r, const char* scheme,
                     const std::vector<sim::StepStats>& stats) {
  json::Value drops = json::Value::array();
  double sent = 0.0, del = 0.0;
  for (const auto& st : stats) {
    drops.push_back(100.0 * st.dropRate());
    sent += st.sent;
    del += st.delivered;
  }
  json::Value row = json::Value::object();
  row["scheme"] = scheme;
  row["drop_percent_per_second"] = std::move(drops);
  row["sent_mb"] = sent;
  row["dropped_percent"] = 100.0 * (1.0 - del / sent);
  const json::Value& added = r.add(std::move(row));

  std::string per_second;
  for (const json::Value& d :
       added.find("drop_percent_per_second")->asArray()) {
    per_second += formatted(" %3.0f", d.asNumber());
  }
  r.note("%-8s drop%%/s:%s  | total sent %.0f Mb, dropped %.0f%%\n", scheme,
         per_second.c_str(), added.numberOr("sent_mb", 0.0),
         added.numberOr("dropped_percent", 0.0));
}

void runPrototype(KindRun& r) {
  const Graph g = topo::prototypeTriangle();
  const NodeId s1 = *g.findNode("s1");
  const NodeId s2 = *g.findNode("s2");
  const NodeId t = *g.findNode("t");
  const EdgeId s1t = *g.findEdge(s1, t);
  const EdgeId s2t = *g.findEdge(s2, t);
  const EdgeId s1s2 = *g.findEdge(s1, s2);
  const EdgeId s2s1 = *g.findEdge(s2, s1);
  const PrototypeSchedule sched{s1, s2};

  r.note("# Fig. 12: 1 Mbps links; 3 x 15 s scenarios "
         "(0,2) -> (1,1) -> (2,0) Mbps; 1 s bins\n");

  {  // TE1: both sources route directly (single shared DAG).
    sim::FluidNetwork net(g);
    for (const sim::PrefixId p : {0, 1}) {
      net.setPrefixOwner(p, t);
      net.setForwarding(p, s1, {{s1t, 1.0}});
      net.setForwarding(p, s2, {{s2t, 1.0}});
    }
    sched.install(net);
    prototypeReport(r, "TE1", net.run(45.0, 1.0));
  }
  {  // TE2: s1 splits via s2; s2 direct (still one DAG for both prefixes).
    sim::FluidNetwork net(g);
    for (const sim::PrefixId p : {0, 1}) {
      net.setPrefixOwner(p, t);
      net.setForwarding(p, s1, {{s1t, 0.5}, {s1s2, 0.5}});
      net.setForwarding(p, s2, {{s2t, 1.0}});
    }
    sched.install(net);
    prototypeReport(r, "TE2", net.run(45.0, 1.0));
  }
  {  // COYOTE: per-prefix DAGs (t1 split at s1, t2 split at s2).
    sim::FluidNetwork net(g);
    net.setPrefixOwner(0, t);
    net.setPrefixOwner(1, t);
    net.setForwarding(0, s1, {{s1t, 0.5}, {s1s2, 0.5}});
    net.setForwarding(0, s2, {{s2t, 1.0}});
    net.setForwarding(1, s2, {{s2t, 0.5}, {s2s1, 0.5}});
    net.setForwarding(1, s1, {{s1t, 1.0}});
    sched.install(net);
    prototypeReport(r, "COYOTE", net.run(45.0, 1.0));
  }

  // The COYOTE forwarding above is exactly what the lie-synthesis layer
  // realizes on unmodified OSPF/ECMP routers: verify it.
  fib::OspfModel model(g);
  model.advertisePrefix(0, t);
  model.advertisePrefix(1, t);
  const auto mkDags = [&](bool split_at_s1) {
    DagSet ds;
    for (NodeId d = 0; d < g.numNodes(); ++d) {
      std::vector<EdgeId> edges;
      if (d == t) {
        edges = split_at_s1 ? std::vector<EdgeId>{s1t, s2t, s1s2}
                            : std::vector<EdgeId>{s1t, s2t, s2s1};
      }
      ds.emplace_back(g, d, std::move(edges));
    }
    return std::make_shared<const DagSet>(std::move(ds));
  };
  auto cfg1 = routing::RoutingConfig(g, mkDags(true));
  cfg1.setRatio(t, s1t, 0.5);
  cfg1.setRatio(t, s1s2, 0.5);
  cfg1.setRatio(t, s2t, 1.0);
  auto cfg2 = routing::RoutingConfig(g, mkDags(false));
  cfg2.setRatio(t, s2t, 0.5);
  cfg2.setRatio(t, s2s1, 0.5);
  cfg2.setRatio(t, s1t, 1.0);
  const fib::LiePlan plan1 = fib::synthesizeLies(g, cfg1, t, 0, 4);
  const fib::LiePlan plan2 = fib::synthesizeLies(g, cfg2, t, 1, 4);
  fib::applyPlan(model, plan1);
  fib::applyPlan(model, plan2);
  const bool ok = fib::verifyRealization(model, cfg1, t, 0, 4) &&
                  fib::verifyRealization(model, cfg2, t, 1, 4) &&
                  model.forwardingIsLoopFree(0) &&
                  model.forwardingIsLoopFree(1);
  r.note("# OSPF lies realizing COYOTE's per-prefix DAGs: %d fake nodes, "
         "verified: %s\n",
         model.fakeNodeCount(), ok ? "yes" : "NO");
  r.extra["fake_nodes"] = model.fakeNodeCount();
  r.extra["verified"] = ok;
  r.ok = ok;
}

// --- kDagAug ----------------------------------------------------------

void runDagAug(KindRun& r) {
  const Scenario& s = r.s;
  r.note("# COYOTE-pk ratio, margin %.1f: shortest-path DAGs vs augmented "
         "DAGs\n",
         s.fixed_margin);
  r.table({{"network", "network", 14},
           {"SP-DAGs", "sp_dags", 10, 2},
           {"augmented", "augmented", 10, 2},
           {"ECMP", "ecmp", 10, 2}});

  for (const std::string& name : s.networkList(r.opt.full)) {
    const Graph g = topo::makeZoo(name);
    const auto aug = core::augmentedDagsShared(g);
    const auto sp =
        std::make_shared<const DagSet>(routing::shortestPathDags(g));
    const tm::TrafficMatrix base = s.demand.build(g);
    const tm::DemandBounds box = tm::marginBounds(base, s.fixed_margin);

    const tm::PoolOptions& popt = s.sweep.pool;
    const core::CoyoteOptions& copt = s.sweep.coyote;

    // Shared evaluation pool (normalized within the augmented DAGs).
    routing::PerformanceEvaluator eval(g, aug, copt.lp);
    eval.addPool(tm::cornerPool(box, popt));

    // COYOTE over shortest-path DAGs only.
    routing::PerformanceEvaluator sp_pool(g, sp, copt.lp);
    sp_pool.addPool(tm::cornerPool(box, popt));
    const auto sp_cfg = core::optimizeAgainstPool(g, sp_pool, &box, copt);

    // COYOTE over augmented DAGs.
    routing::PerformanceEvaluator aug_pool(g, aug, copt.lp);
    aug_pool.addPool(tm::cornerPool(box, popt));
    const auto aug_cfg = core::optimizeAgainstPool(g, aug_pool, &box, copt);

    // Evaluate all on the shared pool. The SP-DAG config is valid over the
    // augmented DAGs too (SP edges are a subset).
    routing::RoutingConfig sp_on_aug(g, aug);
    for (NodeId t = 0; t < g.numNodes(); ++t) {
      for (const EdgeId e : (*sp)[t].edges()) {
        sp_on_aug.setRatio(t, e, sp_cfg.routing.ratio(t, e));
      }
    }
    sp_on_aug.normalize(g);

    json::Value row = json::Value::object();
    row["network"] = name;
    row["sp_dags"] = eval.ratioFor(sp_on_aug);
    row["augmented"] = eval.ratioFor(aug_cfg.routing);
    row["ecmp"] = eval.ratioFor(routing::ecmpConfig(g, aug));
    r.add(std::move(row));
  }
}

// --- kOptimizer -------------------------------------------------------

double optimizerRunOnce(const Graph& g,
                        const routing::PerformanceEvaluator& eval,
                        core::SplitMethod method, int iterations) {
  core::SplittingOptions opt;
  opt.method = method;
  opt.iterations = iterations;
  const auto cfg = core::optimizeSplitting(
      g, eval, routing::RoutingConfig::uniform(g, eval.dagsPtr()), opt);
  return eval.ratioFor(cfg);
}

void runOptimizer(KindRun& r) {
  const lp::SimplexOptions& lp = r.s.sweep.coyote.lp;
  r.note("# inner-optimizer ablation: pool ratio vs iterations\n");
  r.table({{"instance", "instance", 16},
           {"iters", "iterations", 8, 0},
           {"GP-condens.", "gp_condensation", 14, 4},
           {"mirror-desc.", "mirror_descent", 14, 4}});

  const auto record = [&](const char* instance, const Graph& g,
                          const routing::PerformanceEvaluator& eval,
                          int iters) {
    json::Value row = json::Value::object();
    row["instance"] = instance;
    row["iterations"] = iters;
    row["gp_condensation"] = optimizerRunOnce(
        g, eval, core::SplitMethod::kGpCondensation, iters);
    row["mirror_descent"] = optimizerRunOnce(
        g, eval, core::SplitMethod::kMirrorDescent, iters);
    r.add(std::move(row));
  };

  {  // Running example: optimum is sqrt(5)-1 ~ 1.2361.
    const Graph g = topo::runningExample();
    const auto dags = core::augmentedDagsShared(g);
    routing::PerformanceEvaluator eval(g, dags, lp);
    tm::TrafficMatrix d1(g.numNodes()), d2(g.numNodes());
    d1.set(*g.findNode("s1"), *g.findNode("t"), 2.0);
    d2.set(*g.findNode("s2"), *g.findNode("t"), 2.0);
    eval.addMatrix(d1);
    eval.addMatrix(d2);
    for (const int iters : {50, 200, 800, 2000}) {
      record("running-example", g, eval, iters);
    }
    r.extra["closed_form_optimum"] = std::sqrt(5.0) - 1.0;
    r.note("%-16s %-8s %-14.4f (closed form)\n", "running-example",
           "optimal", r.extra.numberOr("closed_form_optimum", 0.0));
  }
  {  // Abilene, margin-2 corner pool.
    const Graph g = topo::makeZoo("Abilene");
    const auto dags = core::augmentedDagsShared(g);
    routing::PerformanceEvaluator eval(g, dags, lp);
    tm::PoolOptions popt;
    popt.source_hotspots = false;
    popt.random_corners = 4;
    eval.addPool(tm::cornerPool(
        tm::marginBounds(tm::gravityMatrix(g, 1.0), 2.0), popt));
    for (const int iters : {50, 200, 800}) {
      record("abilene-m2", g, eval, iters);
    }
  }
}

// --- kHardness --------------------------------------------------------

void runHardness(KindRun& r) {
  const lp::SimplexOptions& lp = r.s.sweep.coyote.lp;
  r.note("# BIPARTITION reduction (Theorem 1 / Lemmas 2-3), 4/3 = 1.3333\n");
  r.table({{"integer set", "integer_set", 16},
           {"positive?", "positive", 12},
           {"best oblivious ratio", "best_oblivious_ratio", 22, 4}});
  struct Case {
    std::vector<double> w;
    bool positive;
  };
  const std::vector<Case> cases = {
      {{1, 1}, true},   {{1, 1, 2}, true},  {{2, 3, 5}, true},
      {{1, 3}, false},  {{1, 1, 3}, false}, {{2, 3, 6}, false},
  };
  for (const auto& c : cases) {
    const hardness::BipartitionInstance inst =
        hardness::makeBipartitionInstance(c.w);
    const auto [d1, d2] = hardness::extremeDemands(inst);
    double best = std::numeric_limits<double>::infinity();
    const int k = static_cast<int>(c.w.size());
    for (int mask = 0; mask < (1 << k); ++mask) {
      std::vector<bool> orient(k);
      for (int i = 0; i < k; ++i) orient[i] = (mask >> i) & 1;
      const auto dags = hardness::bipartitionDags(inst, orient);
      routing::PerformanceEvaluator eval(
          inst.graph, dags, lp, routing::Normalization::kUnrestricted);
      eval.addMatrix(d1);
      eval.addMatrix(d2);
      core::SplittingOptions sopt;
      sopt.iterations = 600;
      const auto cfg = core::optimizeSplitting(
          inst.graph, eval,
          routing::RoutingConfig::uniform(inst.graph, dags), sopt);
      best = std::min(best, eval.ratioFor(cfg));
    }
    std::string wstr;
    for (const double wi : c.w) {
      wstr += std::to_string(static_cast<int>(wi)) + " ";
    }
    json::Value row = json::Value::object();
    row["kind"] = "bipartition";
    row["integer_set"] = wstr;
    row["positive"] = c.positive;
    row["best_oblivious_ratio"] = best;
    r.add(std::move(row));
  }

  r.note("\n# Omega(|V|) gap (Theorem 4): path instance\n");
  r.table({{"n", "n", 6, 0}, {"oblivious ratio (= n)", "oblivious_ratio", 24}});
  for (const int n : {2, 4, 8, 16, 32}) {
    const hardness::PathInstance inst = hardness::makePathInstance(n);
    const auto direct = hardness::allDirectRouting(inst);
    double worst = 0.0;
    for (const auto& d : hardness::pathDemands(inst)) {
      const double mxlu = routing::maxLinkUtilization(inst.graph, direct, d);
      const double optu =
          routing::optimalUtilizationUnrestricted(inst.graph, d, lp);
      worst = std::max(worst, mxlu / optu);
    }
    json::Value row = json::Value::object();
    row["kind"] = "path-gap";
    row["n"] = n;
    row["oblivious_ratio"] = worst;
    r.add(std::move(row));
  }
}

// --- kFailure (src/failure/: post-failure four-scheme sweep) ----------

void runFailure(KindRun& r) {
  const Scenario& s = r.s;
  const Graph g = s.topology.build();
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix base = s.demand.build(g);
  const std::vector<const te::Scheme*> schemes = selectedSchemes(r.opt);

  std::vector<failure::FailureScenario> fails;
  switch (s.failure.model) {
    case FailureSpec::Model::kSingleLink:
      fails = failure::singleLinkFailures(g);
      break;
    case FailureSpec::Model::kDoubleLink:
      fails = failure::sampledDoubleLinkFailures(g, s.failure.double_samples,
                                                 s.failure.seed);
      break;
    case FailureSpec::Model::kSrlg:
      fails = failure::srlgFailures(g, failure::derivedSrlgs(g));
      break;
  }

  failure::FailureEvalOptions fopt;
  fopt.margin = s.fixed_margin;
  fopt.coyote = s.sweep.coyote;
  fopt.schemes = schemes;
  const failure::FailureEvaluator eval(g, dags, base, fopt);
  const failure::FailureSweepResult res = eval.evaluate(fails);

  r.note("# %s, %s base matrix -- %s failure sweep, margin %.1f\n",
         s.topology.label().c_str(), s.demand.name(), s.failure.name(),
         s.fixed_margin);
  r.note("# post-failure ratios: worst over the corner pool, normalized by "
         "the unrestricted optimum on the surviving network\n");
  r.table(withSchemes({{"failed", "label", 24}}, schemes));

  for (const failure::FailureOutcome& o : res.outcomes) {
    json::Value row = json::Value::object();
    row["label"] = o.label;
    row["evaluated"] = o.evaluated;
    row["disconnected_pairs"] = o.disconnected_pairs;
    if (!o.evaluated) {
      r.note("%-24s (disconnects %d demand pair(s))\n", o.label.c_str(),
             o.disconnected_pairs);
      r.rows.push_back(std::move(row));
      continue;
    }
    json::Value unroutable = json::Value::array();
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      if (o.routable[i]) {
        row[schemes[i]->key()] = o.ratio[i];
      } else {
        unroutable.push_back(schemes[i]->key());
      }
    }
    row["unroutable"] = std::move(unroutable);
    r.add(std::move(row));
  }

  json::Value block = json::Value::object();
  block["model"] = s.failure.name();
  block["margin"] = s.fixed_margin;
  block["scenarios"] = static_cast<int>(res.outcomes.size());
  block["evaluated"] = res.evaluated;
  block["disconnecting"] = res.disconnecting;
  block["disconnected_pairs"] = res.disconnected_pairs;
  block["pool_size"] = eval.poolSize();
  json::Value per_scheme = json::Value::object();
  std::string stats;
  for (const auto& [key, st] : res.schemes) {
    json::Value v = json::Value::object();
    v["worst"] = st.worst;
    v["median"] = st.median;
    v["p95"] = st.p95;
    v["evaluated"] = st.evaluated;
    v["unroutable"] = st.unroutable;
    per_scheme[key] = std::move(v);
    stats += formatted("  %s %.2f/%.2f/%.2f", key.c_str(), st.worst, st.median,
                    st.p95);
  }
  block["schemes"] = std::move(per_scheme);
  r.extra["failures"] = std::move(block);

  r.note("# failures: %zu total, %d evaluated, %d disconnecting "
         "(%d demand pair(s) cut)\n",
         res.outcomes.size(), res.evaluated, res.disconnecting,
         res.disconnected_pairs);
  r.note("# worst/median/p95:%s\n", stats.c_str());
}

// --- kServe (online TE daemon trace replay, src/serve/) ---------------

void runServe(KindRun& r) {
  const Scenario& s = r.s;
  const Graph g = s.topology.build();
  const tm::TrafficMatrix base = s.demand.build(g);

  serve::TraceOptions topt;
  topt.events = s.serve_events;
  topt.seed = s.serve_seed;
  const std::vector<std::string> trace = serve::generateTrace(g, base, topt);

  serve::ServeOptions sopt;
  sopt.margin = s.fixed_margin;
  sopt.pool = s.sweep.pool;
  // Adopt the scenario's sweep options but keep the service's own
  // early-stop default: sweeps leave patience off (fixed budgets keep
  // their outputs comparable), while the daemon's warm reoptimize relies
  // on it to bank the saved iterations.
  const int serve_patience = sopt.coyote.splitting.patience;
  sopt.coyote = s.sweep.coyote;
  if (sopt.coyote.splitting.patience == 0) {
    sopt.coyote.splitting.patience = serve_patience;
  }
  sopt.schemes = selectedSchemes(r.opt);
  serve::TeService service(g, base, sopt);

  r.note("# %s, %s base matrix -- online TE daemon replay: %zu events, "
         "margin %.1f, pool %d\n",
         s.topology.label().c_str(), s.demand.name(), trace.size(),
         s.fixed_margin, service.poolSize());

  const auto opOf = [](const std::string& line) -> std::string {
    try {
      return json::parse(line).stringOr("op", "");
    } catch (const std::exception&) {
      return "";
    }
  };

  // Replay one event at a time through handleLine, the daemon's request
  // path, timing each event on its own.
  std::vector<double> latency_ms;
  latency_ms.reserve(trace.size());
  std::vector<std::string> responses;
  responses.reserve(trace.size());
  const util::Timer replay_timer;
  for (const std::string& line : trace) {
    const util::Timer timer;
    responses.push_back(service.handleLine(line));
    latency_ms.push_back(1000.0 * timer.elapsedSeconds());
  }
  const double replay_seconds = replay_timer.elapsedSeconds();

  // Per-op event counts (deterministic for a trace seed, so the rows are
  // drift-gated) and the error total (any ok:false response fails the
  // scenario: the generator only emits well-formed requests).
  std::string events;
  for (const char* op :
       {"state", "demand", "link", "margin", "what-if", "reoptimize"}) {
    const int count = static_cast<int>(std::count_if(
        trace.begin(), trace.end(),
        [&](const std::string& line) { return opOf(line) == op; }));
    json::Value row = json::Value::object();
    row["op"] = op;
    row["events"] = count;
    r.add(std::move(row));
    events += formatted(" %s %d", op, count);
  }
  int errors = 0;
  for (const std::string& line : responses) {
    try {
      const json::Value resp = json::parse(line);
      const json::Value* ok = resp.find("ok");
      if (ok == nullptr || !ok->isBool() || !ok->asBool()) ++errors;
    } catch (const std::exception&) {
      ++errors;
    }
  }
  r.ok = errors == 0;

  // Post-replay ground truth: a no-failure what-if snapshots the final
  // service state (deterministic; drift-gated like any scheme ratio).
  json::Value probe = json::Value::object();
  probe["op"] = "what-if";
  probe["links"] = json::Value::array();
  const json::Value final_state = service.handle(probe);

  json::Value block = json::Value::object();
  block["events"] = static_cast<int>(trace.size());
  block["trace_seed"] = static_cast<double>(s.serve_seed);
  block["pool_size"] = service.poolSize();
  block["errors"] = errors;
  block["final_margin"] = service.margin();
  block["final_failed_links"] =
      static_cast<int>(service.failedLinks().size());
  // Splitting-optimizer budget the warm-seeded reoptimize events never
  // spent (previous-ratio seed + patience early stop; 0 when the trace
  // has no reoptimize events).
  block["reoptimize_saved_iters"] =
      static_cast<double>(service.reoptimizeSavedIters());
  for (const char* key : {"disconnected_pairs", "evaluated", "ratios",
                          "unroutable", "failed"}) {
    if (const json::Value* v = final_state.find(key)) {
      block[std::string("final_") + key] = *v;
    }
  }

  json::Value& timing = r.timing_extra;
  timing["replay_seconds"] = replay_seconds;
  timing["events_per_second"] =
      replay_seconds > 0.0 ? static_cast<double>(trace.size()) / replay_seconds
                           : 0.0;
  timing["event_p50_ms"] = util::nearestRank(latency_ms, 0.50);
  timing["event_p99_ms"] = util::nearestRank(latency_ms, 0.99);

  r.note("# events:%s  (errors %d)\n", events.c_str(), errors);
  r.note("# throughput: %.1f events/s, latency p50 %.2f ms, p99 %.2f ms\n",
         timing.numberOr("events_per_second", 0.0),
         timing.numberOr("event_p50_ms", 0.0),
         timing.numberOr("event_p99_ms", 0.0));
  r.note("# reoptimize: %.0f splitting iterations saved by warm starts\n",
         block.numberOr("reoptimize_saved_iters", 0.0));
  if (const json::Value* ratios = block.find("final_ratios")) {
    std::string line;
    for (const auto& [key, v] : ratios->asObject()) {
      line += formatted("  %s %.2f", key.c_str(), v.asNumber());
    }
    r.note("# final ratios:%s\n", line.c_str());
  }
  r.extra["serve"] = std::move(block);
}

// --- kScaling (structured-generator size ladders) ---------------------

void runScaling(KindRun& r) {
  const Scenario& s = r.s;
  const std::vector<const te::Scheme*> schemes = selectedSchemes(r.opt);
  r.note("# scaling curve: %zu rung(s), %s base model, margin %.1f\n",
         s.ladder.size(), s.demand.name(), s.fixed_margin);
  r.table(withSchemes({{"rung", "rung", 18},
                       {"nodes", "nodes", 7, 0},
                       {"edges", "edges", 7, 0}},
                      schemes));

  // Per-rung wall-clock goes under "timing" (machine-dependent, exempt
  // from the drift gate); the rows keep only deterministic fields plus
  // the lp_* / mem_* telemetry the gate already exempts.
  json::Value rung_seconds = json::Value::array();
  for (const TopologySpec& spec : s.ladder) {
    const util::Timer rung_timer;
    const Graph g = spec.build();
    const auto dags = core::augmentedDagsShared(g);
    const tm::TrafficMatrix base = s.demand.build(g);
    const NetworkSweep sweep(g, dags, base, s.sweep, schemes);
    json::Value row = schemeRowJson(schemes, sweep.run(s.fixed_margin));
    const double seconds = rung_timer.elapsedSeconds();

    row["rung"] = spec.label();
    row["nodes"] = g.numNodes();
    row["edges"] = g.numEdges();
    row["mem_peak_rss_mb"] = util::peakRssMb();
    const json::Value& added = r.add(std::move(row));
    r.note("#   %s: %.2fs, peak RSS %.1f MiB\n", spec.label().c_str(),
           seconds, added.numberOr("mem_peak_rss_mb", 0.0));

    json::Value t = json::Value::object();
    t["rung"] = spec.label();
    t["seconds"] = seconds;
    rung_seconds.push_back(std::move(t));
  }
  r.timing_extra["rungs"] = std::move(rung_seconds);
}

// --- The kind table ---------------------------------------------------

/// Top-level BENCH members a kind records about what it swept (run
/// metadata, like full/exact: it names the selection, the rows carry the
/// values). Emitted in this order.
enum Meta : unsigned {
  kSchemeList = 1u << 0,    ///< "schemes": the swept scheme keys
  kNetwork = 1u << 1,       ///< "network": the topology label
  kNetworkList = 1u << 2,   ///< "networks": the swept Zoo names
  kLadder = 1u << 3,        ///< "ladder": the rung labels
  kDemandModel = 1u << 4,   ///< "demand_model"
  kFailureModel = 1u << 5,  ///< "failure_model"
  kMargin = 1u << 6,        ///< "margin": the fixed margin
};

struct KindInfo {
  ScenarioKind kind;
  const char* name;
  void (*run)(KindRun&);
  unsigned meta;
};

constexpr KindInfo kKinds[] = {
    {ScenarioKind::kSchemes, "schemes", runSchemes,
     kSchemeList | kNetwork | kDemandModel},
    {ScenarioKind::kTable, "table", runTable,
     kSchemeList | kNetworkList | kDemandModel},
    {ScenarioKind::kLocalSearch, "local-search", runLocalSearch,
     kNetwork | kDemandModel},
    {ScenarioKind::kQuantization, "quantization", runQuantization,
     kNetwork | kDemandModel},
    {ScenarioKind::kStretch, "stretch", runStretch,
     kNetworkList | kDemandModel},
    {ScenarioKind::kPrototype, "prototype", runPrototype, 0},
    {ScenarioKind::kDagAug, "dag-augmentation", runDagAug,
     kNetworkList | kDemandModel},
    {ScenarioKind::kOptimizer, "optimizer", runOptimizer, 0},
    {ScenarioKind::kHardness, "hardness", runHardness, 0},
    {ScenarioKind::kFailure, "failure", runFailure,
     kSchemeList | kNetwork | kDemandModel | kFailureModel},
    {ScenarioKind::kServe, "serve", runServe,
     kSchemeList | kNetwork | kDemandModel},
    {ScenarioKind::kScaling, "scaling", runScaling,
     kSchemeList | kLadder | kDemandModel | kMargin},
};

const KindInfo* findKind(ScenarioKind kind) {
  for (const KindInfo& k : kKinds) {
    if (k.kind == kind) return &k;
  }
  return nullptr;
}

void addMetadata(json::Value& doc, const Scenario& s, const RunOptions& opt,
                 unsigned meta) {
  const auto strings = [](const auto& items, const auto& text) {
    json::Value out = json::Value::array();
    for (const auto& item : items) out.push_back(text(item));
    return out;
  };
  if (meta & kSchemeList) {
    doc["schemes"] = strings(selectedSchemes(opt), [](const te::Scheme* sch) {
      return std::string(sch->key());
    });
  }
  if (meta & kNetwork) doc["network"] = s.topology.label();
  if (meta & kNetworkList) {
    doc["networks"] = strings(s.networkList(opt.full),
                              [](const std::string& n) { return n; });
  }
  if (meta & kLadder) {
    doc["ladder"] = strings(
        s.ladder, [](const TopologySpec& spec) { return spec.label(); });
  }
  if (meta & kDemandModel) doc["demand_model"] = s.demand.name();
  if (meta & kFailureModel) doc["failure_model"] = s.failure.name();
  if (meta & kMargin) doc["margin"] = s.fixed_margin;
}

}  // namespace

const char* kindName(ScenarioKind kind) {
  const KindInfo* info = findKind(kind);
  return info != nullptr ? info->name : "unknown";
}

double ScenarioResult::minSeconds() const {
  double m = std::numeric_limits<double>::infinity();
  for (const double s : seconds) m = std::min(m, s);
  return seconds.empty() ? 0.0 : m;
}

double ScenarioResult::medianSeconds() const { return util::median(seconds); }

std::string gitDescribe() {
  std::string out;
#if !defined(_WIN32)
  if (FILE* pipe = ::popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
    ::pclose(pipe);
  }
#endif
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

ScenarioResult ExperimentRunner::run(const Scenario& scenario) const {
  const KindInfo* info = findKind(scenario.kind);
  require(info != nullptr, "unknown scenario kind");
  // The run's cold setting reaches every LP through the scenario's
  // CoyoteOptions::lp: the sweeps, failure and serve kinds read it there,
  // and the direct evaluator/oracle calls pass s.sweep.coyote.lp.
  Scenario s = scenario;
  s.sweep.coyote.lp.cold = opt_.lp_cold;

  ScenarioResult result;
  result.id = s.id;
  const int total = std::max(1, opt_.repeat) + std::max(0, opt_.warmup);
  const int warmup = std::max(0, opt_.warmup);
  const lp::StatsSnapshot lp_start = lp::statsSnapshot();
  lp::StatsSnapshot lp_delta;   // last repetition (all reps do equal work)
  std::optional<KindRun> output;
  for (int rep = 0; rep < total; ++rep) {
    // Deterministic results: print during the first execution only.
    output.emplace(s, opt_, opt_.print && rep == 0);
    const lp::StatsSnapshot lp_before = lp::statsSnapshot();
    const util::Timer timer;
    info->run(*output);
    const double elapsed = timer.elapsedSeconds();
    lp_delta = lp::statsSnapshot() - lp_before;
    output->note("# elapsed: %.1fs\n", elapsed);
    if (rep >= warmup) result.seconds.push_back(elapsed);
  }
  result.ok = output->ok;

  // An LP hitting its iteration limit means some reported objective is not
  // the optimum -- a silent correctness failure, surfaced here as a hard
  // per-scenario error rather than a quietly-wrong BENCH row.
  const lp::StatsSnapshot lp_total = lp::statsSnapshot() - lp_start;
  if (lp_total.iter_limit_solves > 0) {
    std::fprintf(stderr,
                 "scenario %s: %lld LP solve(s) hit the iteration limit "
                 "(objectives are not optimal); failing the scenario\n",
                 s.id.c_str(),
                 static_cast<long long>(lp_total.iter_limit_solves));
    result.ok = false;
  }

  json::Value doc = json::Value::object();
  doc["schema"] = "coyote-bench/6";
  doc["scenario"] = s.id;
  doc["kind"] = info->name;
  doc["description"] = s.description;
  json::Value tags = json::Value::array();
  for (const std::string& t : s.tags) tags.push_back(t);
  doc["tags"] = std::move(tags);
  doc["git"] = gitDescribe();
  doc["threads"] = static_cast<int>(util::ThreadPool::defaultThreads());
  doc["full"] = opt_.full;
  doc["exact"] = opt_.exact;
  addMetadata(doc, s, opt_, info->meta);
  doc["ok"] = result.ok;
  // Per-scenario LP work (one repetition's worth). The counts are
  // deterministic for a binary (and for any thread count); all lp_*
  // fields are exempt from the bench_compare drift gate. The solver's
  // seconds land under "timing" with the other machine-dependent data.
  doc["lp_solves"] = static_cast<double>(lp_delta.solves);
  doc["lp_pivots"] = static_cast<double>(lp_delta.iterations);
  doc["lp_phase1_pivots"] = static_cast<double>(lp_delta.phase1_iters);
  doc["lp_refactorizations"] =
      static_cast<double>(lp_delta.refactorizations);
  doc["lp_pricing_hits"] = static_cast<double>(lp_delta.pricing_hits);
  doc["lp_degen_rescues"] = static_cast<double>(lp_delta.degen_rescues);
  doc["lp_lu_updates"] = static_cast<double>(lp_delta.lu_updates);
  doc["lp_lu_fill"] = static_cast<double>(lp_delta.lu_fill);
  doc["lp_dual_pivots"] = static_cast<double>(lp_delta.dual_pivots);
  doc["lp_decomp_rounds"] = static_cast<double>(lp_delta.decomp_rounds);
  // Process peak RSS after the scenario ran (schema coyote-bench/6).
  // Monotonic over the process, so in a multi-scenario run each value
  // upper-bounds the scenario's own footprint; `mem_`-prefixed fields are
  // exempt from the drift gate and surfaced as [INFO] deltas instead.
  doc["mem_peak_rss_mb"] = util::peakRssMb();
  doc["rows"] = std::move(output->rows);
  for (auto& [key, value] : output->extra.asObject()) {
    doc[key] = value;
  }
  json::Value timing = json::Value::object();
  timing["repeat"] = std::max(1, opt_.repeat);
  timing["warmup"] = warmup;
  json::Value secs = json::Value::array();
  for (const double sec : result.seconds) secs.push_back(sec);
  timing["seconds"] = std::move(secs);
  timing["min_seconds"] = result.minSeconds();
  timing["median_seconds"] = result.medianSeconds();
  // Seconds inside the LP solver during the last repetition, summed over
  // worker threads: with COYOTE_THREADS > 1 it can exceed the wall time.
  timing["lp_cpu_seconds"] = std::max(0.0, lp_delta.seconds);
  // Kind-specific timing (kServe: events/sec and latency percentiles);
  // lives here with the other machine-dependent data so the drift gate
  // skips it, while bench_compare applies explicit regression gates.
  for (const auto& [key, value] : output->timing_extra.asObject()) {
    timing[key] = value;
  }
  doc["timing"] = std::move(timing);
  result.document = std::move(doc);
  return result;
}

int ExperimentRunner::runAll(
    const std::vector<const Scenario*>& scenarios) const {
  int failures = 0;
  if (!opt_.json_dir.empty()) {
    std::filesystem::create_directories(opt_.json_dir);
  }
  for (const Scenario* s : scenarios) {
    const ScenarioResult result = run(*s);
    if (!result.ok) ++failures;
    if (!opt_.json_dir.empty()) {
      const std::filesystem::path path =
          std::filesystem::path(opt_.json_dir) / ("BENCH_" + s->id + ".json");
      std::ofstream file(path);
      file << result.document.dump(2);
      file.close();  // surface buffered write errors before the check
      if (!file.good()) {
        std::fprintf(stderr, "failed to write %s\n", path.string().c_str());
        ++failures;
      }
    }
  }
  return failures;
}

}  // namespace coyote::exp
