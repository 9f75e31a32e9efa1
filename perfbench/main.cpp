// perfbench: the repo benchmark's program (see README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-file PATH] [--threads T]
//
// Workloads: plan-geant, serve-geant, plan-fattree12. Each run repeats
// set-up + one pass of the workload until S seconds have passed (at least
// one pass). --trace 0 reports the end-to-end metrics; --trace 1 makes
// one traced and then one untraced pass and reports the per-layer metrics
// of the traced one (and writes its spans to PATH as Chrome trace-event
// JSON). The last stdout line is one JSON object
// {"correct","attempted","failed","metrics"}; the line before it,
// "# counts {...}", holds the pass's deterministic counts.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dag_builder.hpp"
#include "plan.hpp"
#include "probe.hpp"
#include "replay.hpp"
#include "serve/service.hpp"
#include "serve/trace.hpp"
#include "tm/traffic_matrix.hpp"
#include "topo/generator.hpp"
#include "topo/zoo.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace {

using namespace coyote;
using perfbench::Probe;
namespace json = util::json;

// ------------------------------------------------------------- set-up ---

using perfbench::Kind;
using perfbench::Workload;

/// Everything set-up builds; a pass consumes it.
struct Setup {
  std::optional<Graph> g;
  std::optional<tm::TrafficMatrix> base;
  std::shared_ptr<const DagSet> dags;
  std::unique_ptr<serve::TeService> service;
};

Setup doSetup(const Workload& w, std::uint64_t seed, Probe& probe) {
  Setup s;
  const int span = probe.open("setup", 0);
  if (perfbench::isFatTree(w)) {
    s.g.emplace(probe.call("topo", "topo::fatTree",
                           [] { return topo::fatTree(12); }));
    s.base.emplace(probe.call("topo", "tm::gravityMatrix", [&] {
      tm::GravityOptions gopt;
      gopt.top_k = 8;
      gopt.endpoint_prefix = "edge";
      return tm::gravityMatrix(*s.g, 1.0, gopt);
    }));
  } else {
    s.g.emplace(probe.call("topo", "topo::makeZoo",
                           [] { return topo::makeZoo("Geant"); }));
    s.base.emplace(probe.call("topo", "tm::gravityMatrix",
                              [&] { return tm::gravityMatrix(*s.g, 1.0); }));
  }
  if (w.kind == Kind::kServe) {
    // The service builds its own DAGs and computes the intact schemes.
    s.service = probe.call("serve", "TeService::TeService", [&] {
      return std::make_unique<serve::TeService>(*s.g, *s.base,
                                                perfbench::serveOptions(seed));
    });
  } else {
    s.dags = probe.call("dag", "core::augmentedDagsShared",
                        [&] { return core::augmentedDagsShared(*s.g); });
  }
  probe.close(span);
  return s;
}

// ---------------------------------------------------------------- passes ---

struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t op_begin = 0;  ///< the pass's operations in the probe
  std::size_t op_end = 0;
  double te_ratio = 0.0;
  perfbench::PlanResult plan;  ///< plan workloads
  long long reopt_saved_iters = 0;
  int reopt_budget_iters = 0;  ///< splitting budget of the reoptimize events
};

Pass doPass(const Workload& w, std::uint64_t seed, Setup& s, Probe& probe) {
  Pass p;
  if (w.kind == Kind::kPlan) {
    const perfbench::PlanSpec spec = perfbench::planSpec(w, seed);
    const int span = probe.open("plan", 0);
    p.op_begin = probe.ops().size();
    const double cpu0 = perfbench::processCpuSeconds();
    const double t0 = perfbench::nowSeconds();
    p.plan = perfbench::runPlan(*s.g, s.dags, *s.base, spec, probe);
    p.wall_s = perfbench::nowSeconds() - t0;
    p.cpu_s = perfbench::processCpuSeconds() - cpu0;
    p.op_end = probe.ops().size();
    probe.close(span);
    p.te_ratio = p.plan.teRatio();
    return p;
  }

  serve::TraceOptions topt;
  topt.events = perfbench::kServeEvents;
  topt.seed = seed;
  const std::vector<std::string> trace =
      serve::generateTrace(*s.g, *s.base, topt);
  const int span = probe.open("replay", 0);
  p.op_begin = probe.ops().size();
  const double cpu0 = perfbench::processCpuSeconds();
  const double t0 = perfbench::nowSeconds();
  (void)perfbench::replay(*s.service, trace, probe);
  p.wall_s = perfbench::nowSeconds() - t0;
  p.cpu_s = perfbench::processCpuSeconds() - cpu0;
  p.op_end = probe.ops().size();
  probe.close(span);
  p.te_ratio = perfbench::closingRatio(*s.service, *s.g, *s.base, trace, probe);
  p.reopt_saved_iters = s.service->reoptimizeSavedIters();
  // Each reoptimize re-runs the splitting optimizer of COYOTE-obl and
  // COYOTE-pk (the two optimizer-backed schemes) on a full budget.
  const int reopts = static_cast<int>(std::count_if(
      trace.begin(), trace.end(),
      [](const std::string& l) { return perfbench::opOf(l) == "reoptimize"; }));
  p.reopt_budget_iters =
      reopts * 2 * perfbench::serveOptions(seed).coyote.splitting.iterations;
  return p;
}

// --------------------------------------------------------------- metrics ---

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile: the value with floor((1-q)*n) samples beyond.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size()) - 1e-9));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Share of each serve op kind in serve::generateTrace's default mix,
/// parallel to perfbench::kServeOps.
std::array<double, std::size(perfbench::kServeOps)> nominalMix() {
  const serve::TraceOptions t;
  const int reoptimize =
      100 - t.demand_pct - t.link_pct - t.margin_pct - t.what_if_pct;
  return {t.demand_pct / 100.0, t.link_pct / 100.0, t.margin_pct / 100.0,
          t.what_if_pct / 100.0, reoptimize / 100.0};
}

/// Index of a serve event operation's kind in kServeOps, or -1 (set-up,
/// closing events).
int serveKind(const perfbench::OpRecord& op) {
  for (std::size_t k = 0; k < std::size(perfbench::kServeOps); ++k) {
    if (op.name == std::string("handleLine:") + perfbench::kServeOps[k]) {
      return static_cast<int>(k);
    }
  }
  return -1;
}

struct Metrics {
  json::Value obj = json::Value::object();
  void add(const std::string& name, double value, const char* unit) {
    json::Value m = json::Value::object();
    m["value"] = value;
    m["unit"] = unit;
    obj[name] = std::move(m);
  }
};

constexpr const char* kLayers[] = {"topo", "dag",    "split", "optu",
                                   "eval", "oracle", "lies",  "serve"};

/// The deterministic counts of a set-up + pass, whose operations start at
/// `begin`: identical across runs of one seed, traced or not, at any
/// thread count.
json::Value deterministicCounts(const Probe& probe, std::size_t begin,
                                const Pass& p) {
  json::Value c = json::Value::object();
  std::map<std::string, std::array<double, 3>> per;  // calls, solves, pivots
  for (std::size_t i = begin; i < probe.ops().size(); ++i) {
    const perfbench::OpRecord& op = probe.ops()[i];
    auto& t = per[op.layer + "/" + op.name];
    t[0] += 1;
    t[1] += static_cast<double>(op.lp.solves);
    t[2] += static_cast<double>(op.lp.iterations);
  }
  for (const auto& [key, t] : per) {
    json::Value v = json::Value::array();
    for (double x : t) v.push_back(x);
    c[key] = std::move(v);
  }
  c["split.iters"] = p.plan.split_iters;
  c["lies.fake_nodes"] = p.plan.lie_fake_nodes;
  c["lies.routers_lied_to"] = p.plan.lie_routers;
  c["serve.reoptimize.saved_iters"] = static_cast<double>(p.reopt_saved_iters);
  c["te_ratio"] = p.te_ratio;
  c["te_ratio_exact"] = p.plan.teRatioExact();
  return c;
}

/// Per-layer metrics of one traced set-up + pass, the probe's only ones.
void addLayerMetrics(Metrics& m, const Probe& probe, const Pass& p,
                     const lp::StatsSnapshot& lp) {
  struct Totals {
    double calls = 0, s = 0, cpu_s = 0, rss = 0, solves = 0, pivots = 0;
  };
  std::map<std::string, Totals> layer;
  std::array<std::vector<const perfbench::OpRecord*>,
             std::size(perfbench::kServeOps)>
      serve_ops;
  double ctor_s = 0.0;
  for (const perfbench::OpRecord& op : probe.ops()) {
    Totals& t = layer[op.layer];
    t.calls += 1;
    t.s += op.wallSeconds();
    t.cpu_s += op.cpu_s;
    t.rss += op.rss_growth_mb;
    t.solves += static_cast<double>(op.lp.solves);
    t.pivots += static_cast<double>(op.lp.iterations);
    if (op.name == "TeService::TeService") ctor_s += op.wallSeconds();
    if (const int k = serveKind(op); k >= 0) {
      serve_ops[k].push_back(&op);
    }
  }
  for (const char* l : kLayers) {
    const Totals& t = layer[l];
    const std::string pre = std::string(l) + ".";
    m.add(pre + "calls", t.calls, "count");
    m.add(pre + "s", t.s, "s");
    m.add(pre + "cpu_s", t.cpu_s, "s");
    m.add(pre + "rss_growth_mb", t.rss, "MiB");
    m.add(pre + "lp_solves", t.solves, "count");
    m.add(pre + "lp_pivots", t.pivots, "count");
  }
  const perfbench::PlanResult& plan = p.plan;
  m.add("split.iters", plan.split_iters, "count");
  m.add("optu.matrices", static_cast<double>(plan.optu_matrices), "count");
  m.add("oracle.te_ratio_exact", plan.teRatioExact(), "ratio");
  m.add("lies.fake_nodes", plan.lie_fake_nodes, "count");
  m.add("lies.routers_lied_to", plan.lie_routers, "count");
  m.add("lies.verified_frac",
        plan.lie_dests > 0
            ? static_cast<double>(plan.lie_verified) / plan.lie_dests
            : 0.0,
        "fraction");
  m.add("serve.ctor_s", ctor_s, "s");
  std::vector<double> event_ms;
  for (std::size_t i = p.op_begin; i < p.op_end; ++i) {
    event_ms.push_back(1e3 * probe.ops()[i].wallSeconds());
  }
  const bool serve = layer["serve"].calls > 0;
  m.add("serve.events_per_s",
        serve ? static_cast<double>(event_ms.size()) / p.wall_s : 0.0,
        "events/s");
  m.add("serve.event_p50_ms", serve ? median(event_ms) : 0.0, "ms");
  m.add("serve.event_p90_ms", serve ? percentile(event_ms, 0.90) : 0.0, "ms");
  for (std::size_t k = 0; k < serve_ops.size(); ++k) {
    const auto& ops = serve_ops[k];
    std::vector<double> ms;
    double s = 0, solves = 0, pivots = 0;
    for (const perfbench::OpRecord* op : ops) {
      ms.push_back(1e3 * op->wallSeconds());
      s += op->wallSeconds();
      solves += static_cast<double>(op->lp.solves);
      pivots += static_cast<double>(op->lp.iterations);
    }
    const std::string pre =
        std::string("serve.") + perfbench::kServeOps[k] + ".";
    m.add(pre + "count", static_cast<double>(ops.size()), "count");
    m.add(pre + "p50_ms", median(ms), "ms");
    m.add(pre + "s", s, "s");
    m.add(pre + "lp_solves", solves, "count");
    m.add(pre + "lp_pivots", pivots, "count");
  }
  m.add("serve.reoptimize.saved_iters_frac",
        p.reopt_budget_iters > 0
            ? static_cast<double>(p.reopt_saved_iters) / p.reopt_budget_iters
            : 0.0,
        "fraction");
  m.add("lp.solves", static_cast<double>(lp.solves), "count");
  m.add("lp.pivots", static_cast<double>(lp.iterations), "count");
  m.add("lp.phase1_pivots", static_cast<double>(lp.phase1_iters), "count");
  m.add("lp.dual_pivots", static_cast<double>(lp.dual_pivots), "count");
  m.add("lp.refactorizations", static_cast<double>(lp.refactorizations),
        "count");
  m.add("lp.iter_limit_solves", static_cast<double>(lp.iter_limit_solves),
        "count");
  m.add("lp.solve_thread_s", lp.seconds, "s");
  // Share of the pass's wall time inside named layer spans.
  double covered = 0.0;
  for (std::size_t i = p.op_begin; i < p.op_end; ++i) {
    covered += probe.ops()[i].wallSeconds();
  }
  m.add("trace.coverage_frac", p.wall_s > 0 ? covered / p.wall_s : 0.0,
        "fraction");
}

// ------------------------------------------------------------------ main ---

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_file;
  unsigned threads = 0;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "plan-geant|serve-geant|plan-fattree12 --seed N --seconds S "
               "--trace 0|1 [--trace-file PATH] [--threads T]\n",
               why.c_str());
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--trace-file") {
        a.trace_file = v;
      } else if (flag == "--threads") {
        a.threads = static_cast<unsigned>(std::stoul(v));
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  return a;
}

int run(const Args& args, const Workload& w) {
  std::vector<double> setup_s, pass_s, pass_cpu;
  // Serve: wall and CPU seconds of every event, per op kind.
  constexpr std::size_t kKinds = std::size(perfbench::kServeOps);
  std::array<std::vector<double>, kKinds> event_s, event_cpu, event_pivots;
  std::optional<json::Value> counts;
  bool consistent = true;
  // Every pass of one seed must repeat the same deterministic counts
  // (te_ratio among them).
  const auto record = [&](const json::Value& c) {
    if (!counts.has_value()) {
      counts = c;
    } else if (c.dump(0) != counts->dump(0)) {
      consistent = false;
      std::printf("# counts differ between passes:\n#   %s\n#   %s\n",
                  counts->dump(0).c_str(), c.dump(0).c_str());
    }
  };

  // The traced pass, when asked for, runs first: in a fresh process each
  // layer's peak-RSS growth is its own, not hidden under the high-water
  // mark of an earlier pass.
  Probe traced(/*traced=*/true);
  Pass traced_pass;
  lp::StatsSnapshot traced_lp;
  if (args.trace) {
    const lp::StatsSnapshot lp0 = lp::statsSnapshot();
    Setup s = doSetup(w, args.seed, traced);
    traced_pass = doPass(w, args.seed, s, traced);
    traced_lp = lp::statsSnapshot() - lp0;
    record(deterministicCounts(traced, 0, traced_pass));
  }

  // Untraced passes: the end-to-end metrics, or the trace overhead's base.
  Probe probe(/*traced=*/false);
  const double start = perfbench::nowSeconds();
  Pass last;
  do {
    const std::size_t begin = probe.ops().size();
    const double t0 = perfbench::nowSeconds();
    Setup s = doSetup(w, args.seed, probe);
    setup_s.push_back(perfbench::nowSeconds() - t0);
    last = doPass(w, args.seed, s, probe);
    pass_s.push_back(last.wall_s);
    pass_cpu.push_back(last.cpu_s);
    for (std::size_t i = last.op_begin; i < last.op_end; ++i) {
      const perfbench::OpRecord& op = probe.ops()[i];
      if (const int k = serveKind(op); k >= 0) {
        event_s[k].push_back(op.wallSeconds());
        event_cpu[k].push_back(op.cpu_s);
        event_pivots[k].push_back(static_cast<double>(op.lp.iterations));
      }
    }
    record(deterministicCounts(probe, begin, last));
  } while (!args.trace && perfbench::nowSeconds() - start < args.seconds);
  while (!args.trace && static_cast<int>(setup_s.size()) < w.min_setups) {
    const double t0 = perfbench::nowSeconds();
    (void)doSetup(w, args.seed, probe);
    setup_s.push_back(perfbench::nowSeconds() - t0);
  }

  Metrics m;
  const std::size_t attempted = probe.ops().size() + traced.ops().size();
  std::size_t failed = 0;
  for (const Probe* p : {&traced, &probe}) {
    for (const perfbench::OpRecord& op : p->ops()) {
      if (!op.failed) continue;
      if (++failed <= 10) {
        std::printf("# FAILED %s %s (group %d): %s\n", op.layer.c_str(),
                    op.name.c_str(), op.group, op.failure.c_str());
      }
    }
  }

  if (args.trace) {
    addLayerMetrics(m, traced, traced_pass, traced_lp);
    m.add("trace.overhead_frac", traced_pass.wall_s / last.wall_s - 1.0,
          "fraction");
    m.add("check.failed_frac",
          static_cast<double>(failed) / static_cast<double>(attempted),
          "fraction");
    if (!args.trace_file.empty() && !traced.writeChromeTrace(args.trace_file)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_file.c_str());
      return 1;
    }
  } else {
    double run_s = median(pass_s);
    double cpu_s = median(pass_cpu);
    if (w.kind == Kind::kServe) {
      // The replay time of kServeEvents events at the trace generator's
      // nominal mix, from per-kind medians: the seeded trace's own mix
      // drifts from it, and a median shrugs off a stalled event.
      run_s = cpu_s = 0.0;
      for (std::size_t k = 0; k < kKinds; ++k) {
        if (event_s[k].empty()) {
          consistent = false;
          std::printf("# the trace has no %s event\n", perfbench::kServeOps[k]);
          continue;
        }
        const double events = perfbench::kServeEvents * nominalMix()[k];
        run_s += events * median(event_s[k]);
        cpu_s += events * median(event_cpu[k]);
        std::printf("# %-10s %3zu events, median %.1f ms, %.0f LP pivots\n",
                    perfbench::kServeOps[k], event_s[k].size(),
                    1e3 * median(event_s[k]), median(event_pivots[k]));
      }
    }
    m.add("setup_s", median(setup_s), "s");
    m.add("run_s", run_s, "s");
    m.add("cpu_s", cpu_s, "s");
    m.add("peak_rss_mb", perfbench::peakRssMb(), "MiB");
    m.add("te_ratio", last.te_ratio, "ratio");
  }

  std::printf("# %s seed %llu threads %s: %zu set-up(s), %zu/%zu operations "
              "failed; pass seconds:",
              w.name, static_cast<unsigned long long>(args.seed),
              std::getenv("COYOTE_THREADS"), setup_s.size(), failed,
              attempted);
  for (double t : pass_s) std::printf(" %.3f", t);
  std::printf("\n");
  std::printf("# counts %s\n", counts->dump(0).c_str());
  json::Value out = json::Value::object();
  out["correct"] = failed == 0 && consistent;
  out["attempted"] = static_cast<double>(attempted);
  out["failed"] = static_cast<double>(failed);
  out["metrics"] = std::move(m.obj);
  std::printf("%s\n", out.dump(0).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  const Workload* w = perfbench::findWorkload(args.workload);
  if (w == nullptr) usage("unknown workload '" + args.workload + "'");
  // Before the first library call: the global thread pool reads it once.
  const std::string threads =
      std::to_string(args.threads != 0 ? args.threads : w->threads);
  ::setenv("COYOTE_THREADS", threads.c_str(), 1);
  try {
    return run(args, *w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
