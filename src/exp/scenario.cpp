#include "exp/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <stdexcept>

#include "topo/generator.hpp"
#include "topo/zoo.hpp"
#include "util/require.hpp"

namespace coyote::exp {

const char* FailureSpec::name() const {
  static constexpr const char* kNames[] = {"single-link", "double-link",
                                           "srlg"};
  return kNames[static_cast<int>(model)];
}

// ------------------------------------------------------- TopologySpec ---

namespace {

using Spec = TopologySpec;

std::string num(int v) { return std::to_string(v); }

/// One row per topology kind: how to build it and how to label it.
struct TopologyKind {
  Spec::Kind kind;
  Graph (*build)(const Spec&);
  std::string (*label)(const Spec&);
};

const TopologyKind kTopologyKinds[] = {
    {Spec::Kind::kZoo, [](const Spec& t) { return topo::makeZoo(t.zoo_name); },
     [](const Spec& t) { return t.zoo_name; }},
    {Spec::Kind::kRunningExample,
     [](const Spec&) { return topo::runningExample(); },
     [](const Spec&) { return std::string("running-example"); }},
    {Spec::Kind::kPrototypeTriangle,
     [](const Spec&) { return topo::prototypeTriangle(); },
     [](const Spec&) { return std::string("prototype-triangle"); }},
    {Spec::Kind::kRing, [](const Spec& t) { return topo::ring(t.a); },
     [](const Spec& t) { return "ring" + num(t.a); }},
    {Spec::Kind::kGrid, [](const Spec& t) { return topo::grid(t.a, t.b); },
     [](const Spec& t) { return "grid" + num(t.a) + "x" + num(t.b); }},
    {Spec::Kind::kFullMesh, [](const Spec& t) { return topo::fullMesh(t.a); },
     [](const Spec& t) { return "mesh" + num(t.a); }},
    {Spec::Kind::kRandomBackbone,
     [](const Spec& t) {
       return topo::randomBackbone(t.a, t.avg_degree, t.seed);
     },
     [](const Spec& t) {
       char deg[16];
       std::snprintf(deg, sizeof(deg), "%.1f", t.avg_degree);
       return "backbone" + num(t.a) + "-d" + deg + "-s" +
              std::to_string(t.seed);
     }},
    {Spec::Kind::kFatTree, [](const Spec& t) { return topo::fatTree(t.a); },
     [](const Spec& t) { return "fattree" + num(t.a); }},
    {Spec::Kind::kDragonfly,
     [](const Spec& t) { return topo::dragonfly(t.a, t.b, t.c); },
     [](const Spec& t) {
       return "dragonfly-a" + num(t.a) + "p" + num(t.b) + "h" + num(t.c);
     }},
    {Spec::Kind::kHammingMesh,
     [](const Spec& t) { return topo::hammingMesh(t.a, t.b, t.c, t.d); },
     [](const Spec& t) {
       return "hmesh" + num(t.a) + "x" + num(t.b) + "b" + num(t.c) + "x" +
              num(t.d);
     }},
    {Spec::Kind::kTorus2d,
     [](const Spec& t) { return topo::torus2d(t.a, t.b); },
     [](const Spec& t) { return "torus" + num(t.a) + "x" + num(t.b); }},
};

const TopologyKind& topologyKind(Spec::Kind kind) {
  for (const TopologyKind& k : kTopologyKinds) {
    if (k.kind == kind) return k;
  }
  throw std::invalid_argument("unknown topology kind");
}

Spec sized(Spec::Kind kind, int a, int b = 0, int c = 0, int d = 0) {
  Spec t;
  t.kind = kind;
  t.a = a;
  t.b = b;
  t.c = c;
  t.d = d;
  return t;
}

}  // namespace

Graph TopologySpec::build() const { return topologyKind(kind).build(*this); }

std::string TopologySpec::label() const {
  return topologyKind(kind).label(*this);
}

TopologySpec TopologySpec::zoo(std::string name) {
  TopologySpec t;
  t.kind = Kind::kZoo;
  t.zoo_name = std::move(name);
  return t;
}

TopologySpec TopologySpec::ring(int n) { return sized(Kind::kRing, n); }

TopologySpec TopologySpec::grid(int rows, int cols) {
  return sized(Kind::kGrid, rows, cols);
}

TopologySpec TopologySpec::fullMesh(int n) {
  return sized(Kind::kFullMesh, n);
}

TopologySpec TopologySpec::randomBackbone(int n, double avg_degree,
                                          std::uint64_t seed) {
  TopologySpec t = sized(Kind::kRandomBackbone, n);
  t.avg_degree = avg_degree;
  t.seed = seed;
  return t;
}

TopologySpec TopologySpec::fatTree(int k) { return sized(Kind::kFatTree, k); }

TopologySpec TopologySpec::dragonfly(int a, int p, int h) {
  return sized(Kind::kDragonfly, a, p, h);
}

TopologySpec TopologySpec::hammingMesh(int x, int y, int bx, int by) {
  return sized(Kind::kHammingMesh, x, y, bx, by);
}

TopologySpec TopologySpec::torus2d(int rows, int cols) {
  return sized(Kind::kTorus2d, rows, cols);
}

// --------------------------------------------------------- DemandSpec ---

tm::TrafficMatrix DemandSpec::build(const Graph& g) const {
  switch (model) {
    case Model::kGravity: {
      // The options overload early-returns into the historical dense path
      // when both knobs are off, so pre-existing scenarios stay
      // bit-identical.
      tm::GravityOptions gopt;
      gopt.top_k = top_k;
      gopt.endpoint_prefix = endpoint_prefix;
      return tm::gravityMatrix(g, total, gopt);
    }
    case Model::kBimodal:
      return tm::bimodalMatrix(g, {}, seed, total);
    case Model::kUniform:
      return tm::uniformMatrix(g, total);
  }
  require(false, "unknown demand model");
  return tm::TrafficMatrix(g.numNodes());  // unreachable
}

const char* DemandSpec::name() const {
  static constexpr const char* kNames[] = {"gravity", "bimodal", "uniform"};
  return kNames[static_cast<int>(model)];
}

// ----------------------------------------------------------- Scenario ---

bool Scenario::hasTag(const std::string& tag) const {
  return std::find(tags.begin(), tags.end(), tag) != tags.end();
}

// --------------------------------------------------- ScenarioRegistry ---

namespace {

std::string lowered(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

DemandSpec demandModel(DemandSpec::Model model, std::uint64_t seed = 23) {
  DemandSpec d;
  d.model = model;
  d.seed = seed;
  return d;
}

}  // namespace

ScenarioRegistry::ScenarioRegistry(std::vector<Scenario> scenarios) {
  for (Scenario& s : scenarios) add(std::move(s));
}

void ScenarioRegistry::add(Scenario s) {
  require(!s.id.empty(), "scenario id must be non-empty");
  require(find(s.id) == nullptr, "duplicate scenario id: " + s.id);
  // Ids name BENCH_<id>.json files and appear in shell command lines:
  // enforce the safe charset here, at registration time, so a bad id
  // fails fast in every tool rather than only in scenario_test.
  for (const char c : s.id) {
    require(std::isalnum(static_cast<unsigned char>(c)) || c == '-',
            "scenario id must be [a-zA-Z0-9-]: " + s.id);
  }
  scenarios_.push_back(std::move(s));
}

const Scenario* ScenarioRegistry::find(const std::string& id) const {
  for (const Scenario& s : scenarios_) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

std::vector<const Scenario*> ScenarioRegistry::match(
    const std::string& pattern) const {
  std::vector<const Scenario*> out;
  for (const Scenario& s : scenarios_) {
    const bool hit =
        pattern.empty() || s.id.find(pattern) != std::string::npos ||
        std::any_of(s.tags.begin(), s.tags.end(), [&](const std::string& t) {
          return t.find(pattern) != std::string::npos;
        });
    if (hit) out.push_back(&s);
  }
  return out;
}

const ScenarioRegistry& ScenarioRegistry::global() {
  static const ScenarioRegistry registry;
  return registry;
}

ScenarioRegistry::ScenarioRegistry() {
  // Four-scheme margin sweep over margins 1..3: Figs. 6-8 and the zoo
  // and synthetic extension grids below.
  const auto addSweep = [&](std::string id, std::string description,
                            std::vector<std::string> tags,
                            TopologySpec topology, DemandSpec::Model model) {
    Scenario s;
    s.id = std::move(id);
    s.description = std::move(description);
    s.tags = std::move(tags);
    s.kind = ScenarioKind::kSchemes;
    s.topology = std::move(topology);
    s.demand = demandModel(model);
    s.margins = marginGrid(3.0, false);
    s.full_margins = marginGrid(3.0, true);
    add(std::move(s));
  };

  // --- The paper's figures -------------------------------------------
  const struct {
    const char* id;
    const char* zoo;
    DemandSpec::Model model;
    const char* description;
  } kSweepFigures[] = {
      {"fig06", "Geant", DemandSpec::Model::kGravity,
       "Fig. 6: Geant, gravity base model -- four-scheme margin sweep"},
      {"fig07", "Digex", DemandSpec::Model::kGravity,
       "Fig. 7: Digex, gravity base model -- sparse hub-heavy network "
       "where ECMP's equal splitting hurts most"},
      {"fig08", "AS1755", DemandSpec::Model::kBimodal,
       "Fig. 8: AS1755, bimodal (elephants/mice) base model -- gravity "
       "trends persist under structured demands"},
  };
  for (const auto& f : kSweepFigures) {
    addSweep(f.id, f.description, {"figure", "zoo", "schemes"},
             TopologySpec::zoo(f.zoo), f.model);
  }
  {
    Scenario s;
    s.id = "fig09";
    s.description =
        "Fig. 9: Abilene, bimodal, local-search weight re-tuning per "
        "margin, exact within-box worst case for ECMP and COYOTE-pk";
    s.tags = {"figure", "zoo", "local-search"};
    s.kind = ScenarioKind::kLocalSearch;
    s.topology = TopologySpec::zoo("Abilene");
    s.demand = demandModel(DemandSpec::Model::kBimodal, 31);
    s.margins = marginGrid(5.0, false);
    s.full_margins = marginGrid(5.0, true);
    s.local_search.max_rounds = 3;
    s.local_search.max_moves_per_round = 12;
    s.ls_full_moves = 24;
    add(std::move(s));
  }
  {
    Scenario s;
    s.id = "fig10";
    s.description =
        "Fig. 10: AS1755, gravity -- ECMP over k virtual next-hops "
        "approximating COYOTE's ideal splitting ratios";
    s.tags = {"figure", "zoo", "quantization"};
    s.kind = ScenarioKind::kQuantization;
    s.topology = TopologySpec::zoo("AS1755");
    s.demand = demandModel(DemandSpec::Model::kGravity);
    s.margins = marginGrid(3.0, false);
    s.full_margins = marginGrid(3.0, true);
    s.quantize_multiplicities = {3, 5, 10};
    add(std::move(s));
  }
  {
    Scenario s;
    s.id = "fig11";
    s.description =
        "Fig. 11: average path stretch of COYOTE (oblivious and pk, "
        "margin 2.5) relative to OSPF/ECMP paths";
    s.tags = {"figure", "zoo", "stretch"};
    s.kind = ScenarioKind::kStretch;
    s.demand = demandModel(DemandSpec::Model::kGravity);
    s.fixed_margin = 2.5;
    s.networks = {"Abilene", "NSF",   "Germany",   "Geant",
                  "AS1755",  "GRNet", "BBNPlanet", "Digex"};
    s.full_networks = topo::zooNames();
    // Gambia is a tree: no path diversity, stretch trivially 1.
    s.full_networks.erase(std::remove(s.full_networks.begin(),
                                      s.full_networks.end(),
                                      std::string("Gambia")),
                          s.full_networks.end());
    s.sweep.coyote.splitting.iterations = 250;
    s.sweep.coyote.oblivious_pool.random_sparse = 8;
    s.sweep.coyote.corner_pool.source_hotspots = false;
    s.sweep.coyote.corner_pool.max_hotspots = 12;
    s.sweep.coyote.corner_pool.random_corners = 4;
    add(std::move(s));
  }
  {
    Scenario s;
    s.id = "fig12";
    s.description =
        "Fig. 12: fluid-emulator replay of the mininet prototype -- "
        "triangle topology, two prefixes, three UDP scenarios, plus the "
        "OSPF lie-synthesis realization check";
    s.tags = {"figure", "prototype", "small", "smoke"};
    s.kind = ScenarioKind::kPrototype;
    s.topology.kind = TopologySpec::Kind::kPrototypeTriangle;
    add(std::move(s));
  }

  // --- Table I -------------------------------------------------------
  {
    Scenario s;
    s.id = "table1";
    s.description =
        "Table I: every backbone x margins x four schemes, gravity base "
        "model; networks with <= 14 nodes use the exact slave-LP adversary";
    s.tags = {"table1", "zoo", "schemes"};
    s.kind = ScenarioKind::kTable;
    s.demand = demandModel(DemandSpec::Model::kGravity);
    s.margins = {1.0, 3.0, 5.0};
    s.full_margins = marginGrid(5.0, true);
    s.networks = topo::tableOneNames();
    s.sweep.pool.max_hotspots = 10;
    s.sweep.coyote.oblivious_pool.random_sparse = 8;
    s.sweep.coyote.splitting.iterations = 250;
    s.exact_node_limit = 14;
    s.exact_env_upgrades_eval = true;
    add(std::move(s));
  }

  // --- Ablations -----------------------------------------------------
  {
    Scenario s;
    s.id = "ablation-dag-aug";
    s.description =
        "Ablation: COYOTE-pk over plain shortest-path DAGs vs augmented "
        "DAGs, margin 2.5, shared evaluation pool";
    s.tags = {"ablation", "zoo"};
    s.kind = ScenarioKind::kDagAug;
    s.demand = demandModel(DemandSpec::Model::kGravity);
    s.fixed_margin = 2.5;
    s.networks = {"Abilene", "NSF", "Geant", "Germany"};
    s.full_networks = topo::tableOneNames();
    s.sweep.pool.source_hotspots = false;
    s.sweep.pool.max_hotspots = 10;
    s.sweep.pool.random_corners = 4;
    s.sweep.coyote.splitting.iterations = 250;
    add(std::move(s));
  }
  {
    Scenario s;
    s.id = "ablation-optimizer";
    s.description =
        "Ablation: GP condensation vs exponentiated-gradient mirror "
        "descent as a function of the iteration budget";
    s.tags = {"ablation"};
    s.kind = ScenarioKind::kOptimizer;
    s.topology.kind = TopologySpec::Kind::kRunningExample;
    add(std::move(s));
  }
  {
    Scenario s;
    s.id = "ablation-hardness";
    s.description =
        "Sec. IV constructions, numerically: BIPARTITION gadgets reach "
        "the 4/3 bound iff positive; the path instance's oblivious ratio "
        "grows linearly";
    s.tags = {"ablation", "small"};
    s.kind = ScenarioKind::kHardness;
    s.topology.kind = TopologySpec::Kind::kRunningExample;
    add(std::move(s));
  }

  // --- The smoke scenario: the paper's running example ---------------
  {
    Scenario s;
    s.id = "running-example";
    s.description =
        "Fig. 1a running example (4 nodes): four-scheme sweep; "
        "closed-form COYOTE optimum is sqrt(5)-1 at margin infinity";
    s.tags = {"synthetic", "schemes", "small", "smoke"};
    s.kind = ScenarioKind::kSchemes;
    s.topology.kind = TopologySpec::Kind::kRunningExample;
    s.demand = demandModel(DemandSpec::Model::kUniform);
    s.margins = {1.0, 2.0, 3.0};
    s.full_margins = marginGrid(3.0, true);
    add(std::move(s));
  }

  // --- Extension grid: every Zoo topology x base-demand model --------
  for (const std::string& name : topo::zooNames()) {
    for (const DemandSpec::Model model :
         {DemandSpec::Model::kGravity, DemandSpec::Model::kBimodal,
          DemandSpec::Model::kUniform}) {
      const std::string suffix = demandModel(model).name();
      addSweep("zoo-" + lowered(name) + "-" + suffix,
               name + ", " + suffix +
                   " base model -- four-scheme margin sweep (extension "
                   "grid beyond the paper's figures)",
               {"grid", "zoo", "schemes", suffix}, TopologySpec::zoo(name),
               model);
    }
  }

  // --- Extension grid: synthetic topologies --------------------------
  const struct {
    const char* id;
    TopologySpec topology;
    DemandSpec::Model model;
    bool small;
  } kSynthetic[] = {
      {"synth-ring8-uniform", TopologySpec::ring(8),
       DemandSpec::Model::kUniform, true},
      {"synth-ring16-gravity", TopologySpec::ring(16),
       DemandSpec::Model::kGravity, false},
      {"synth-grid3x3-gravity", TopologySpec::grid(3, 3),
       DemandSpec::Model::kGravity, true},
      {"synth-grid4x4-uniform", TopologySpec::grid(4, 4),
       DemandSpec::Model::kUniform, false},
      {"synth-mesh6-bimodal", TopologySpec::fullMesh(6),
       DemandSpec::Model::kBimodal, true},
      {"synth-mesh8-gravity", TopologySpec::fullMesh(8),
       DemandSpec::Model::kGravity, false},
      {"synth-backbone16-gravity", TopologySpec::randomBackbone(16, 3.0, 5),
       DemandSpec::Model::kGravity, false},
      {"synth-backbone24-bimodal", TopologySpec::randomBackbone(24, 3.5, 9),
       DemandSpec::Model::kBimodal, false},
      {"synth-backbone32-uniform", TopologySpec::randomBackbone(32, 3.0, 13),
       DemandSpec::Model::kUniform, false},
  };
  for (const auto& syn : kSynthetic) {
    std::vector<std::string> tags = {"grid", "synthetic", "schemes"};
    if (syn.small) tags.insert(tags.end(), {"small", "smoke"});
    addSweep(syn.id,
             syn.topology.label() + ", " + demandModel(syn.model).name() +
                 " base model -- four-scheme margin sweep on a "
                 "topo::generator topology",
             std::move(tags), syn.topology, syn.model);
  }

  // --- Failure variants (src/failure/): post-failure four-scheme sweeps
  // --- derived from every smoke/figure scenario with a single topology.
  const auto failureVariant = [&](const Scenario& parent,
                                  FailureSpec::Model model,
                                  const char* suffix, bool smoke) {
    Scenario s;
    s.id = parent.id + "-" + suffix;
    FailureSpec spec;
    spec.model = model;
    s.description = parent.topology.label() + ", " + parent.demand.name() +
                    " base model -- " + spec.name() +
                    " failure sweep: post-failure four-scheme ratios "
                    "(margin 2.0)";
    s.tags = {"failure", suffix};
    for (const char* inherited : {"zoo", "synthetic", "small"}) {
      if (parent.hasTag(inherited)) s.tags.emplace_back(inherited);
    }
    if (smoke) s.tags.emplace_back("smoke");
    s.kind = ScenarioKind::kFailure;
    s.topology = parent.topology;
    s.demand = parent.demand;
    s.fixed_margin = 2.0;
    s.failure = spec;
    s.sweep = parent.sweep;
    add(std::move(s));
  };
  {
    // Snapshot first: failureVariant() appends to scenarios_ while we
    // iterate, and the variants must not themselves get variants.
    std::vector<Scenario> parents;
    for (const Scenario& s : scenarios_) {
      const bool eligible = s.kind == ScenarioKind::kSchemes ||
                            s.kind == ScenarioKind::kLocalSearch ||
                            s.kind == ScenarioKind::kQuantization ||
                            s.kind == ScenarioKind::kPrototype;
      if (eligible && (s.hasTag("smoke") || s.hasTag("figure"))) {
        parents.push_back(s);
      }
    }
    for (const Scenario& parent : parents) {
      // The CI bench-smoke gate runs exactly one failure scenario: the
      // running example's single-link sweep (tiny and fully determined).
      failureVariant(parent, FailureSpec::Model::kSingleLink, "fail1",
                     /*smoke=*/parent.id == "running-example");
      failureVariant(parent, FailureSpec::Model::kSrlg, "srlg",
                     /*smoke=*/false);
      if (parent.id == "running-example" || parent.id == "fig06") {
        failureVariant(parent, FailureSpec::Model::kDoubleLink, "fail2",
                       /*smoke=*/false);
      }
    }
  }

  // --- Online TE daemon (src/serve/): seeded event-trace replays -----
  const auto serveScenario = [&](const std::string& id, TopologySpec topo_spec,
                                 DemandSpec::Model model, int events,
                                 bool smoke) {
    Scenario s;
    s.id = id;
    s.description = topo_spec.label() + std::string(", ") +
                    demandModel(model).name() +
                    " base model -- online TE daemon replay: " +
                    std::to_string(events) +
                    " demand/link/margin/what-if events over the resident "
                    "warm-LP service (margin 2.0)";
    s.tags = {"serve"};
    if (topo_spec.kind == TopologySpec::Kind::kZoo) s.tags.emplace_back("zoo");
    if (smoke) {
      s.tags.emplace_back("small");
      s.tags.emplace_back("smoke");
    }
    s.kind = ScenarioKind::kServe;
    s.topology = std::move(topo_spec);
    s.demand = demandModel(model, 23);
    s.fixed_margin = 2.0;
    s.serve_events = events;
    s.serve_seed = 1;
    // The daemon's evaluation pool is small by design: every event costs
    // one warm OPTU re-solve per pool matrix.
    s.sweep.pool.source_hotspots = false;
    s.sweep.pool.max_hotspots = 8;
    s.sweep.pool.random_corners = 4;
    s.sweep.pool.pair_hotspots = 4;
    s.sweep.coyote.splitting.iterations = 150;
    add(std::move(s));
  };
  {
    TopologySpec re;
    re.kind = TopologySpec::Kind::kRunningExample;
    // The CI bench-smoke gate replays this one (events/sec + p50/p99
    // land in the BENCH timing block, gated by bench_compare).
    serveScenario("serve-running-example", re, DemandSpec::Model::kUniform,
                  200, /*smoke=*/true);
  }
  serveScenario("serve-geant-500", TopologySpec::zoo("Geant"),
                DemandSpec::Model::kGravity, 500, /*smoke=*/false);

  // --- Scaling curves (structured DC/WAN generators, src/topo/) -------
  //
  // One scheme set, one fixed margin, a size ladder per generator family:
  // the rows carry nodes/edges/ratios, the timing block the per-rung
  // optimize seconds, and `mem_peak_rss_mb` / `lp_*` the memory and
  // solver-work curves. Gravity top_k bounds the active-destination count
  // per rung (structured fabrics have uniform out-capacities, so the
  // deterministic lowest-id tie-break selects the same destination set
  // from every source); the fat-tree ladders additionally aggregate
  // demands at "edge" switches, the paper-style host-aggregated model.
  const auto fat = [](int k) { return TopologySpec::fatTree(k); };
  const auto fly = [](int a, int p, int h) {
    return TopologySpec::dragonfly(a, p, h);
  };
  const auto hmesh = [](int x) {
    return TopologySpec::hammingMesh(x, x, 4, 4);
  };
  const struct {
    const char* id;
    const char* family;
    std::vector<TopologySpec> ladder;
    const char* endpoint_prefix;
    bool smoke;
  } kLadders[] = {
      {"scaling-fattree-smoke", "fat-tree (smoke rung)", {fat(4)}, "edge",
       true},
      {"scaling-fattree-k8", "fat-tree", {fat(4), fat(6), fat(8)}, "edge",
       false},
      {"scaling-fattree-k12", "fat-tree", {fat(4), fat(8), fat(12)}, "edge",
       false},
      {"scaling-fattree-k16", "fat-tree", {fat(8), fat(12), fat(16)}, "edge",
       false},
      {"scaling-dragonfly-a4", "dragonfly",
       {fly(2, 1, 1), fly(3, 2, 2), fly(4, 2, 2)}, "", false},
      {"scaling-dragonfly-a8", "dragonfly",
       {fly(4, 2, 2), fly(6, 2, 3), fly(8, 2, 4)}, "", false},
      {"scaling-hmesh-x2", "HammingMesh",
       {TopologySpec::hammingMesh(2, 2, 2, 2), hmesh(2)}, "", false},
      {"scaling-hmesh-x3", "HammingMesh", {hmesh(2), hmesh(3), hmesh(4)}, "",
       false},
      {"scaling-torus", "2-D torus",
       {TopologySpec::torus2d(4, 4), TopologySpec::torus2d(8, 8),
        TopologySpec::torus2d(12, 12)},
       "", false},
  };
  for (const auto& l : kLadders) {
    Scenario s;
    s.id = l.id;
    s.description =
        std::string(l.family) +
        " size ladder -- scheme ratios plus optimize-time / peak-RSS / "
        "lp-pivot scaling curves, one rung per topology size";
    s.tags = {"scaling", "synthetic"};
    if (l.smoke) s.tags.insert(s.tags.end(), {"small", "smoke"});
    s.kind = ScenarioKind::kScaling;
    s.topology = l.ladder.front();  // smallest rung, for single-topo consumers
    s.ladder = l.ladder;
    s.demand = demandModel(DemandSpec::Model::kGravity);
    s.demand.top_k = 8;
    s.demand.endpoint_prefix = l.endpoint_prefix;
    s.fixed_margin = 2.0;
    // Scaling rungs measure optimize cost growth, not ratio quality:
    // a small fixed evaluation pool and iteration budget keep every rung
    // doing the same *kind* of work so the curves compare sizes only.
    s.sweep.pool.source_hotspots = false;
    s.sweep.pool.max_hotspots = 8;
    s.sweep.pool.random_corners = 4;
    s.sweep.pool.pair_hotspots = 4;
    // The oblivious scheme's pool: keep only matrices with O(1) active
    // destinations (destination-concentrated and sparse-random). The
    // per-source and uniform matrices activate every destination, whose
    // OPTU normalization costs O(|V|) DAG-sized LP blocks *per matrix* --
    // quadratic total, which would drown the curves the ladder measures.
    s.sweep.coyote.oblivious_pool.source_concentrated = false;
    s.sweep.coyote.oblivious_pool.uniform = false;
    s.sweep.coyote.oblivious_pool.random_sparse = 4;
    s.sweep.coyote.splitting.iterations = 120;
    add(std::move(s));
  }
}

}  // namespace coyote::exp
