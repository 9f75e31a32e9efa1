#include "core/splitting_optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/thread_pool.hpp"

namespace coyote::core {
namespace {

using routing::RoutingConfig;

/// Initial gradient step; it decays linearly to a tenth over the run.
constexpr double kLearningRate = 0.35;
/// Softmax temperature as a fraction of the current max utilization,
/// annealed linearly from kTemperatureStart to kTemperatureEnd over the run.
constexpr double kTemperatureStart = 0.15;
constexpr double kTemperatureEnd = 0.003;
/// Below this softmax exponent exp() is skipped: exp(-28) ~ 6.9e-13 is
/// already under the 1e-12 weight cutoff, so the weight would be zeroed.
constexpr double kExpFloor = -28.0;
constexpr double kWeightCutoff = 1e-12;
/// Slot visits per forward pass below which a loop runs inline: a pool
/// dispatch costs more than the whole pass on small networks.
constexpr std::size_t kFanOutWork = std::size_t{1} << 14;

/// One destination's DAG as a CSR in topological order. The DAG's
/// "tails" (nodes with out-edges, the destination excluded) are numbered
/// 0..tails()-1 in topological order; tail k owns the slots
/// off[k]..off[k+1], one per out-edge in Dag::outEdges order. A slot's
/// head is the tail number of the edge's far end, or tails() -- a sink
/// entry that is written but never read -- when that node has no
/// out-edges (the destination, or a dead end).
struct DestDag {
  NodeId dest = kInvalidNode;
  std::size_t base = 0;       ///< first global slot (into phi/best/grad)
  std::vector<NodeId> node;   ///< tail number -> node id
  std::vector<int> off;       ///< tails()+1 slot offsets
  std::vector<EdgeId> edge;   ///< slot -> edge id
  std::vector<int> head;      ///< slot -> tail number of the edge's head
  std::vector<int> pairs;     ///< active (matrix, dest) pairs, ascending matrix
  std::vector<double> mu;     ///< adjoint scratch, tails()+1 entries

  [[nodiscard]] int tails() const { return static_cast<int>(node.size()); }
  [[nodiscard]] std::size_t slots() const { return edge.size(); }
};

/// A (pool matrix, destination) pair with positive demand. Its demand
/// column and forward inflow are stored per tail number (plus the sink
/// entry) at `at` in the flat column/inflow arrays.
struct Pair {
  int matrix;
  NodeId dest;
  std::size_t at;
};

DestDag buildDestDag(const Graph& g, const Dag& dag, std::size_t base) {
  DestDag d;
  d.dest = dag.dest();
  d.base = base;
  std::vector<int> tail_of(g.numNodes(), -1);
  for (const NodeId u : dag.topoOrder()) {
    if (u == d.dest || dag.outEdges(u).empty()) continue;
    tail_of[u] = d.tails();
    d.node.push_back(u);
    d.off.push_back(static_cast<int>(d.edge.size()));
    for (const EdgeId e : dag.outEdges(u)) d.edge.push_back(e);
  }
  d.off.push_back(static_cast<int>(d.edge.size()));
  const int sink = d.tails();
  d.head.reserve(d.edge.size());
  for (const EdgeId e : d.edge) {
    const int h = tail_of[g.edge(e).dst];
    d.head.push_back(h >= 0 ? h : sink);
  }
  d.mu.assign(sink + 1, 0.0);
  return d;
}

}  // namespace

routing::RoutingConfig optimizeSplitting(
    const Graph& g, const routing::PerformanceEvaluator& pool,
    const routing::RoutingConfig& init, const SplittingOptions& opt,
    int* iterations_used) {
  require(opt.iterations >= 1, "need >= 1 iteration");
  require(pool.size() > 0, "empty demand pool");
  const int n = g.numNodes();
  const int m = g.numEdges();
  const int num_matrices = pool.size();
  const DagSet& dags = init.dags();

  // ---- Layout: per-destination slots, phi copied in from `init`.
  std::vector<DestDag> dest(n);
  std::size_t num_slots = 0;
  for (NodeId t = 0; t < n; ++t) {
    dest[t] = buildDestDag(g, dags[t], num_slots);
    num_slots += dest[t].slots();
  }
  std::vector<double> phi(num_slots);
  for (const DestDag& d : dest) {
    for (std::size_t s = 0; s < d.slots(); ++s) {
      phi[d.base + s] = init.ratio(d.dest, d.edge[s]);
    }
  }
  std::vector<double> cap(m);
  for (EdgeId e = 0; e < m; ++e) cap[e] = g.edge(e).capacity;

  // ---- Active (matrix, destination) pairs: any positive d(s, t), s != t.
  // Pairs are numbered in (matrix, destination) order, so matrix i's pairs
  // are pair_off[i]..pair_off[i+1] in ascending destination.
  std::vector<Pair> pairs;
  std::vector<std::size_t> pair_off{0};
  std::vector<double> column;
  for (int i = 0; i < num_matrices; ++i) {
    const tm::TrafficMatrix& d = pool.matrix(i);
    for (NodeId t = 0; t < n; ++t) {
      bool any = false;
      for (NodeId s = 0; s < n && !any; ++s) any = s != t && d.at(s, t) > 0.0;
      if (!any) continue;
      DestDag& dd = dest[t];
      dd.pairs.push_back(static_cast<int>(pairs.size()));
      pairs.push_back({i, t, column.size()});
      for (const NodeId u : dd.node) column.push_back(d.at(u, t));
      column.push_back(0.0);  // sink entry
    }
    pair_off.push_back(pairs.size());
  }
  std::vector<double> inflow(column.size());
  std::size_t work = 0;
  for (const Pair& p : pairs) work += dest[p.dest].slots();

  // term[i * m + e] holds matrix i's utilization of edge e, then its
  // softmax weight w, then the adjoint seed G = w / (wsum * cap).
  const std::size_t pm = static_cast<std::size_t>(num_matrices) * m;
  std::vector<double> term(pm);
  std::vector<char> any_weight(num_matrices);
  std::vector<double> row_max(num_matrices);
  std::vector<double> grad(num_slots);

  std::vector<double> best = phi;
  double best_util = std::numeric_limits<double>::infinity();
  int executed = 0;
  int since_best = 0;
  // Every loop below writes only its own index's slots, so running it
  // inline or on the pool gives the same bits.
  const auto forEach = [&](int count, const auto& fn) {
    if (work < kFanOutWork) {
      for (int i = 0; i < count; ++i) fn(static_cast<std::size_t>(i));
    } else {
      util::ThreadPool::global().parallelFor(static_cast<std::size_t>(count), fn);
    }
  };

  for (int iter = 0; iter < opt.iterations; ++iter) {
    ++executed;
    // ---- Forward: per-matrix link utilizations and their maximum, one
    // task per matrix; umax reduces the row maxima serially (std::max
    // skips NaN and is order-insensitive otherwise, so this equals a scan
    // of every entry).
    forEach(num_matrices, [&](std::size_t i) {
      double* load = &term[i * m];
      std::fill(load, load + m, 0.0);
      for (std::size_t p = pair_off[i]; p < pair_off[i + 1]; ++p) {
        const DestDag& d = dest[pairs[p].dest];
        double* F = &inflow[pairs[p].at];
        const double* col = &column[pairs[p].at];
        std::copy(col, col + d.tails() + 1, F);
        const double* ph = &phi[d.base];
        for (int k = 0; k < d.tails(); ++k) {
          const double f = F[k];
          if (f <= 0.0) continue;
          for (int s = d.off[k]; s < d.off[k + 1]; ++s) {
            const double flow = f * ph[s];
            load[d.edge[s]] += flow;
            F[d.head[s]] += flow;
          }
        }
      }
      double top = 0.0;
      for (EdgeId e = 0; e < m; ++e) {
        load[e] /= cap[e];
        top = std::max(top, load[e]);
      }
      row_max[i] = top;
    });
    double umax = 0.0;
    for (const double top : row_max) umax = std::max(umax, top);
    // A meaningful (relative) improvement resets the patience clock; the
    // `best` snapshot itself still tracks any strict improvement.
    if (umax < best_util - 1e-9 * std::max(1.0, best_util)) {
      since_best = 0;
    } else {
      ++since_best;
    }
    if (umax < best_util) {
      best_util = umax;
      best = phi;
    }
    if (umax <= 0.0) break;
    if (opt.patience > 0 && since_best >= opt.patience) break;

    // ---- Softmax constraint weights (annealed temperature), one task
    // per matrix; wsum is summed serially in (matrix, edge) order.
    const double anneal = static_cast<double>(iter) / std::max(1, opt.iterations - 1);
    const double tau =
        umax * (kTemperatureStart +
                (kTemperatureEnd - kTemperatureStart) * anneal);
    const double temp = std::max(tau, 1e-9);
    const auto weight = [&](double u) {
      const double x = (u - umax) / temp;
      const double v = x < kExpFloor ? 0.0 : std::exp(x);
      return (v > kWeightCutoff) ? v : 0.0;
    };
    const double idle_weight = weight(0.0);  // shared by every unloaded edge
    forEach(num_matrices, [&](std::size_t i) {
      double* w = &term[i * m];
      bool any = false;
      for (EdgeId e = 0; e < m; ++e) {
        w[e] = w[e] == 0.0 ? idle_weight : weight(w[e]);
        any = any || w[e] > 0.0;
      }
      any_weight[i] = any;
    });
    double wsum = 0.0;
    for (std::size_t k = 0; k < pm; ++k) wsum += term[k];
    forEach(num_matrices, [&](std::size_t i) {
      double* G = &term[i * m];
      for (EdgeId e = 0; e < m; ++e) G[e] = G[e] / (wsum * cap[e]);
    });
    // ---- Backward + update, one task per destination. Task t owns
    // grad/phi of t's slots and adds matrices in ascending order. A matrix
    // whose weights are all zero is skipped, as is a pair whose DAG edges
    // all have G == 0: it would add exactly +0.0 everywhere (F, phi >= 0
    // and mu == 0).
    // Step size decays over the run so late iterations settle onto the
    // (annealed, nearly hard-max) optimum instead of oscillating.
    const double lr = kLearningRate * (1.0 - 0.9 * anneal);
    forEach(n, [&](std::size_t t) {
      DestDag& d = dest[t];
      if (d.slots() == 0) return;
      double* gr = &grad[d.base];
      double* ph = &phi[d.base];
      double* mu = d.mu.data();
      bool any = false;
      for (const int p : d.pairs) {
        const int i = pairs[p].matrix;
        if (!any_weight[i]) continue;
        const double* G = &term[static_cast<std::size_t>(i) * m];
        const auto seeded = [&](EdgeId e) { return !(G[e] == 0.0); };
        if (std::none_of(d.edge.begin(), d.edge.end(), seeded)) continue;
        if (!any) std::fill(gr, gr + d.slots(), 0.0);
        any = true;
        for (int k = d.tails() - 1; k >= 0; --k) {
          double acc = 0.0;
          for (int s = d.off[k]; s < d.off[k + 1]; ++s) {
            acc += ph[s] * (G[d.edge[s]] + mu[d.head[s]]);
          }
          mu[k] = acc;
        }
        const double* F = &inflow[pairs[p].at];
        for (int k = 0; k < d.tails(); ++k) {
          for (int s = d.off[k]; s < d.off[k + 1]; ++s) {
            gr[s] += F[k] * (G[d.edge[s]] + mu[d.head[s]]);
          }
        }
      }

      // An all-zero gradient moves nothing (every scale below is 0).
      if (!any) return;

      // Multiplicative update per (destination, node) simplex; a single
      // next-hop keeps its ratio pinned to 1.
      for (int k = 0; k < d.tails(); ++k) {
        const int s0 = d.off[k];
        const int s1 = d.off[k + 1];
        if (s1 - s0 < 2) continue;
        const auto effective = [&](int s) {
          return opt.method == SplitMethod::kGpCondensation ? gr[s] * ph[s]
                                                            : gr[s];
        };
        double scale = 0.0;
        for (int s = s0; s < s1; ++s) scale = std::max(scale, std::abs(effective(s)));
        if (scale <= 0.0) continue;
        double sum = 0.0;
        for (int s = s0; s < s1; ++s) {
          const double eff = effective(s);
          ph[s] = std::max(1e-12, ph[s] * std::exp(-lr * eff / scale));
          sum += ph[s];
        }
        for (int s = s0; s < s1; ++s) ph[s] /= sum;
      }
    });
  }
  if (iterations_used != nullptr) *iterations_used = executed;

  // ---- Best iterate back to a RoutingConfig: prune negligible ratios but
  // always keep the largest one per (destination, node).
  RoutingConfig cfg(g, init.dagsPtr());
  for (const DestDag& d : dest) {
    const double* b = best.data() + d.base;  // d.base == size() if no slots
    for (int k = 0; k < d.tails(); ++k) {
      int keep = d.off[k];
      for (int s = d.off[k]; s < d.off[k + 1]; ++s) {
        if (b[s] > b[keep]) keep = s;
      }
      for (int s = d.off[k]; s < d.off[k + 1]; ++s) {
        const double r = b[s];
        cfg.setRatio(d.dest, d.edge[s],
                     (s == keep || r >= opt.prune_below) ? r : 0.0);
      }
    }
  }
  cfg.normalize(g);
  cfg.validate(g);
  return cfg;
}

}  // namespace coyote::core
