#include "failure/evaluate.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "routing/evaluator.hpp"
#include "routing/optu.hpp"
#include "routing/propagation.hpp"
#include "util/percentile.hpp"
#include "util/require.hpp"
#include "util/thread_pool.hpp"

namespace coyote::failure {

FailureEvaluator::FailureEvaluator(const Graph& g,
                                   std::shared_ptr<const DagSet> dags,
                                   const tm::TrafficMatrix& base_tm,
                                   FailureEvalOptions opt)
    : g_(g),
      dags_(std::move(dags)),
      base_(base_tm),
      opt_(std::move(opt)),
      schemes_(opt_.schemes.empty()
                   ? te::SchemeRegistry::builtin().defaults()
                   : opt_.schemes),
      pool_(tm::cornerPool(tm::marginBounds(base_tm, opt_.margin),
                           opt_.pool)) {
  require(dags_ != nullptr, "null dag set");
  require(opt_.margin >= 1.0, "margin must be >= 1");
  require(!schemes_.empty(), "empty scheme list");
  intact_ = intactConfigs(g_, dags_, base_, schemes_, opt_.coyote,
                          tm::marginBounds(base_tm, opt_.margin), pool_);
}

const routing::RoutingConfig& FailureEvaluator::intactRouting(
    const std::string& key) const {
  for (std::size_t i = 0; i < schemes_.size(); ++i) {
    if (key != schemes_[i]->key()) continue;
    if (!intact_[i].has_value()) {
      throw std::invalid_argument("scheme '" + key +
                                  "' reconverges; it keeps no intact "
                                  "config here");
    }
    return *intact_[i];
  }
  throw std::invalid_argument("scheme '" + key +
                              "' is not in this evaluator's list");
}

std::vector<std::optional<routing::RoutingConfig>> intactConfigs(
    const Graph& g, const std::shared_ptr<const DagSet>& dags,
    const tm::TrafficMatrix& base,
    const std::vector<const te::Scheme*>& schemes,
    const core::CoyoteOptions& coyote, const tm::DemandBounds& box,
    const std::vector<tm::TrafficMatrix>& pool,
    const std::vector<std::optional<routing::RoutingConfig>>* previous,
    int* saved) {
  std::vector<std::optional<routing::RoutingConfig>> intact;
  intact.reserve(schemes.size());
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    const te::Scheme* s = schemes[i];
    if (s->reaction() == te::FailureReaction::kReconverge) {
      intact.emplace_back(std::nullopt);
      continue;
    }
    te::SchemeContext ctx{g, dags, base, coyote, nullptr, nullptr};
    if (previous != nullptr && i < previous->size() &&
        (*previous)[i].has_value()) {
      ctx.coyote.warm_init = &*(*previous)[i];
    }
    ctx.splitting_iters_saved = saved;
    std::optional<routing::PerformanceEvaluator> eval;
    if (s->marginDependent()) {
      eval.emplace(g, dags, coyote.lp);
      eval->addPool(pool);
      ctx.box = &box;
      ctx.pool = &*eval;
    }
    intact.emplace_back(s->compute(ctx));
  }
  return intact;
}

FailureOutcome evaluateFailure(
    const Graph& g, const DagSet& dags, const tm::TrafficMatrix& base,
    const std::vector<tm::TrafficMatrix>& pool,
    const std::vector<const te::Scheme*>& schemes,
    const std::vector<std::optional<routing::RoutingConfig>>& intact,
    const FailureScenario& f, routing::OptuEngine& engine,
    std::vector<lp::Basis>* bases, const std::vector<double>* floors) {
  require(bases == nullptr || bases->size() == pool.size(),
          "one OPTU basis per pool matrix");
  require(floors == nullptr || floors->size() == pool.size(),
          "one OPTU floor per pool matrix");
  const int n = static_cast<int>(schemes.size());
  const std::size_t np = pool.size();
  FailureOutcome out;
  out.label = f.label;
  out.ratio.assign(n, 0.0);
  out.routable.assign(n, 0);

  const Graph degraded = degradedGraph(g, f);
  out.disconnected_pairs = disconnectedPairs(degraded, base);
  if (out.disconnected_pairs > 0) return out;  // reported, not evaluated
  out.evaluated = true;

  // The surviving routings: each scheme reacts per its FailureReaction --
  // OSPF reconvergence, or DAG repair with split renormalization. The
  // repaired DAG set is shared by every kRepairDags scheme (and skipped
  // entirely when the selection is all-reconverge).
  bool any_repair = false;
  for (const te::Scheme* s : schemes) {
    any_repair |= s->reaction() == te::FailureReaction::kRepairDags;
  }
  const std::shared_ptr<const DagSet> repaired =
      any_repair ? repairDags(g, dags, failedEdgeMask(g, f)) : nullptr;
  std::vector<routing::RoutingConfig> cfgs;
  cfgs.reserve(n);
  for (int s = 0; s < n; ++s) {
    if (schemes[s]->reaction() == te::FailureReaction::kReconverge) {
      cfgs.push_back(schemes[s]->reconverge(degraded));
    } else {
      cfgs.push_back(repairRouting(g, *intact[s], repaired));
    }
  }
  for (int s = 0; s < n; ++s) {
    out.routable[s] = routesAllDemands(cfgs[s], base);
  }

  // MxLU of every routable scheme on every pool matrix: propagation only,
  // and what the floors' upper bounds are made of.
  std::vector<double> mxlu(np * n, 0.0);  // [j * n + s]
  for (std::size_t j = 0; j < np; ++j) {
    for (int s = 0; s < n; ++s) {
      if (out.routable[s]) {
        mxlu[j * n + s] =
            routing::maxLinkUtilization(degraded, cfgs[s], pool[j]);
      }
    }
  }
  // UB(j,s) = MxLU / floor; a matrix without a positive floor is unbounded.
  const auto bound = [&](std::size_t j, int s) {
    const double floor = (*floors)[j];
    return floor > 0.0 ? mxlu[j * n + s] / floor
                       : std::numeric_limits<double>::infinity();
  };
  std::vector<std::size_t> order(np);
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (floors != nullptr) {
    std::vector<double> best(np, 0.0);
    for (std::size_t j = 0; j < np; ++j) {
      for (int s = 0; s < n; ++s) {
        if (out.routable[s]) best[j] = std::max(best[j], bound(j, s));
      }
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return best[a] > best[b];
                     });
  }

  // The common post-failure ruler: unrestricted OPTU on the surviving
  // network, one warm re-solve per pool matrix (the failure entered the
  // engine as a bounds mutation; see OptuEngine::setFailedEdges).
  engine.setFailedEdges(directedEdges(g, f));
  out.optu.assign(np, 0.0);
  for (const std::size_t j : order) {
    if (floors != nullptr) {
      bool can_raise = false;
      for (int s = 0; s < n && !can_raise; ++s) {
        can_raise = out.routable[s] &&
                    !(bound(j, s) < out.ratio[s] * (1.0 - kFloorPruneTol));
      }
      if (!can_raise) continue;
    }
    const double optu = bases != nullptr
                            ? engine.utilization(pool[j], (*bases)[j])
                            : engine.utilization(pool[j]);
    out.optu[j] = optu;
    if (optu <= 0.0) continue;  // zero matrix
    for (int s = 0; s < n; ++s) {
      if (out.routable[s]) {
        out.ratio[s] = std::max(out.ratio[s], mxlu[j * n + s] / optu);
      }
    }
  }
  return out;
}

FailureSweepResult FailureEvaluator::evaluate(
    const std::vector<FailureScenario>& failures) const {
  const int n = static_cast<int>(schemes_.size());
  FailureSweepResult result;
  result.outcomes.resize(failures.size());
  result.schemes.reserve(n);
  for (const te::Scheme* s : schemes_) {
    result.schemes.emplace_back(s->key(), SchemeFailureStats{});
  }

  // Fixed-size chunks of the failure list: each chunk owns one OptuEngine
  // whose sessions stay warm across the chunk's failures x pool matrices.
  // Chunking is independent of the thread count, so results (and pivot
  // counts) are bit-identical for any COYOTE_THREADS.
  const std::size_t chunks =
      (failures.size() + kFailureChunk - 1) / kFailureChunk;
  util::ThreadPool::global().parallelFor(chunks, [&](std::size_t c) {
    routing::OptuEngine engine(g_, opt_.coyote.lp);  // unrestricted OPTU
    const std::size_t begin = c * kFailureChunk;
    const std::size_t end =
        std::min(failures.size(), begin + kFailureChunk);
    for (std::size_t i = begin; i < end; ++i) {
      result.outcomes[i] = evaluateFailure(g_, *dags_, base_, pool_, schemes_,
                                           intact_, failures[i], engine);
    }
  });

  // Serial reduction in scenario order.
  std::vector<std::vector<double>> ratios(n);
  for (const FailureOutcome& out : result.outcomes) {
    if (!out.evaluated) {
      ++result.disconnecting;
      result.disconnected_pairs += out.disconnected_pairs;
      continue;
    }
    ++result.evaluated;
    for (int s = 0; s < n; ++s) {
      if (out.routable[s]) {
        ratios[s].push_back(out.ratio[s]);
      } else {
        ++result.schemes[s].second.unroutable;
      }
    }
  }
  for (int s = 0; s < n; ++s) {
    std::vector<double>& r = ratios[s];
    std::sort(r.begin(), r.end());
    SchemeFailureStats& stats = result.schemes[s].second;
    stats.evaluated = static_cast<int>(r.size());
    if (!r.empty()) {
      stats.worst = r.back();
      stats.median = util::median(r);
      stats.p95 = util::nearestRank(r, 0.95);
    }
  }
  return result;
}

}  // namespace coyote::failure
