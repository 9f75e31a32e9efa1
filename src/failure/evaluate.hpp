// Scheme evaluation over a set of failure scenarios, generic over a
// te::Scheme list (default: the paper's four, from
// te::SchemeRegistry::builtin()).
//
// For each failure the surviving network is derived (degrade.hpp) and each
// scheme reacts the way its te::FailureReaction says it would in
// deployment: kReconverge schemes re-run OSPF SPF on the survivors
// (Scheme::reconverge, over the scheme's substrate weights), kRepairDags
// schemes repair their precomputed DAGs locally. Each scheme's
// post-failure performance ratio is
//
//     max over the corner pool D of  MxLU(repaired cfg, D) / OPTU_f(D)
//
// where OPTU_f is the *unrestricted* demands-aware optimum on the
// surviving network -- the common ruler all schemes (whose DAG sets
// now differ) are measured against. Note this is a stricter normalization
// than the intact sweeps' within-DAG optimum, so post-failure ratios are
// not directly comparable to the intact rows of the same scenario.
//
// intactConfigs() and evaluateFailure() below are that computation; the
// sweeps (FailureEvaluator) and every serve event (serve/service.hpp)
// call them.
//
// OPTU_f re-solves ride routing::OptuEngine::setFailedEdges: a failure is
// a bounds mutation on a retained simplex session, not an LP rebuild, so
// sweeping hundreds of failure variants reuses warm bases (the pivot-count
// payoff is surfaced in the BENCH lp_* telemetry; coyote.lp.cold disables
// it for A/B measurement). Failures are fanned out over
// util::ThreadPool::global() in fixed-size chunks -- each chunk one engine
// with its own warm chain -- so results are bit-identical for any
// COYOTE_THREADS. The serve daemon instead keeps one OPTU basis per pool
// matrix across events and passes the last state's OPTU values as floors
// that let a what-if skip matrices that cannot raise a ratio (see
// evaluateFailure).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/coyote.hpp"
#include "failure/degrade.hpp"
#include "failure/scenario.hpp"
#include "lp/lp.hpp"
#include "routing/config.hpp"
#include "routing/optu.hpp"
#include "scheme/registry.hpp"
#include "tm/uncertainty.hpp"

namespace coyote::failure {

struct FailureEvalOptions {
  /// Uncertainty margin of the evaluation box around the base matrix.
  double margin = 2.0;
  /// Corner-pool shape for the post-failure adversary (smaller than the
  /// intact sweeps' default: every matrix costs one OPTU LP per failure).
  tm::PoolOptions pool;
  /// Optimizer options for the intact COYOTE schemes.
  core::CoyoteOptions coyote;
  /// Schemes to sweep, in row order; empty selects
  /// te::SchemeRegistry::builtin().defaults() (the paper's four).
  std::vector<const te::Scheme*> schemes;

  FailureEvalOptions() {
    pool.source_hotspots = false;
    pool.max_hotspots = 8;
    pool.random_corners = 4;
    pool.pair_hotspots = 4;
    pool.seed = 1;
    coyote.splitting.iterations = 300;
  }
};

/// One failure scenario's verdict. The per-scheme vectors are parallel to
/// the evaluated scheme list (FailureEvaluator::schemes(), same order).
struct FailureOutcome {
  std::string label;
  /// (s,t) pairs with base demand the surviving *graph* cannot connect.
  /// Positive means no scheme can serve the demand: the scenario is
  /// reported but not ratio-evaluated.
  int disconnected_pairs = 0;
  bool evaluated = false;
  /// Post-failure performance ratio per scheme; valid when routable.
  std::vector<double> ratio;
  /// False when the scheme's repaired DAGs strand a demanded node even
  /// though the graph stays connected (kRepairDags schemes only; a
  /// reconverged scheme is always routable on a connected graph).
  std::vector<char> routable;
  /// OPTU_f of each pool matrix, parallel to the pool: 0 for a matrix the
  /// floors pruned (see evaluateFailure); empty when not evaluated.
  std::vector<double> optu;
};

/// Distribution summary of one scheme's ratios over evaluated failures.
struct SchemeFailureStats {
  double worst = 0.0;
  double median = 0.0;
  double p95 = 0.0;       ///< nearest-rank 95th percentile
  int evaluated = 0;      ///< failures contributing to the stats
  int unroutable = 0;     ///< failures this scheme could not serve
};

struct FailureSweepResult {
  std::vector<FailureOutcome> outcomes;  ///< one per input scenario, in order
  int evaluated = 0;
  int disconnecting = 0;
  int disconnected_pairs = 0;  ///< summed over disconnecting scenarios
  /// Per-scheme stats, keyed by scheme key, in the evaluator's scheme
  /// order (the registry keys replace the old fixed Scheme enum).
  std::vector<std::pair<std::string, SchemeFailureStats>> schemes;
};

/// Every scheme's intact configuration, parallel to `schemes`, computed
/// with `coyote` as-is; margin-dependent schemes optimize against `box`
/// over `pool`. kReconverge schemes get none (Scheme::reconverge rebuilds
/// their routing from the degraded graph alone). Engaged `previous`
/// entries seed warm_init; `saved` accumulates splitting_iters_saved.
[[nodiscard]] std::vector<std::optional<routing::RoutingConfig>>
intactConfigs(
    const Graph& g, const std::shared_ptr<const DagSet>& dags,
    const tm::TrafficMatrix& base,
    const std::vector<const te::Scheme*>& schemes,
    const core::CoyoteOptions& coyote, const tm::DemandBounds& box,
    const std::vector<tm::TrafficMatrix>& pool,
    const std::vector<std::optional<routing::RoutingConfig>>* previous =
        nullptr,
    int* saved = nullptr);

/// Relative slack of the floor pruning in evaluateFailure: a matrix is
/// skipped only when its bound is below every ratio by more than this,
/// so LP round-off in the floors cannot prune a matrix that sets a ratio.
inline constexpr double kFloorPruneTol = 1e-9;

/// The verdict on failure `f` for `schemes` with intactConfigs() routing
/// over the raw corner `pool`. `engine` (unrestricted OPTU on g) takes the
/// failure as a bounds mutation, so calls on one engine re-solve warm.
///
/// Without `bases` each pool matrix warm-starts from the engine's previous
/// solve, whatever it was (the sweeps' per-chunk chains). With `bases`
/// (one per pool matrix) matrix j starts from (*bases)[j], which is
/// overwritten with its optimal basis (OptuEngine::utilization(d, basis)).
///
/// `floors`, one per pool matrix, are lower bounds on OPTU_f: the OPTU
/// values of a failed set that `f` contains (OPTU never decreases as links
/// fail). With them, UB(j,s) = MxLU(cfg_s, pool[j]) / floors[j] bounds
/// scheme s's ratio on matrix j; matrices are solved in descending
/// max-over-s UB (ties by index) and matrix j is skipped once
/// UB(j,s) < ratio_s * (1 - kFloorPruneTol) for every routable s. Without
/// floors every matrix is solved, in index order.
[[nodiscard]] FailureOutcome evaluateFailure(
    const Graph& g, const DagSet& dags, const tm::TrafficMatrix& base,
    const std::vector<tm::TrafficMatrix>& pool,
    const std::vector<const te::Scheme*>& schemes,
    const std::vector<std::optional<routing::RoutingConfig>>& intact,
    const FailureScenario& f, routing::OptuEngine& engine,
    std::vector<lp::Basis>* bases = nullptr,
    const std::vector<double>* floors = nullptr);

/// Computes the intact schemes once, then sweeps failure sets against
/// them. One evaluator may run several sweeps (e.g. -fail1 and -srlg).
class FailureEvaluator {
 public:
  FailureEvaluator(const Graph& g, std::shared_ptr<const DagSet> dags,
                   const tm::TrafficMatrix& base_tm, FailureEvalOptions opt);

  [[nodiscard]] FailureSweepResult evaluate(
      const std::vector<FailureScenario>& failures) const;

  /// Failures per warm-chain chunk in evaluate(). Fixed (not derived from
  /// the thread count) so results never depend on parallelism.
  static constexpr int kFailureChunk = 4;

  [[nodiscard]] int poolSize() const { return static_cast<int>(pool_.size()); }
  [[nodiscard]] const std::vector<const te::Scheme*>& schemes() const {
    return schemes_;
  }
  /// Intact routing of the scheme with this registry key; throws
  /// std::invalid_argument for a key outside the evaluator's scheme list
  /// or for a kReconverge scheme (those recompute their post-failure
  /// routing from the degraded graph alone and keep no intact config).
  [[nodiscard]] const routing::RoutingConfig& intactRouting(
      const std::string& key) const;

 private:
  const Graph& g_;
  std::shared_ptr<const DagSet> dags_;
  tm::TrafficMatrix base_;
  FailureEvalOptions opt_;
  std::vector<const te::Scheme*> schemes_;
  std::vector<tm::TrafficMatrix> pool_;  ///< raw box corners (unnormalized)
  /// Parallel to schemes_; disengaged for kReconverge schemes.
  std::vector<std::optional<routing::RoutingConfig>> intact_;
};

}  // namespace coyote::failure
