// Online TE daemon core: a long-running service over warm LP sessions.
//
// Everything else in this repo is one-shot (build network -> optimize ->
// evaluate -> exit); TeService is the deployment shape -- ROADMAP item 1.
// One service instance keeps a topology, a scheme set and the retained
// warm LP sessions resident and answers a stream of events, each as a
// warm re-solve, never a rebuild:
//
//  * demand-matrix updates  -- the corner pool is rebuilt around the new
//    base matrix; the resident routing::OptuEngine re-solves each corner
//    by rhs mutation from that corner's own basis at the last event;
//  * link up/down           -- enters the engine via setFailedEdges (a
//    bounds mutation, which the dual simplex repairs from each matrix's
//    basis), and each scheme reacts per its te::FailureReaction:
//    kReconverge schemes re-run SPF on the survivors, kRepairDags schemes
//    repair their precomputed DAGs;
//  * margin changes         -- the uncertainty box and its corner pool
//    move; the running configurations stay (see below);
//  * read-only what-if queries -- hypothetical extra failures evaluated
//    on top of the current state without mutating it. The state's OPTU
//    values are floors for the what-if's (more links fail), so a matrix
//    whose MxLU / floor bound cannot raise any scheme's ratio is never
//    solved (failure::evaluateFailure);
//  * reoptimize             -- the one explicitly heavy event: every
//    scheme's intact configuration is recomputed from the current base
//    matrix and margin.
//
// The split between evaluation and optimization is deliberate and
// mirrors deployment: demand/link/margin events re-*evaluate* the
// resident configurations under the new conditions (cheap, warm), while
// recomputing the configurations themselves -- re-running the COYOTE
// optimizer -- only happens when the operator requests "reoptimize".
// Every evaluating event is one failure::evaluateFailure call on the
// failed links (plus a what-if's), over failure::intactConfigs routing:
// the failure sweeps' evaluator, with its unrestricted-OPTU ruler.
//
// Protocol: line-delimited util::json objects, one request per line, one
// response line per request, in request order.
//
//   {"op":"state"}                                  read-only snapshot
//   {"op":"demand","scale":1.1}                     scale whole matrix
//   {"op":"demand","set":[["A","B",1.5],...]}       set entries (after
//                                                   "scale" when both)
//   {"op":"link","link":["A","B"],"up":false}       fail / restore
//   {"op":"margin","value":2.5}                     move the box
//   {"op":"what-if","links":[["A","B"],...]}        hypothetical failures
//   {"op":"reoptimize"}                             recompute schemes
//
// Every response carries {"seq":N,"op":...,"ok":true|false} plus either
// an evaluation payload (disconnected_pairs / evaluated / ratios /
// unroutable / failed) or {"error":...}; a client "id" member is echoed
// back. Malformed lines produce an error response, never daemon death.
//
// State and memo: the state is the base matrix, the margin and its corner
// pool, the failed links, the resident configurations, and a memo of one
// OPTU basis and one OPTU value per pool matrix. Every event evaluates on
// a copy of the state, each matrix solved from its memo basis
// (routing::OptuEngine::utilization(d, basis)). A state-changing event
// commits the copy, updated memo included, only when everything
// succeeded, so a failed event leaves no trace; a what-if discards its
// copy. The memo survives demand and margin pool rebuilds (corner j keeps
// its pattern); the OPTU values serve as what-if floors only while the
// last state event solved every matrix of the current pool.
//
// Determinism: requests are processed in input order, one at a time. An
// OPTU solve depends on its matrix, the failed links and the basis it
// starts from, never on what the engine solved before, and only state
// events write the memo. So a response depends only on the state events
// before it: removing what-ifs from a stream leaves every other answer
// byte-identical (apart from seq). handleScript is handleLine over each
// line, so a batch replay answers byte for byte what the stdin daemon
// answers for the same lines. Requests never fan out over threads; only
// the optimizer under "reoptimize" (and under construction) runs loops
// on the process pool that COYOTE_THREADS sizes, and those are
// bit-identical for any thread count, so responses are too.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/coyote.hpp"
#include "failure/evaluate.hpp"
#include "graph/graph.hpp"
#include "lp/lp.hpp"
#include "routing/config.hpp"
#include "routing/optu.hpp"
#include "scheme/registry.hpp"
#include "tm/traffic_matrix.hpp"
#include "tm/uncertainty.hpp"
#include "util/json.hpp"

namespace coyote::serve {

/// The failure sweeps' options, since every event is one failure
/// evaluation: `margin` is the initial box (movable via the "margin" op),
/// `pool` the corner-pool shape (every matrix costs up to one OPTU
/// re-solve per event), `coyote` the optimizer of the intact configs, and
/// `schemes` the resident schemes in response order.
struct ServeOptions : failure::FailureEvalOptions {
  ServeOptions() {
    // Early stop for the resident optimizer: a "reoptimize" seeded from
    // the previous ratios converges in a fraction of the budget, and the
    // skipped iterations are reported in the serve summary
    // (reoptimizeSavedIters). One-shot sweeps keep patience off.
    coyote.splitting.patience = 20;
  }
};

class TeService {
 public:
  /// Computes every scheme's intact configuration and builds the
  /// resident OPTU engine (no OPTU solve: the memo fills at the first
  /// state-changing event); the service is ready for events afterwards.
  TeService(Graph g, tm::TrafficMatrix base_tm, ServeOptions opt = {});
  ~TeService();

  TeService(const TeService&) = delete;
  TeService& operator=(const TeService&) = delete;

  /// Handles one parsed request; never throws for bad requests (the
  /// response carries ok:false and an error message instead).
  [[nodiscard]] util::json::Value handle(const util::json::Value& request);

  /// Handles one protocol line: parse errors become error responses.
  [[nodiscard]] std::string handleLine(const std::string& line);

  /// Batch replay: handleLine over every line in input order, one
  /// response per line.
  [[nodiscard]] std::vector<std::string> handleScript(
      const std::vector<std::string>& lines);

  [[nodiscard]] long long eventsHandled() const { return seq_; }
  [[nodiscard]] int poolSize() const {
    return static_cast<int>(state_.pool->size());
  }
  [[nodiscard]] const std::vector<const te::Scheme*>& schemes() const {
    return schemes_;
  }
  [[nodiscard]] double margin() const { return state_.margin; }
  /// Currently failed physical links as "A-B" labels, in canonical order.
  [[nodiscard]] std::vector<std::string> failedLinks() const;
  /// Splitting-optimizer iterations saved across every "reoptimize"
  /// event so far: each recompute is seeded from the scheme's previous
  /// ratios (coyote.warm_init) and stops early once converged
  /// (splitting.patience); this totals the budget it never spent.
  [[nodiscard]] long long reoptimizeSavedIters() const {
    return reopt_saved_iters_;
  }

 private:
  /// Everything a state-changing event changes. An event builds the next
  /// State from a copy of the current one, evaluates it, and commits it
  /// only when the evaluation succeeds, so a failed event leaves no trace.
  struct State {
    tm::TrafficMatrix base{0};
    double margin = 0.0;
    /// Corner pool of the box. Shared, like `intact`, between the state
    /// and the copy an event builds until the event replaces it.
    std::shared_ptr<const std::vector<tm::TrafficMatrix>> pool;
    std::vector<EdgeId> failed;  ///< failed links (canonical ids, ascending)
    /// Parallel to schemes_; disengaged for kReconverge schemes.
    std::shared_ptr<const std::vector<std::optional<routing::RoutingConfig>>>
        intact;
    /// Per pool matrix: its optimal OPTU basis at the last evaluated state
    /// event. Kept across pool rebuilds (corner j keeps its pattern).
    std::vector<lp::Basis> bases;
    /// Per pool matrix: OPTU on `failed` at the last state event, when that
    /// event solved every matrix of `pool`; empty otherwise. Floors for a
    /// what-if, whose failed set contains `failed`.
    std::vector<double> optu;
  };

  /// The corner pool of the box `margin` around `base`; throws
  /// std::invalid_argument when the box is non-finite or no entry of
  /// `base` is a positive normal number.
  [[nodiscard]] std::shared_ptr<const std::vector<tm::TrafficMatrix>>
  demandPool(const tm::TrafficMatrix& base, double margin) const;
  /// Every scheme's intact configuration for `state`'s base and margin,
  /// seeded from `warm_from` when given; `saved` accumulates the patience
  /// savings (see reoptimizeSavedIters()).
  [[nodiscard]] std::shared_ptr<
      const std::vector<std::optional<routing::RoutingConfig>>>
  schemeConfigs(const State& state,
                const std::vector<std::optional<routing::RoutingConfig>>*
                    warm_from = nullptr,
                int* saved = nullptr) const;
  /// Evaluates `state`'s configurations on `failed` with `state`'s pool,
  /// starting each matrix from its basis in `bases` (updated in place).
  [[nodiscard]] failure::FailureOutcome evaluate(
      const State& state, const std::vector<EdgeId>& failed,
      std::vector<lp::Basis>& bases, const std::vector<double>* floors);

  [[nodiscard]] util::json::Value dispatch(const util::json::Value& request,
                                           long long seq);
  [[nodiscard]] util::json::Value handleWhatIf(const util::json::Value& request,
                                               long long seq);
  /// Canonical edge id for ["A","B"]; throws std::invalid_argument with
  /// a client-facing message for unknown nodes or non-adjacent pairs.
  [[nodiscard]] EdgeId parseLink(const util::json::Value& link) const;
  void addEvalPayload(util::json::Value& response,
                      const failure::FailureOutcome& ev,
                      const std::vector<EdgeId>& links) const;

  Graph g_;
  std::shared_ptr<const DagSet> dags_;
  ServeOptions opt_;
  std::vector<const te::Scheme*> schemes_;
  State state_;
  /// The resident ruler: unrestricted OPTU. Every solve starts from a
  /// basis of the memo (State::bases), so the engine's own solve history
  /// never reaches an answer.
  std::unique_ptr<routing::OptuEngine> engine_;
  long long seq_ = 0;
  long long reopt_saved_iters_ = 0;  ///< see reoptimizeSavedIters()
};

}  // namespace coyote::serve
