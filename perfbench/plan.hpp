// The offline planning job (paper Sec. V, Figs. 6-9), made layer by layer.
//
// runPlan() performs the same public calls, in the same order, as
// exp::NetworkSweep over the paper's four schemes (ECMP, Base,
// COYOTE-oblivious, COYOTE-pk) -- the constructor's intact schemes, then
// run(margin) per margin -- but calls each layer directly so every call is
// a timed Probe operation. On top of the sweep it optionally certifies
// COYOTE-pk at every margin with the exact slave-LP oracle, and finally
// synthesizes and verifies fibbing lies for every destination of the last
// margin's COYOTE-pk configuration. tests/crosscheck_test.cpp pins the
// ratios and the LP work against NetworkSweep::run bit for bit.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "exp/sweep.hpp"
#include "graph/dag.hpp"
#include "graph/graph.hpp"
#include "probe.hpp"
#include "tm/traffic_matrix.hpp"

namespace perfbench {

struct PlanSpec {
  std::vector<double> margins;
  /// Pools, optimizer budget and LP options, as NetworkSweep takes them
  /// (exact_oracle / exact_eval / threads must stay at their defaults).
  coyote::exp::SweepOptions sweep;
  /// Certify COYOTE-pk over the whole box at every margin.
  bool exact_oracle = false;
};

/// One margin step, in the sweep's scheme order.
struct PlanRow {
  double margin = 1.0;
  std::vector<double> ratio;  ///< ECMP, Base, COYOTE-obl, COYOTE-pk
  double exact_ratio = 0.0;   ///< oracle-certified COYOTE-pk (0 without)
  /// LP work of the sweep's own calls at this margin (the oracle's
  /// certification is not part of NetworkSweep::run and is excluded).
  std::int64_t lp_solves = 0;
  std::int64_t lp_pivots = 0;
};

struct PlanResult {
  std::vector<PlanRow> rows;
  int split_iters = 0;  ///< optimizeSplitting iterations actually run
  std::int64_t optu_matrices = 0;  ///< matrices handed to OPTU calls
  int lie_fake_nodes = 0;
  int lie_routers = 0;  ///< (router, destination) pairs lied to
  int lie_dests = 0;
  int lie_verified = 0;

  /// COYOTE-pk's pool ratio, worst over margins.
  [[nodiscard]] double teRatio() const;
  /// COYOTE-pk's oracle-certified ratio, worst over margins.
  [[nodiscard]] double teRatioExact() const;
};

/// Index of COYOTE-pk / ECMP in PlanRow::ratio.
inline constexpr int kEcmp = 0;
inline constexpr int kPartial = 3;

/// Runs the plan; failed checks mark their operation in `probe` (see
/// README.md for the list). Group ids: 0 intact schemes, 1.. the margin
/// steps, margins.size() + 1 the lies.
[[nodiscard]] PlanResult runPlan(
    const coyote::Graph& g, std::shared_ptr<const coyote::DagSet> dags,
    const coyote::tm::TrafficMatrix& base, const PlanSpec& spec,
    Probe& probe);

}  // namespace perfbench
