// Process-wide LP work accounting.
//
// Every lp::SimplexSolver::solve() (and therefore every lp::solve()) adds
// its pivot/refactorization counts and wall time to a set of atomic
// counters. The experiment runner snapshots the counters around each
// scenario to report `lp_solves`, `lp_pivots`, and `timing.lp_cpu_seconds`
// in the BENCH JSON, and to turn Status::kIterLimit --
// which the routing layers would otherwise fold into a silent ratio-0 /
// non-optimal objective -- into a hard per-scenario error.
//
// Counters are totals since process start; consumers always work with the
// difference of two snapshots. All counts are deterministic for a given
// binary and scenario (warm-start chains are chunked independently of the
// thread count); only `seconds` is wall-clock noisy.
#pragma once

#include <atomic>
#include <cstdint>

namespace coyote::lp {

/// A point-in-time copy of the global counters.
struct StatsSnapshot {
  std::int64_t solves = 0;            ///< completed solve() calls
  std::int64_t iterations = 0;        ///< simplex pivots + bound flips
  std::int64_t phase1_iters = 0;      ///< iterations restoring feasibility
  std::int64_t refactorizations = 0;  ///< basis refactorizations
  std::int64_t iter_limit_solves = 0; ///< solves that hit max_iterations
  std::int64_t pricing_hits = 0;      ///< devex candidate-list pricing hits
  std::int64_t degen_rescues = 0;     ///< ratio-test degeneracy rescues
  std::int64_t lu_updates = 0;        ///< Forrest-Tomlin updates applied
  std::int64_t lu_fill = 0;           ///< summed fresh-factorization nonzeros
  std::int64_t dual_pivots = 0;       ///< dual-simplex pivots (warm repair)
  std::int64_t decomp_rounds = 0;     ///< OPTU block-decomposition rounds
  double seconds = 0.0;               ///< wall time inside solve()

  StatsSnapshot operator-(const StatsSnapshot& rhs) const {
    return {solves - rhs.solves,
            iterations - rhs.iterations,
            phase1_iters - rhs.phase1_iters,
            refactorizations - rhs.refactorizations,
            iter_limit_solves - rhs.iter_limit_solves,
            pricing_hits - rhs.pricing_hits,
            degen_rescues - rhs.degen_rescues,
            lu_updates - rhs.lu_updates,
            lu_fill - rhs.lu_fill,
            dual_pivots - rhs.dual_pivots,
            decomp_rounds - rhs.decomp_rounds,
            seconds - rhs.seconds};
  }
};

/// The process-wide accumulator. Thread-safe; solver-internal.
class GlobalStats {
 public:
  static GlobalStats& instance();

  void record(const StatsSnapshot& delta);
  [[nodiscard]] StatsSnapshot snapshot() const;

 private:
  std::atomic<std::int64_t> solves_{0};
  std::atomic<std::int64_t> iterations_{0};
  std::atomic<std::int64_t> phase1_iters_{0};
  std::atomic<std::int64_t> refactorizations_{0};
  std::atomic<std::int64_t> iter_limit_solves_{0};
  std::atomic<std::int64_t> pricing_hits_{0};
  std::atomic<std::int64_t> degen_rescues_{0};
  std::atomic<std::int64_t> lu_updates_{0};
  std::atomic<std::int64_t> lu_fill_{0};
  std::atomic<std::int64_t> dual_pivots_{0};
  std::atomic<std::int64_t> decomp_rounds_{0};
  std::atomic<std::int64_t> nanos_{0};
};

/// Shorthand for GlobalStats::instance().snapshot().
[[nodiscard]] StatsSnapshot statsSnapshot();

}  // namespace coyote::lp
