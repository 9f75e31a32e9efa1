// In-DAG traffic-splitting optimization (Sec. V-C, Appendix C).
//
// Inner problem: given per-destination DAGs and a finite set T of demand
// matrices normalized to OPTU == 1, minimize the worst link utilization
//
//     R(phi) = max over (D in T, edge e) of load_e(phi, D) / c(e).
//
// Every load is a posynomial in phi, so R is convex in the log-variables
// phi~ = log phi (a max of log-sum-exps) -- the geometric-programming
// structure the paper exploits. We solve it with exact reverse-mode
// gradients through the flow propagation (the adjoint recursion
// mu_t(u) = sum over DAG edges e=(u,v) of phi_t(e) * (G(e) + mu_t(v)),
// dObj/dphi_t(u,v) = F_t(u) * (G(e) + mu_t(v))) and two interchangeable
// first-order schemes:
//
//  * kGpCondensation -- the paper's approach: gradient steps on the
//    softmax-smoothed objective in log space, renormalizing each
//    (node,destination) splitting vector after every step. Renormalization
//    is exactly the fixed point of the monomial approximation of the
//    simplex constraint sum(phi) = 1 (Appendix C), iterated per step.
//  * kMirrorDescent -- exponentiated-gradient (multiplicative-weights)
//    updates in phi space, which keep each splitting vector on the simplex
//    by construction.
//
// Both recover the closed-form optimum of the paper's running example
// (golden-ratio splits; Appendix B) -- enforced by unit tests.
//
// Storage is per destination DAG, never n x m. Each destination's DAG is
// a CSR in topological order: its tails (nodes with out-edges) own
// contiguous slots, one per out-edge, and a slot names its edge, its tail
// and its head. phi, the best iterate and the gradient are flat arrays
// indexed by slot; the forward inflow and demand column of each
// (matrix, destination) pair with positive demand are stored per tail.
// Per iteration:
//
//  * forward   -- one task per pool matrix propagates its active
//                 destinations and writes that matrix's link utilizations;
//  * weights   -- one task per matrix computes the softmax weights
//                 (exp() skipped below an exponent of -28, whose result is
//                 under the 1e-12 cutoff anyway, and evaluated once for all
//                 unloaded edges, which share one exponent); wsum is summed
//                 serially in (matrix, edge) order;
//  * seed      -- G = w / (wsum * cap) once per (matrix, edge);
//  * backward  -- one task per destination runs the adjoint for each
//                 active matrix in ascending order, then updates that
//                 destination's splitting vectors.
//
// The result is bit-identical for any thread count and to a dense
// reference implementation: every floating-point sum keeps its order
// (a link's load adds destinations in ascending order; a gradient entry
// adds matrices in ascending order; each node's inflow and adjoint add
// out-edges in DAG order), every term is computed by the same expression,
// and the only work skipped contributes exactly +0.0 -- a (matrix,
// destination) adjoint whose G terms on the DAG are all zero leaves mu,
// and therefore the gradient, at +0.0. Small problems run the same loops
// inline, where a pool dispatch would cost more than the loop.
#pragma once

#include "routing/evaluator.hpp"

namespace coyote::core {

enum class SplitMethod { kGpCondensation, kMirrorDescent };

struct SplittingOptions {
  SplitMethod method = SplitMethod::kGpCondensation;
  int iterations = 600;
  /// Ratios below this are clamped (and renormalized) at the end; keeps the
  /// configurations implementable with few virtual links.
  double prune_below = 1e-4;
  /// Early stop: break out when the best pool utilization has not improved
  /// for this many consecutive iterations. 0 (the sweep default) runs the
  /// full budget; the serve daemon sets it so a warm-seeded `reoptimize`
  /// converges in a fraction of the budget (the skipped iterations are
  /// reported via the `iterations_used` out-param).
  int patience = 0;
};

/// Optimizes splitting ratios against the evaluator's pool, starting from
/// `init` (commonly RoutingConfig::uniform). Returns the best configuration
/// seen, by exact pool ratio. When `iterations_used` is non-null it receives
/// the number of forward/backward iterations actually executed (less than
/// opt.iterations when patience stopped early).
[[nodiscard]] routing::RoutingConfig optimizeSplitting(
    const Graph& g, const routing::PerformanceEvaluator& pool,
    const routing::RoutingConfig& init, const SplittingOptions& opt = {},
    int* iterations_used = nullptr);

}  // namespace coyote::core
