// The sparse revised-simplex session engine: warm starts, mutations
// (setObjective / setRhs / setBounds / addRow), bounded-variable corner
// cases, degenerate/cycling instances, and -- under COYOTE_FULL=1 -- a
// warm-vs-cold OPTU property sweep over every registered scenario.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "core/dag_builder.hpp"
#include "exp/scenario.hpp"
#include "lp/lp.hpp"
#include "lp/stats.hpp"
#include "routing/config.hpp"
#include "routing/optu.hpp"
#include "routing/worst_case.hpp"
#include "tm/traffic_matrix.hpp"
#include "tm/uncertainty.hpp"
#include "util/env.hpp"
#include "util/thread_pool.hpp"

namespace coyote::lp {
namespace {

constexpr double kTol = 1e-7;

LpProblem productionPlan() {
  // max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6 -> (3, 1.5), obj 21.
  LpProblem p(Sense::kMaximize);
  const int x = p.addVar(5.0);
  const int y = p.addVar(4.0);
  p.addConstraint({{x, 6.0}, {y, 4.0}}, Rel::kLe, 24.0);
  p.addConstraint({{x, 1.0}, {y, 2.0}}, Rel::kLe, 6.0);
  return p;
}

/// Band-structured packing LP: max sum (1 + 0.1 j) x_j with x_j in [0, 4]
/// and every window of three consecutive variables summing to at most 5.
LpProblem bandLp(int vars) {
  LpProblem p(Sense::kMaximize);
  for (int j = 0; j < vars; ++j) p.addVar(1.0 + 0.1 * j, 0.0, 4.0);
  for (int i = 0; i + 2 < vars; ++i) {
    p.addConstraint({{i, 1.0}, {i + 1, 1.0}, {i + 2, 1.0}}, Rel::kLe, 5.0);
  }
  return p;
}

TEST(SimplexSession, SolveMatchesOneShot) {
  SimplexSolver session(productionPlan());
  const LpResult warm = session.solve();
  const LpResult cold = solve(productionPlan());
  ASSERT_EQ(warm.status, Status::kOptimal);
  EXPECT_NEAR(warm.objective, 21.0, kTol);
  EXPECT_DOUBLE_EQ(warm.objective, cold.objective);
  EXPECT_FALSE(warm.basis.empty());
}

TEST(SimplexSession, WarmObjectiveChangeAgreesWithCold) {
  SimplexSolver session(productionPlan());
  ASSERT_EQ(session.solve().status, Status::kOptimal);

  session.setObjective(0, 1.0);  // max x + 4y now
  const LpResult warm = session.solve();
  LpProblem changed = productionPlan();
  changed.setObjective(0, 1.0);
  const LpResult cold = solve(changed);
  ASSERT_EQ(warm.status, Status::kOptimal);
  ASSERT_EQ(cold.status, Status::kOptimal);
  EXPECT_NEAR(warm.objective, cold.objective,
              kTol * (1.0 + std::abs(cold.objective)));
  // The re-solve should be cheaper than the cold solve (few pivots from a
  // retained basis; never more than the cold iteration count + slack).
  EXPECT_LE(warm.stats.phase1_iters, 0);
}

TEST(SimplexSession, WarmRhsChangeAgreesWithCold) {
  SimplexSolver session(productionPlan());
  ASSERT_EQ(session.solve().status, Status::kOptimal);

  session.setRhs(0, 12.0);
  session.setRhs(1, 9.0);
  const LpResult warm = session.solve();
  LpProblem changed(Sense::kMaximize);
  const int x = changed.addVar(5.0);
  const int y = changed.addVar(4.0);
  changed.addConstraint({{x, 6.0}, {y, 4.0}}, Rel::kLe, 12.0);
  changed.addConstraint({{x, 1.0}, {y, 2.0}}, Rel::kLe, 9.0);
  const LpResult cold = solve(changed);
  ASSERT_EQ(warm.status, Status::kOptimal);
  EXPECT_NEAR(warm.objective, cold.objective,
              kTol * (1.0 + std::abs(cold.objective)));
}

TEST(SimplexSession, WarmBoundChangeAgreesWithCold) {
  SimplexSolver session(productionPlan());
  ASSERT_EQ(session.solve().status, Status::kOptimal);

  session.setBounds(0, 0.0, 1.5);  // cap x
  const LpResult warm = session.solve();
  ASSERT_EQ(warm.status, Status::kOptimal);
  // x pinned to its (binding) cap; y fills the second constraint.
  EXPECT_NEAR(warm.x[0], 1.5, kTol);
  EXPECT_NEAR(warm.objective, 5.0 * 1.5 + 4.0 * 2.25, 1e-6);

  session.setBounds(0, 0.7, 0.7);  // ub == lb: fixed variable
  const LpResult fixed = session.solve();
  ASSERT_EQ(fixed.status, Status::kOptimal);
  EXPECT_NEAR(fixed.x[0], 0.7, kTol);

  session.setBounds(0, 0.0, kInfinity);  // back to unbounded above
  const LpResult relaxed = session.solve();
  ASSERT_EQ(relaxed.status, Status::kOptimal);
  EXPECT_NEAR(relaxed.objective, 21.0, 1e-6);
}

TEST(SimplexSession, AddRowCutsTheOptimum) {
  SimplexSolver session(productionPlan());
  const LpResult before = session.solve();
  ASSERT_EQ(before.status, Status::kOptimal);
  EXPECT_NEAR(before.objective, 21.0, kTol);

  // A violated cutting plane through the old optimum (3, 1.5).
  const int row = session.addRow({{0, 1.0}, {1, 1.0}}, Rel::kLe, 3.0);
  EXPECT_EQ(row, 2);
  const LpResult after = session.solve();
  ASSERT_EQ(after.status, Status::kOptimal);
  EXPECT_LT(after.objective, before.objective - 1e-6);
  EXPECT_LE(after.x[0] + after.x[1], 3.0 + kTol);

  LpProblem cut = productionPlan();
  cut.addConstraint({{0, 1.0}, {1, 1.0}}, Rel::kLe, 3.0);
  const LpResult cold = solve(cut);
  EXPECT_NEAR(after.objective, cold.objective,
              kTol * (1.0 + std::abs(cold.objective)));
}

TEST(SimplexSession, RetainedBasisSurvivesInfeasibleInterlude) {
  SimplexSolver session(productionPlan());
  ASSERT_EQ(session.solve().status, Status::kOptimal);
  session.setRhs(0, -1.0);  // 6x + 4y <= -1 with x,y >= 0: infeasible
  EXPECT_EQ(session.solve().status, Status::kInfeasible);
  session.setRhs(0, 24.0);
  const LpResult back = session.solve();
  ASSERT_EQ(back.status, Status::kOptimal);
  EXPECT_NEAR(back.objective, 21.0, 1e-6);
}

TEST(SimplexSession, ExternalBasisWarmStartsAClone) {
  SimplexSolver a(productionPlan());
  const LpResult ra = a.solve();
  ASSERT_EQ(ra.status, Status::kOptimal);

  SimplexSolver b(productionPlan());
  b.setBasis(ra.basis);
  const LpResult rb = b.solve();
  ASSERT_EQ(rb.status, Status::kOptimal);
  EXPECT_DOUBLE_EQ(rb.objective, ra.objective);
  EXPECT_EQ(rb.stats.iterations, 0);  // already optimal
}

TEST(SimplexSession, SetBasisForgetsTheSolveHistory) {
  // The basis one rhs edit away from the final data: installed there, it
  // is dual feasible with a few violated basics (the dual simplex's case).
  constexpr int kVars = 60;
  SimplexSolver donor(bandLp(kVars));
  donor.setRhs(10, 2.0);
  const LpResult r_donor = donor.solve();
  ASSERT_EQ(r_donor.status, Status::kOptimal);
  const Basis b = r_donor.basis;

  // Session a edited every rhs twice since its last solve (away and back,
  // so its data ends where it began); session b solved another objective
  // first. Both end on bandLp's data and get the same basis.
  SimplexSolver a(bandLp(kVars));
  ASSERT_EQ(a.solve().status, Status::kOptimal);
  for (int i = 0; i + 2 < kVars; ++i) a.setRhs(i, 4.0);
  for (int i = 0; i + 2 < kVars; ++i) a.setRhs(i, 5.0);
  SimplexSolver s(bandLp(kVars));
  s.setObjective(0, 7.0);
  ASSERT_EQ(s.solve().status, Status::kOptimal);
  s.setObjective(0, 1.0);

  a.setBasis(b);
  s.setBasis(b);
  const LpResult ra = a.solve();
  const LpResult rs = s.solve();
  ASSERT_EQ(ra.status, Status::kOptimal);
  ASSERT_EQ(rs.status, Status::kOptimal);
  EXPECT_EQ(ra.objective, rs.objective);
  EXPECT_EQ(ra.x, rs.x);
  EXPECT_EQ(ra.basis.status, rs.basis.status);
  EXPECT_EQ(ra.stats.iterations, rs.stats.iterations);
  EXPECT_EQ(ra.stats.phase1_iters, rs.stats.phase1_iters);
  EXPECT_EQ(ra.stats.dual_pivots, rs.stats.dual_pivots);
  EXPECT_EQ(ra.stats.refactorizations, rs.stats.refactorizations);
  EXPECT_EQ(ra.stats.pricing_hits, rs.stats.pricing_hits);
  EXPECT_EQ(ra.stats.degen_rescues, rs.stats.degen_rescues);
  EXPECT_EQ(ra.stats.lu_updates, rs.stats.lu_updates);
  EXPECT_EQ(ra.stats.lu_fill, rs.stats.lu_fill);
  // The repair took the dual path in both: the history's rhs edits were
  // forgotten along with the basis they were measured against.
  EXPECT_GT(ra.stats.dual_pivots, 0);
}

TEST(SimplexSession, StaleBasisAfterBoundFlipIsRepaired) {
  // Install the optimal basis, then change bounds so it is primal
  // infeasible: the composite phase 1 must repair it, not crash.
  SimplexSolver session(productionPlan());
  const LpResult first = session.solve();
  ASSERT_EQ(first.status, Status::kOptimal);
  session.setBounds(0, 2.9, 3.2);
  session.setBounds(1, 0.0, 0.4);
  const LpResult repaired = session.solve();
  ASSERT_EQ(repaired.status, Status::kOptimal);
  EXPECT_GE(repaired.x[0], 2.9 - kTol);
  EXPECT_LE(repaired.x[1], 0.4 + kTol);
}

TEST(SimplexSession, ColdOptionResolvesFromTheAllLogicalBasis) {
  // Under SimplexOptions::cold every solve() starts from the all-logical
  // basis: after an rhs mutation the re-solve takes exactly the pivots of
  // a fresh session on the mutated problem and never enters the dual
  // simplex. A default session repairs the same mutation warm.
  LpProblem p = bandLp(24);
  SimplexOptions cold_opt;
  cold_opt.cold = true;
  SimplexSolver cold(p, cold_opt);
  SimplexSolver warm(p);
  ASSERT_EQ(cold.solve().status, Status::kOptimal);
  ASSERT_EQ(warm.solve().status, Status::kOptimal);

  p.setConstraintRhs(3, 4.0);
  cold.setRhs(3, 4.0);
  warm.setRhs(3, 4.0);
  const LpResult fresh = SimplexSolver(p).solve();
  const LpResult cold_r = cold.solve();
  const LpResult warm_r = warm.solve();
  ASSERT_EQ(fresh.status, Status::kOptimal);
  ASSERT_EQ(cold_r.status, Status::kOptimal);
  ASSERT_EQ(warm_r.status, Status::kOptimal);
  EXPECT_EQ(cold_r.stats.iterations, fresh.stats.iterations);
  EXPECT_EQ(cold_r.stats.dual_pivots, 0);
  EXPECT_LT(warm_r.stats.iterations, fresh.stats.iterations);
  EXPECT_NEAR(cold_r.objective, fresh.objective,
              kTol * (1.0 + std::abs(fresh.objective)));
  EXPECT_NEAR(warm_r.objective, fresh.objective,
              kTol * (1.0 + std::abs(fresh.objective)));
}

TEST(SimplexEngine, BealeCyclingInstanceTerminates) {
  // Beale's classic cycling example: most-negative-reduced-cost pricing
  // cycles without an anti-cycling rule; the stall detector must fall
  // back to Bland and terminate at the optimum (objective -0.05).
  SimplexOptions opt;
  opt.stall_limit = 6;  // force the fallback quickly
  LpProblem p(Sense::kMinimize);
  const int x1 = p.addVar(-0.75);
  const int x2 = p.addVar(150.0);
  const int x3 = p.addVar(-0.02);
  const int x4 = p.addVar(6.0);
  p.addConstraint({{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
                  Rel::kLe, 0.0);
  p.addConstraint({{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
                  Rel::kLe, 0.0);
  p.addConstraint({{x3, 1.0}}, Rel::kLe, 1.0);
  const LpResult r = solve(p, opt);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.objective, -0.05, 1e-9);
}

TEST(SimplexEngine, DevexAndBlandAgreeOnBealeInstance) {
  // The same instance under devex with an immediate Bland fallback
  // (stall_limit = 0 trips it on the first degenerate pivot), a quick one
  // and the default. All three must land on the same optimum.
  LpProblem p(Sense::kMinimize);
  const int x1 = p.addVar(-0.75);
  const int x2 = p.addVar(150.0);
  const int x3 = p.addVar(-0.02);
  const int x4 = p.addVar(6.0);
  p.addConstraint({{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
                  Rel::kLe, 0.0);
  p.addConstraint({{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
                  Rel::kLe, 0.0);
  p.addConstraint({{x3, 1.0}}, Rel::kLe, 1.0);

  for (const int stall_limit : {0, 6, 2000}) {
    SimplexOptions opt;
    opt.stall_limit = stall_limit;
    const LpResult r = solve(p, opt);
    ASSERT_EQ(r.status, Status::kOptimal) << "stall_limit=" << stall_limit;
    EXPECT_NEAR(r.objective, -0.05, 1e-9) << "stall_limit=" << stall_limit;
  }
}

TEST(SimplexEngine, HarrisRatioTestSolvesDegenerateVertices) {
  {  // Eight redundant hyperplanes through the optimum: every ratio test
    // ties, so the Harris second pass picks among equal-step blockers by
    // pivot magnitude. Optimum is x = (2, 0, 2), objective 4 + 2eps... the
    // exact value: max x+y+z with x+ky+z <= 4 (k=1..8), x <= 2 -> (2,0,2).
    LpProblem p(Sense::kMaximize);
    const int x = p.addVar(1.0);
    const int y = p.addVar(1.0);
    const int z = p.addVar(1.0);
    for (int k = 1; k <= 8; ++k) {
      p.addConstraint({{x, 1.0}, {y, static_cast<double>(k)}, {z, 1.0}},
                      Rel::kLe, 4.0);
    }
    p.addConstraint({{x, 1.0}}, Rel::kLe, 2.0);
    const LpResult r = solve(p);
    ASSERT_EQ(r.status, Status::kOptimal);
    EXPECT_NEAR(r.objective, 4.0, kTol);
  }
  {  // Near-degenerate: twelve parallel copies of x + y <= 3 with rhs
    // values split by 1e-10. Any entering step hits the whole cluster at
    // once; the relaxed Harris first pass must treat it as one blocker
    // instead of grinding through 1e-10-sized steps. Optimum: y at its
    // cap, x fills the tightest copy -> (1, 2), objective 5.
    LpProblem p(Sense::kMaximize);
    const int x = p.addVar(1.0);
    const int y = p.addVar(2.0, 0.0, 2.0);
    for (int k = 0; k < 12; ++k) {
      p.addConstraint({{x, 1.0}, {y, 1.0}}, Rel::kLe, 3.0 + 1e-10 * k);
    }
    const LpResult r = solve(p);
    ASSERT_EQ(r.status, Status::kOptimal);
    EXPECT_NEAR(r.objective, 5.0, 1e-6);
  }
  {  // Fully degenerate origin (all rhs zero): phase 2 starts on a vertex
    // where every basic variable sits exactly on its bound. The engine
    // must prove optimality (objective 0) without cycling.
    LpProblem p(Sense::kMaximize);
    const int x = p.addVar(1.0);
    const int y = p.addVar(1.0);
    p.addConstraint({{x, 1.0}, {y, -1.0}}, Rel::kLe, 0.0);
    p.addConstraint({{x, -1.0}, {y, 1.0}}, Rel::kLe, 0.0);
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Rel::kLe, 0.0);
    const LpResult r = solve(p);
    ASSERT_EQ(r.status, Status::kOptimal);
    EXPECT_NEAR(r.objective, 0.0, kTol);
  }
}

TEST(SimplexEngine, LongWarmChainExercisesLuUpdatesAndRefactorization) {
  // 96 mutations against one retained session with an aggressive
  // refactorization cadence (refactor_every = 4), so the chain crosses the
  // update-count threshold dozens of times and every Forrest-Tomlin update
  // path runs between crossings. Every re-solve is checked against an
  // independent cold solve of the mutated problem.
  SimplexOptions opt;
  opt.refactor_every = 4;
  constexpr int kVars = 8;
  LpProblem p = bandLp(kVars);
  SimplexSolver session(p, opt);
  ASSERT_EQ(session.solve().status, Status::kOptimal);

  std::mt19937_64 rng(20260808);
  std::uniform_int_distribution<int> pick(0, 99);
  std::uniform_real_distribution<double> rhs(1.0, 8.0);
  std::uniform_real_distribution<double> coef(-1.0, 3.0);
  int total_updates = 0;
  int total_refactors = 0;
  for (int step = 0; step < 96; ++step) {
    const int what = pick(rng);
    if (what < 50) {  // rhs swing: forces pivots to restore feasibility
      const int i = what % p.numRows();
      const double b = rhs(rng);
      p.setConstraintRhs(i, b);
      session.setRhs(i, b);
    } else if (what < 80) {  // objective swing: forces phase-2 pivots
      const int j = what % kVars;
      const double c = coef(rng);
      p.setObjective(j, c);
      session.setObjective(j, c);
    } else {  // bound squeeze / release
      const int j = what % kVars;
      const double ub = what < 90 ? 0.5 : 4.0;
      p.setVarBounds(j, 0.0, ub);
      session.setBounds(j, 0.0, ub);
    }
    const LpResult warm = session.solve();
    const LpResult cold = solve(p, opt);
    ASSERT_EQ(warm.status, cold.status) << "step " << step;
    if (cold.optimal()) {
      EXPECT_NEAR(warm.objective, cold.objective,
                  1e-7 * (1.0 + std::abs(cold.objective)))
          << "step " << step;
    }
    total_updates += warm.stats.lu_updates;
    total_refactors += warm.stats.refactorizations;
  }
  // The chain genuinely exercised the Forrest-Tomlin machinery: updates
  // happened, and the cadence threshold forced mid-solve refactorizations
  // well beyond the one-per-warm-start minimum.
  EXPECT_GT(total_updates, 32);
  EXPECT_GT(total_refactors, 8);
}

TEST(SimplexEngine, HighlyDegenerateWarmRestartsStayOptimal) {
  // Many redundant constraints through one vertex; re-solves with permuted
  // objectives from the retained basis must keep matching cold solves.
  std::mt19937_64 rng(7);
  LpProblem p(Sense::kMaximize);
  const int x = p.addVar(1.0);
  const int y = p.addVar(1.0);
  const int z = p.addVar(1.0);
  for (int k = 1; k <= 8; ++k) {
    p.addConstraint({{x, 1.0}, {y, static_cast<double>(k)}, {z, 1.0}},
                    Rel::kLe, 4.0);
  }
  p.addConstraint({{x, 1.0}}, Rel::kLe, 2.0);
  SimplexSolver session(p);
  std::uniform_real_distribution<double> coef(-1.0, 2.0);
  for (int round = 0; round < 20; ++round) {
    const double cx = coef(rng), cy = coef(rng), cz = coef(rng);
    session.setObjective(x, cx);
    session.setObjective(y, cy);
    session.setObjective(z, cz);
    LpProblem cold_p = p;
    cold_p.setObjective(x, cx);
    cold_p.setObjective(y, cy);
    cold_p.setObjective(z, cz);
    const LpResult warm = session.solve();
    const LpResult cold = solve(cold_p);
    ASSERT_EQ(warm.status, Status::kOptimal) << "round " << round;
    ASSERT_EQ(cold.status, Status::kOptimal) << "round " << round;
    EXPECT_NEAR(warm.objective, cold.objective,
                1e-7 * (1.0 + std::abs(cold.objective)))
        << "round " << round;
  }
}

TEST(SimplexEngine, BoundedVariableCornerCases) {
  {  // All variables fixed (lb == ub): the LP is a point.
    LpProblem p(Sense::kMinimize);
    const int x = p.addVar(3.0, 2.0, 2.0);
    const int y = p.addVar(-1.0, 0.5, 0.5);
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Rel::kLe, 10.0);
    const LpResult r = solve(p);
    ASSERT_EQ(r.status, Status::kOptimal);
    EXPECT_DOUBLE_EQ(r.x[x], 2.0);
    EXPECT_DOUBLE_EQ(r.x[y], 0.5);
    EXPECT_NEAR(r.objective, 5.5, kTol);
  }
  {  // Fixed variable conflicting with a constraint: infeasible.
    LpProblem p(Sense::kMinimize);
    const int x = p.addVar(1.0, 2.0, 2.0);
    p.addConstraint({{x, 1.0}}, Rel::kLe, 1.0);
    EXPECT_EQ(solve(p).status, Status::kInfeasible);
  }
  {  // Maximize along an unbounded-above variable: unbounded.
    LpProblem p(Sense::kMaximize);
    const int x = p.addVar(1.0, 0.0, kInfinity);
    p.addConstraint({{x, -1.0}}, Rel::kLe, 5.0);
    EXPECT_EQ(solve(p).status, Status::kUnbounded);
  }
  {  // Negative lower bounds; optimum at a mixed-bound vertex.
    LpProblem p(Sense::kMinimize);
    const int x = p.addVar(1.0, -3.0, 7.0);
    const int y = p.addVar(-2.0, -1.0, 4.0);
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Rel::kGe, -2.0);
    const LpResult r = solve(p);
    ASSERT_EQ(r.status, Status::kOptimal);
    EXPECT_NEAR(r.x[x], -3.0, kTol);  // pushed to its lower bound
    EXPECT_NEAR(r.x[y], 4.0, kTol);   // pulled to its upper bound
    EXPECT_NEAR(r.objective, -11.0, kTol);
  }
  {  // A bound flip is the optimal move (no basis change needed).
    LpProblem p(Sense::kMaximize);
    const int x = p.addVar(1.0, 0.0, 2.0);
    p.addConstraint({{x, 1.0}}, Rel::kLe, 100.0);  // slack never binds
    const LpResult r = solve(p);
    ASSERT_EQ(r.status, Status::kOptimal);
    EXPECT_NEAR(r.x[x], 2.0, kTol);
  }
}

TEST(SimplexEngine, StatsAccumulateGlobally) {
  const StatsSnapshot before = statsSnapshot();
  (void)solve(productionPlan());
  const StatsSnapshot delta = statsSnapshot() - before;
  EXPECT_EQ(delta.solves, 1);
  EXPECT_GT(delta.iterations, 0);
  EXPECT_GE(delta.refactorizations, 1);
  EXPECT_EQ(delta.iter_limit_solves, 0);
  EXPECT_GE(delta.seconds, 0.0);
}

TEST(SimplexEngine, IterationLimitIsCounted) {
  const StatsSnapshot before = statsSnapshot();
  SimplexOptions opt;
  opt.max_iterations = 1;
  LpProblem p = productionPlan();
  const LpResult r = solve(p, opt);
  EXPECT_EQ(r.status, Status::kIterLimit);
  EXPECT_EQ((statsSnapshot() - before).iter_limit_solves, 1);
}

// --- Worst-case oracle: degenerate box semantics. ------------------------

TEST(WorstCaseOracleTest, UnroutableBoxLowerBoundPinsLambdaToZero) {
  // A box pair with a positive lower bound the DAGs cannot carry admits
  // no lambda > 0 scaling of the box: every edge's worst-case ratio is 0
  // (the legacy per-edge LP reached the same verdict through a pinned
  // demand variable; the oracle must not silently drop the pair).
  const Graph g = exp::ScenarioRegistry::global()
                      .find("running-example")
                      ->topology.build();
  const int n = g.numNodes();
  // DAGs that route nothing anywhere: destination 0 only, no edges.
  DagSet dags;
  for (NodeId dest = 0; dest < n; ++dest) {
    dags.emplace_back(g, dest, std::vector<EdgeId>{});
  }
  auto shared = std::make_shared<const DagSet>(std::move(dags));
  routing::RoutingConfig cfg(g, shared);

  tm::TrafficMatrix lo(n), hi(n);
  lo.set(1, 0, 0.5);  // mandatory demand no empty DAG can route
  hi.set(1, 0, 1.0);
  const tm::DemandBounds box{lo, hi};
  const auto wc = routing::findWorstCaseDemand(g, cfg, &box);
  EXPECT_DOUBLE_EQ(wc.ratio, 0.0);
  EXPECT_DOUBLE_EQ(wc.demand.total(), 0.0);
}

// --- OPTU engine: warm-start chains vs independent cold solves. ----------

TEST(OptuEngineTest, BatchIsIdenticalForAnyThreadCount) {
  const Graph g = exp::ScenarioRegistry::global()
                      .find("running-example")
                      ->topology.build();
  const auto dags = core::augmentedDagsShared(g);
  std::vector<tm::TrafficMatrix> pool;
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> dem(0.0, 2.0);
  for (int k = 0; k < 37; ++k) {
    tm::TrafficMatrix d(g.numNodes());
    for (NodeId s = 0; s < g.numNodes(); ++s) {
      for (NodeId t = 0; t < g.numNodes(); ++t) {
        if (s != t && rng() % 3 != 0) d.set(s, t, dem(rng));
      }
    }
    pool.push_back(std::move(d));
  }

  std::vector<std::vector<double>> results;
  for (const unsigned threads : {1u, 2u, 8u}) {
    routing::OptuEngine engine(g, dags);
    util::ThreadPool tp(threads);
    results.push_back(engine.utilizationBatch(pool, tp));
  }
  for (std::size_t i = 0; i < pool.size(); ++i) {
    // Chunking is fixed, so the warm-start chains -- and therefore every
    // solve -- are bit-identical no matter how many threads run them.
    EXPECT_DOUBLE_EQ(results[0][i], results[1][i]) << "matrix " << i;
    EXPECT_DOUBLE_EQ(results[0][i], results[2][i]) << "matrix " << i;
  }
  // And the chained solves agree with independent cold solves to LP tol.
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (pool[i].total() <= 0.0) continue;
    const double cold = routing::optimalUtilization(g, *dags, pool[i]);
    EXPECT_NEAR(results[0][i], cold, 1e-7 * (1.0 + cold)) << "matrix " << i;
  }
}

TEST(OptuEngineTest, DecomposedBatchIsIdenticalForAnyThreadCount) {
  // Same contract as above, but on a topology large enough to cross
  // kDecompMinRows so the block-angular pre-solve actually runs: the
  // decomposed path must be bit-identical for any thread count too
  // (blocks are chunked fixed-size, prices are updated in edge order).
  const Graph g = exp::TopologySpec::zoo("Geant").build();
  const auto dags = core::augmentedDagsShared(g);
  std::vector<tm::TrafficMatrix> pool;
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> dem(0.0, 40.0);
  for (int k = 0; k < 9; ++k) {
    tm::TrafficMatrix d(g.numNodes());
    for (NodeId s = 0; s < g.numNodes(); ++s) {
      for (NodeId t = 0; t < g.numNodes(); ++t) {
        if (s != t && rng() % 4 == 0) d.set(s, t, dem(rng));
      }
    }
    pool.push_back(std::move(d));
  }

  const StatsSnapshot before = statsSnapshot();
  std::vector<std::vector<double>> results;
  for (const unsigned threads : {1u, 2u, 8u}) {
    routing::OptuEngine engine(g, dags);
    util::ThreadPool tp(threads);
    results.push_back(engine.utilizationBatch(pool, tp));
  }
  // The decomposed pre-solve ran (once per engine, seeding the batch).
  EXPECT_GE((statsSnapshot() - before).decomp_rounds,
            3 * routing::OptuEngine::kDecompRounds);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[0][i], results[1][i]) << "matrix " << i;
    EXPECT_DOUBLE_EQ(results[0][i], results[2][i]) << "matrix " << i;
  }
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (pool[i].total() <= 0.0) continue;
    const double cold = routing::optimalUtilization(g, *dags, pool[i]);
    EXPECT_NEAR(results[0][i], cold, 1e-7 * (1.0 + cold)) << "matrix " << i;
  }
}

TEST(OptuEngineTest, ColdEngineSkipsTheDecomposition) {
  // GEANT's OPTU template crosses kDecompMinRows, so a default engine
  // seeds its first solve from the block decomposition; a cold engine
  // skips it and still reaches the same optimum.
  const Graph g = exp::TopologySpec::zoo("Geant").build();
  const auto dags = core::augmentedDagsShared(g);
  const tm::TrafficMatrix d = tm::gravityMatrix(g, 1.0);
  SimplexOptions cold_opt;
  cold_opt.cold = true;

  StatsSnapshot before = statsSnapshot();
  routing::OptuEngine cold(g, dags, cold_opt);
  const double u_cold = cold.utilization(d);
  EXPECT_EQ((statsSnapshot() - before).decomp_rounds, 0);

  before = statsSnapshot();
  routing::OptuEngine warm(g, dags);
  const double u_warm = warm.utilization(d);
  EXPECT_GT((statsSnapshot() - before).decomp_rounds, 0);
  EXPECT_NEAR(u_cold, u_warm, 1e-9 * (1.0 + u_warm));
}

// --- COYOTE_FULL=1: warm-vs-cold OPTU across every registered scenario. ---

TEST(OptuEngineTest, WarmAndColdAgreeAcrossAllScenarios) {
  if (!util::envFlag("COYOTE_FULL")) {
    GTEST_SKIP() << "set COYOTE_FULL=1 for the full registry sweep";
  }
  int checked = 0;
  for (const exp::Scenario& s : exp::ScenarioRegistry::global().all()) {
    Graph g;
    try {
      g = s.topology.build();
    } catch (const std::exception&) {
      continue;  // network-list kinds have no single topology
    }
    if (g.numNodes() == 0) continue;
    const auto dags = core::augmentedDagsShared(g);
    const tm::TrafficMatrix base = s.demand.build(g);
    if (base.total() <= 0.0) continue;

    // Warm chain: base, then margin-scaled variants, re-solved by rhs
    // mutation against the retained basis.
    routing::OptuEngine engine(g, dags);
    const double w1 = engine.utilization(base);
    tm::TrafficMatrix scaled = base;
    scaled.scale(1.7);
    const double w2 = engine.utilization(scaled);
    tm::TrafficMatrix perturbed = base;
    perturbed.scale(0.4);
    const double w3 = engine.utilization(perturbed);

    const double c1 = routing::optimalUtilization(g, *dags, base);
    const double c2 = routing::optimalUtilization(g, *dags, scaled);
    const double c3 = routing::optimalUtilization(g, *dags, perturbed);
    ASSERT_NEAR(w1, c1, 1e-7 * (1.0 + c1)) << s.id;
    ASSERT_NEAR(w2, c2, 1e-7 * (1.0 + c2)) << s.id;
    ASSERT_NEAR(w3, c3, 1e-7 * (1.0 + c3)) << s.id;
    // OPTU is positively homogeneous: the scaled solves cross-check.
    EXPECT_NEAR(w2, 1.7 * w1, 1e-6 * (1.0 + w2)) << s.id;
    EXPECT_NEAR(w3, 0.4 * w1, 1e-6 * (1.0 + w3)) << s.id;
    ++checked;
  }
  EXPECT_GT(checked, 40);  // most of the 69 registered scenarios
}

TEST(OptuEngineTest, DecomposedAndMonolithicAgreeAcrossAllScenarios) {
  if (!util::envFlag("COYOTE_FULL")) {
    GTEST_SKIP() << "set COYOTE_FULL=1 for the full registry sweep";
  }
  // The block-angular pre-solve only seeds a basis; the crossover hands
  // the full LP to the exact simplex, so the decomposed first solve must
  // match the monolithic one to solver tolerance, not just "roughly".
  // The monolithic reference is a cold engine (no pre-solve, all-logical
  // start).
  SimplexOptions cold_opt;
  cold_opt.cold = true;
  int checked = 0;
  int decomposed = 0;
  for (const exp::Scenario& s : exp::ScenarioRegistry::global().all()) {
    Graph g;
    try {
      g = s.topology.build();
    } catch (const std::exception&) {
      continue;  // network-list kinds have no single topology
    }
    if (g.numNodes() == 0) continue;
    const auto dags = core::augmentedDagsShared(g);
    const tm::TrafficMatrix base = s.demand.build(g);
    if (base.total() <= 0.0) continue;

    const StatsSnapshot before = statsSnapshot();
    routing::OptuEngine decomp_engine(g, dags);
    const double with_decomp = decomp_engine.utilization(base);
    if ((statsSnapshot() - before).decomp_rounds > 0) ++decomposed;

    routing::OptuEngine mono_engine(g, dags, cold_opt);
    const double monolithic = mono_engine.utilization(base);

    ASSERT_NEAR(with_decomp, monolithic, 1e-9 * (1.0 + monolithic)) << s.id;
    ++checked;
  }
  EXPECT_GT(checked, 40);
  // The sweep exercised the decomposed path on the larger topologies,
  // not just sub-threshold networks that fall back to monolithic.
  EXPECT_GT(decomposed, 10);
}

}  // namespace
}  // namespace coyote::lp
