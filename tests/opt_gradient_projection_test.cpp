#include "opt/gradient_projection.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/problem.hpp"
#include "core/scenario.hpp"
#include "core/utility.hpp"
#include "helpers.hpp"
#include "opt/barrier.hpp"
#include "opt/projected_ascent.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace netmon::opt {
namespace {

std::shared_ptr<const Concave1d> log_u(double eps) {
  return std::make_shared<core::LogUtility>(eps);
}

TEST(GradientProjection, TwoVariableAnalyticOptimum) {
  // max log(1+p0/0.1) + log(1+p1/0.1) s.t. p0 + 2 p1 = 0.5.
  // Interior KKT: eps+p1 = (eps+p0)/2 -> p* = (0.3, 0.1).
  SeparableConcaveObjective::SparseRows rows{{{0, 1.0}}, {{1, 1.0}}};
  const SeparableConcaveObjective f(2, std::move(rows),
                                    {log_u(0.1), log_u(0.1)});
  const BoxBudgetConstraints c({1.0, 2.0}, {1.0, 1.0}, 0.5);
  const SolveResult r = maximize(f, c);
  EXPECT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.p[0], 0.3, 1e-7);
  EXPECT_NEAR(r.p[1], 0.1, 1e-7);
  EXPECT_NEAR(r.lambda, 1.0 / 0.4, 1e-6);
}

TEST(GradientProjection, CornerSolutionDeactivatesMonitor) {
  // Term 1 has negligible marginal utility: all budget goes to p0.
  SeparableConcaveObjective::SparseRows rows{{{0, 1.0}}, {{1, 1.0}}};
  const SeparableConcaveObjective f(2, std::move(rows),
                                    {log_u(0.01), log_u(1000.0)});
  const BoxBudgetConstraints c({1.0, 1.0}, {1.0, 1.0}, 0.2);
  const SolveResult r = maximize(f, c);
  EXPECT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.p[0], 0.2, 1e-7);
  EXPECT_NEAR(r.p[1], 0.0, 1e-9);
  EXPECT_EQ(r.bounds[1], BoundState::kAtLower);
}

TEST(GradientProjection, UpperBoundBinds) {
  // Cheap high-utility variable capped by alpha; remainder spills over.
  SeparableConcaveObjective::SparseRows rows{{{0, 1.0}}, {{1, 1.0}}};
  const SeparableConcaveObjective f(2, std::move(rows),
                                    {log_u(0.001), log_u(10.0)});
  const BoxBudgetConstraints c({1.0, 1.0}, {0.1, 1.0}, 0.5);
  const SolveResult r = maximize(f, c);
  EXPECT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.p[0], 0.1, 1e-9);
  EXPECT_NEAR(r.p[1], 0.4, 1e-7);
  EXPECT_EQ(r.bounds[0], BoundState::kAtUpper);
}

TEST(GradientProjection, SharedMonitorCoversTwoTerms) {
  // Variable 2 helps both terms: it should dominate the solution.
  SeparableConcaveObjective::SparseRows rows{{{0, 1.0}, {2, 1.0}},
                                             {{1, 1.0}, {2, 1.0}}};
  const SeparableConcaveObjective f(
      3, std::move(rows), {log_u(0.1), log_u(0.1)});
  const BoxBudgetConstraints c({1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}, 0.3);
  const SolveResult r = maximize(f, c);
  EXPECT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.p[2], 0.3, 1e-7);
  EXPECT_NEAR(r.p[0], 0.0, 1e-9);
  EXPECT_NEAR(r.p[1], 0.0, 1e-9);
}

TEST(GradientProjection, DeterministicAcrossRuns) {
  SeparableConcaveObjective::SparseRows rows{{{0, 1.0}, {1, 0.5}},
                                             {{1, 1.0}}};
  const SeparableConcaveObjective f(2, std::move(rows),
                                    {log_u(0.05), log_u(0.2)});
  const BoxBudgetConstraints c({3.0, 7.0}, {1.0, 1.0}, 2.0);
  const SolveResult a = maximize(f, c);
  const SolveResult b = maximize(f, c);
  ASSERT_EQ(a.p.size(), b.p.size());
  for (std::size_t j = 0; j < a.p.size(); ++j)
    EXPECT_DOUBLE_EQ(a.p[j], b.p[j]);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(GradientProjection, IterationLimitReported) {
  SeparableConcaveObjective::SparseRows rows{{{0, 1.0}}, {{1, 1.0}}};
  const SeparableConcaveObjective f(2, std::move(rows),
                                    {log_u(0.1), log_u(0.1)});
  const BoxBudgetConstraints c({1.0, 2.0}, {1.0, 1.0}, 0.5);
  SolverOptions options;
  options.max_iterations = 1;
  const SolveResult r = maximize(f, c, options);
  EXPECT_EQ(r.status, SolveStatus::kIterationLimit);
  EXPECT_EQ(r.iterations, 1);
}

TEST(GradientProjection, StartPointOverride) {
  SeparableConcaveObjective::SparseRows rows{{{0, 1.0}}, {{1, 1.0}}};
  const SeparableConcaveObjective f(2, std::move(rows),
                                    {log_u(0.1), log_u(0.1)});
  const BoxBudgetConstraints c({1.0, 2.0}, {1.0, 1.0}, 0.5);
  const std::vector<double> start{0.5, 0.0};
  const SolveResult r = maximize(f, c, {}, &start);
  EXPECT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.p[0], 0.3, 1e-6);
  const std::vector<double> infeasible{1.0, 1.0};
  EXPECT_THROW(maximize(f, c, {}, &infeasible), netmon::Error);
}

TEST(GradientProjection, FractionalCoefficientsEcmpStyle) {
  // ECMP rows carry fractional coefficients; the optimum must still
  // certify and match the reference solver.
  SeparableConcaveObjective::SparseRows rows{
      {{0, 0.5}, {1, 0.5}},          // split across two branches
      {{0, 0.25}, {1, 0.25}, {2, 1.0}},
  };
  const SeparableConcaveObjective f(3, std::move(rows),
                                    {log_u(0.05), log_u(0.05)});
  const BoxBudgetConstraints c({1e4, 2e4, 5e3}, {1.0, 1.0, 1.0}, 3e3);
  const SolveResult main = maximize(f, c);
  EXPECT_EQ(main.status, SolveStatus::kOptimal);
  const ProjectedAscentResult ref = maximize_reference(f, c);
  EXPECT_NEAR(main.value, ref.value, 1e-4 * (1.0 + std::abs(main.value)));
  EXPECT_GE(main.value, ref.value - 1e-6);
}

TEST(GradientProjection, ObjectiveWithOffsets) {
  // Offsets (from the exact-rate linearization) must flow through the
  // solver unchanged: shifting a row constant does not move the optimum
  // of a log utility... it does, but the solve must still certify and
  // beat the reference.
  SeparableConcaveObjective::SparseRows rows{{{0, 1.0}}, {{1, 1.0}}};
  const SeparableConcaveObjective f(2, std::move(rows),
                                    {log_u(0.1), log_u(0.1)},
                                    {0.02, -0.005});
  const BoxBudgetConstraints c({1.0, 2.0}, {1.0, 1.0}, 0.5);
  const SolveResult main = maximize(f, c);
  EXPECT_EQ(main.status, SolveStatus::kOptimal);
  const ProjectedAscentResult ref = maximize_reference(f, c);
  EXPECT_GE(main.value, ref.value - 1e-8);
}

// ---------------------------------------------------------------------
// Property sweep: on random instances the active-set solver must certify
// KKT and match the (provably convergent) projected-ascent reference.
// ---------------------------------------------------------------------
class RandomInstanceTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomInstanceTest, MatchesReferenceSolver) {
  Rng rng(1000 + GetParam());
  const std::size_t n = 3 + rng.below(8);       // 3..10 variables
  const std::size_t terms = 2 + rng.below(2 * n);

  SeparableConcaveObjective::SparseRows rows(terms);
  std::vector<std::shared_ptr<const Concave1d>> utilities;
  for (std::size_t k = 0; k < terms; ++k) {
    const std::size_t touches = 1 + rng.below(3);
    for (std::size_t t = 0; t < touches; ++t) {
      const std::size_t col = rng.below(n);
      bool seen = false;
      for (auto& [c2, v] : rows[k]) seen = seen || c2 == col;
      // Mix binary and fractional (ECMP-style) coefficients.
      if (!seen)
        rows[k].emplace_back(col,
                             rng.bernoulli(0.7) ? 1.0 : rng.uniform(0.2, 1.0));
    }
    if (rng.bernoulli(0.5)) {
      utilities.push_back(std::make_shared<core::SreUtility>(
          rng.uniform(1e-5, 0.3)));
    } else {
      utilities.push_back(log_u(rng.uniform(0.001, 0.5)));
    }
  }

  std::vector<double> u(n), alpha(n);
  double max_budget = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    u[j] = rng.uniform(1e3, 1e6);
    alpha[j] = rng.bernoulli(0.5) ? 1.0 : rng.uniform(0.3, 1.0);
    max_budget += u[j] * alpha[j];
  }
  const double theta = max_budget * rng.uniform(0.001, 0.6);

  const SeparableConcaveObjective f(n, rows, utilities);
  const BoxBudgetConstraints c(u, alpha, theta);

  SolverOptions options;
  options.max_iterations = 5000;
  const SolveResult main = maximize(f, c, options);
  EXPECT_EQ(main.status, SolveStatus::kOptimal) << "instance " << GetParam();
  EXPECT_TRUE(c.feasible(main.p, 1e-6));

  ProjectedAscentOptions ref_options;
  ref_options.max_iterations = 20000;
  const ProjectedAscentResult ref = maximize_reference(f, c, ref_options);

  // The certified optimum must not be beaten by the reference, and the
  // two must agree closely in value.
  const double scale = 1.0 + std::abs(main.value);
  EXPECT_GE(main.value, ref.value - 1e-5 * scale)
      << "instance " << GetParam();
  EXPECT_NEAR(main.value, ref.value, 2e-3 * scale)
      << "instance " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomInstanceTest, ::testing::Range(0, 40));

// ---------------------------------------------------------------------
// Step rule: arc steps pin (and free) many coordinates per iteration.
// ---------------------------------------------------------------------

TEST(ArcSteps, PinMostCoordinatesInFewIterations) {
  // A first-hit step pins about one coordinate, so with no release events
  // a solve from an all-positive start needs at least one iteration per
  // coordinate that ends at 0.
  const std::size_t n = 2000;
  const test::SparseOptimum inst = test::sparse_optimum_instance(n, 17);
  const std::vector<double> start = inst.constraints.initial_point();
  for (double p : start) ASSERT_GT(p, 0.0);
  for (const bool fused : {true, false}) {
    SolverOptions options;
    options.use_fused = fused;
    const SolveResult r = maximize(inst.objective, inst.constraints, options);
    ASSERT_EQ(r.status, SolveStatus::kOptimal) << "fused " << fused;
    std::size_t zeros = 0;
    for (double p : r.p) zeros += p == 0.0;
    EXPECT_GE(zeros, 9 * n / 10) << "fused " << fused;
    EXPECT_LE(r.iterations, static_cast<int>(n / 10)) << "fused " << fused;
    EXPECT_TRUE(inst.constraints.feasible(r.p, 1e-9));
  }
}

TEST(ArcSteps, Sec4dInstancesMatchBarrierAndProjectedAscent) {
  // The §IV-D experiment's input distribution (bench/sec4d_convergence):
  // GEANT with randomized background volume, OD sizes and theta. Three
  // independent algorithms must agree on every optimum.
  const Rng base(4242);
  for (std::size_t run = 0; run < 200; ++run) {
    Rng rng = base.substream(run);
    core::ScenarioOptions scenario_options;
    scenario_options.background_pkt_per_sec = rng.uniform(0.7e6, 2.2e6);
    core::GeantScenario scenario = core::make_geant_scenario(scenario_options);
    for (double& s : scenario.task.expected_packets)
      s *= rng.uniform(0.4, 2.5);
    core::ProblemOptions options;
    options.theta = rng.uniform(30000.0, 400000.0);
    const core::PlacementProblem problem(scenario.net.graph, scenario.task,
                                         scenario.loads, options);
    const SolveResult main =
        maximize(problem.objective(), problem.constraints());
    ASSERT_EQ(main.status, SolveStatus::kOptimal) << "run " << run;
    const double barrier =
        maximize_barrier(problem.objective(), problem.constraints()).value;
    ProjectedAscentOptions pa;
    pa.max_iterations = 200000;
    const double ascent =
        maximize_reference(problem.objective(), problem.constraints(), pa)
            .value;
    const double tol = 1e-9 * std::abs(main.value);
    EXPECT_NEAR(main.value, barrier, tol) << "run " << run;
    EXPECT_NEAR(main.value, ascent, tol) << "run " << run;
  }
}

}  // namespace
}  // namespace netmon::opt
