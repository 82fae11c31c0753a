#include "core/reoptimize.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/scenario.hpp"

namespace netmon::core {
namespace {

TEST(WarmStart, ProjectedPointIsFeasible) {
  const GeantScenario s = make_geant_scenario();
  const PlacementProblem problem = make_problem(s);
  // A wildly infeasible "previous" configuration.
  sampling::RateVector previous(s.net.graph.link_count(), 0.5);
  const auto start = warm_start_point(problem, previous);
  EXPECT_TRUE(problem.constraints().feasible(start, 1e-6));
}

TEST(WarmStart, IdenticalProblemConvergesImmediately) {
  const GeantScenario s = make_geant_scenario();
  const PlacementProblem problem = make_problem(s);
  const PlacementSolution cold = solve_placement(problem);
  const PlacementSolution warm = resolve_warm(problem, cold.rates);
  EXPECT_EQ(warm.status, opt::SolveStatus::kOptimal);
  EXPECT_LE(warm.iterations, 5);  // already at the optimum
  EXPECT_NEAR(warm.total_utility, cold.total_utility, 1e-9);
}

TEST(WarmStart, FasterAfterSmallPerturbation) {
  const GeantScenario s = make_geant_scenario();
  const PlacementProblem base = make_problem(s);
  const PlacementSolution previous = solve_placement(base);

  // Perturb theta by 10%: the new optimum is near the old one.
  ProblemOptions options;
  options.theta = 110000.0;
  const PlacementProblem perturbed = make_problem(s, options);
  const PlacementSolution cold = solve_placement(perturbed);
  const PlacementSolution warm = resolve_warm(perturbed, previous.rates);

  EXPECT_EQ(warm.status, opt::SolveStatus::kOptimal);
  EXPECT_NEAR(warm.total_utility, cold.total_utility,
              1e-7 * (1.0 + std::abs(cold.total_utility)));
  EXPECT_LT(warm.iterations, cold.iterations);
}

TEST(WarmStart, WarmAnswerCarriesItsCertificate) {
  const GeantScenario s = make_geant_scenario();
  const PlacementSolution previous = solve_placement(make_problem(s));
  ProblemOptions options;
  options.theta = 110000.0;
  const PlacementProblem perturbed = make_problem(s, options);
  const PlacementSolution cold = solve_placement(perturbed);

  // To the KKT certificate, and stopped on a certified gap.
  opt::SolverOptions gap_stop;
  gap_stop.gap_tolerance = 1e-6;
  for (const opt::SolverOptions& solver : {opt::SolverOptions{}, gap_stop}) {
    const PlacementSolution warm =
        resolve_warm(perturbed, previous.rates, solver);
    const double scale = 1.0 + std::abs(warm.total_utility);
    EXPECT_GE(warm.certified_gap, 0.0);
    EXPECT_NEAR(warm.certified_upper_bound,
                warm.total_utility + warm.certified_gap, 1e-9 * scale);
    EXPECT_GE(warm.certified_upper_bound, cold.total_utility - 1e-9 * scale);
  }
}

TEST(WarmStart, SurvivesTopologyChange) {
  // After a failure the candidate set itself changes; the warm start must
  // still be feasible and reach the same optimum as a cold solve.
  const GeantScenario before = make_geant_scenario();
  const PlacementProblem base = make_problem(before);
  const PlacementSolution previous = solve_placement(base);

  const topo::LinkId uk_nl = *before.net.graph.find_link("UK", "NL");
  ScenarioOptions failed_scenario;
  failed_scenario.failed.insert(uk_nl);
  const GeantScenario after = make_geant_scenario(failed_scenario);
  ProblemOptions options;
  options.failed.insert(uk_nl);
  const PlacementProblem rerouted(after.net.graph, after.task, after.loads,
                                  options);

  const PlacementSolution cold = solve_placement(rerouted);
  const PlacementSolution warm = resolve_warm(rerouted, previous.rates);
  EXPECT_EQ(warm.status, opt::SolveStatus::kOptimal);
  EXPECT_NEAR(warm.total_utility, cold.total_utility,
              1e-7 * (1.0 + std::abs(cold.total_utility)));
}

}  // namespace
}  // namespace netmon::core
