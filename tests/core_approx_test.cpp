// The approximation tier (core/approx) against ground truth: on GEANT
// and Abilene the exact optimum is cheap to compute, so the certified
// Frank-Wolfe bound can be VALIDATED — the certificate must bound the
// true optimum from above, the approximate value must not exceed it,
// and the relative gap must meet the tier's accuracy target across
// theta sweeps and random budgets.
#include <gtest/gtest.h>

#include <vector>

#include "core/approx.hpp"
#include "core/partition.hpp"
#include "core/scenario.hpp"
#include "core/solver.hpp"
#include "opt/certificate.hpp"
#include "topo/abilene.hpp"
#include "traffic/gravity.hpp"
#include "traffic/link_load.hpp"
#include "util/rng.hpp"

namespace netmon::core {
namespace {

/// Exact optimum vs approx tier on one problem; returns the certificate.
void check_problem(const PlacementProblem& problem, std::size_t groups,
                   double max_relative_gap) {
  const PlacementSolution exact = solve_placement(problem);
  ASSERT_EQ(exact.status, opt::SolveStatus::kOptimal);

  const Partition partition = partition_bfs(problem, groups);
  const ApproxResult approx = solve_approx(problem, partition);

  // The certificate must bound the TRUE optimum from above...
  const double slack = 1e-6 * std::abs(approx.certificate.upper_bound) + 1e-9;
  EXPECT_LE(exact.total_utility, approx.certificate.upper_bound + slack)
      << "certificate does not bound the exact optimum";
  // ...and the approximate value can never beat the optimum.
  EXPECT_LE(approx.solution.total_utility, exact.total_utility + slack);
  // Tier accuracy target, met by a certified stop.
  EXPECT_LE(approx.certificate.relative_gap, max_relative_gap);
  EXPECT_EQ(approx.solution.status, opt::SolveStatus::kCertified);
  EXPECT_GE(approx.rounds, 1u);
  // The solution carries the certificate.
  EXPECT_EQ(approx.solution.certified_gap, approx.certificate.gap);
  EXPECT_EQ(approx.solution.certified_upper_bound,
            approx.certificate.upper_bound);
}

TEST(ApproxTier, GeantThetaSweepStaysWithinOnePercent) {
  const GeantScenario scenario = make_geant_scenario();
  for (const double theta : {25000.0, 50000.0, 100000.0, 200000.0}) {
    ProblemOptions options;
    options.theta = theta;
    const PlacementProblem problem = make_problem(scenario, options);
    SCOPED_TRACE("theta=" + std::to_string(theta));
    check_problem(problem, 4, 0.01);
  }
}

TEST(ApproxTier, GeantRandomBudgetsStayWithinOnePercent) {
  const GeantScenario scenario = make_geant_scenario();
  // Budget range from the instance itself: fractions of sum u_j alpha_j.
  const PlacementProblem probe = make_problem(scenario, {});
  double max_budget = 0.0;
  const auto& u = probe.constraints().loads();
  const auto& alpha = probe.constraints().upper();
  for (std::size_t j = 0; j < u.size(); ++j) max_budget += u[j] * alpha[j];

  netmon::Rng rng(23);
  for (int trial = 0; trial < 5; ++trial) {
    ProblemOptions options;
    options.theta = max_budget * rng.uniform(0.005, 0.5);
    const PlacementProblem problem = make_problem(scenario, options);
    SCOPED_TRACE("theta=" + std::to_string(options.theta));
    check_problem(problem, 3, 0.01);
  }
}

TEST(ApproxTier, AbileneThetaSweepStaysWithinOnePercent) {
  const topo::AbileneNetwork net = topo::make_abilene();
  MeasurementTask task;
  task.interval_sec = 300.0;
  traffic::TrafficMatrix demands = traffic::gravity_matrix(
      net.graph, {.total_pkt_per_sec = 6.0e5, .min_mass = 1e-12});
  for (const auto& [name, rate] : topo::abilene_task_rates()) {
    const auto dst = *net.graph.find_node(name);
    task.ods.push_back({net.customer, dst});
    task.expected_packets.push_back(rate * task.interval_sec);
    demands.push_back({{net.customer, dst}, rate});
  }
  const traffic::LinkLoads loads = traffic::link_loads(net.graph, demands);

  for (const double theta : {10000.0, 50000.0, 100000.0}) {
    ProblemOptions options;
    options.theta = theta;
    const PlacementProblem problem(net.graph, task, loads, options);
    SCOPED_TRACE("theta=" + std::to_string(theta));
    check_problem(problem, 3, 0.01);
  }
}

TEST(ApproxTier, DeterministicAcrossPoolSizes) {
  const GeantScenario scenario = make_geant_scenario();
  const PlacementProblem problem = make_problem(scenario, {});
  const Partition partition = partition_bfs(problem, 4);

  const ApproxResult serial = solve_approx(problem, partition);
  for (unsigned threads : {1u, 4u}) {
    runtime::ThreadPool pool(threads);
    ApproxOptions options;
    options.pool = &pool;
    const ApproxResult parallel = solve_approx(problem, partition, options);
    EXPECT_EQ(parallel.solution.total_utility, serial.solution.total_utility)
        << "@" << threads;
    ASSERT_EQ(parallel.solution.rates.size(), serial.solution.rates.size());
    for (std::size_t i = 0; i < serial.solution.rates.size(); ++i)
      EXPECT_EQ(parallel.solution.rates[i], serial.solution.rates[i])
          << "rate @" << i << " threads=" << threads;
    EXPECT_EQ(parallel.certificate.gap, serial.certificate.gap);
  }
}

TEST(ApproxTier, ZeroTargetRunsEveryRoundAndPolishes) {
  const GeantScenario scenario = make_geant_scenario();
  const PlacementProblem problem = make_problem(scenario, {});
  const Partition partition = partition_bfs(problem, 4);
  ApproxOptions options;
  options.polish.gap_tolerance = 0.0;
  const ApproxResult full = solve_approx(problem, partition, options);
  EXPECT_EQ(full.rounds, options.rounds);
  EXPECT_GT(full.solution.iterations, 0);
  EXPECT_NE(full.solution.status, opt::SolveStatus::kCertified);
  // Stopping at the default target never costs more rounds or polish.
  const ApproxResult stopped = solve_approx(problem, partition);
  EXPECT_LE(stopped.rounds, full.rounds);
  EXPECT_LE(stopped.solution.iterations, full.solution.iterations);
  EXPECT_LE(stopped.certificate.relative_gap, 0.01);
  EXPECT_LE(full.certificate.relative_gap, stopped.certificate.relative_gap);
}

TEST(ApproxTier, CertificateAtTheExactOptimumIsTight) {
  const GeantScenario scenario = make_geant_scenario();
  const PlacementProblem problem = make_problem(scenario, {});
  const PlacementSolution exact = solve_placement(problem);
  ASSERT_EQ(exact.status, opt::SolveStatus::kOptimal);
  const std::vector<double> p = problem.compress(exact.rates);
  const opt::GapCertificate cert =
      opt::certified_gap(problem.objective(), problem.constraints(), p);
  // At a KKT-certified point the Frank-Wolfe gap collapses (numerically).
  EXPECT_LE(cert.relative_gap, 1e-6);
  EXPECT_GE(cert.gap, 0.0);
}

TEST(ApproxTier, PartitionCoversCandidatesExactlyOnce) {
  const GeantScenario scenario = make_geant_scenario();
  const PlacementProblem problem = make_problem(scenario, {});
  for (const std::size_t groups : {1u, 3u, 7u}) {
    const Partition part = partition_bfs(problem, groups);
    EXPECT_LE(part.group_count(), groups);
    std::vector<bool> seen(problem.candidates().size(), false);
    for (std::size_t g = 0; g < part.group_count(); ++g) {
      EXPECT_FALSE(part.groups[g].empty()) << "empty group " << g;
      for (std::size_t j : part.groups[g]) {
        EXPECT_FALSE(seen[j]) << "candidate " << j << " in two groups";
        seen[j] = true;
        EXPECT_EQ(part.group_of_candidate[j], g);
      }
    }
    for (std::size_t j = 0; j < seen.size(); ++j)
      EXPECT_TRUE(seen[j]) << "candidate " << j << " unassigned";
  }
}

}  // namespace
}  // namespace netmon::core
