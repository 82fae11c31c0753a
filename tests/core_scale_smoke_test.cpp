// End-to-end smoke of the scale pipeline at test-sized dimensions: a
// hierarchical instance (a few thousand links), gravity fan-out task,
// pod partition, a direct core::solve_approx call with intra-solve
// parallelism — and a certified gap within the tier's 1% target.
// bench/scaling_perf.cpp calls the tier the same way on the 100k+-link
// instance.
#include <gtest/gtest.h>

#include <cstring>

#include "core/approx.hpp"
#include "core/partition.hpp"
#include "core/scale_scenario.hpp"
#include "core/solver.hpp"
#include "runtime/thread_pool.hpp"

namespace netmon::core {
namespace {

ScaleScenarioOptions smoke_options() {
  ScaleScenarioOptions options;
  options.hierarchy.cores = 4;
  options.hierarchy.aggs_per_core = 3;
  options.hierarchy.edges_per_agg = 40;  // 496 nodes, 2,988 links
  options.fanout.od_count = 3000;
  options.fanout.max_sources = 24;
  return options;
}

TEST(ScaleSmoke, ScenarioAssembles) {
  const ScaleScenario scenario = make_scale_scenario(smoke_options());
  EXPECT_EQ(scenario.net.graph.link_count(),
            topo::hierarchy_link_count(smoke_options().hierarchy));
  EXPECT_EQ(scenario.task.ods.size(), scenario.demands.size());
  ASSERT_EQ(scenario.loads.size(), scenario.net.graph.link_count());
  for (double load : scenario.loads) EXPECT_GT(load, 0.0);
  for (double s : scenario.task.expected_packets) EXPECT_GE(s, 2.0);
}

TEST(ScaleSmoke, ApproxTierCertifiesWithinOnePercent) {
  const ScaleScenario scenario = make_scale_scenario(smoke_options());
  ProblemOptions options;
  options.theta = 0.0;  // default_scale_theta
  const PlacementProblem problem = make_problem(scenario, options);
  EXPECT_GT(problem.candidates().size(), 100u);

  const Partition partition = partition_by_region(problem, scenario.net);
  EXPECT_EQ(partition.group_count(), 4u);  // one group per pod

  runtime::ThreadPool pool(4);
  ApproxOptions approx;
  approx.pool = &pool;
  approx.subsolver.parallel_min_terms = 0;  // exercise nested sharding too
  approx.polish.pool = &pool;
  const ApproxResult result = solve_approx(problem, partition, approx);

  EXPECT_LE(result.certificate.relative_gap, 0.01)
      << "certified gap above the tier's 1% target";
  EXPECT_EQ(result.solution.certified_gap, result.certificate.gap);
  EXPECT_EQ(result.solution.certified_upper_bound,
            result.certificate.upper_bound);
  EXPECT_GT(result.solution.active_monitors.size(), 0u);
  // Feasibility of the stitched + polished placement.
  EXPECT_NEAR(result.solution.budget_used, problem.theta(),
              1e-6 * problem.theta());
}

TEST(ScaleSmoke, CertifiedSolveBitIdenticalSeriallyAndOnFourThreads) {
  // Every arc step re-projects the whole iterate and every step shards
  // its term work: the certified answer must not depend on either.
  const ScaleScenario scenario = make_scale_scenario(smoke_options());
  ProblemOptions options;
  options.theta = 0.0;  // default_scale_theta
  const PlacementProblem problem = make_problem(scenario, options);

  opt::SolverOptions serial;
  serial.max_iterations = 100000;
  const opt::SolveResult a =
      opt::maximize(problem.objective(), problem.constraints(), serial);
  ASSERT_EQ(a.status, opt::SolveStatus::kOptimal);

  runtime::ThreadPool pool(4);
  opt::SolverOptions pooled = serial;
  pooled.pool = &pool;
  pooled.parallel_min_terms = 0;
  const opt::SolveResult b =
      opt::maximize(problem.objective(), problem.constraints(), pooled);
  EXPECT_EQ(b.status, opt::SolveStatus::kOptimal);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.release_events, b.release_events);
  EXPECT_EQ(std::memcmp(&a.value, &b.value, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.lambda, &b.lambda, sizeof(double)), 0);
  ASSERT_EQ(a.p.size(), b.p.size());
  EXPECT_EQ(std::memcmp(a.p.data(), b.p.data(), a.p.size() * sizeof(double)),
            0);
  EXPECT_EQ(a.bounds, b.bounds);
}

}  // namespace
}  // namespace netmon::core
