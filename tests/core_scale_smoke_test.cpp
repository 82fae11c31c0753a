// End-to-end smoke of the scale pipeline at test-sized dimensions: a
// hierarchical instance (a few thousand links), gravity fan-out task,
// pod partition, a direct core::solve_approx call with intra-solve
// parallelism — and a certified gap within the tier's 1% target.
// bench/scaling_perf.cpp calls the tier the same way on the 100k+-link
// instance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/approx.hpp"
#include "core/partition.hpp"
#include "core/scale_scenario.hpp"
#include "core/solver.hpp"
#include "runtime/thread_pool.hpp"
#include "traffic/link_load.hpp"

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

bool same_doubles(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void expect_same_csr(const linalg::SparseCsr& a, const linalg::SparseCsr& b) {
  EXPECT_EQ(a.cols(), b.cols());
  EXPECT_TRUE(std::ranges::equal(a.row_ptr(), b.row_ptr()));
  EXPECT_TRUE(std::ranges::equal(a.col_idx(), b.col_idx()));
  EXPECT_TRUE(same_doubles(a.values(), b.values()));
}

TEST(ScaleSmoke, SharedRoutingFeedsBitIdenticalLoadsAndTheta) {
  const ScaleScenarioOptions options = smoke_options();
  const ScaleScenario scenario = make_scale_scenario(options);
  const routing::RoutingMatrix scratch = routing::RoutingMatrix::single_path(
      scenario.net.graph, scenario.task.ods);
  ASSERT_NE(scenario.routing, nullptr);
  expect_same_csr(scenario.routing->csr(), scratch.csr());

  // Loads: background plus the demands routed by traffic::link_loads.
  traffic::LinkLoads expected = traffic::background_loads(
      scenario.net.graph, options.background_utilization);
  const traffic::LinkLoads task_loads =
      traffic::link_loads(scenario.net.graph, scenario.demands);
  for (std::size_t i = 0; i < expected.size(); ++i)
    expected[i] += task_loads[i];
  EXPECT_TRUE(same_doubles(scenario.loads, expected));

  double max_budget = 0.0;
  for (topo::LinkId id : scratch.links_used())
    max_budget += expected[id] * scenario.task.interval_sec;
  const double theta = default_scale_theta(scenario);
  const double expected_theta = 0.01 * max_budget;
  EXPECT_EQ(std::memcmp(&theta, &expected_theta, sizeof(double)), 0);
}

TEST(ScaleSmoke, ProblemsFromTheBaselineEqualFromScratchProblems) {
  const ScaleScenario scenario = make_scale_scenario(smoke_options());
  const std::vector<topo::LinkId> used = scenario.routing->links_used();
  ProblemOptions intact;
  intact.theta = default_scale_theta(scenario);
  ProblemOptions failed = intact;  // rerouted from the baseline
  failed.failed = {used[used.size() / 2], used[used.size() / 3]};
  ProblemOptions ecmp = intact;  // routed from scratch
  ecmp.ecmp = true;
  for (const ProblemOptions& options : {intact, failed, ecmp}) {
    const PlacementProblem shared = make_problem(scenario, options);
    const PlacementProblem scratch(scenario.net.graph, scenario.task,
                                   scenario.loads, options);
    EXPECT_EQ(shared.candidates(), scratch.candidates());
    expect_same_csr(shared.routing().csr(), scratch.routing().csr());
    expect_same_csr(shared.routing().csc(), scratch.routing().csc());
    expect_same_csr(shared.objective().matrix(), scratch.objective().matrix());
    EXPECT_TRUE(same_doubles(shared.constraints().loads(),
                             scratch.constraints().loads()));
    EXPECT_TRUE(same_doubles(shared.constraints().upper(),
                             scratch.constraints().upper()));
    EXPECT_EQ(shared.theta(), scratch.theta());
  }
  // The intact problem shares the scenario's matrix outright.
  EXPECT_EQ(make_problem(scenario, intact).shared_routing(), scenario.routing);
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
