// SCALE — the Internet-scale pipeline end to end: deterministic
// hierarchical generation (100k+ directed links), gravity fan-out task,
// arena routing-matrix build, the partitioned approximation tier with
// its certified gap, and the intra-solve parallel speedup of the exact
// solver at 1 vs 8 threads. Emits the BENCH_scaling.json block the perf
// gate tracks: the certified gap is capped at the tier's 1% target and
// the 8-thread speedup floor applies on machines with >= 8 hardware
// threads (hw_threads is recorded so the gate can tell).
#include <cstdio>
#include <thread>
#include <vector>

#include "netmon.hpp"
#include "util/bench_report.hpp"

namespace {

using namespace netmon;

// Min-over-reps wall time of a deterministic body: scheduling noise only
// ever adds time, so the minimum is the robust statistic for a gate.
template <typename Fn>
double min_ms(int reps, Fn&& body) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    StopWatch watch;
    body();
    const double ms = watch.elapsed_ms();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

int run() {
  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::printf("scaling bench: hw_threads=%u\n", hw_threads);

  // -- generation: the 100k+-link preset --------------------------------
  core::ScaleScenarioOptions scenario_options;
  scenario_options.hierarchy = topo::hierarchy_scale_options();
  StopWatch gen_watch;
  const core::ScaleScenario scenario = make_scale_scenario(scenario_options);
  const double gen_ms = gen_watch.elapsed_ms();
  const std::size_t nodes = scenario.net.graph.node_count();
  const std::size_t links = scenario.net.graph.link_count();
  std::printf("  generate: %zu nodes, %zu links, %zu ODs in %.1f ms\n",
              nodes, links, scenario.task.ods.size(), gen_ms);

  // -- problem build: routing matrix (arena path) + objective -----------
  StopWatch theta_watch;
  const double theta = core::default_scale_theta(scenario);
  const double theta_ms = theta_watch.elapsed_ms();
  core::ProblemOptions problem_options;
  problem_options.theta = theta;
  StopWatch build_watch;
  const core::PlacementProblem problem =
      core::make_problem(scenario, problem_options);
  const double build_ms = build_watch.elapsed_ms();
  const std::size_t candidates = problem.candidates().size();
  const std::size_t terms = problem.objective().term_count();
  std::printf("  problem: %zu candidates, %zu terms, theta=%.4g "
              "(theta %.1f ms, build %.1f ms)\n",
              candidates, terms, theta, theta_ms, build_ms);

  // -- approximation tier: pod partition, certified gap -----------------
  const core::Partition partition =
      core::partition_by_region(problem, scenario.net);
  runtime::ThreadPool approx_pool(runtime::resolve_threads(0));
  core::ApproxOptions approx_options;
  approx_options.pool = &approx_pool;
  approx_options.polish.pool = &approx_pool;
  StopWatch approx_watch;
  const core::ApproxResult approx =
      core::solve_approx(problem, partition, approx_options);
  const double approx_ms = approx_watch.elapsed_ms();
  const double gap_rel = approx.certificate.relative_gap;
  std::printf("  approx tier: %zu groups, value=%.6g, certified gap=%.3g "
              "(%.4f%%) in %.1f ms [%lld subsolve iters] %s\n",
              approx.groups, approx.solution.total_utility,
              approx.certificate.gap, gap_rel * 100.0, approx_ms,
              approx.subsolve_iterations,
              gap_rel <= 0.01 ? "<= 1% target" : "ABOVE 1% TARGET");

  // -- intra-solve parallel speedup: 1 vs 8 threads ---------------------
  // Fixed-iteration exact solves (identical deterministic work: the
  // parallel path is bit-identical to serial, so both runs execute the
  // same iterates) measure the per-iteration sharding win.
  opt::SolverOptions solve_options;
  solve_options.max_iterations = 200;
  solve_options.parallel_min_terms = 0;
  const auto timed_solve = [&](unsigned threads) {
    runtime::ThreadPool pool(threads);
    opt::SolverOptions options = solve_options;
    options.pool = &pool;
    opt::SolverWorkspace workspace;
    double value = 0.0;
    const double ms = min_ms(2, [&] {
      value = opt::maximize(problem.objective(), problem.constraints(),
                            options, nullptr, &workspace)
                  .value;
    });
    return std::pair<double, double>(ms, value);
  };
  const auto [solve1_ms, value1] = timed_solve(1);
  const auto [solve8_ms, value8] = timed_solve(8);
  const double intra_speedup_8t = solve1_ms / solve8_ms;
  std::printf("  exact %d-iter solve: 1t=%.1f ms  8t=%.1f ms  "
              "speedup=%.2fx (%s)\n",
              solve_options.max_iterations, solve1_ms, solve8_ms,
              intra_speedup_8t,
              value1 == value8 ? "bit-identical" : "MISMATCH");

  BenchReport report("scaling_perf", hw_threads);
  report.result("scale_instance")
      .metric("hw_threads", static_cast<double>(hw_threads))
      .metric("nodes", static_cast<double>(nodes))
      .metric("links", static_cast<double>(links))
      .metric("ods", static_cast<double>(scenario.task.ods.size()))
      .metric("candidates", static_cast<double>(candidates))
      .metric("terms", static_cast<double>(terms))
      .metric("gen_ms", gen_ms)
      .metric("build_ms", theta_ms + build_ms)
      .metric("partition_groups", static_cast<double>(approx.groups))
      .metric("approx_ms", approx_ms)
      .metric("approx_value", approx.solution.total_utility)
      .metric("gap_rel", gap_rel)
      .metric("subsolve_iters",
              static_cast<double>(approx.subsolve_iterations))
      .metric("solve1_ms", solve1_ms)
      .metric("solve8_ms", solve8_ms)
      .metric("intra_speedup_8t", intra_speedup_8t)
      .metric("solve_bit_identical", value1 == value8 ? 1.0 : 0.0);
  report.emit();

  // The bench itself enforces the two correctness bits so a manual run
  // fails loudly; the perf gate re-checks them from the JSON.
  if (gap_rel > 0.01 || value1 != value8) return 1;
  return 0;
}

}  // namespace

int main() { return run(); }
