// SCALE — the Internet-scale pipeline end to end: deterministic
// hierarchical generation (100k+ directed links), gravity fan-out task,
// arena routing-matrix build, a single-link-failure what-if assembled
// from the scenario's baseline routing and from scratch, the
// partitioned approximation tier with
// its certified gap, and the intra-solve parallel speedup of the exact
// solver at 1 vs 8 threads. Emits the BENCH_scaling.json block the perf
// gate tracks: the certified gap is capped at the tier's 1% target and
// the 8-thread speedup floor applies on machines with >= 8 hardware
// threads (hw_threads is recorded so the gate can tell).
#include <algorithm>
#include <cstdio>
#include <optional>
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

  // -- routing: one from-scratch build, and a single-link what-if -------
  // The what-if fails the candidate link the most task OD pairs cross
  // (the costliest re-route among failures that keep every pair
  // connected) and assembles its problem from scratch and from the
  // scenario's baseline routing; both must be the same problem.
  std::size_t routed_ods = 0;
  const double route_ms = min_ms(3, [&] {
    routed_ods = routing::RoutingMatrix::single_path(scenario.net.graph,
                                                     scenario.task.ods)
                     .od_count();
  });
  std::vector<topo::LinkId> busiest = problem.candidates();
  const routing::RoutingMatrix& baseline = *scenario.routing;
  std::stable_sort(busiest.begin(), busiest.end(),
                   [&](topo::LinkId a, topo::LinkId b) {
                     return baseline.ods_on_link(a).size() >
                            baseline.ods_on_link(b).size();
                   });
  core::ProblemOptions whatif_options = problem_options;
  std::optional<core::PlacementProblem> whatif;
  for (topo::LinkId link : busiest) {
    whatif_options.failed = {link};
    try {
      whatif.emplace(core::make_problem(scenario, whatif_options));
      break;
    } catch (const Error&) {
      continue;  // the link is some OD pair's only way out
    }
  }
  const topo::LinkId whatif_link = *whatif_options.failed.begin();
  const double whatif_build_ms = min_ms(3, [&] {
    whatif.emplace(core::make_problem(scenario, whatif_options));
  });
  const double whatif_scratch_ms = min_ms(3, [&] {
    whatif.emplace(scenario.net.graph, scenario.task, scenario.loads,
                   whatif_options);
  });
  const core::PlacementProblem rerouted_whatif =
      core::make_problem(scenario, whatif_options);
  const bool whatif_identical =
      std::ranges::equal(rerouted_whatif.routing().csr().col_idx(),
                         whatif->routing().csr().col_idx()) &&
      std::ranges::equal(rerouted_whatif.routing().csr().row_ptr(),
                         whatif->routing().csr().row_ptr()) &&
      rerouted_whatif.candidates() == whatif->candidates();
  std::printf("  routing: %zu ODs in %.1f ms; what-if failing %s "
              "(%zu ODs cross it): %.1f ms from the baseline, %.1f ms "
              "from scratch (%s)\n",
              routed_ods, route_ms,
              scenario.net.graph.link_name(whatif_link).c_str(),
              baseline.ods_on_link(whatif_link).size(), whatif_build_ms,
              whatif_scratch_ms, whatif_identical ? "identical" : "MISMATCH");

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
      .metric("route_ms", route_ms)
      .metric("whatif_build_ms", whatif_build_ms)
      .metric("whatif_scratch_ms", whatif_scratch_ms)
      .metric("partition_groups", static_cast<double>(approx.groups))
      .metric("approx_ms", approx_ms)
      .metric("approx_value", approx.solution.total_utility)
      .metric("gap_rel", gap_rel)
      .metric("subsolve_iters",
              static_cast<double>(approx.subsolve_iterations))
      .metric("solve1_ms", solve1_ms)
      .metric("solve8_ms", solve8_ms)
      .metric("intra_speedup_8t", intra_speedup_8t)
      .metric("solve_bit_identical", value1 == value8 ? 1.0 : 0.0)
      .metric("whatif_identical", whatif_identical ? 1.0 : 0.0);
  report.emit();

  // The bench itself enforces the correctness bits so a manual run
  // fails loudly; the perf gate re-checks the first two from the JSON.
  if (gap_rel > 0.01 || value1 != value8 || !whatif_identical) return 1;
  return 0;
}

}  // namespace

int main() { return run(); }
