// scale_exact and scale_approx: certified placements on the 102,810-link
// hierarchical instance, the planner's question at Internet scale.
//
// scale_exact runs the exact gradient-projection solve until its KKT
// certificate (max_iterations = 100000: the paper's 2000 would stop it
// uncertified). scale_approx answers a budget sweep with the partitioned
// approximation tier, each answer certified within 1% by its
// Frank-Wolfe gap. Both run on a pool of nproc threads over the same
// instance, so the two workloads are one question answered by two tiers.
//
// The seed draws the budgets, not the instance: both tiers' work is flat
// in the budget (within 1%), while reseeding the generator moves the
// approximation tier's iterations by about 6% per instance, which would
// swamp the run-to-run comparison.
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>

#include "netmon.hpp"
#include "workloads.hpp"

namespace bench {
namespace {

using namespace netmon;

struct Instance {
  core::ScaleScenario scenario;
  double theta = 0.0;  // the default budget
  std::optional<core::PlacementProblem> problem;
  double gen_ms = 0.0;
};

core::ScaleScenarioOptions scenario_options(const RunConfig& config) {
  core::ScaleScenarioOptions options;
  // Smoke runs use the generator's small default fabric (~2k links).
  if (config.smoke) options.fanout.od_count = 2000;
  else options.hierarchy = topo::hierarchy_scale_options();
  return options;
}

/// Budgets log-uniform in [0.5, 2] x the default budget.
std::vector<double> budgets(const RunConfig& config, double base, int count) {
  Rng rng(config.seed);
  std::vector<double> thetas;
  for (int i = 0; i < count; ++i)
    thetas.push_back(base * std::exp2(2.0 * rng.uniform() - 1.0));
  return thetas;
}

/// Scenario, default budget, and the problem at `theta_of(default)`,
/// timed as set-up; `gen_ms` is the topology + traffic generation share.
template <typename ThetaOf>
std::unique_ptr<Instance> make_instance(const RunConfig& config,
                                        ThetaOf&& theta_of) {
  auto instance = std::make_unique<Instance>();
  const std::int64_t start = now_ns();
  instance->scenario = core::make_scale_scenario(scenario_options(config));
  instance->gen_ms = ns_to_ms(now_ns() - start);
  instance->theta = core::default_scale_theta(instance->scenario);
  core::ProblemOptions options;
  options.theta = theta_of(instance->theta);
  instance->problem.emplace(core::make_problem(instance->scenario, options));
  return instance;
}

/// Set-up repeated three times (median), keeping the last instance.
template <typename ThetaOf>
std::unique_ptr<Instance> setup_instance(const RunConfig& config,
                                         Outcome& out, ThetaOf&& theta_of) {
  std::vector<double> gen_ms;
  std::unique_ptr<Instance> instance =
      timed_setup(3, &out.metrics["setup_s"], [&] {
        auto next = make_instance(config, theta_of);
        gen_ms.push_back(next->gen_ms);
        return next;
      });
  out.metrics["traffic.input_gen_ms"] = quantile(gen_ms, 0.5);
  std::printf("instance: %zu nodes, %zu links, %zu ODs, %zu candidates,"
              " default theta %.6g\n",
              instance->scenario.net.graph.node_count(),
              instance->scenario.net.graph.link_count(),
              instance->scenario.task.ods.size(),
              instance->problem->candidates().size(), instance->theta);
  return instance;
}

bool same_result(const opt::SolveResult& a, const opt::SolveResult& b) {
  return a.p.size() == b.p.size() &&
         std::memcmp(a.p.data(), b.p.data(), a.p.size() * sizeof(double)) ==
             0 &&
         std::memcmp(&a.value, &b.value, sizeof(double)) == 0 &&
         std::memcmp(&a.lambda, &b.lambda, sizeof(double)) == 0 &&
         a.iterations == b.iterations && a.status == b.status;
}

core::ApproxOptions approx_options(runtime::ThreadPool& pool) {
  core::ApproxOptions options;
  options.pool = &pool;
  options.polish.pool = &pool;
  return options;
}

constexpr double kGapTarget = 0.01;

}  // namespace

Outcome run_scale_exact(const RunConfig& config, Tracer& tracer) {
  Outcome out;
  const unsigned nproc = std::thread::hardware_concurrency();
  out.load_threads = nproc;
  const double factor = budgets(config, 1.0, 1)[0];
  std::unique_ptr<Instance> instance =
      setup_instance(config, out, [factor](double base) { return base * factor; });
  const core::PlacementProblem& problem = *instance->problem;
  runtime::ThreadPool pool(nproc);
  const std::uint64_t trace_id = tracer.next_id();

  // Determinism gate and runtime speed-up, run first so the certified
  // solve below starts warm: a 200-iteration prefix is bit-identical on
  // 1 thread and on nproc threads.
  opt::SolverOptions prefix;
  prefix.max_iterations = 200;
  prefix.parallel_min_terms = 0;
  const auto prefix_run = [&](runtime::ThreadPool& on, opt::SolveResult& r) {
    opt::SolverOptions options = prefix;
    options.pool = &on;
    double best = 0.0;
    for (int rep = 0; rep < 2; ++rep) {
      const std::int64_t t0 = now_ns();
      r = opt::maximize(problem.objective(), problem.constraints(), options);
      const std::int64_t t1 = now_ns();
      tracer.span(trace_id, 0, "opt.prefix", t0, t1);
      if (rep == 0 || ns_to_ms(t1 - t0) < best) best = ns_to_ms(t1 - t0);
    }
    return best;
  };
  runtime::ThreadPool single(1);
  opt::SolveResult serial, parallel;
  const double serial_ms = prefix_run(single, serial);
  const double parallel_ms = prefix_run(pool, parallel);
  out.check(same_result(serial, parallel),
            "200-iteration prefix bit-identical at 1 and nproc threads");

  opt::SolverOptions options;
  options.max_iterations = 100000;
  options.pool = &pool;
  const std::int64_t start = now_ns();
  const opt::SolveResult exact =
      opt::maximize(problem.objective(), problem.constraints(), options);
  const std::int64_t end = now_ns();
  tracer.span(trace_id, 0, "opt.maximize", start, end);
  const double certify_ms = ns_to_ms(end - start);
  out.check(exact.status == opt::SolveStatus::kOptimal,
            "exact solve ends with a KKT certificate");

  // Cross-tier gate: the approximation's certificate must bound the
  // certified optimum, and its utility cannot beat it by more than its gap.
  const std::int64_t approx_start = now_ns();
  const core::Partition partition =
      core::partition_by_region(problem, instance->scenario.net);
  const core::ApproxResult approx =
      core::solve_approx(problem, partition, approx_options(pool));
  tracer.span(trace_id, 0, "core.solve_approx", approx_start, now_ns());
  const opt::GapCertificate& cert = approx.certificate;
  out.check(cert.relative_gap <= kGapTarget, "approximation gap <= 1%");
  out.check(approx.solution.total_utility <= exact.value + cert.gap,
            "approximate utility <= exact optimum + certified gap");
  out.check(exact.value <= cert.upper_bound * (1.0 + 1e-12),
            "exact optimum within the approximation's certified bound");

  std::printf("exact: theta %.6g, %d iterations, %d release events, %.1f ms"
              " to KKT certificate (%.4f ms/iter, %u threads)\n",
              instance->theta * factor, exact.iterations,
              exact.release_events, certify_ms,
              certify_ms / std::max(1, exact.iterations), nproc);
  std::printf("approx check: gap %.3g, utility %.10g vs exact %.10g\n",
              cert.relative_gap, approx.solution.total_utility, exact.value);
  std::printf("prefix: 1 thread %.1f ms, %u threads %.1f ms\n", serial_ms,
              nproc, parallel_ms);

  auto& m = out.metrics;
  m["p50_ms"] = certify_ms;
  m["p90_ms"] = certify_ms;
  m["core.solver_invocations"] = 1;
  m["core.solve_pct"] = 100.0;
  m["core.approx_subsolve_iters"] =
      static_cast<double>(approx.subsolve_iterations);
  m["opt.iters_cold_mean"] = exact.iterations;
  m["opt.release_events"] = exact.release_events;
  m["opt.certificate_gap_rel"] = cert.relative_gap;
  m["runtime.prefix_speedup"] = serial_ms / parallel_ms;
  return out;
}

Outcome run_scale_approx(const RunConfig& config, Tracer& tracer) {
  Outcome out;
  const unsigned nproc = std::thread::hardware_concurrency();
  out.load_threads = nproc;
  std::unique_ptr<Instance> instance =
      setup_instance(config, out, [](double base) { return base; });
  runtime::ThreadPool pool(nproc);
  const core::ApproxOptions options = approx_options(pool);

  // One untimed answer at the default budget first: the first solve in a
  // process pays for first-touch of the tier's buffers, a cost a planner
  // that stays up does not pay per answer.
  core::solve_approx(*instance->problem,
                     core::partition_by_region(*instance->problem,
                                               instance->scenario.net),
                     options);

  // The sweep; building each budget's problem is input preparation.
  const int answers =
      config.smoke ? 3 : std::clamp(static_cast<int>(config.seconds), 3, 60);
  std::vector<double> answer_ms, gaps, subsolve_iters;
  double partition_total = 0.0, solve_total = 0.0, build_ms = 0.0;
  for (const double theta : budgets(config, instance->theta, answers)) {
    core::ProblemOptions problem_options;
    problem_options.theta = theta;
    const std::int64_t build_start = now_ns();
    const core::PlacementProblem problem =
        core::make_problem(instance->scenario, problem_options);
    build_ms += ns_to_ms(now_ns() - build_start);

    const std::uint64_t trace_id = tracer.next_id();
    const std::uint64_t root = tracer.next_id();
    const std::int64_t t0 = now_ns();
    const core::Partition partition =
        core::partition_by_region(problem, instance->scenario.net);
    const std::int64_t t1 = now_ns();
    const core::ApproxResult approx =
        core::solve_approx(problem, partition, options);
    const std::int64_t t2 = now_ns();
    tracer.span(trace_id, root, "core.partition", t0, t1);
    tracer.span(trace_id, root, "core.solve_approx", t1, t2);
    tracer.record({trace_id, root, 0, "scale.answer", t0, t2});

    answer_ms.push_back(ns_to_ms(t2 - t0));
    partition_total += ns_to_ms(t1 - t0);
    solve_total += ns_to_ms(t2 - t1);
    gaps.push_back(approx.certificate.relative_gap);
    subsolve_iters.push_back(static_cast<double>(approx.subsolve_iterations));
    out.check(approx.certificate.relative_gap <= kGapTarget,
              "theta " + std::to_string(theta) + ": certified gap <= 1%");
  }
  const double total_ms = partition_total + solve_total;
  const double max_gap = *std::max_element(gaps.begin(), gaps.end());
  std::printf("approx sweep: %d budgets, answer p50 %.1f ms, max gap %.3g,"
              " problem builds %.1f ms (untimed)\n",
              answers, quantile(answer_ms, 0.5), max_gap, build_ms);

  auto& m = out.metrics;
  m["p50_ms"] = quantile(answer_ms, 0.5);
  m["p90_ms"] = quantile(answer_ms, 0.9);
  m["core.solver_invocations"] = answers;
  m["core.solve_pct"] = 100.0 * solve_total / total_ms;
  m["core.partition_pct"] = 100.0 * partition_total / total_ms;
  m["core.approx_subsolve_iters"] = mean_of(subsolve_iters);
  m["opt.certificate_gap_rel"] = max_gap;
  return out;
}

}  // namespace bench
