// PERF — google-benchmark microbenchmarks: solver scaling in the number
// of candidate links and OD pairs, routing matrix construction on GEANT,
// and the Monte-Carlo sampling engine throughput. A custom main() then
// measures batch-solve and Monte-Carlo throughput across thread counts
// and emits the machine-readable JSON block tracked across PRs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "netmon.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opt/barrier.hpp"
#include "opt/fused_eval.hpp"
#include "util/bench_report.hpp"
#include "util/page_alloc.hpp"

namespace {

using namespace netmon;

// Synthetic placement instance: `n` links, `n` OD pairs, each OD crossing
// a shared "first hop" plus its own dedicated link — the structure of the
// GEANT task at configurable scale.
struct SyntheticInstance {
  std::unique_ptr<opt::SeparableConcaveObjective> objective;
  std::unique_ptr<opt::BoxBudgetConstraints> constraints;

  explicit SyntheticInstance(std::size_t n) {
    Rng rng(n);
    opt::SeparableConcaveObjective::SparseRows rows(n);
    std::vector<std::shared_ptr<const opt::Concave1d>> utilities;
    std::vector<double> u(n), alpha(n, 1.0);
    for (std::size_t k = 0; k < n; ++k) {
      rows[k].emplace_back(0, 1.0);            // shared first hop
      if (k != 0) rows[k].emplace_back(k, 1.0);  // dedicated link
      utilities.push_back(std::make_shared<core::SreUtility>(
          1.0 / rng.uniform(5e3, 1e7)));
      u[k] = rng.uniform(1e5, 5e7);
    }
    objective = std::make_unique<opt::SeparableConcaveObjective>(
        n, std::move(rows), std::move(utilities));
    double max_budget = 0.0;
    for (double uj : u) max_budget += uj;
    constraints = std::make_unique<opt::BoxBudgetConstraints>(
        std::move(u), std::move(alpha), max_budget * 0.01);
  }
};

void BM_GradientProjectionSolve(benchmark::State& state) {
  const SyntheticInstance instance(static_cast<std::size_t>(state.range(0)));
  opt::SolverOptions options;
  options.max_iterations = 20000;
  for (auto _ : state) {
    const opt::SolveResult r =
        opt::maximize(*instance.objective, *instance.constraints, options);
    benchmark::DoNotOptimize(r.value);
  }
  state.counters["links"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_GradientProjectionSolve)->Arg(10)->Arg(20)->Arg(50)->Arg(100)->Arg(200);

void BM_BarrierSolve(benchmark::State& state) {
  const SyntheticInstance instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const opt::BarrierResult r =
        opt::maximize_barrier(*instance.objective, *instance.constraints);
    benchmark::DoNotOptimize(r.value);
  }
  state.counters["links"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_BarrierSolve)->Arg(10)->Arg(20)->Arg(50);

void BM_GeantEndToEndSolve(benchmark::State& state) {
  const core::GeantScenario scenario = core::make_geant_scenario();
  const core::PlacementProblem problem = core::make_problem(scenario);
  for (auto _ : state) {
    const core::PlacementSolution s = core::solve_placement(problem);
    benchmark::DoNotOptimize(s.total_utility);
  }
}
BENCHMARK(BM_GeantEndToEndSolve);

void BM_ScenarioBuild(benchmark::State& state) {
  for (auto _ : state) {
    const core::GeantScenario scenario = core::make_geant_scenario();
    benchmark::DoNotOptimize(scenario.loads.size());
  }
}
BENCHMARK(BM_ScenarioBuild);

void BM_RoutingMatrixGeant(benchmark::State& state) {
  const core::GeantScenario scenario = core::make_geant_scenario();
  for (auto _ : state) {
    const auto matrix = routing::RoutingMatrix::single_path(
        scenario.net.graph, scenario.task.ods);
    benchmark::DoNotOptimize(matrix.od_count());
  }
}
BENCHMARK(BM_RoutingMatrixGeant);

void BM_SamplingSimulationFastPath(benchmark::State& state) {
  const core::GeantScenario scenario = core::make_geant_scenario();
  const core::PlacementProblem problem = core::make_problem(scenario);
  const core::PlacementSolution solution = core::solve_placement(problem);
  Rng rng(1);
  traffic::TrafficMatrix demands;
  for (std::size_t k = 0; k < scenario.task.ods.size(); ++k) {
    demands.push_back(
        {scenario.task.ods[k],
         scenario.task.expected_packets[k] / scenario.task.interval_sec});
  }
  const auto flows = traffic::generate_all_flows(rng, demands);
  Rng sim(2);
  for (auto _ : state) {
    const auto counts = sampling::simulate_sampling(
        sim, problem.routing(), flows, solution.rates);
    benchmark::DoNotOptimize(counts.size());
  }
}
BENCHMARK(BM_SamplingSimulationFastPath);

void BM_EffectiveRates(benchmark::State& state) {
  const core::GeantScenario scenario = core::make_geant_scenario();
  const core::PlacementProblem problem = core::make_problem(scenario);
  const core::PlacementSolution solution = core::solve_placement(problem);
  for (auto _ : state) {
    const auto rhos = sampling::effective_rates_exact(problem.routing(),
                                                      solution.rates);
    benchmark::DoNotOptimize(rhos.size());
  }
}
BENCHMARK(BM_EffectiveRates);

// -- linalg kernel microbenchmarks on the GEANT objective's CSR matrix --

void BM_SpmvGeant(benchmark::State& state) {
  const core::GeantScenario scenario = core::make_geant_scenario();
  const core::PlacementProblem problem = core::make_problem(scenario);
  const linalg::SparseCsr& m = problem.objective().matrix();
  std::vector<double> x(m.cols(), 0.01), y(m.rows());
  for (auto _ : state) {
    linalg::spmv(m, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["nnz"] = static_cast<double>(m.nnz());
}
BENCHMARK(BM_SpmvGeant);

void BM_SpmvTransposedGeant(benchmark::State& state) {
  const core::GeantScenario scenario = core::make_geant_scenario();
  const core::PlacementProblem problem = core::make_problem(scenario);
  const linalg::SparseCsr& m = problem.objective().matrix();
  std::vector<double> x(m.rows(), 0.01), y(m.cols());
  for (auto _ : state) {
    linalg::spmv_t(m, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["nnz"] = static_cast<double>(m.nnz());
}
BENCHMARK(BM_SpmvTransposedGeant);

void BM_ObjectiveValueGeant(benchmark::State& state) {
  const core::GeantScenario scenario = core::make_geant_scenario();
  const core::PlacementProblem problem = core::make_problem(scenario);
  const auto& f = problem.objective();
  const std::vector<double> p = problem.constraints().initial_point();
  linalg::EvalWorkspace ws;
  (void)f.value(p, ws);  // warm the workspace: the loop is allocation-free
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.value(p, ws));
  }
}
BENCHMARK(BM_ObjectiveValueGeant);

void BM_ObjectiveGradientGeant(benchmark::State& state) {
  const core::GeantScenario scenario = core::make_geant_scenario();
  const core::PlacementProblem problem = core::make_problem(scenario);
  const auto& f = problem.objective();
  const std::vector<double> p = problem.constraints().initial_point();
  std::vector<double> g(f.dimension());
  linalg::EvalWorkspace ws;
  f.gradient(p, g, ws);
  for (auto _ : state) {
    f.gradient(p, g, ws);
    benchmark::DoNotOptimize(g.data());
  }
}
BENCHMARK(BM_ObjectiveGradientGeant);

void BM_EgressLpmLookup(benchmark::State& state) {
  const core::GeantScenario scenario = core::make_geant_scenario();
  const netflow::EgressMap map =
      netflow::EgressMap::for_pop_blocks(scenario.net.graph);
  Rng rng(3);
  std::vector<net::Ipv4> addrs;
  for (int i = 0; i < 1024; ++i) {
    addrs.push_back(net::ipv4(10, static_cast<std::uint8_t>(rng.below(24)), 1,
                              static_cast<std::uint8_t>(rng.below(250))));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.lookup(addrs[i++ & 1023]));
  }
}
BENCHMARK(BM_EgressLpmLookup);

// Kernel timing section: nanosecond-scale timings of the flat-CSR
// kernels and the workspace-based objective evaluation on GEANT, plus
// cold-vs-warm solve times (warm = reused SolverWorkspace). Lands in
// the JSON report so kernel regressions show up across PRs.
void RunKernelBench() {
  std::printf("\n-- linalg kernels on GEANT --\n");
  const core::GeantScenario scenario = core::make_geant_scenario();
  const core::PlacementProblem problem = core::make_problem(scenario);
  const auto& f = problem.objective();
  const linalg::SparseCsr& m = f.matrix();
  const std::vector<double> p = problem.constraints().initial_point();

  // Nanosecond-scale sections are timed as min over kBlocks repeated
  // blocks — the minimum is the noise-robust statistic for a perf gate
  // (scheduling and frequency excursions only ever add time).
  constexpr int kReps = 20000;
  constexpr int kBlocks = 5;
  const auto min_ns_per_call = [](auto&& body) {
    double best = 0.0;
    for (int b = 0; b < kBlocks; ++b) {
      StopWatch watch;
      for (int i = 0; i < kReps; ++i) body();
      const double ns = watch.elapsed_ms() * 1e6 / kReps;
      if (b == 0 || ns < best) best = ns;
    }
    return best;
  };

  std::vector<double> y_rows(m.rows()), y_cols(m.cols());
  const double spmv_ns = min_ns_per_call([&] { linalg::spmv(m, p, y_rows); });
  const double spmv_t_ns =
      min_ns_per_call([&] { linalg::spmv_t(m, y_rows, y_cols); });

  linalg::EvalWorkspace ws;
  double sink = f.value(p, ws);
  const double value_ns = min_ns_per_call([&] { sink += f.value(p, ws); });

  std::vector<double> g(f.dimension());
  const double gradient_ns = min_ns_per_call([&] { f.gradient(p, g, ws); });

  // Per-iteration evaluate path, before vs after fusion. "Separate" is
  // the pre-fusion shape: objective value, gradient, and directional
  // Hessian as three entry points (three matrix traversals plus three
  // term passes). "Fused" is what the solver hot loop now runs: inner
  // products maintained incrementally, so one fused term pass plus one
  // transposed scatter yields value + gradient + per-term M'', and the
  // directional second derivative is a dot over the cached M''.
  std::vector<double> s_dir(f.dimension());
  for (std::size_t j = 0; j < s_dir.size(); ++j)
    s_dir[j] = (j % 2 == 0) ? 1e-3 : -5e-4;

  const double separate_ns = min_ns_per_call([&] {
    sink += f.value(p, ws);
    f.gradient(p, g, ws);
    sink += f.directional_second(p, s_dir, ws);
  });

  std::vector<double> x(f.term_count()), rs(f.term_count());
  f.inner_into(p, x);
  linalg::spmv(m, s_dir, rs);
  opt::SeparableConcaveObjective::FusedEval fe =
      f.fused_eval_from_inner(x, g, ws);  // warm
  const double fused_ns = min_ns_per_call([&] {
    fe = f.fused_eval_from_inner(x, g, ws);
    sink += fe.value + f.directional_second_from_terms(fe.m2, rs);
  });
  const double eval_path_speedup = separate_ns / fused_ns;

  std::vector<double> h(f.dimension());
  const double grad_hess_ns = min_ns_per_call(
      [&] { f.grad_hess_diag_from_terms(fe.m1, fe.m2, g, h); });

  // A line-search probe after reset: one batched pass over the terms
  // the direction actually touches (no matrix traversal).
  opt::SeparableRestriction restriction;
  restriction.reset(f, x, s_dir);
  sink += restriction.derivs(0.5).first;  // warm
  double probe_t = 0.5;
  const double probe_ns = min_ns_per_call([&] {
    probe_t += 1e-8;
    sink += restriction.derivs(probe_t).first;
  });

  StopWatch cold_watch;
  const core::PlacementSolution cold = core::solve_placement(problem);
  const double solve_cold_ms = cold_watch.elapsed_ms();

  opt::SolverWorkspace solver_ws;
  (void)core::solve_placement(problem, {}, &solver_ws);  // warm the scratch
  StopWatch warm_watch;
  const core::PlacementSolution warm =
      core::solve_placement(problem, {}, &solver_ws);
  const double solve_warm_ms = warm_watch.elapsed_ms();

  // Whole-solve throughput: cold GEANT solves per second with the fused
  // path on vs off (the generic path keeps Polak-Ribiere, for ablation),
  // warm workspaces, same min-over-blocks scheme. Solves, not iterations:
  // a Newton-CG iteration runs CG, so an iteration is no fixed unit of
  // work.
  constexpr int kSolveReps = 50;
  const auto solves_per_sec = [&](const opt::SolverOptions& options,
                                  opt::SolverWorkspace& sws) {
    (void)core::solve_placement(problem, options, &sws);  // warm
    double best_ms = 0.0;
    for (int b = 0; b < kBlocks; ++b) {
      StopWatch watch;
      for (int i = 0; i < kSolveReps; ++i)
        (void)core::solve_placement(problem, options, &sws);
      const double ms = watch.elapsed_ms() / kSolveReps;
      if (b == 0 || ms < best_ms) best_ms = ms;
    }
    return 1e3 / best_ms;
  };

  opt::SolverOptions fused_opt;  // use_fused defaults to true
  opt::SolverOptions generic_opt;
  generic_opt.use_fused = false;
  const double geant_solves_per_sec = solves_per_sec(fused_opt, solver_ws);
  opt::SolverWorkspace generic_ws;
  const double geant_solves_per_sec_generic =
      solves_per_sec(generic_opt, generic_ws);

  // Observability tax on the warm GEANT eval path, two tiers:
  //   metrics-enabled — the solver counter bundle attached (what a
  //     production BatchSolver-with-registry runs); the perf gate caps
  //     this at 3%.
  //   traced — per-iteration SolverTrace records on top; opt-in
  //     diagnostics, reported but not gated.
  // All variants alternate per solve on the SAME workspace so the memory
  // layout is identical and only the instrumentation differs; each side
  // keeps its per-solve minimum — a warm solve is deterministic work, so
  // the min over hundreds of samples is that variant's noise-free time.
  obs::MetricsRegistry obs_registry;
  obs::SolverTrace obs_trace(1 << 10);  // holds a full GEANT solve
  opt::SolverOptions metrics_opt;
  metrics_opt.counters = obs::register_solver_counters(obs_registry);
  opt::SolverOptions traced_opt = metrics_opt;
  traced_opt.trace = &obs_trace;
  (void)core::solve_placement(problem, traced_opt, &solver_ws);  // warm
  double min_plain_ms = 0.0, min_metrics_ms = 0.0, min_traced_ms = 0.0;
  for (int i = 0; i < kBlocks * kSolveReps; ++i) {
    StopWatch plain_watch;
    (void)core::solve_placement(problem, fused_opt, &solver_ws);
    const double plain_ms = plain_watch.elapsed_ms();
    if (i == 0 || plain_ms < min_plain_ms) min_plain_ms = plain_ms;
    StopWatch metrics_watch;
    (void)core::solve_placement(problem, metrics_opt, &solver_ws);
    const double metrics_ms = metrics_watch.elapsed_ms();
    if (i == 0 || metrics_ms < min_metrics_ms) min_metrics_ms = metrics_ms;
    StopWatch traced_watch;
    (void)core::solve_placement(problem, traced_opt, &solver_ws);
    const double traced_ms = traced_watch.elapsed_ms();
    if (i == 0 || traced_ms < min_traced_ms) min_traced_ms = traced_ms;
  }
  const double solves_per_sec_instrumented = 1e3 / min_metrics_ms;
  const double obs_overhead_pct =
      std::max(0.0, (min_metrics_ms / min_plain_ms - 1.0) * 100.0);
  const double trace_overhead_pct =
      std::max(0.0, (min_traced_ms / min_plain_ms - 1.0) * 100.0);

  std::printf(
      "  spmv=%.0f ns  spmv_t=%.0f ns  value=%.0f ns  gradient=%.0f ns\n"
      "  eval path: separate=%.0f ns  fused=%.0f ns  speedup=%.2fx\n"
      "  grad+hess scatter=%.0f ns  line-search probe=%.0f ns "
      "(%zu/%zu active terms)\n"
      "  solve cold=%.2f ms  warm=%.2f ms  (utility %s, sink %.3g)\n"
      "  cold solves: fused=%.0f /s  generic=%.0f /s  (%.2fx)\n"
      "  metrics-enabled=%.0f /s  obs overhead=%.2f%%  traced=+%.2f%%\n",
      spmv_ns, spmv_t_ns, value_ns, gradient_ns, separate_ns, fused_ns,
      eval_path_speedup, grad_hess_ns, probe_ns, restriction.active_terms(),
      f.term_count(), solve_cold_ms, solve_warm_ms,
      cold.total_utility == warm.total_utility ? "bit-identical" : "MISMATCH",
      sink, geant_solves_per_sec, geant_solves_per_sec_generic,
      geant_solves_per_sec / geant_solves_per_sec_generic,
      solves_per_sec_instrumented,
      obs_overhead_pct, trace_overhead_pct);

  BenchReport report("solver_perf_kernels", 1);
  report.result("geant_kernels")
      .metric("nnz", static_cast<double>(m.nnz()))
      .metric("spmv_ns", spmv_ns)
      .metric("spmv_t_ns", spmv_t_ns)
      .metric("value_ns", value_ns)
      .metric("gradient_ns", gradient_ns)
      .metric("eval_separate_ns", separate_ns)
      .metric("eval_fused_ns", fused_ns)
      .metric("eval_path_speedup", eval_path_speedup)
      .metric("grad_hess_ns", grad_hess_ns)
      .metric("ls_probe_ns", probe_ns)
      .metric("solve_cold_ms", solve_cold_ms)
      .metric("solve_warm_ms", solve_warm_ms)
      .metric("geant_solves_per_sec", geant_solves_per_sec)
      .metric("geant_solves_per_sec_generic", geant_solves_per_sec_generic)
      .metric("solves_per_sec_instrumented", solves_per_sec_instrumented)
      .metric("obs_overhead_pct", obs_overhead_pct)
      .metric("trace_overhead_pct", trace_overhead_pct);
  report.emit();
}

// Leveled SIMD sweep over the utility batch kernels: per-family rows
// (SRE — the vectorized family — and log, the scalar-only control) and
// per-regime-mix rows (all-quadratic, all-rational, regime-partitioned
// split, unpartitioned interleave) at 256 / 4096 / 65536 terms. Every
// row times the scalar reference and every available dispatch level
// (min over blocks) and verifies bit identity across ALL levels. The
// headline row, sre_fused_4096, is the regime-partitioned split at 4096
// terms — the layout the line-search restriction feeds the kernels
// after its reset()-time partition — and carries the gated metrics
// (fused_scalar_ns / fused_simd_ns / simd_speedup / bit_identical /
// simd_level).
void RunSimdKernelSweep() {
  const opt::SimdLevel max_level = opt::simd_max_level();
  std::printf(
      "\n-- utility batch kernels: leveled SIMD dispatch (max=%s) --\n",
      opt::simd_level_name(max_level));
  const opt::SimdLevel saved_level = opt::simd_dispatch_level();

  enum Mix { kQuad, kRat, kSplit, kInterleaved, kLogUniform };
  struct Sweep {
    std::unique_ptr<opt::SeparableConcaveObjective> f;
    // Page-backed like the solver's own workspace buffers, so the sweep
    // times the kernels under the library's buffer placement.
    util::PageVector<double> x;
  };
  const auto make_sweep = [](Mix mix, std::size_t terms) {
    Sweep s;
    Rng rng(terms * 31 + static_cast<std::size_t>(mix));
    opt::SeparableConcaveObjective::SparseRows rows(terms);
    std::vector<std::shared_ptr<const opt::Concave1d>> utilities;
    for (std::size_t k = 0; k < terms; ++k) {
      rows[k].emplace_back(0, 1.0);
      if (mix == kLogUniform) {
        utilities.push_back(
            std::make_shared<core::LogUtility>(rng.uniform(0.01, 1.0)));
        s.x.push_back(rng.uniform(0.0, 1.0));
        continue;
      }
      const double c = rng.uniform(0.01, 0.5);
      const double x0 = core::SreUtility::pivot_for(c);
      utilities.push_back(std::make_shared<core::SreUtility>(c));
      const bool quad = mix == kQuad || (mix == kSplit && k < terms / 2) ||
                        (mix == kInterleaved && rng.below(2) == 0);
      s.x.push_back(quad ? x0 * rng.uniform(0.05, 0.95)
                         : x0 * (1.0 + rng.uniform(0.05, 3.0)));
    }
    s.f = std::make_unique<opt::SeparableConcaveObjective>(
        1, std::move(rows), std::move(utilities));
    return s;
  };

  // Rep counts scale inversely with the term count so every size gets
  // comparable total work per timed block; min over blocks as usual.
  const auto min_ns = [](const Sweep& s, util::PageVector<double>& v,
                         util::PageVector<double>& m1,
                         util::PageVector<double>& m2) {
    const int reps = static_cast<int>(
        std::max<std::size_t>(32, (std::size_t{1} << 23) / s.x.size()));
    s.f->fused_terms(s.x, v, m1, m2);  // warm
    double best = 0.0;
    for (int b = 0; b < 5; ++b) {
      StopWatch watch;
      for (int i = 0; i < reps; ++i) s.f->fused_terms(s.x, v, m1, m2);
      const double ns = watch.elapsed_ms() * 1e6 / reps;
      if (b == 0 || ns < best) best = ns;
    }
    return best;
  };
  const auto bits_equal = [](const util::PageVector<double>& a,
                             const util::PageVector<double>& b) {
    return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };

  // One sweep row: scalar baseline, then every available vector level —
  // timed and bit-compared against the scalar outputs.
  struct Row {
    std::string name;
    std::size_t terms = 0;
    double scalar_ns = 0.0;
    double simd_ns = 0.0;  // at max_level
    bool identical = true;
  };
  const auto run_row = [&](const char* name, Mix mix, std::size_t terms) {
    const Sweep s = make_sweep(mix, terms);
    const std::size_t m = s.x.size();
    util::PageVector<double> v_s(m), m1_s(m), m2_s(m), v(m), m1(m), m2(m);
    Row row;
    row.name = name;
    row.terms = terms;
    opt::set_simd_dispatch_level(opt::SimdLevel::kScalar);
    row.scalar_ns = min_ns(s, v_s, m1_s, m2_s);
    row.simd_ns = row.scalar_ns;
    for (int l = 1; l <= static_cast<int>(max_level); ++l) {
      opt::set_simd_dispatch_level(static_cast<opt::SimdLevel>(l));
      row.simd_ns = min_ns(s, v, m1, m2);
      row.identical = row.identical && bits_equal(v_s, v) &&
                      bits_equal(m1_s, m1) && bits_equal(m2_s, m2);
    }
    std::printf("  %-18s terms=%-6zu scalar=%8.0f ns  %s=%8.0f ns  "
                "speedup=%.2fx  %s\n",
                name, terms, row.scalar_ns, opt::simd_level_name(max_level),
                row.simd_ns, row.scalar_ns / row.simd_ns,
                row.identical ? "bit-identical" : "MISMATCH");
    return row;
  };

  // Headline case first: regime-partitioned SRE at 4096 terms.
  const Row headline = run_row("sre_split_4096", kSplit, 4096);

  // The full grid: every family x regime mix x size.
  std::vector<Row> rows;
  for (const std::size_t terms : {std::size_t{256}, std::size_t{4096},
                                  std::size_t{65536}}) {
    const auto label = [terms](const char* mix) {
      return std::string("sre_") + mix + "_" + std::to_string(terms);
    };
    rows.push_back(run_row(label("quad").c_str(), kQuad, terms));
    rows.push_back(run_row(label("rat").c_str(), kRat, terms));
    rows.push_back(run_row(label("split").c_str(), kSplit, terms));
    rows.push_back(run_row(label("mixed").c_str(), kInterleaved, terms));
    // LogOps is scalar-only (core/utility_kernels.hpp), so every level
    // runs the scalar kernel here: these rows time it against itself.
    rows.push_back(run_row(
        ("log_uniform_" + std::to_string(terms)).c_str(), kLogUniform,
        terms));
  }
  opt::set_simd_dispatch_level(saved_level);

  bool all_identical = headline.identical;
  for (const Row& row : rows) all_identical = all_identical && row.identical;

  // Headline row first so the gate's first-match extraction lands on the
  // gated keys; bit_identical aggregates EVERY row at EVERY level.
  BenchReport report("solver_perf_simd", 1);
  report.result("sre_fused_4096")
      .metric("terms", static_cast<double>(headline.terms))
      .metric("simd_level", static_cast<double>(max_level))
      .metric("fused_scalar_ns", headline.scalar_ns)
      .metric("fused_simd_ns", headline.simd_ns)
      .metric("simd_speedup", headline.scalar_ns / headline.simd_ns)
      .metric("bit_identical", all_identical ? 1.0 : 0.0);
  for (const Row& row : rows) {
    report.result(row.name)
        .metric("terms", static_cast<double>(row.terms))
        .metric("scalar_ns", row.scalar_ns)
        .metric("simd_ns", row.simd_ns)
        .metric("speedup", row.scalar_ns / row.simd_ns)
        .metric("identical", row.identical ? 1.0 : 0.0);
  }
  report.emit();
}

// Warm-start savings at control-loop perturbation sizes: the streaming
// loop (src/control/) re-solves a problem whose task sizes moved a few
// percent between 5-minute bins — tracker-tracked diurnal drift — and
// warm-starts from the incumbent rates. This section measures how many
// solver iterations the warm start saves versus a cold solve of the
// same perturbed problem, across small/medium/large deltas.
void RunWarmDeltaBench() {
  std::printf("\n-- warm-start savings on tracker-sized deltas --\n");
  const core::GeantScenario scenario = core::make_geant_scenario();
  const core::PlacementProblem base_problem = core::make_problem(scenario);
  const core::PlacementSolution incumbent = core::solve_placement(base_problem);

  BenchReport report("solver_perf_warm_delta", 1);
  constexpr int kSolveReps = 50;
  constexpr int kBlocks = 5;
  for (const double delta : {0.01, 0.05, 0.20}) {
    // One bin of drift at the tracker's scale: every OD's size moves by
    // uniform(1 +/- delta).
    core::MeasurementTask task = scenario.task;
    Rng d_rng(static_cast<std::uint64_t>(delta * 1000.0));
    for (double& s : task.expected_packets)
      s *= d_rng.uniform(1.0 - delta, 1.0 + delta);
    const core::PlacementProblem problem(scenario.net.graph, task,
                                         scenario.loads, {});

    // Iteration counts are deterministic per (problem, start point).
    opt::SolverWorkspace cold_ws, warm_ws;
    const int cold_iters =
        core::solve_placement(problem, {}, &cold_ws).iterations;
    const int warm_iters =
        core::resolve_warm(problem, incumbent.rates, {}, &warm_ws).iterations;

    const auto min_solve_ms = [&](auto&& body) {
      double best = 0.0;
      for (int b = 0; b < kBlocks; ++b) {
        StopWatch watch;
        for (int i = 0; i < kSolveReps; ++i) body();
        const double ms = watch.elapsed_ms() / kSolveReps;
        if (b == 0 || ms < best) best = ms;
      }
      return best;
    };
    const double cold_ms = min_solve_ms(
        [&] { (void)core::solve_placement(problem, {}, &cold_ws); });
    const double warm_ms = min_solve_ms([&] {
      (void)core::resolve_warm(problem, incumbent.rates, {}, &warm_ws);
    });

    const double savings =
        1.0 - static_cast<double>(warm_iters) / cold_iters;
    std::printf("  delta=%.0f%%  cold=%d iters (%.3f ms)  warm=%d iters"
                " (%.3f ms)  savings=%.0f%%\n",
                delta * 100.0, cold_iters, cold_ms, warm_iters, warm_ms,
                savings * 100.0);
    report.result("delta_" + std::to_string(static_cast<int>(delta * 100)))
        .metric("delta_pct", delta * 100.0)
        .metric("cold_iters", cold_iters)
        .metric("warm_iters", warm_iters)
        .metric("warm_iter_savings", savings)
        .metric("cold_ms", cold_ms)
        .metric("warm_ms", warm_ms);
  }
  report.emit();
}

// Thread-scaling section: the same batch of problems and the same
// Monte-Carlo experiment at 1..8 worker threads. Outputs are
// deterministic per problem, so this doubles as a cross-thread-count
// consistency check; wall times land in the JSON report.
void RunThreadScaling() {
  std::printf("\n-- thread scaling: batch solve + Monte-Carlo --\n");
  const core::GeantScenario scenario = core::make_geant_scenario();

  // 32 placement problems with randomized budgets (the re-optimization
  // workload shape: same network, shifting constraints).
  Rng rng(99);
  std::vector<double> thetas;
  for (int i = 0; i < 32; ++i)
    thetas.push_back(rng.uniform(30000.0, 400000.0));
  std::sort(thetas.begin(), thetas.end());
  const auto problems = core::make_theta_sweep(
      scenario.net.graph, scenario.task, scenario.loads, {}, thetas);

  const core::PlacementProblem problem = core::make_problem(scenario);
  const core::PlacementSolution solution = core::solve_placement(problem);
  Rng flow_rng(1);
  traffic::TrafficMatrix demands;
  for (std::size_t k = 0; k < scenario.task.ods.size(); ++k) {
    demands.push_back(
        {scenario.task.ods[k],
         scenario.task.expected_packets[k] / scenario.task.interval_sec});
  }
  const auto flows = traffic::generate_all_flows(flow_rng, demands);

  BenchReport report("solver_perf", runtime::threads_from_env());
  double reference_utility = 0.0;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    core::BatchOptions batch;
    batch.threads = threads;
    StopWatch solve_watch;
    const auto solutions = core::BatchSolver(batch).solve(problems);
    const double solve_ms = solve_watch.elapsed_ms();

    double utility = 0.0;
    for (const auto& s : solutions) utility += s.total_utility;
    if (threads == 1) reference_utility = utility;

    runtime::ThreadPool mc_pool(threads);
    StopWatch mc_watch;
    const auto runs = sampling::simulate_sampling_runs(
        mc_pool, Rng(7), problem.routing(), flows, solution.rates, 64);
    const double mc_ms = mc_watch.elapsed_ms();

    std::printf("  threads=%u  batch_solve(32)=%7.1f ms  monte_carlo(64)="
                "%7.1f ms  sum_utility=%.6f (%s)\n",
                threads, solve_ms, mc_ms, utility,
                utility == reference_utility ? "bit-identical" : "MISMATCH");
    report.result("threads_" + std::to_string(threads))
        .metric("batch_solve_ms", solve_ms)
        .metric("monte_carlo_ms", mc_ms)
        .metric("batch_problems", static_cast<double>(problems.size()))
        .metric("mc_runs", static_cast<double>(runs.size()))
        .metric("sum_utility", utility);
  }
  report.emit();
}

}  // namespace

int main(int argc, char** argv) {
  // NETMON_PERF_KERNELS_ONLY=1 runs just the kernel timing sections (the
  // ones the perf gate compares against the committed baseline) and skips
  // the google-benchmark suite and the thread-scaling sweep.
  const char* kernels_only_env = std::getenv("NETMON_PERF_KERNELS_ONLY");
  const bool kernels_only = kernels_only_env && *kernels_only_env &&
                            std::string_view(kernels_only_env) != "0";
  if (!kernels_only) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  RunKernelBench();
  RunSimdKernelSweep();
  RunWarmDeltaBench();
  if (!kernels_only) RunThreadScaling();
  return 0;
}
