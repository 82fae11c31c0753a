// ABL — ablations of the design choices called out in DESIGN.md §5:
//  1. linear effective-rate approximation (eq. 7) vs exact union (eq. 1);
//  2. Newton 1-D search vs bisection (convergence cost);
//  3. Newton-CG face steps (the fused path) vs the paper's Polak-Ribiere
//     mixing vs plain projected gradient (the "zigzag" problem of paper
//     §IV-D), the last two on the generic path;
//  4. sum-of-utilities vs smooth max-min objective (paper §III trade-off);
//  5. i.i.d. Bernoulli vs periodic 1-in-N sampling (paper ref. [12]);
//  6. sequential convex programming on the exact rate (eq. 1) vs the
//     one-shot linearized solve — how much does assumption §IV-B cost?
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>

#include "core/exact_rate.hpp"
#include "opt/barrier.hpp"
#include "opt/projected_ascent.hpp"
#include "netmon.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace netmon;

  std::printf("== ABL: design-choice ablations ==\n\n");

  const core::GeantScenario scenario = core::make_geant_scenario();
  core::ProblemOptions options;
  options.theta = 100000.0;
  const core::PlacementProblem problem = core::make_problem(scenario, options);
  const core::PlacementSolution optimal = core::solve_placement(problem);

  // --- 1. eq.(7) vs eq.(1) at the optimal rates. ---
  std::printf("[1] effective-rate linearization (eq.7 vs eq.1)\n");
  const double max_err = sampling::max_linearization_error(
      problem.routing(), optimal.rates);
  std::printf("    max relative gap over the 20 OD pairs: %.3e"
              " (paper argues it is negligible at rates ~1e-2)\n\n",
              max_err);

  // --- 2 & 3. solver variants. ---
  std::printf("[2/3] solver variants (same instance, same optimum)\n");
  TextTable solver_table(
      {"variant", "iterations", "releases", "value", "time (ms)"});
  auto run_variant = [&](const char* name, bool fused, bool newton, bool pr) {
    opt::SolverOptions so;
    so.use_fused = fused;
    so.line_search.newton = newton;
    so.line_search.max_iters = newton ? 80 : 200;
    so.polak_ribiere = pr;
    so.max_iterations = 20000;
    const auto start = std::chrono::steady_clock::now();
    const core::PlacementSolution s = core::solve_placement(problem, so);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    solver_table.add_row({name, std::to_string(s.iterations),
                          std::to_string(s.release_events),
                          fmt_fixed(s.total_utility, 6), fmt_fixed(ms, 1)});
    return s.total_utility;
  };
  const double v_cg =
      run_variant("Newton-CG face steps (fused)", true, true, true);
  const double v_full =
      run_variant("Newton + Polak-Ribiere (paper, generic)", false, true, true);
  const double v_nopr =
      run_variant("Newton, no PR mixing (generic)", false, true, false);
  const double v_bis =
      run_variant("bisection + Polak-Ribiere (generic)", false, false, true);
  std::cout << solver_table.render();
  std::printf("    value agreement: |PR-NewtonCG| = %.2e, |PR-noPR| = %.2e,"
              " |PR-bisect| = %.2e\n\n",
              std::abs(v_full - v_cg), std::abs(v_full - v_nopr),
              std::abs(v_full - v_bis));

  // --- 4. sum vs smooth max-min. ---
  std::printf("[4] sum-of-utilities vs smooth max-min (paper §III)\n");
  const core::SmoothMinObjective maximin(problem.objective(), 400.0);
  opt::SolverOptions mm_options;
  mm_options.max_iterations = 8000;
  const opt::SolveResult mm =
      opt::maximize(maximin, problem.constraints(), mm_options);
  const core::PlacementSolution mm_report =
      core::evaluate_rates(problem, problem.expand(mm.p));
  auto worst_of = [](const core::PlacementSolution& s) {
    double w = 1.0;
    for (const auto& od : s.per_od) w = std::min(w, od.utility);
    return w;
  };
  TextTable obj_table({"objective", "sum utility", "worst OD utility"});
  obj_table.add_row({"sum (paper)", fmt_fixed(optimal.total_utility, 4),
                     fmt_fixed(worst_of(optimal), 4)});
  obj_table.add_row({"smooth max-min (beta=400)",
                     fmt_fixed(mm_report.total_utility, 4),
                     fmt_fixed(worst_of(mm_report), 4)});
  std::cout << obj_table.render();
  std::printf("    max-min trades total utility for the worst OD pair, as"
              " §III anticipates\n\n");

  // --- 5. Bernoulli vs periodic sampling. ---
  std::printf("[5] i.i.d. Bernoulli vs periodic 1-in-N sampling (ref. [12])\n");
  Rng rng(99);
  traffic::TrafficMatrix demands;
  for (std::size_t k = 0; k < scenario.task.ods.size(); ++k) {
    demands.push_back(
        {scenario.task.ods[k],
         scenario.task.expected_packets[k] / scenario.task.interval_sec});
  }
  // Scale to the 8 smallest OD pairs for the per-packet engine.
  std::vector<routing::OdPair> small_ods(scenario.task.ods.end() - 8,
                                         scenario.task.ods.end());
  const auto matrix =
      routing::RoutingMatrix::single_path(scenario.net.graph, small_ods);
  auto all_flows = traffic::generate_all_flows(rng, demands);
  std::vector<std::vector<traffic::Flow>> flows(all_flows.end() - 8,
                                                all_flows.end());
  const auto rhos = sampling::effective_rates_approx(matrix, optimal.rates);
  RunningStats bern_err, per_err;
  for (int rep = 0; rep < 10; ++rep) {
    Rng r1 = rng.substream(rep * 2 + 1), r2 = rng.substream(rep * 2 + 2);
    const auto bern = sampling::simulate_sampling_per_packet(
        r1, matrix, flows, optimal.rates,
        sampling::CountMode::kSumAcrossMonitors,
        sampling::SamplerKind::kBernoulli);
    const auto peri = sampling::simulate_sampling_per_packet(
        r2, matrix, flows, optimal.rates,
        sampling::CountMode::kSumAcrossMonitors,
        sampling::SamplerKind::kPeriodic);
    for (std::size_t k = 0; k < matrix.od_count(); ++k) {
      if (rhos[k] <= 0.0) continue;
      const double actual = static_cast<double>(bern[k].actual_packets);
      bern_err.add(std::abs(
          estimate::estimate_size(bern[k].sampled_packets, rhos[k]) - actual) /
          actual);
      per_err.add(std::abs(
          estimate::estimate_size(peri[k].sampled_packets, rhos[k]) - actual) /
          actual);
    }
  }
  std::printf(
      "    mean |relative error|: Bernoulli %.4f vs periodic %.4f\n"
      "    (periodic sampling of a single aggregate is a stratified sample:"
      " far lower\n     count variance; Duffield et al. report parity for"
      " flow-level statistics,\n     where phase alignment matters)\n\n",
      bern_err.mean(), per_err.mean());

  // --- 6. exact-rate SCP vs one-shot linearization. ---
  std::printf("[6] exact-rate SCP (eq.1) vs one-shot linearized solve"
              " (eq.7)\n");
  TextTable scp_table({"theta", "exact utility (eq.7 solve)",
                       "exact utility (SCP)", "gap", "SCP rounds"});
  for (double theta : {100000.0, 1.0e6, 3.0e6}) {
    core::ProblemOptions scp_options;
    scp_options.theta = theta;
    const core::PlacementProblem scp_problem =
        core::make_problem(scenario, scp_options);
    const core::ExactRateResult scp =
        core::solve_exact_placement(scp_problem);
    scp_table.add_row(
        {fmt_fixed(theta, 0), fmt_fixed(scp.exact_utility_linearized, 6),
         fmt_fixed(scp.exact_utility_scp, 6),
         fmt_sci(scp.exact_utility_scp - scp.exact_utility_linearized, 2),
         std::to_string(scp.rounds)});
  }
  std::cout << scp_table.render();
  std::printf("    at the paper's operating point the linearized solution"
              " is already a fixed point\n    of the exact problem to"
              " ~1e-4 — assumption §IV-B costs essentially nothing.\n\n");

  // --- 7. three independent solvers must meet at the same optimum. ---
  std::printf("[7] solver cross-validation on the Table I instance\n");
  TextTable solvers({"algorithm", "objective value", "time (ms)"});
  auto timed = [&](const char* name, auto&& fn) {
    const auto start = std::chrono::steady_clock::now();
    const double value = fn();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    solvers.add_row({name, fmt_fixed(value, 9), fmt_fixed(ms, 1)});
  };
  timed("gradient projection (paper)", [&] {
    return opt::maximize(problem.objective(), problem.constraints()).value;
  });
  timed("interior point (log barrier)", [&] {
    return opt::maximize_barrier(problem.objective(), problem.constraints())
        .value;
  });
  timed("projected gradient ascent", [&] {
    opt::ProjectedAscentOptions pa;
    pa.max_iterations = 200000;
    return opt::maximize_reference(problem.objective(),
                                   problem.constraints(), pa)
        .value;
  });
  std::cout << solvers.render();
  std::printf("    three algorithms, one optimum — the KKT certificate is"
              " corroborated numerically.\n");
  return 0;
}
