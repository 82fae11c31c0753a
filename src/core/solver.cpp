#include "core/solver.hpp"

#include <cmath>

#include "util/error.hpp"

namespace netmon::core {

namespace {

PlacementSolution report(const PlacementProblem& problem,
                         sampling::RateVector rates) {
  PlacementSolution solution;
  solution.rates = std::move(rates);
  const routing::RoutingMatrix& matrix = problem.routing();

  for (topo::LinkId id = 0; id < solution.rates.size(); ++id) {
    if (solution.rates[id] > kActiveRateThreshold)
      solution.active_monitors.push_back(id);
  }

  solution.per_od.resize(matrix.od_count());
  for (std::size_t k = 0; k < matrix.od_count(); ++k) {
    OdReport& od = solution.per_od[k];
    od.od = matrix.od(k);
    od.expected_packets = problem.task().expected_packets[k];
    od.rho_approx =
        sampling::effective_rate_approx(matrix, k, solution.rates);
    od.rho_exact = sampling::effective_rate_exact(matrix, k, solution.rates);
    od.utility = problem.utilities()[k]->value(od.rho_approx);
    if (od.rho_approx > 0.0) {
      const double rel_sigma = std::sqrt(
          (1.0 - std::min(od.rho_approx, 1.0)) /
          (od.expected_packets * od.rho_approx));
      od.predicted_accuracy = 1.0 - std::sqrt(2.0 / M_PI) * rel_sigma;
    }
    for (const auto& [link, frac] : matrix.row(k)) {
      if (solution.rates[link] > kActiveRateThreshold)
        od.monitored_links.push_back(link);
    }
    solution.total_utility += od.utility;
  }
  solution.budget_used = problem.budget_used(solution.rates);
  return solution;
}

}  // namespace

PlacementSolution solution_from(const PlacementProblem& problem,
                                const opt::SolveResult& raw) {
  PlacementSolution solution = report(problem, problem.expand(raw.p));
  solution.status = raw.status;
  solution.iterations = raw.iterations;
  solution.release_events = raw.release_events;
  solution.lambda = raw.lambda;
  solution.certified_gap = raw.certificate.gap;
  solution.certified_upper_bound = raw.certificate.upper_bound;
  return solution;
}

PlacementSolution solve_placement(const PlacementProblem& problem,
                                  const opt::SolverOptions& options,
                                  opt::SolverWorkspace* workspace) {
  return solution_from(
      problem, opt::maximize(problem.objective(), problem.constraints(),
                             options, nullptr, workspace));
}

PlacementSolution evaluate_rates(const PlacementProblem& problem,
                                 const sampling::RateVector& rates) {
  NETMON_REQUIRE(rates.size() == problem.graph().link_count(),
                 "rate vector must cover every link");
  return report(problem, rates);
}

}  // namespace netmon::core
