// Facade: solve the placement problem and report the solution the way the
// paper's Table I does — per-link sampling rates, per-OD effective rates,
// utilities, and which monitors are active.
#pragma once

#include <vector>

#include "core/problem.hpp"
#include "opt/gradient_projection.hpp"

namespace netmon::core {

/// Per-OD view of a solution.
struct OdReport {
  routing::OdPair od;
  /// Expected interval size S_k (packets) from the task definition.
  double expected_packets = 0.0;
  /// Effective sampling rates: linearized (eq. 7) and exact (eq. 1).
  double rho_approx = 0.0;
  double rho_exact = 0.0;
  /// Utility M(rho_approx) — the paper's "Utility" column.
  double utility = 0.0;
  /// Analytic prediction of the paper's measured "Accuracy" column,
  /// E[1 - |X/rho - S|/S] ~ 1 - sqrt(2/pi) * sqrt((1-rho)/(S rho))
  /// (half-normal mean of the binomial estimator's relative error).
  double predicted_accuracy = 0.0;
  /// Links on this OD's path carrying an active monitor.
  std::vector<topo::LinkId> monitored_links;
};

/// A placement: rates per link plus reporting and solver diagnostics.
struct PlacementSolution {
  /// Sampling rate per link (full link-id space; 0 = monitor off).
  sampling::RateVector rates;
  /// Links with a strictly positive sampling rate.
  std::vector<topo::LinkId> active_monitors;
  std::vector<OdReport> per_od;
  /// sum_k M(rho_k).
  double total_utility = 0.0;
  /// Budget consumed, in packets per interval.
  double budget_used = 0.0;
  /// Solver diagnostics (meaningful when produced by solve_placement).
  opt::SolveStatus status = opt::SolveStatus::kOptimal;
  int iterations = 0;
  int release_events = 0;
  double lambda = 0.0;
  /// Certified Frank-Wolfe optimality gap of the returned rates
  /// (opt/certificate.hpp): f* <= certified_upper_bound =
  /// total_utility + certified_gap, up to rounding. Every solve sets it:
  /// near zero at a KKT optimum, within the requested tolerance after a
  /// gap stop (kCertified). Zero for evaluate_rates reports.
  double certified_gap = 0.0;
  double certified_upper_bound = 0.0;
};

/// Runs the gradient-projection solver on the problem. `workspace`, when
/// given, supplies the solver's iteration scratch — pass the same one to
/// repeated solves (batch fan-out, re-optimization) to avoid reallocating
/// it per call.
PlacementSolution solve_placement(const PlacementProblem& problem,
                                  const opt::SolverOptions& options = {},
                                  opt::SolverWorkspace* workspace = nullptr);

/// The report for a solver result over the problem's candidates: the
/// expanded rates, their per-OD report, the solver diagnostics and the
/// certificate. Every solve path (cold, warm, approximation tier)
/// builds its answer here.
PlacementSolution solution_from(const PlacementProblem& problem,
                                const opt::SolveResult& raw);

/// Builds the same report for an externally chosen rate vector (naive
/// strategies, hand-configured monitors). Rates on non-candidate links
/// are ignored for utility purposes but still counted in budget_used.
PlacementSolution evaluate_rates(const PlacementProblem& problem,
                                 const sampling::RateVector& rates);

/// Threshold below which a rate counts as "monitor off" when listing
/// active monitors.
inline constexpr double kActiveRateThreshold = 1e-9;

}  // namespace netmon::core
