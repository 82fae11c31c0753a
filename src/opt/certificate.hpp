// A-posteriori optimality certificate, and the solver's gap stop test.
//
// For a concave objective f over the convex feasible set C (box bounds
// plus one budget equality), any feasible p_hat admits the Frank-Wolfe
// bound
//   f* <= f(p_hat) + max_{q in C} grad f(p_hat) . (q - p_hat)
// because the first-order expansion overestimates a concave function
// everywhere. The inner maximization is a continuous knapsack — maximize
// a linear functional over { sum u_j q_j = theta, 0 <= q_j <= alpha_j }
// — whose optimum fills every item whose ratio g_j / u_j beats a
// threshold and splits the budget left at the threshold. The fill finds
// that threshold by weighted selection (halving selections, O(n)
// overall), not by sorting, so one certificate costs a few O(n) passes
// given the value and gradient: less than one solver iteration. It
// certifies ANY feasible point, independently of how it was produced.
// opt::maximize runs it as its gap stop test (SolverOptions::
// gap_tolerance) and on exit, so every SolveResult carries it, and the
// partitioned approximation tier (core/approx) certifies its stitched
// points with it.
#pragma once

#include <span>
#include <vector>

#include "opt/constraints.hpp"
#include "opt/objective.hpp"

namespace netmon::opt {

/// A certified bound on the distance to the optimum.
struct GapCertificate {
  /// f(p_hat) at the certified point.
  double value = 0.0;
  /// Certified bound: f* <= upper_bound.
  double upper_bound = 0.0;
  /// upper_bound - value (the Frank-Wolfe gap), clamped at zero.
  double gap = 0.0;
  /// gap / max(|value|, eps) — the figure the acceptance gates compare
  /// against (e.g. "certified within 1% of optimal").
  double relative_gap = 0.0;
};

/// One knapsack item of the fill: ratio g_j / u_j, budget weight
/// u_j alpha_j, and gain g_j alpha_j of filling it to its bound.
struct KnapsackItem {
  double ratio = 0.0;
  double weight = 0.0;
  double gain = 0.0;
};

/// max { g.q : u.q = theta, 0 <= q <= alpha } (u > 0, alpha > 0), by
/// weighted selection of the threshold ratio. `items` is the item buffer
/// and is reused: once it has grown to n items the fill allocates
/// nothing.
double knapsack_max(std::span<const double> g, std::span<const double> u,
                    std::span<const double> alpha, double theta,
                    std::vector<KnapsackItem>& items);

/// The certificate at feasible `p` from the objective value and
/// gradient already evaluated there: one knapsack fill and one dot
/// product, no objective evaluation.
GapCertificate certificate_at(double value, std::span<const double> g,
                              std::span<const double> p,
                              const BoxBudgetConstraints& constraints,
                              std::vector<KnapsackItem>& items);

/// Computes the certificate at feasible point `p`. One objective value,
/// one gradient, and one O(n) knapsack fill.
GapCertificate certified_gap(const Objective& f,
                             const BoxBudgetConstraints& constraints,
                             std::span<const double> p);

}  // namespace netmon::opt
