// The feasible set of the placement problem (paper §III, eqs. 3-5):
//   sum_j u_j p_j = theta      (capacity used in full, §IV-B eq. 8)
//   0 <= p_j <= alpha_j        (per-link sampling-rate bounds)
// with u_j > 0 the link loads and theta the system capacity.
#pragma once

#include <span>
#include <vector>

namespace netmon::opt {

/// Box bounds plus a single weighted-sum equality.
class BoxBudgetConstraints {
 public:
  /// Requires u_j > 0, alpha_j in (0,1], theta in (0, sum u_j alpha_j].
  BoxBudgetConstraints(std::vector<double> u, std::vector<double> alpha,
                       double theta);

  std::size_t dimension() const noexcept { return u_.size(); }
  const std::vector<double>& loads() const noexcept { return u_; }
  const std::vector<double>& upper() const noexcept { return alpha_; }
  double theta() const noexcept { return theta_; }

  /// sum_j u_j p_j.
  double budget(std::span<const double> p) const;

  /// Whether p satisfies all constraints within tolerance.
  bool feasible(std::span<const double> p, double tol = 1e-9) const;

  /// A feasible starting point on the budget plane: the uniform scaling
  /// p_j = t alpha_j with t = theta / sum u_j alpha_j (paper §IV-D starts
  /// "arbitrarily on the plane defined by the active constraint (5)").
  std::vector<double> initial_point() const;

  /// Euclidean projection onto the feasible set into `out`, allocation-
  /// free: out_j = clamp(y_j - lambda u_j, 0, alpha_j), with lambda the
  /// root of the non-increasing piecewise-linear budget(lambda) = theta
  /// found by safeguarded Newton started at `lambda_hint` (a nearby root
  /// costs about two O(n) passes). Returns lambda. Every y_j must be
  /// finite, and `out` must not overlap `y`.
  double project_into(std::span<const double> y, std::span<double> out,
                      double lambda_hint = 0.0) const;

  /// project_into a fresh vector, started at lambda = 0.
  std::vector<double> project(std::span<const double> y) const;

 private:
  std::vector<double> u_;
  std::vector<double> alpha_;
  double theta_;
};

/// BoxBudgetConstraints::project_into for the set {0 <= x_j <= alpha_j,
/// sum_j u_j x_j = theta} given by spans, with the same requirements on
/// the loads, bounds and theta. The solver projects onto a face with it:
/// the free coordinates alone, against the budget they hold between them.
double project_box_budget(std::span<const double> y,
                          std::span<const double> u,
                          std::span<const double> alpha, double theta,
                          std::span<double> out, double lambda_hint = 0.0);

}  // namespace netmon::opt
