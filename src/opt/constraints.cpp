#include "opt/constraints.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "util/error.hpp"

namespace netmon::opt {

BoxBudgetConstraints::BoxBudgetConstraints(std::vector<double> u,
                                           std::vector<double> alpha,
                                           double theta)
    : u_(std::move(u)), alpha_(std::move(alpha)), theta_(theta) {
  NETMON_REQUIRE(!u_.empty(), "constraint set needs >= 1 variable");
  NETMON_REQUIRE(u_.size() == alpha_.size(), "loads/bounds size mismatch");
  double max_budget = 0.0;
  for (std::size_t j = 0; j < u_.size(); ++j) {
    NETMON_REQUIRE(u_[j] > 0.0, "link loads must be positive");
    NETMON_REQUIRE(alpha_[j] > 0.0 && alpha_[j] <= 1.0,
                   "alpha bounds must lie in (0,1]");
    max_budget += u_[j] * alpha_[j];
  }
  NETMON_REQUIRE(theta_ > 0.0, "theta must be positive");
  NETMON_REQUIRE(theta_ <= max_budget * (1.0 + 1e-12),
                 "theta exceeds the samplable volume sum(u*alpha)");
}

double BoxBudgetConstraints::budget(std::span<const double> p) const {
  NETMON_REQUIRE(p.size() == u_.size(), "dimension mismatch");
  double sum = 0.0;
  for (std::size_t j = 0; j < u_.size(); ++j) sum += u_[j] * p[j];
  return sum;
}

bool BoxBudgetConstraints::feasible(std::span<const double> p,
                                    double tol) const {
  if (p.size() != u_.size()) return false;
  for (std::size_t j = 0; j < u_.size(); ++j) {
    if (p[j] < -tol || p[j] > alpha_[j] + tol) return false;
  }
  return std::abs(budget(p) - theta_) <= tol * std::max(1.0, theta_);
}

std::vector<double> BoxBudgetConstraints::initial_point() const {
  double max_budget = 0.0;
  for (std::size_t j = 0; j < u_.size(); ++j) max_budget += u_[j] * alpha_[j];
  const double t = std::min(1.0, theta_ / max_budget);
  std::vector<double> p(u_.size());
  for (std::size_t j = 0; j < u_.size(); ++j) p[j] = t * alpha_[j];
  return p;
}

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kEpsilon = std::numeric_limits<double>::epsilon();

// budget(lambda) = sum_j u_j clamp(y_j - lambda u_j, 0, alpha_j) with its
// one-sided slopes -d budget / d lambda: `right` sums u_j^2 over the
// coordinates that move as lambda grows, `left` over those that move as
// it shrinks (a coordinate exactly on a kink moves on one side only).
struct BudgetAt {
  double value = 0.0;
  double right = 0.0;
  double left = 0.0;
};

// Branch-free (min/max and selects: which side of a kink each coordinate
// sits on is data, not a predictable branch), with four interleaved
// partial sums per quantity so a pass is not bound by serial add chains.
BudgetAt budget_at(std::span<const double> y, std::span<const double> u,
                   std::span<const double> alpha, double lambda) {
  constexpr std::size_t kLanes = 4;
  double value[kLanes] = {}, right[kLanes] = {}, left[kLanes] = {};
  const std::size_t n = y.size();
  const auto add = [&](std::size_t lane, std::size_t j) {
    const double v = y[j] - lambda * u[j];
    const double a = alpha[j];
    const double uu = u[j] * u[j];
    value[lane] += u[j] * std::min(std::max(v, 0.0), a);
    right[lane] += (v > 0.0) & (v <= a) ? uu : 0.0;
    left[lane] += (v >= 0.0) & (v < a) ? uu : 0.0;
  };
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    for (std::size_t lane = 0; lane < kLanes; ++lane) add(lane, j + lane);
  }
  for (; j < n; ++j) add(0, j);
  BudgetAt b;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    b.value += value[lane];
    b.right += right[lane];
    b.left += left[lane];
  }
  return b;
}

// The kink of budget(lambda) at which coordinate j, clamped at a bound,
// starts to move as lambda moves on (up or down) from `lambda`: growing
// lambda frees coordinates clamped at alpha, shrinking it those clamped
// at 0. NaN when j is not clamped on that side.
double kink_of(std::span<const double> y, std::span<const double> u,
               std::span<const double> alpha, double lambda, bool up,
               std::size_t j) {
  const double v = y[j] - lambda * u[j];
  if (up) return v >= alpha[j] ? (y[j] - alpha[j]) / u[j] : kNaN;
  return v <= 0.0 ? y[j] / u[j] : kNaN;
}

// Where a flat stretch of budget(lambda) ends: the nearest kink beyond
// `lambda` (above it when `up`) and the slope just past it.
struct Kink {
  double at = kNaN;
  double slope = 0.0;
};

Kink next_kink(std::span<const double> y, std::span<const double> u,
               std::span<const double> alpha, double lambda, bool up) {
  Kink k;
  for (std::size_t j = 0; j < y.size(); ++j) {
    const double at = kink_of(y, u, alpha, lambda, up, j);
    if (at == k.at) {
      k.slope += u[j] * u[j];
    } else if (up ? at < k.at || std::isnan(k.at)
                  : at > k.at || std::isnan(k.at)) {
      if (!std::isnan(at)) k = {at, u[j] * u[j]};
    }
  }
  return k;
}

// Newton passes are exact once lambda sits on the root's linear piece;
// the cap only bounds the bisection fallback (a bracket halves per pass).
constexpr int kMaxProjectionPasses = 200;

}  // namespace

double BoxBudgetConstraints::project_into(std::span<const double> y,
                                          std::span<double> out,
                                          double lambda_hint) const {
  NETMON_REQUIRE(y.size() == u_.size() && out.size() == u_.size(),
                 "dimension mismatch");
  const std::less<const double*> before;
  NETMON_REQUIRE(!before(y.data(), out.data() + out.size()) ||
                     !before(out.data(), y.data() + y.size()),
                 "projection output overlaps its input");
  NETMON_REQUIRE(std::all_of(y.begin(), y.end(),
                             [](double v) { return std::isfinite(v); }),
                 "projection input must be finite");
  // A tolerance on the *budget*, not on lambda: d budget / d lambda ~
  // sum u^2 can be enormous when loads are packets-per-interval.
  const double tol = 1e-13 * theta_;
  double lambda = std::isfinite(lambda_hint) ? lambda_hint : 0.0;
  BudgetAt b = budget_at(y, u_, alpha_, lambda);
  // budget(lo) >= theta >= budget(hi).
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  for (int pass = 1; pass < kMaxProjectionPasses; ++pass) {
    const double r = b.value - theta_;
    if (std::abs(r) <= tol) break;
    const bool up = r > 0.0;  // budget too high: lambda must grow
    if (up) lo = lambda;
    else hi = lambda;
    const double slope = up ? b.right : b.left;
    double next;
    double kink = kNaN;
    if (slope > 0.0) {
      // A step below lambda's own resolution cannot improve the budget.
      if (std::abs(r / slope) <= 2.0 * kEpsilon * std::abs(lambda)) break;
      next = lambda + r / slope;
    } else {
      // Flat stretch: the budget holds until the nearest kink, then moves
      // with that kink's slope. Nothing to free means theta sits at the
      // edge of the samplable volume.
      const Kink k = next_kink(y, u_, alpha_, lambda, up);
      if (!(k.slope > 0.0)) break;
      kink = k.at;
      if (up) lo = std::max(lo, k.at);
      else hi = std::min(hi, k.at);
      next = k.at + r / k.slope;
    }
    if (!(next > lo && next < hi)) {
      // Newton overshot the bracket: bisect, until the bracket is down to
      // rounding resolution (or a kink's step rounds back onto the kink).
      next = 0.5 * (lo + hi);
      if (!(next > lo && next < hi)) {
        if (!std::isnan(kink)) {
          lambda = kink;
          b = budget_at(y, u_, alpha_, lambda);
        }
        break;
      }
    }
    lambda = next;
    b = budget_at(y, u_, alpha_, lambda);
  }
  // The output pass takes one more Newton step from lambda, moving the
  // coordinates on the residual's side, so the equality holds to full
  // precision. With none there, rounding hid the root's kink: move the
  // coordinates that start to move at it, as a step from that kink would.
  const double drift = theta_ - b.value;
  const bool up = drift < 0.0;
  const double slope = up ? b.right : b.left;
  const double shift = slope > 0.0 ? drift / slope : 0.0;
  for (std::size_t j = 0; j < u_.size(); ++j) {
    const double v = y[j] - lambda * u_[j];
    const double a = alpha_[j];
    const double c = std::min(std::max(v, 0.0), a);
    const bool moves = up ? (v > 0.0) & (v <= a) : (v >= 0.0) & (v < a);
    out[j] = moves ? std::min(std::max(c + shift * u_[j], 0.0), a) : c;
  }
  if (drift != 0.0 && !(slope > 0.0)) {
    const Kink k = next_kink(y, u_, alpha_, lambda, up);
    for (std::size_t j = 0; k.slope > 0.0 && j < u_.size(); ++j) {
      if (kink_of(y, u_, alpha_, lambda, up, j) == k.at)
        out[j] = std::clamp(out[j] + drift * u_[j] / k.slope, 0.0, alpha_[j]);
    }
  }
  return lambda - shift;
}

std::vector<double> BoxBudgetConstraints::project(
    std::span<const double> y) const {
  std::vector<double> p(u_.size());
  project_into(y, p);
  return p;
}

}  // namespace netmon::opt
