#include "opt/constraints.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace netmon::opt {
namespace {

BoxBudgetConstraints simple() {
  return BoxBudgetConstraints({10.0, 20.0, 5.0}, {1.0, 0.5, 1.0}, 8.0);
}

TEST(Constraints, ValidatesConstruction) {
  EXPECT_THROW(BoxBudgetConstraints({}, {}, 1.0), Error);
  EXPECT_THROW(BoxBudgetConstraints({1.0}, {1.0, 1.0}, 1.0), Error);
  EXPECT_THROW(BoxBudgetConstraints({0.0}, {1.0}, 1.0), Error);    // u=0
  EXPECT_THROW(BoxBudgetConstraints({1.0}, {1.5}, 1.0), Error);    // alpha>1
  EXPECT_THROW(BoxBudgetConstraints({1.0}, {1.0}, 0.0), Error);    // theta=0
  EXPECT_THROW(BoxBudgetConstraints({1.0}, {1.0}, 2.0), Error);    // theta>u*a
}

TEST(Constraints, BudgetAndFeasibility) {
  const auto c = simple();
  const std::vector<double> p{0.1, 0.2, 0.6};  // budget 1+4+3 = 8
  EXPECT_DOUBLE_EQ(c.budget(p), 8.0);
  EXPECT_TRUE(c.feasible(p));
  EXPECT_FALSE(c.feasible(std::vector<double>{0.1, 0.2, 0.0}));  // budget 5
  EXPECT_FALSE(c.feasible(std::vector<double>{-0.1, 0.3, 0.6}));  // negative
  EXPECT_FALSE(c.feasible(std::vector<double>{0.0, 0.6, 0.0}));  // above alpha
}

TEST(Constraints, InitialPointFeasibleOnPlane) {
  const auto c = simple();
  const auto p = c.initial_point();
  EXPECT_TRUE(c.feasible(p));
  EXPECT_NEAR(c.budget(p), 8.0, 1e-9);
  // Uniform scaling of alpha.
  EXPECT_NEAR(p[0] / 1.0, p[1] / 0.5, 1e-12);
}

TEST(Constraints, InitialPointAtFullCapacity) {
  // theta = sum(u*alpha) forces p = alpha.
  BoxBudgetConstraints c({10.0, 20.0}, {0.5, 0.25}, 10.0);
  const auto p = c.initial_point();
  EXPECT_NEAR(p[0], 0.5, 1e-12);
  EXPECT_NEAR(p[1], 0.25, 1e-12);
}

TEST(Projection, FeasibleAndIdempotent) {
  const auto c = simple();
  Rng rng(42);
  for (int rep = 0; rep < 200; ++rep) {
    std::vector<double> y(3);
    for (double& v : y) v = rng.uniform(-2.0, 2.0);
    const auto p = c.project(y);
    EXPECT_TRUE(c.feasible(p, 1e-7)) << "rep " << rep;
    const auto p2 = c.project(p);
    for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(p2[j], p[j], 1e-7);
  }
}

TEST(Projection, FixedPointForFeasible) {
  const auto c = simple();
  const std::vector<double> p{0.1, 0.2, 0.6};
  const auto proj = c.project(p);
  for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(proj[j], p[j], 1e-9);
}

TEST(Projection, IsNearestPoint) {
  // Compare against a dense grid search on a 2-variable instance.
  BoxBudgetConstraints c({1.0, 1.0}, {1.0, 1.0}, 1.0);
  const std::vector<double> y{0.9, 0.8};
  const auto p = c.project(y);
  // Analytic: project onto the segment p0+p1=1, 0<=p<=1.
  // Nearest point: (0.55, 0.45).
  EXPECT_NEAR(p[0], 0.55, 1e-7);
  EXPECT_NEAR(p[1], 0.45, 1e-7);
}

TEST(Projection, ClampsAtBounds) {
  BoxBudgetConstraints c({1.0, 1.0}, {1.0, 1.0}, 1.0);
  const auto p = c.project(std::vector<double>{5.0, -5.0});
  EXPECT_NEAR(p[0], 1.0, 1e-7);
  EXPECT_NEAR(p[1], 0.0, 1e-7);
}

TEST(Projection, WeightedBudget) {
  // Unequal loads: the lambda shift is scaled by u_j.
  BoxBudgetConstraints c({1.0, 3.0}, {1.0, 1.0}, 1.5);
  Rng rng(9);
  for (int rep = 0; rep < 100; ++rep) {
    std::vector<double> y{rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 2.0)};
    const auto p = c.project(y);
    EXPECT_NEAR(c.budget(p), 1.5, 1e-6);
  }
}

// ---------------------------------------------------------------------
// project_into against a brute-force sorted-breakpoint reference.
// ---------------------------------------------------------------------

using Real = long double;

Real budget_at(const std::vector<double>& u, const std::vector<double>& alpha,
               const std::vector<double>& y, Real lambda) {
  Real sum = 0.0L;
  for (std::size_t j = 0; j < u.size(); ++j) {
    const Real v = static_cast<Real>(y[j]) - lambda * u[j];
    sum += u[j] * std::clamp<Real>(v, 0.0L, alpha[j]);
  }
  return sum;
}

struct ReferenceProjection {
  Real lambda = 0.0L;
  std::vector<Real> p;
};

// budget(lambda) is linear between consecutive kinks (y_j - alpha_j)/u_j
// and y_j/u_j: sort them, binary-search the bracketing pair, interpolate.
ReferenceProjection reference_projection(const std::vector<double>& u,
                                         const std::vector<double>& alpha,
                                         double theta,
                                         const std::vector<double>& y) {
  std::vector<Real> kinks;
  for (std::size_t j = 0; j < u.size(); ++j) {
    kinks.push_back((static_cast<Real>(y[j]) - alpha[j]) / u[j]);
    kinks.push_back(static_cast<Real>(y[j]) / u[j]);
  }
  std::sort(kinks.begin(), kinks.end());
  // budget(kinks.front()) = sum(u*alpha) >= theta > 0 = budget(back()).
  std::size_t lo = 0, hi = kinks.size() - 1;
  while (hi - lo > 1) {
    const std::size_t mid = (lo + hi) / 2;
    if (budget_at(u, alpha, y, kinks[mid]) >= theta) lo = mid;
    else hi = mid;
  }
  const Real b_lo = budget_at(u, alpha, y, kinks[lo]);
  const Real b_hi = budget_at(u, alpha, y, kinks[hi]);
  ReferenceProjection ref;
  if (b_lo <= theta) {
    ref.lambda = kinks[lo];  // theta = sum(u*alpha): a flat stretch
  } else {
    ref.lambda =
        kinks[lo] + (b_lo - theta) / (b_lo - b_hi) * (kinks[hi] - kinks[lo]);
  }
  for (std::size_t j = 0; j < u.size(); ++j) {
    const Real v = static_cast<Real>(y[j]) - ref.lambda * u[j];
    ref.p.push_back(std::clamp<Real>(v, 0.0L, alpha[j]));
  }
  return ref;
}

struct RandomProjection {
  std::vector<double> u, alpha, y;
  double theta = 0.0;
};

// Loads up to 1e9 (the 100k-link instance's range), tiny and unit alpha,
// theta from tiny to the full samplable volume, y near the box, far
// outside it, or shaped like a solver arc point p + t g.
RandomProjection random_projection(std::uint64_t seed) {
  Rng rng(seed);
  RandomProjection r;
  const std::size_t n = 1 + rng.below(40);
  const double load_decades = rng.uniform(0.0, 9.0);
  double volume = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    r.u.push_back(std::pow(10.0, rng.uniform(0.0, load_decades)));
    const double a = rng.uniform();
    r.alpha.push_back(a < 0.4   ? 1.0
                      : a < 0.6 ? std::pow(10.0, -rng.uniform(6.0, 12.0))
                                : rng.uniform(1e-3, 1.0));
    volume += r.u[j] * r.alpha[j];
  }
  const double t = rng.uniform();
  r.theta = t < 0.15   ? volume
            : t < 0.3  ? volume * std::pow(10.0, -rng.uniform(9.0, 14.0))
                       : volume * rng.uniform(0.01, 0.99);
  const double shape = rng.uniform();
  for (std::size_t j = 0; j < n; ++j) {
    double v;
    if (shape < 0.3) {
      v = rng.uniform(-r.alpha[j], 2.0 * r.alpha[j]);
    } else if (shape < 0.6) {
      v = rng.uniform(-1e6, 1e6);
    } else {
      // p + t g with g ~ 1/u: the gradient of a rate utility.
      v = rng.uniform(0.0, r.alpha[j]) + rng.uniform(-1.0, 1.0) / r.u[j];
    }
    r.y.push_back(v);
  }
  return r;
}

TEST(ProjectInto, MatchesSortedBreakpointReference) {
  constexpr Real kEps = std::numeric_limits<double>::epsilon();
  int pinned = 0;  // instances whose lambda the budget determines
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    const RandomProjection r = random_projection(seed);
    const BoxBudgetConstraints c(r.u, r.alpha, r.theta);
    const ReferenceProjection ref =
        reference_projection(r.u, r.alpha, r.theta, r.y);
    std::vector<double> p(r.u.size());
    const double lambda = c.project_into(r.y, p);

    // Feasible: inside the box exactly, on the budget plane to 1e-12.
    for (std::size_t j = 0; j < p.size(); ++j) {
      ASSERT_GE(p[j], 0.0) << "seed " << seed;
      ASSERT_LE(p[j], r.alpha[j]) << "seed " << seed;
    }
    ASSERT_NEAR(c.budget(p), r.theta, 1e-12 * r.theta) << "seed " << seed;

    // The nearest point: each rate within what a 1e-12 relative budget
    // error (at most theta * 1e-12 / u_j on rate j) plus rounding of
    // y_j - lambda u_j can move it.
    for (std::size_t j = 0; j < p.size(); ++j) {
      const double tol = 1e-12 * r.theta / r.u[j] +
                         1e-13 * (std::abs(r.y[j]) + r.alpha[j]);
      ASSERT_NEAR(p[j], static_cast<double>(ref.p[j]), tol)
          << "seed " << seed << " rate " << j;
    }

    // The multiplier is a root of the reference budget, up to a 1e-12
    // relative budget error and lambda's own rounding: the budget crosses
    // theta within lambda +- delta.
    const Real delta = 4.0L * kEps * (std::abs(lambda) + kEps);
    const Real b_tol = 1e-12L * r.theta;
    ASSERT_GE(budget_at(r.u, r.alpha, r.y, lambda - delta), r.theta - b_tol)
        << "seed " << seed;
    ASSERT_LE(budget_at(r.u, r.alpha, r.y, lambda + delta), r.theta + b_tol)
        << "seed " << seed;
    // Where that pins the root within w of the reference's lambda (the
    // budget leaves the tolerance on both sides of +-w), it must be there.
    // It does not on a flat stretch (theta = sum(u*alpha)), nor where the
    // only coordinates inside their bounds carry a negligible budget.
    const double w = 1e-9 * (std::abs(static_cast<double>(ref.lambda)) + 1.0);
    if (budget_at(r.u, r.alpha, r.y, ref.lambda - w + delta) >
            r.theta + b_tol &&
        budget_at(r.u, r.alpha, r.y, ref.lambda + w - delta) <
            r.theta - b_tol) {
      ASSERT_NEAR(lambda, static_cast<double>(ref.lambda), w)
          << "seed " << seed;
      ++pinned;
    }

    // Idempotent: a feasible point projects onto itself.
    std::vector<double> again(p.size());
    c.project_into(p, again);
    for (std::size_t j = 0; j < p.size(); ++j) {
      ASSERT_NEAR(again[j], p[j],
                  1e-12 * r.theta / r.u[j] + 1e-15 * r.alpha[j])
          << "seed " << seed << " rate " << j;
    }
  }
  EXPECT_GE(pinned, 700);
}

TEST(ProjectInto, WarmStartsGiveTheSamePoint) {
  for (std::uint64_t seed = 2001; seed <= 2100; ++seed) {
    const RandomProjection r = random_projection(seed);
    const BoxBudgetConstraints c(r.u, r.alpha, r.theta);
    std::vector<double> cold(r.u.size()), warm(r.u.size()), far(r.u.size());
    const double lambda = c.project_into(r.y, cold);
    // Started at its own root, and from a hint far off.
    c.project_into(r.y, warm, lambda);
    c.project_into(r.y, far, 1e6 * (std::abs(lambda) + 1.0));
    for (std::size_t j = 0; j < cold.size(); ++j) {
      const double tol = 1e-12 * r.theta / r.u[j] +
                         1e-13 * (std::abs(r.y[j]) + r.alpha[j]);
      ASSERT_NEAR(warm[j], cold[j], tol) << "seed " << seed;
      ASSERT_NEAR(far[j], cold[j], tol) << "seed " << seed;
    }
  }
}

TEST(ProjectInto, NonFiniteInputIsATypedError) {
  const auto c = simple();
  std::vector<double> out(3);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    const std::vector<double> y{0.1, bad, 0.3};
    EXPECT_THROW(c.project_into(y, out), Error);
    EXPECT_THROW(c.project(y), Error);
  }
  // A non-finite hint is only a poor start, not an error.
  const std::vector<double> y{0.4, 0.1, 0.9};
  const double lambda = c.project_into(
      y, out, std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(std::isfinite(lambda));
  EXPECT_TRUE(c.feasible(out, 1e-12));
  EXPECT_THROW(c.project_into(y, std::span<double>(out.data(), 2)), Error);
  std::vector<double> in_place = y;
  EXPECT_THROW(c.project_into(in_place, in_place), Error);
}

}  // namespace
}  // namespace netmon::opt
