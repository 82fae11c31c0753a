// The Frank-Wolfe certificate and the solver's gap stop.
//  1. The O(n) knapsack fill against the sort-by-ratio fill it replaced,
//     on 1,000 seeded instances with ties, theta at the box bounds, tiny
//     alpha and zero gradients.
//  2. A differential check of gap-stopped solves against the KKT
//     optimum, on 200 SEC4D-style GEANT instances (paper §IV-D's input
//     ranges) and a GEANT theta sweep: every answer is certified or
//     optimal, within its certified gap of the optimum, and bounded by
//     its certified upper bound; the stop only reads the iterates.
#include "opt/certificate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "core/problem.hpp"
#include "core/scenario.hpp"
#include "opt/gradient_projection.hpp"
#include "util/rng.hpp"

namespace netmon::opt {
namespace {

/// The sort fill: ratio g_j / u_j descending (ties by index), each item
/// to its bound until the budget is spent, the marginal item split.
double sort_fill(const std::vector<double>& g, const std::vector<double>& u,
                 const std::vector<double>& alpha, double theta) {
  std::vector<std::size_t> order(g.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double ra = g[a] / u[a];
    const double rb = g[b] / u[b];
    if (ra != rb) return ra > rb;
    return a < b;
  });
  double remaining = theta;
  double best = 0.0;
  for (std::size_t j : order) {
    if (remaining <= 0.0) break;
    const double take = std::min(alpha[j], remaining / u[j]);
    best += g[j] * take;
    remaining -= u[j] * take;
  }
  return best;
}

TEST(KnapsackFill, MatchesTheSortFillOnSeededInstances) {
  std::vector<KnapsackItem> items;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    Rng rng = Rng(77).substream(seed);
    const std::size_t n = 1 + rng.below(seed % 10 == 0 ? 2000 : 200);
    std::vector<double> g(n), u(n), alpha(n);
    // A few distinct ratios make ties common; every fifth instance has a
    // zero gradient, and some coordinates have alpha down to 1e-12.
    const bool zero = seed % 5 == 4;
    const bool ties = seed % 3 == 0;
    for (std::size_t j = 0; j < n; ++j) {
      u[j] = ties ? static_cast<double>(1 + rng.below(3))
                  : std::exp(rng.uniform(-5.0, 5.0));
      alpha[j] = rng.bernoulli(0.1) ? std::pow(10.0, -rng.uniform(0.0, 12.0))
                                    : rng.uniform(1e-3, 1.0);
      if (zero) {
        g[j] = 0.0;
      } else if (ties) {
        g[j] = u[j] * static_cast<double>(rng.below(4)) -
               (rng.bernoulli(0.2) ? u[j] : 0.0);
      } else {
        g[j] = rng.uniform(-1.0, 4.0) * std::exp(rng.uniform(-8.0, 8.0));
      }
    }
    double capacity = 0.0;
    for (std::size_t j = 0; j < n; ++j) capacity += u[j] * alpha[j];
    // Theta at both box bounds (all off, all at alpha) and in between.
    double theta;
    switch (seed % 4) {
      case 0: theta = capacity; break;
      case 1: theta = capacity * 1e-12; break;
      default: theta = capacity * rng.uniform(); break;
    }

    // Both fills spend a budget that carries the rounding of its own
    // summation, priced at the marginal ratio: agreement is relative to
    // the fill's mass plus theta at the steepest ratio.
    double scale = 0.0, steepest = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      scale += std::abs(g[j]) * alpha[j];
      steepest = std::max(steepest, std::abs(g[j] / u[j]));
    }
    scale += steepest * theta;
    const double fast = knapsack_max(g, u, alpha, theta, items);
    const double reference = sort_fill(g, u, alpha, theta);
    if (scale == 0.0) {
      EXPECT_EQ(fast, 0.0) << "seed " << seed;
      EXPECT_EQ(reference, 0.0) << "seed " << seed;
    } else {
      EXPECT_LE(std::abs(fast - reference), 1e-12 * scale)
          << "seed " << seed << " n " << n << ": " << fast << " vs "
          << reference;
    }
  }
}

TEST(KnapsackFill, NonFiniteGradientCertifiesNothing) {
  const BoxBudgetConstraints c({1.0, 2.0, 3.0}, {1.0, 1.0, 1.0}, 2.0);
  const std::vector<double> p = c.initial_point();
  std::vector<KnapsackItem> items;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    const std::vector<double> g = {1.0, bad, 0.5};
    const GapCertificate cert = certificate_at(-1.0, g, p, c, items);
    EXPECT_TRUE(std::isinf(cert.gap)) << bad;
    EXPECT_FALSE(cert.relative_gap <= 1.0) << bad;
  }
}

/// Paper §IV-D's randomized GEANT inputs (as bench/sec4d_convergence
/// draws them): background volume, OD sizes and theta.
core::PlacementProblem sec4d_problem(std::uint64_t run) {
  Rng rng = Rng(4242).substream(run);
  core::ScenarioOptions scenario_options;
  scenario_options.background_pkt_per_sec = rng.uniform(0.7e6, 2.2e6);
  core::GeantScenario scenario = core::make_geant_scenario(scenario_options);
  for (double& s : scenario.task.expected_packets) s *= rng.uniform(0.4, 2.5);
  core::ProblemOptions options;
  options.theta = rng.uniform(30000.0, 400000.0);
  return core::PlacementProblem(scenario.net.graph, scenario.task,
                                scenario.loads, options);
}

/// A gap-stopped solve against the KKT optimum of the same problem.
void check_gap_stop(const core::PlacementProblem& problem) {
  const Objective& f = problem.objective();
  const BoxBudgetConstraints& c = problem.constraints();
  const SolveResult exact = maximize(f, c);
  ASSERT_EQ(exact.status, SolveStatus::kOptimal);
  // At the optimum the certificate collapses and still bounds it.
  EXPECT_LE(exact.certificate.relative_gap, 1e-6);
  const double slack = 1e-9 * std::abs(exact.value);
  EXPECT_GE(exact.certificate.upper_bound, exact.value - slack);

  for (const double tolerance : {1e-3, 1e-6}) {
    SCOPED_TRACE("tolerance " + std::to_string(tolerance));
    SolverOptions options;
    options.gap_tolerance = tolerance;
    const SolveResult stopped = maximize(f, c, options);
    ASSERT_TRUE(stopped.status == SolveStatus::kCertified ||
                stopped.status == SolveStatus::kOptimal)
        << static_cast<int>(stopped.status);
    EXPECT_LE(stopped.iterations, exact.iterations);
    const GapCertificate& cert = stopped.certificate;
    EXPECT_EQ(cert.value, stopped.value);
    if (stopped.status == SolveStatus::kCertified) {
      EXPECT_LE(cert.relative_gap, tolerance);
    }
    // Within its certified gap of the optimum, and bounding it.
    EXPECT_LE(exact.value - stopped.value, cert.gap + slack);
    EXPECT_LE(stopped.value, exact.value + slack);
    EXPECT_GE(cert.upper_bound, exact.value - slack);
    EXPECT_TRUE(c.feasible(stopped.p, 1e-9));

    // The stop reads the iterates, never steers them: a solve without it,
    // cancelled where the stopped one evaluated last, holds the same
    // point bit for bit.
    if (stopped.status == SolveStatus::kCertified) {
      SolverOptions cancel;
      const int at = stopped.iterations - 1;
      cancel.should_stop = [at](int iterations) { return iterations >= at; };
      const SolveResult prefix = maximize(f, c, cancel);
      ASSERT_EQ(prefix.p.size(), stopped.p.size());
      EXPECT_EQ(std::memcmp(prefix.p.data(), stopped.p.data(),
                            prefix.p.size() * sizeof(double)),
                0);
      EXPECT_EQ(prefix.bounds, stopped.bounds);
    }
  }
}

TEST(GapStop, Sec4dInstancesStayWithinTheirCertifiedGap) {
  for (std::uint64_t run = 0; run < 200; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    check_gap_stop(sec4d_problem(run));
  }
}

TEST(GapStop, GeantThetaSweepStaysWithinItsCertifiedGap) {
  const core::GeantScenario scenario = core::make_geant_scenario();
  for (const double theta :
       {10000.0, 25000.0, 50000.0, 100000.0, 200000.0, 400000.0}) {
    SCOPED_TRACE("theta " + std::to_string(theta));
    core::ProblemOptions options;
    options.theta = theta;
    check_gap_stop(core::make_problem(scenario, options));
  }
}

TEST(GapStop, ZeroToleranceEndsOnTheKktCertificate) {
  const core::GeantScenario scenario = core::make_geant_scenario();
  const core::PlacementProblem problem = core::make_problem(scenario, {});
  SolverOptions off;
  off.gap_tolerance = 0.0;
  const SolveResult a =
      maximize(problem.objective(), problem.constraints(), off);
  const SolveResult b = maximize(problem.objective(), problem.constraints());
  EXPECT_EQ(a.status, SolveStatus::kOptimal);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(std::memcmp(&a.value, &b.value, sizeof(double)), 0);
  EXPECT_EQ(a.p, b.p);
  // The exit certificate is the standalone one at the same point.
  const GapCertificate standalone =
      certified_gap(problem.objective(), problem.constraints(), a.p);
  EXPECT_NEAR(a.certificate.upper_bound, standalone.upper_bound,
              1e-12 * std::abs(standalone.upper_bound));
}

}  // namespace
}  // namespace netmon::opt
