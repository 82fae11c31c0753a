// Leveled SIMD dispatch: NETMON_SIMD parsing, CPUID clamping and forced
// fallback, bit-identity of every available dispatch level against the
// scalar reference (fused terms, line-search restriction probes, and
// full solves on GEANT and Abilene).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/problem.hpp"
#include "core/scenario.hpp"
#include "core/utility.hpp"
#include "opt/fused_eval.hpp"
#include "opt/gradient_projection.hpp"
#include "opt/objective.hpp"
#include "topo/abilene.hpp"
#include "traffic/gravity.hpp"
#include "traffic/link_load.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace netmon::opt {
namespace {

// Restores the dispatch level on scope exit so tests that sweep it
// cannot leak state into each other.
class LevelGuard {
 public:
  LevelGuard() : level_(simd_dispatch_level()) {}
  ~LevelGuard() { set_simd_dispatch_level(level_); }

 private:
  SimdLevel level_;
};

std::vector<SimdLevel> available_levels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  for (int l = 1; l <= static_cast<int>(simd_max_level()); ++l)
    levels.push_back(static_cast<SimdLevel>(l));
  return levels;
}

// A random separable objective whose inner products exercise the domain
// edges: x straddling the SRE pivot (below, above, and exactly at x0)
// and slightly negative arguments near the domain floor.
struct EdgeCaseObjective {
  std::unique_ptr<SeparableConcaveObjective> f;
  std::vector<double> x;  // inner products fed to fused_terms directly

  EdgeCaseObjective(std::uint64_t seed, std::size_t terms, bool mix_families) {
    Rng rng(seed);
    SeparableConcaveObjective::SparseRows rows;
    std::vector<std::shared_ptr<const Concave1d>> utilities;
    auto push = [&](std::shared_ptr<const Concave1d> u, double xi) {
      rows.push_back({{x.size(), 1.0}});
      utilities.push_back(std::move(u));
      x.push_back(xi);
    };
    for (std::size_t k = 0; k < terms; ++k) {
      const double c = rng.uniform(0.01, 0.5);
      const double x0 = core::SreUtility::pivot_for(c);
      switch (k % 8) {
        case 0:  // deep in the quadratic regime
          push(std::make_shared<core::SreUtility>(c), 0.1 * x0);
          break;
        case 1:  // just below the pivot
          push(std::make_shared<core::SreUtility>(c),
               std::nextafter(x0, 0.0));
          break;
        case 2:  // exactly at the pivot (x < x0 is false: rational leg)
          push(std::make_shared<core::SreUtility>(c), x0);
          break;
        case 3:  // just above the pivot
          push(std::make_shared<core::SreUtility>(c),
               std::nextafter(x0, 2.0));
          break;
        case 4:  // slightly negative: analytic extension, near the floor
          push(std::make_shared<core::SreUtility>(c), -1e-12);
          break;
        case 5:
          if (mix_families) {
            const double eps = rng.uniform(0.01, 1.0);
            // Near the log domain edge -eps without crossing it.
            push(std::make_shared<core::LogUtility>(eps),
                 -eps + 1e-9 * (1.0 + eps));
            break;
          }
          [[fallthrough]];
        case 6:
          if (mix_families) {
            push(std::make_shared<core::DetectionUtility>(
                     2.0 + rng.uniform(0.0, 50.0)),
                 rng.uniform(0.0, 1.0));
            break;
          }
          [[fallthrough]];
        default:  // random interior point on either side of the pivot
          push(std::make_shared<core::SreUtility>(c),
               rng.uniform(0.0, 2.0 * x0));
      }
    }
    f = std::make_unique<SeparableConcaveObjective>(x.size(), std::move(rows),
                                                    std::move(utilities));
  }
};

TEST(SimdDispatch, ParseLevelAcceptsKnownValues) {
  EXPECT_EQ(parse_simd_level("scalar"), SimdLevel::kScalar);
  EXPECT_EQ(parse_simd_level("0"), SimdLevel::kScalar);
  EXPECT_EQ(parse_simd_level("off"), SimdLevel::kScalar);
  EXPECT_EQ(parse_simd_level("avx2"), SimdLevel::kAvx2);
  EXPECT_EQ(parse_simd_level("avx512"), SimdLevel::kAvx512);
  // "auto"/"on"/"1"/empty resolve to the highest supported level.
  EXPECT_EQ(parse_simd_level("auto"), simd_max_level());
  EXPECT_EQ(parse_simd_level("on"), simd_max_level());
  EXPECT_EQ(parse_simd_level("1"), simd_max_level());
  EXPECT_EQ(parse_simd_level(""), simd_max_level());
}

TEST(SimdDispatch, ParseLevelRejectsUnknownValuesWithClearError) {
  for (const char* bad : {"avx", "AVX2", "2", "fast", "yes", "scalar "}) {
    EXPECT_THROW(parse_simd_level(bad), netmon::Error) << bad;
  }
  try {
    parse_simd_level("avx1024");
    FAIL() << "expected netmon::Error";
  } catch (const netmon::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("avx1024"), std::string::npos) << what;
    EXPECT_NE(what.find("scalar|avx2|avx512|auto"), std::string::npos)
        << what;
  }
}

TEST(SimdDispatch, LevelNamesRoundTrip) {
  EXPECT_STREQ(simd_level_name(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(simd_level_name(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(simd_level_name(SimdLevel::kAvx512), "avx512");
  for (const SimdLevel level : available_levels())
    EXPECT_EQ(parse_simd_level(simd_level_name(level)), level);
}

TEST(SimdDispatch, SetLevelClampsToHardwareForcedFallback) {
  LevelGuard guard;
  // Requesting a level the hardware/build lacks falls back to the
  // highest supported one instead of faulting.
  set_simd_dispatch_level(SimdLevel::kAvx512);
  EXPECT_LE(static_cast<int>(simd_dispatch_level()),
            static_cast<int>(simd_max_level()));
  // Every supported level round-trips exactly.
  for (const SimdLevel level : available_levels()) {
    set_simd_dispatch_level(level);
    EXPECT_EQ(simd_dispatch_level(), level);
  }
}

// Property test: for random term mixes with domain-edge inner products,
// every available dispatch level reproduces the scalar reference
// EXPECT_EQ — including vectors that straddle the pivot and remainder
// tails of every length (term counts are primes, not lane multiples).
TEST(SimdDispatch, FusedTermsBitIdenticalAcrossLevels) {
  LevelGuard guard;
  for (const std::uint64_t seed : {3u, 17u, 91u}) {
    for (const bool mixed : {false, true}) {
      const EdgeCaseObjective obj(seed, mixed ? 211 : 127, mixed);
      const std::size_t m = obj.f->term_count();
      std::vector<double> v_ref(m), m1_ref(m), m2_ref(m);
      set_simd_dispatch_level(SimdLevel::kScalar);
      obj.f->fused_terms(obj.x, v_ref, m1_ref, m2_ref);
      // The scalar batch path must match the per-term virtuals exactly.
      for (std::size_t k = 0; k < m; ++k) {
        EXPECT_EQ(v_ref[k], obj.f->utility(k).value(obj.x[k])) << k;
        EXPECT_EQ(m1_ref[k], obj.f->utility(k).deriv(obj.x[k])) << k;
        EXPECT_EQ(m2_ref[k], obj.f->utility(k).second(obj.x[k])) << k;
      }
      for (const SimdLevel level : available_levels()) {
        set_simd_dispatch_level(level);
        std::vector<double> v(m), m1(m), m2(m);
        obj.f->fused_terms(obj.x, v, m1, m2);
        for (std::size_t k = 0; k < m; ++k) {
          EXPECT_EQ(v[k], v_ref[k])
              << simd_level_name(level) << " value @" << k;
          EXPECT_EQ(m1[k], m1_ref[k])
              << simd_level_name(level) << " deriv @" << k;
          EXPECT_EQ(m2[k], m2_ref[k])
              << simd_level_name(level) << " second @" << k;
        }
      }
    }
  }
}

// Line-search restriction probes (regime-partitioned compact slots +
// fma probe fill) are bit-identical across levels as well.
TEST(SimdDispatch, RestrictionProbesBitIdenticalAcrossLevels) {
  LevelGuard guard;
  const core::GeantScenario scenario = core::make_geant_scenario();
  const core::PlacementProblem problem = core::make_problem(scenario);
  const auto& f = problem.objective();
  const std::vector<double> p = problem.constraints().initial_point();
  const std::vector<double> x0 = f.inner(p);
  Rng rng(29);
  std::vector<double> d(f.dimension());
  for (double& dj : d) dj = rng.below(3) == 0 ? 0.0 : rng.uniform(-1.0, 1.0);

  SeparableRestriction restriction;
  std::vector<std::pair<double, Phi::Derivs>> ref;
  set_simd_dispatch_level(SimdLevel::kScalar);
  restriction.reset(f, x0, d);
  ASSERT_GT(restriction.active_terms(), 0u);
  for (const double t : {0.0, 1e-5, 1e-3, 5e-3})
    ref.emplace_back(t, restriction.derivs(t));

  for (const SimdLevel level : available_levels()) {
    set_simd_dispatch_level(level);
    restriction.reset(f, x0, d);
    for (const auto& [t, expect] : ref) {
      const Phi::Derivs got = restriction.derivs(t);
      EXPECT_EQ(got.first, expect.first)
          << simd_level_name(level) << " phi' @t=" << t;
      EXPECT_EQ(got.second, expect.second)
          << simd_level_name(level) << " phi'' @t=" << t;
    }
  }
}

void expect_identical_solves_across_levels(
    const SeparableConcaveObjective& f,
    const BoxBudgetConstraints& constraints) {
  SolverOptions options;
  options.use_fused = true;
  set_simd_dispatch_level(SimdLevel::kScalar);
  const SolveResult ref = maximize(f, constraints, options);
  EXPECT_EQ(ref.status, SolveStatus::kOptimal);
  for (const SimdLevel level : available_levels()) {
    set_simd_dispatch_level(level);
    const SolveResult run = maximize(f, constraints, options);
    // Full-result bit identity: identical trajectories, not just close
    // optima.
    EXPECT_EQ(run.status, ref.status) << simd_level_name(level);
    EXPECT_EQ(run.value, ref.value) << simd_level_name(level);
    EXPECT_EQ(run.iterations, ref.iterations) << simd_level_name(level);
    ASSERT_EQ(run.p.size(), ref.p.size());
    for (std::size_t j = 0; j < ref.p.size(); ++j)
      EXPECT_EQ(run.p[j], ref.p[j])
          << simd_level_name(level) << " rate @" << j;
  }
}

TEST(SimdDispatch, SolveResultIdenticalAcrossLevelsOnGeant) {
  LevelGuard guard;
  const core::GeantScenario scenario = core::make_geant_scenario();
  const core::PlacementProblem problem = core::make_problem(scenario);
  expect_identical_solves_across_levels(problem.objective(),
                                        problem.constraints());
}

TEST(SimdDispatch, SolveResultIdenticalAcrossLevelsOnAbilene) {
  LevelGuard guard;
  const topo::AbileneNetwork net = topo::make_abilene();
  core::MeasurementTask task;
  task.interval_sec = 300.0;
  traffic::TrafficMatrix demands = traffic::gravity_matrix(
      net.graph, {.total_pkt_per_sec = 6.0e5, .min_mass = 1e-12});
  for (const auto& [name, rate] : topo::abilene_task_rates()) {
    const auto dst = *net.graph.find_node(name);
    task.ods.push_back({net.customer, dst});
    task.expected_packets.push_back(rate * task.interval_sec);
    demands.push_back({{net.customer, dst}, rate});
  }
  const traffic::LinkLoads loads = traffic::link_loads(net.graph, demands);
  core::ProblemOptions options;
  options.theta = 50000.0;
  const core::PlacementProblem problem(net.graph, task, loads, options);
  expect_identical_solves_across_levels(problem.objective(),
                                        problem.constraints());
}

// The domain check is folded into the vector kernels' main loop; every
// level must reject out-of-domain arguments like the scalar reference.
TEST(SimdDispatch, DomainViolationsRejectedAtEveryLevel) {
  LevelGuard guard;
  SeparableConcaveObjective::SparseRows rows;
  std::vector<std::shared_ptr<const Concave1d>> utilities;
  std::vector<double> x;
  for (std::size_t k = 0; k < 37; ++k) {
    rows.push_back({{k, 1.0}});
    utilities.push_back(std::make_shared<core::SreUtility>(0.2));
    x.push_back(0.1);
  }
  x[17] = -2.0;  // below the SRE domain floor (x >= -1)
  const SeparableConcaveObjective f(x.size(), std::move(rows),
                                    std::move(utilities));
  std::vector<double> v(x.size()), m1(x.size()), m2(x.size());
  for (const SimdLevel level : available_levels()) {
    set_simd_dispatch_level(level);
    EXPECT_THROW(f.fused_terms(x, v, m1, m2), netmon::Error)
        << simd_level_name(level);
  }
}

}  // namespace
}  // namespace netmon::opt
