// Acceptance tests for the flat-CSR objective refactor:
//  1. value/gradient are bit-identical to the historical pair-list
//     implementation on the GEANT Table-I problem, and the solver reaches
//     the same active set and rates.
//  2. The objective evaluation entry points and the gradient-projection
//     iteration loop perform ZERO heap allocations at steady state
//     (counting global operator new/delete).
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "core/scenario.hpp"
#include "core/solver.hpp"
#include "helpers.hpp"
#include "opt/gradient_projection.hpp"
#include "opt/line_search.hpp"
#include "opt/objective.hpp"
#include "util/error.hpp"

// ---------------------------------------------------------------------------
// Counting global allocator. Every variant forwards to malloc/free so the
// count covers all allocation paths of the standard library.
// ---------------------------------------------------------------------------

namespace {
std::size_t g_alloc_count = 0;

void* counted_alloc(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_alloc_count;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_alloc_count;
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace netmon::opt {
namespace {

// Allocations performed by `fn` (single-threaded test binary).
template <typename Fn>
std::size_t allocations_in(Fn&& fn) {
  const std::size_t before = g_alloc_count;
  fn();
  return g_alloc_count - before;
}

// ---------------------------------------------------------------------------
// The pre-refactor pair-list objective, kept verbatim as the bit-identity
// reference: vector-of-vectors rows, per-term virtual dispatch.
// ---------------------------------------------------------------------------
class PairListObjective final : public Objective {
 public:
  using SparseRows = SeparableConcaveObjective::SparseRows;

  PairListObjective(std::size_t dimension, SparseRows rows,
                    std::vector<std::shared_ptr<const Concave1d>> utilities)
      : dimension_(dimension),
        rows_(std::move(rows)),
        utilities_(std::move(utilities)) {}

  std::size_t dimension() const override { return dimension_; }

  std::vector<double> inner(std::span<const double> p) const {
    std::vector<double> x(rows_.size(), 0.0);
    for (std::size_t k = 0; k < rows_.size(); ++k) {
      for (const auto& [col, coeff] : rows_[k]) x[k] += coeff * p[col];
    }
    return x;
  }

  double value(std::span<const double> p) const override {
    const std::vector<double> x = inner(p);
    double sum = 0.0;
    for (std::size_t k = 0; k < x.size(); ++k)
      sum += utilities_[k]->value(x[k]);
    return sum;
  }

  void gradient(std::span<const double> p,
                std::span<double> out) const override {
    const std::vector<double> x = inner(p);
    for (double& g : out) g = 0.0;
    for (std::size_t k = 0; k < rows_.size(); ++k) {
      const double d = utilities_[k]->deriv(x[k]);
      for (const auto& [col, coeff] : rows_[k]) out[col] += coeff * d;
    }
  }

  double directional_second(std::span<const double> p,
                            std::span<const double> s) const override {
    const std::vector<double> x = inner(p);
    double sum = 0.0;
    for (std::size_t k = 0; k < rows_.size(); ++k) {
      double rs = 0.0;
      for (const auto& [col, coeff] : rows_[k]) rs += coeff * s[col];
      sum += utilities_[k]->second(x[k]) * rs * rs;
    }
    return sum;
  }

 private:
  std::size_t dimension_;
  SparseRows rows_;
  std::vector<std::shared_ptr<const Concave1d>> utilities_;
};

// GEANT Table-I problem plus a pair-list clone of its objective.
struct GeantFixture {
  core::GeantScenario scenario = core::make_geant_scenario();
  core::PlacementProblem problem = core::make_problem(scenario);

  PairListObjective pair_list_clone() const {
    const auto& f = problem.objective();
    const linalg::SparseCsr& m = f.matrix();
    PairListObjective::SparseRows rows(m.rows());
    std::vector<std::shared_ptr<const Concave1d>> utilities;
    for (std::size_t k = 0; k < m.rows(); ++k) {
      for (const auto& [col, coeff] : m.row(k))
        rows[k].emplace_back(col, coeff);
    }
    return PairListObjective(f.dimension(), std::move(rows),
                             problem.utilities());
  }

  std::vector<double> interior_point() const {
    return problem.constraints().initial_point();
  }
};

TEST(BitIdentity, ValueGradientMatchPairListImplementationExactly) {
  const GeantFixture fx;
  const auto& f = fx.problem.objective();
  const PairListObjective reference = fx.pair_list_clone();
  const std::vector<double> p = fx.interior_point();

  // Bit-for-bit: the CSR kernels accumulate in the same order as the
  // nested pair-list loops, so EXPECT_EQ on doubles must hold.
  const double v_new = f.value(p);
  const double v_old = reference.value(p);
  EXPECT_EQ(v_new, v_old);

  std::vector<double> g_new(f.dimension()), g_old(f.dimension());
  f.gradient(p, g_new);
  reference.gradient(p, g_old);
  for (std::size_t j = 0; j < g_new.size(); ++j)
    EXPECT_EQ(g_new[j], g_old[j]) << "gradient coordinate " << j;

  std::vector<double> s(f.dimension());
  for (std::size_t j = 0; j < s.size(); ++j)
    s[j] = (j % 2 == 0) ? 1.0 : -0.5;
  EXPECT_EQ(f.directional_second(p, s), reference.directional_second(p, s));
}

TEST(BitIdentity, SolverReachesIdenticalSolutionOnBothImplementations) {
  const GeantFixture fx;
  const PairListObjective reference = fx.pair_list_clone();

  // The generic (use_fused = false) iteration is the strict bit-identity
  // path: both objectives then run the exact same solver sequence. (The
  // fused path changes summation orders; it is compared against this
  // path with tolerances in opt_fused_eval_test.cpp.)
  SolverOptions generic;
  generic.use_fused = false;
  const SolveResult via_csr =
      maximize(fx.problem.objective(), fx.problem.constraints(), generic);
  const SolveResult via_pairs =
      maximize(reference, fx.problem.constraints(), generic);

  EXPECT_EQ(via_csr.status, SolveStatus::kOptimal);
  EXPECT_EQ(via_csr.status, via_pairs.status);
  EXPECT_EQ(via_csr.iterations, via_pairs.iterations);
  EXPECT_EQ(via_csr.release_events, via_pairs.release_events);
  ASSERT_EQ(via_csr.bounds.size(), via_pairs.bounds.size());
  for (std::size_t j = 0; j < via_csr.bounds.size(); ++j)
    EXPECT_EQ(via_csr.bounds[j], via_pairs.bounds[j]) << "active set @" << j;
  ASSERT_EQ(via_csr.p.size(), via_pairs.p.size());
  for (std::size_t j = 0; j < via_csr.p.size(); ++j)
    EXPECT_NEAR(via_csr.p[j], via_pairs.p[j], 1e-12) << "rate @" << j;
}

// ---------------------------------------------------------------------------
// Zero-allocation assertions.
// ---------------------------------------------------------------------------

TEST(ZeroAlloc, ObjectiveEvaluationThroughWarmWorkspace) {
  const GeantFixture fx;
  const auto& f = fx.problem.objective();
  const std::vector<double> p = fx.interior_point();
  std::vector<double> g(f.dimension());
  std::vector<double> s(f.dimension(), 1.0);
  linalg::EvalWorkspace ws;

  // Warm-up grows the workspace slots.
  (void)f.value(p, ws);
  f.gradient(p, g, ws);
  (void)f.directional_second(p, s, ws);

  EXPECT_EQ(allocations_in([&] { (void)f.value(p, ws); }), 0u);
  EXPECT_EQ(allocations_in([&] { f.gradient(p, g, ws); }), 0u);
  EXPECT_EQ(allocations_in([&] { (void)f.directional_second(p, s, ws); }),
            0u);
  // The legacy workspace-less interface has its own internal scratch;
  // warm it separately, then it too is allocation-free.
  (void)f.value(p);
  EXPECT_EQ(allocations_in([&] { (void)f.value(p); }), 0u);
}

TEST(ZeroAlloc, LineSearchThroughWarmWorkspace) {
  const GeantFixture fx;
  const auto& f = fx.problem.objective();
  const std::vector<double> p = fx.interior_point();
  std::vector<double> d(f.dimension());
  f.gradient(p, d);  // ascent direction
  linalg::EvalWorkspace ws;
  (void)maximize_along(f, p, d, 1e-6, {}, ws);  // warm-up
  EXPECT_EQ(allocations_in([&] { (void)maximize_along(f, p, d, 1e-6, {}, ws); }),
            0u);
}

TEST(ZeroAlloc, FusedEvalThroughWarmWorkspace) {
  const GeantFixture fx;
  const auto& f = fx.problem.objective();
  const std::vector<double> p = fx.interior_point();
  std::vector<double> g(f.dimension()), h(f.dimension());
  linalg::EvalWorkspace ws;

  const auto warm = f.fused_eval(p, g, ws);  // grows rows_a..rows_d
  EXPECT_EQ(allocations_in([&] { (void)f.fused_eval(p, g, ws); }), 0u);
  EXPECT_EQ(
      allocations_in([&] { f.grad_hess_diag_from_terms(warm.m1, warm.m2, g, h); }),
      0u);
  std::vector<double> x(warm.x.begin(), warm.x.end());
  EXPECT_EQ(allocations_in([&] { (void)f.fused_eval_from_inner(x, g, ws); }),
            0u);
  EXPECT_EQ(allocations_in([&] { f.inner_axpy(0, 1e-6, x); }), 0u);
}

TEST(ZeroAlloc, RestrictionProbesAfterWarmReset) {
  const GeantFixture fx;
  const auto& f = fx.problem.objective();
  const std::vector<double> p = fx.interior_point();
  const std::vector<double> x0 = f.inner(p);
  std::vector<double> d(f.dimension(), 0.1);

  SeparableRestriction restriction;
  restriction.reset(f, x0, d);  // warm-up grows the compact buffers
  (void)restriction.derivs(1e-5);
  EXPECT_EQ(allocations_in([&] {
              restriction.reset(f, x0, d);
              (void)restriction.derivs(1e-5);
              (void)restriction.derivs(2e-5);
            }),
            0u);
}

TEST(ZeroAlloc, InPlaceKktReusesReportCapacity) {
  const GeantFixture fx;
  const auto& f = fx.problem.objective();
  const std::size_t n = f.dimension();
  const std::vector<double> p = fx.interior_point();
  std::vector<double> g(n);
  f.gradient(p, g);
  const std::vector<BoundState> bounds(n, BoundState::kFree);
  KktReport report;
  compute_kkt(g, fx.problem.constraints().loads(), bounds, 1e-8, report);
  EXPECT_EQ(allocations_in([&] {
              compute_kkt(g, fx.problem.constraints().loads(), bounds, 1e-8,
                          report);
            }),
            0u);
}

TEST(ZeroAlloc, WarmRepeatSolveAllocatesOnlyTheResult) {
  const GeantFixture fx;
  SolverWorkspace workspace;
  const SolveResult first = maximize(fx.problem.objective(),
                                     fx.problem.constraints(), {}, nullptr,
                                     &workspace);
  ASSERT_EQ(first.status, SolveStatus::kOptimal);

  const std::size_t allocs = allocations_in([&] {
    (void)maximize(fx.problem.objective(), fx.problem.constraints(), {},
                   nullptr, &workspace);
  });
  // The iteration loop itself is allocation-free; what remains is the
  // per-call result object (p, bounds, the initial feasible point) — a
  // small constant independent of the iteration count.
  EXPECT_LE(allocs, 8u) << "solver hot path is allocating per iteration";
}

TEST(ZeroAlloc, InstrumentedWarmRepeatSolveAllocatesOnlyTheResult) {
  // Full observability on: per-iteration tracing into the pre-sized ring
  // plus registry counters. The hot loop must STAY zero-allocation — the
  // trace ring and metric cells were sized up front.
  const GeantFixture fx;
  obs::MetricsRegistry registry;
  obs::SolverTrace trace(8192);

  SolverOptions options;
  options.trace = &trace;
  options.counters = obs::register_solver_counters(registry);

  SolverWorkspace workspace;
  const SolveResult first = maximize(fx.problem.objective(),
                                     fx.problem.constraints(), options,
                                     nullptr, &workspace);
  ASSERT_EQ(first.status, SolveStatus::kOptimal);
  ASSERT_GT(trace.total_recorded(), 0u);

  const std::size_t allocs = allocations_in([&] {
    (void)maximize(fx.problem.objective(), fx.problem.constraints(), options,
                   nullptr, &workspace);
  });
  EXPECT_LE(allocs, 8u) << "tracing is allocating in the solver hot loop";
  // And tracing records every iteration (plus the final summary).
  EXPECT_EQ(trace.total_recorded(),
            2 * (static_cast<std::uint64_t>(first.iterations) + 1));
}

TEST(ZeroAlloc, ProjectIntoAllocatesNothing) {
  const GeantFixture fx;
  const BoxBudgetConstraints& c = fx.problem.constraints();
  std::vector<double> y = fx.interior_point();
  for (std::size_t j = 0; j < y.size(); ++j) y[j] += (j % 3 == 0) ? 0.5 : -0.5;
  std::vector<double> out(y.size());
  EXPECT_EQ(allocations_in([&] { (void)c.project_into(y, out); }), 0u);
}

TEST(ZeroAlloc, WarmSolveTakingArcStepsAllocatesNothingPerIteration) {
  // Most coordinates end at 0 from an all-positive start, in fewer
  // iterations than coordinates pinned: first-hit steps pin about one
  // coordinate each, so arc steps did the pinning.
  const test::SparseOptimum inst = test::sparse_optimum_instance(400, 5);
  for (const bool fused : {true, false}) {
    SolverOptions options;
    options.use_fused = fused;
    // should_stop is polled at the top of every iteration: the count
    // between the first and the last poll is the iteration loop's own.
    std::size_t first_poll = 0, last_poll = 0;
    options.should_stop = [&](int iterations) {
      (iterations == 0 ? first_poll : last_poll) = g_alloc_count;
      return false;
    };
    SolverWorkspace workspace;
    (void)maximize(inst.objective, inst.constraints, options, nullptr,
                   &workspace);
    const SolveResult r = maximize(inst.objective, inst.constraints, options,
                                   nullptr, &workspace);
    ASSERT_EQ(r.status, SolveStatus::kOptimal) << "fused " << fused;
    std::size_t zeros = 0;
    for (double p : r.p) zeros += p == 0.0;
    EXPECT_LT(static_cast<std::size_t>(r.iterations), zeros)
        << "fused " << fused;
    EXPECT_EQ(r.release_events, 0) << "fused " << fused;
    EXPECT_EQ(last_poll - first_poll, 0u)
        << "fused " << fused << ": the arc-step iteration loop allocates";
  }
}

TEST(ZeroAlloc, GapStoppedSolveAllocatesNothingPerIteration) {
  // Every iteration certifies its iterate (one knapsack fill into the
  // workspace's item buffer) until the gap stop: the check must not
  // allocate once the workspace has grown.
  const test::SparseOptimum inst = test::sparse_optimum_instance(400, 5);
  for (const bool fused : {true, false}) {
    SolverOptions options;
    options.use_fused = fused;
    options.gap_tolerance = 1e-6;
    std::size_t first_poll = 0, last_poll = 0;
    options.should_stop = [&](int iterations) {
      (iterations == 0 ? first_poll : last_poll) = g_alloc_count;
      return false;
    };
    SolverWorkspace workspace;
    (void)maximize(inst.objective, inst.constraints, options, nullptr,
                   &workspace);
    SolveResult r;
    const std::size_t allocs = allocations_in([&] {
      r = maximize(inst.objective, inst.constraints, options, nullptr,
                   &workspace);
    });
    ASSERT_EQ(r.status, SolveStatus::kCertified) << "fused " << fused;
    ASSERT_GT(r.iterations, 2) << "fused " << fused;
    EXPECT_EQ(last_poll - first_poll, 0u)
        << "fused " << fused << ": the gap-checked iteration loop allocates";
    EXPECT_LE(allocs, 8u) << "fused " << fused;
  }
}

}  // namespace
}  // namespace netmon::opt
