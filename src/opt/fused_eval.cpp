#include "opt/fused_eval.hpp"

#include <algorithm>

#include "core/utility_kernels.hpp"
#include "linalg/parallel_kernels.hpp"
#include "runtime/parallel.hpp"
#include "util/error.hpp"

namespace netmon::opt {

namespace {
/// Probes with fewer active slots than this stay serial even when a pool
/// is attached — at that size the fork/join overhead beats the work.
constexpr std::size_t kParallelMinSlots = 2048;

/// Probe-point fill xt[i] = fma(t, rd[i], x0[i]) at the requested
/// dispatch level. All variants are element-for-element bit-identical
/// (std::fma and vfmadd are both correctly rounded), so the level only
/// changes throughput.
using FillFn = void (*)(double*, const double*, const double*, double,
                        std::size_t);
FillFn select_fill(SimdLevel level) {
#ifdef NETMON_HAVE_AVX512
  if (level >= SimdLevel::kAvx512) return core::kernels::fill_affine_avx512;
#endif
#ifdef NETMON_HAVE_AVX2
  if (level >= SimdLevel::kAvx2) return core::kernels::fill_affine_avx2;
#endif
  (void)level;
  return core::kernels::fill_affine_scalar;
}
}  // namespace

void SeparableRestriction::reset(const SeparableConcaveObjective& f,
                                 std::span<const double> x0,
                                 std::span<const double> d,
                                 std::span<const double> m2_at_x0,
                                 runtime::ThreadPool* pool) {
  const std::size_t n = f.term_count();
  NETMON_REQUIRE(x0.size() == n, "restriction inner-product size mismatch");
  NETMON_REQUIRE(d.size() == f.dimension(),
                 "restriction direction size mismatch");
  f_ = &f;
  pool_ = pool;

  rd_.resize(n);
  if (pool != nullptr) {
    linalg::spmv_parallel(f.matrix_, d, {rd_.data(), n}, *pool);
  } else {
    linalg::spmv(f.matrix_, d, {rd_.data(), n});  // offsets drop in d/dt
  }

  // Gather the active terms (rd_k != 0), partitioned for the vector
  // kernels: by batch kernel first (first-appearance order; nullptr =
  // per-term virtual dispatch is its own group), then — for piecewise
  // families — by the pivot regime the term starts in at x0. Lane-
  // uniform blocks let the kernels' uniform-regime fast paths (skip the
  // division leg / the quadratic leg) hit on nearly every vector;
  // mid-search regime migration is handled by their per-vector re-check,
  // so the partition never affects results. The family pass count is
  // tiny (a handful of kernels x two phases) and all buffers are
  // grow-only, so repeated resets allocate nothing at steady state.
  // The gather writes every visited term at the next slot and advances
  // only past the kept ones: no data-dependent branch per term. The
  // buffers stay term_count + 1 long (grow-only: a write lands one past
  // the last kept slot); active_ marks the compact prefix.
  if (x0c_.size() < n + 1) {
    x0c_.resize(n + 1);
    rdc_.resize(n + 1);
    idx_.resize(n + 1);
  }
  runs_.clear();
  groups_.clear();
  for (const auto& run : f.runs_) {
    if (std::find(groups_.begin(), groups_.end(), run.kernel) ==
        groups_.end()) {
      groups_.push_back(run.kernel);
    }
  }
  std::size_t slot = 0;
  for (const Concave1d::BatchKernel* kernel : groups_) {
    const std::size_t first = slot;
    const std::size_t pivot = kernel != nullptr
                                  ? kernel->pivot_param
                                  : Concave1d::BatchKernel::kNoPivot;
    const int phases = pivot == Concave1d::BatchKernel::kNoPivot ? 1 : 2;
    for (int phase = 0; phase < phases; ++phase) {
      for (const auto& run : f.runs_) {
        if (run.kernel != kernel) continue;
        for (std::size_t k = run.begin; k < run.end; ++k) {
          bool keep = rd_[k] != 0.0;
          if (phases == 2) {
            // Phase 0 collects the below-pivot regime, phase 1 the rest;
            // same quiet compare the kernels use.
            const bool below = x0[k] < f.soa_[pivot * n + k];
            keep = keep & (below == (phase == 0));
          }
          x0c_[slot] = x0[k];
          rdc_[slot] = rd_[k];
          idx_[slot] = k;
          slot += keep;
        }
      }
    }
    // One kernel's slots are contiguous: a single run.
    if (slot > first) runs_.push_back({kernel, first, slot});
  }
  active_ = slot;

  // Compact SoA coefficient table: parameter j of slot i at soa_[j*m+i],
  // gathered from the objective's full-width table.
  const std::size_t m = active_;
  soa_.resize(Concave1d::kBatchParamCount * m);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t k = idx_[i];
    for (std::size_t j = 0; j < Concave1d::kBatchParamCount; ++j)
      soa_[j * m + i] = f.soa_[j * n + k];
  }
  xt_.resize(m);
  m1_.resize(m);
  m2_.resize(m);

  // phi''(0) from the caller's per-term M'' at x0, when provided: the
  // inactive terms contribute exactly zero (rd_k == 0), so the compact
  // sum is the full sum.
  have_second0_ = !m2_at_x0.empty();
  if (have_second0_) {
    NETMON_REQUIRE(m2_at_x0.size() == n, "restriction m2 size mismatch");
    double sum = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      const double r = rdc_[i];
      sum += m2_at_x0[idx_[i]] * r * r;
    }
    second0_ = sum;
  }
}

void SeparableRestriction::eval_range(std::size_t begin, std::size_t end,
                                      double t, SimdLevel level) {
  const std::size_t m = active_;
  double* __restrict xt = xt_.data();
  select_fill(level)(xt + begin, x0c_.data() + begin, rdc_.data() + begin, t,
                     end - begin);

  auto it = std::partition_point(
      runs_.begin(), runs_.end(),
      [begin](const CompactRun& run) { return run.end <= begin; });
  for (; it != runs_.end() && it->begin < end; ++it) {
    const std::size_t lo = std::max(it->begin, begin);
    const std::size_t hi = std::min(it->end, end);
    if (it->kernel != nullptr && it->kernel->deriv2 != nullptr) {
      const Concave1d::BatchKernel::Deriv2Fn fn =
          it->kernel->select_deriv2(level);
      fn(soa_.data() + lo, m, xt + lo, m1_.data() + lo, m2_.data() + lo,
         hi - lo);
      continue;
    }
    for (std::size_t i = lo; i < hi; ++i) {
      const Concave1d& u = *f_->utilities_[idx_[i]];
      m1_[i] = u.deriv(xt[i]);
      m2_[i] = u.second(xt[i]);
    }
  }
}

Phi::Derivs SeparableRestriction::derivs(double t) {
  NETMON_REQUIRE(f_ != nullptr, "restriction not reset");
  const std::size_t m = active_;
  const SimdLevel level = simd_dispatch_level();
  if (pool_ != nullptr && m >= kParallelMinSlots) {
    // Elementwise probe work sharded; the sums below stay serial, so the
    // Derivs are bit-identical to the serial path.
    const auto chunks = runtime::make_chunks_for_width(
        m, runtime::ChunkOptions{.grain = 512}, pool_->size());
    runtime::TaskGroup group(*pool_);
    for (const auto& [b, e] : chunks) {
      group.run([this, b = b, e = e, t, level] {
        eval_range(b, e, t, level);
      });
    }
    group.wait();
  } else {
    eval_range(0, m, t, level);
  }

  Derivs out;
  const double* __restrict rdc = rdc_.data();
  const double* __restrict m1 = m1_.data();
  const double* __restrict m2 = m2_.data();
  for (std::size_t i = 0; i < m; ++i) {
    const double r = rdc[i];
    out.first += m1[i] * r;
    out.second += m2[i] * r * r;
  }
  return out;
}

double SeparableRestriction::second_at_zero() {
  if (have_second0_) return second0_;
  return derivs(0.0).second;
}

}  // namespace netmon::opt
