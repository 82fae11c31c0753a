// Objective-function interfaces for the constrained concave maximization.
//
// The optimizer (opt::GradientProjectionSolver) is generic: it sees an
// Objective — value, gradient, and second directional derivative — and
// knows nothing about networks. The placement problem instantiates
// SeparableConcaveObjective: f(p) = sum_k M_k((Rp)_k) with M_k concave
// 1-D utilities and R a sparse non-negative matrix stored as a flat CSR
// (linalg::SparseCsr). Every evaluation entry point has a workspace-
// taking variant that draws scratch from linalg::EvalWorkspace and
// performs zero heap allocations at steady state.
//
// The fused evaluation layer: per-OD utility math runs through batch
// kernels over structure-of-arrays coefficient tables (parameter j of
// term i of a run lives at soa[j * stride + i]), so a whole run is one
// plain-function call over contiguous arrays — branch-free and
// auto-vectorizable. Each kernel family ships a scalar reference
// variant and (when compiled with NETMON_SIMD) a vectorized variant
// that is bit-identical by construction; opt::simd_dispatch_level()
// selects between them at runtime.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "linalg/sparse.hpp"
#include "linalg/workspace.hpp"
#include "util/page_alloc.hpp"

namespace netmon::runtime {
class ThreadPool;
}  // namespace netmon::runtime

namespace netmon::opt {

class SeparableConcaveObjective;

/// Batch-kernel dispatch levels, ordered by capability. Every level is
/// bit-identical to every other (the vector kernels replay the scalar
/// reference op sequence, lane for lane), so the level only changes
/// throughput — never results.
enum class SimdLevel : int {
  kScalar = 0,  ///< scalar reference kernels (core/utility.cpp)
  kAvx2 = 1,    ///< AVX2+FMA intrinsics (core/utility_avx2.cpp)
  kAvx512 = 2,  ///< AVX-512F intrinsics (core/utility_avx512.cpp)
};

/// Highest level this build + this CPU can run: compiled-in kernel TUs
/// intersected with CPUID (__builtin_cpu_supports) at first call.
SimdLevel simd_max_level();

/// The resolved dispatch level. Defaults to the NETMON_SIMD environment
/// variable — "scalar"/"0"/"off", "avx2", "avx512", or "auto"/"1"/"on"
/// (= highest supported); unknown values throw netmon::Error. A
/// requested level the hardware lacks falls back to the highest
/// supported one (per-level fallback), so the result is always runnable.
SimdLevel simd_dispatch_level();

/// Overrides the dispatch level (tests sweep levels explicitly). Clamped
/// to simd_max_level().
void set_simd_dispatch_level(SimdLevel level);

/// Parses a NETMON_SIMD value ("auto"/"on"/"1" resolve to
/// simd_max_level()). Throws netmon::Error on unknown values (exposed
/// for tests; the env init path uses it).
SimdLevel parse_simd_level(std::string_view value);

/// Lower-case level name ("scalar"/"avx2"/"avx512") for reports.
const char* simd_level_name(SimdLevel level);

/// A twice continuously differentiable concave objective to MAXIMIZE.
class Objective {
 public:
  virtual ~Objective() = default;

  /// Dimension of the variable vector.
  virtual std::size_t dimension() const = 0;

  /// f(p).
  virtual double value(std::span<const double> p) const = 0;

  /// Writes grad f(p) into `out` (size dimension()).
  virtual void gradient(std::span<const double> p,
                        std::span<double> out) const = 0;

  /// d^2/dt^2 f(p + t s) at t = 0. Non-positive for concave f.
  virtual double directional_second(std::span<const double> p,
                                    std::span<const double> s) const = 0;

  /// Workspace-aware variants: implementations that can evaluate without
  /// allocating draw term-sized scratch from `ws` (only the rows_* slots;
  /// cols_* belong to the caller). The defaults forward to the plain
  /// virtuals, so existing objectives keep working unchanged.
  virtual double value(std::span<const double> p,
                       linalg::EvalWorkspace& ws) const {
    (void)ws;
    return value(p);
  }
  virtual void gradient(std::span<const double> p, std::span<double> out,
                        linalg::EvalWorkspace& ws) const {
    (void)ws;
    gradient(p, out);
  }
  virtual double directional_second(std::span<const double> p,
                                    std::span<const double> s,
                                    linalg::EvalWorkspace& ws) const {
    (void)ws;
    return directional_second(p, s);
  }

  /// Optional capability hook: objectives with separable structure
  /// f(p) = sum_k M_k(a_k + (Rp)_k) return themselves, which lets the
  /// solver use the fused evaluation kernels and maintain the inner
  /// products rho = R p incrementally. The default (no structure)
  /// returns nullptr and the solver falls back to the generic virtuals.
  virtual const SeparableConcaveObjective* separable() const {
    return nullptr;
  }
};

/// A strictly increasing, concave, twice continuously differentiable
/// scalar function (the utility M of the paper).
class Concave1d {
 public:
  /// Fixed-arity per-term parameter pack for batch kernels.
  static constexpr std::size_t kBatchParamCount = 4;
  using BatchParams = std::array<double, kBatchParamCount>;

  /// A batch kernel evaluates a contiguous run of n terms in one plain-
  /// function call — no per-term virtual dispatch. Parameters are laid
  /// out as structure-of-arrays by the objective: parameter j of term i
  /// lives at soa[j * stride + i]. Terms whose utilities return the same
  /// kernel pointer are grouped into contiguous runs.
  struct BatchKernel {
    /// out[i] = f(params_i, x[i]).
    using MapFn = void (*)(const double* soa, std::size_t stride,
                           const double* x, double* out, std::size_t n);
    /// Fused: v[i], m1[i], m2[i] = M, M', M'' at x[i] from one pass.
    using FusedFn = void (*)(const double* soa, std::size_t stride,
                             const double* x, double* v, double* m1,
                             double* m2, std::size_t n);
    /// Derivative pair only (line-search probes skip the value).
    using Deriv2Fn = void (*)(const double* soa, std::size_t stride,
                              const double* x, double* m1, double* m2,
                              std::size_t n);

    MapFn value = nullptr;
    MapFn deriv = nullptr;
    MapFn second = nullptr;
    /// Scalar reference fused variants (required when the maps exist).
    FusedFn fused = nullptr;
    Deriv2Fn deriv2 = nullptr;
    /// Leveled bit-exact vector variants, indexed by SimdLevel - 1
    /// (slot 0 = AVX2, slot 1 = AVX-512). nullptr when the family does
    /// not vectorize (libm-bound) or the build lacks the TU. Must be
    /// bit-identical to the scalar variants, element for element.
    std::array<FusedFn, 2> fused_lvl{};
    std::array<Deriv2Fn, 2> deriv2_lvl{};
    /// Index (into the SoA parameter pack) of the pivot that splits this
    /// family's piecewise regimes, or kNoPivot for single-regime
    /// families. The line-search restriction partitions its compacted
    /// terms on x < pivot so vector kernels see lane-uniform blocks.
    static constexpr std::size_t kNoPivot = static_cast<std::size_t>(-1);
    std::size_t pivot_param = kNoPivot;

    /// Variant selection with per-level fallback: the requested level's
    /// slot, else each lower vector level, else the scalar reference.
    FusedFn select_fused(SimdLevel level) const {
      for (int l = static_cast<int>(level); l >= 1; --l)
        if (fused_lvl[l - 1] != nullptr) return fused_lvl[l - 1];
      return fused;
    }
    Deriv2Fn select_deriv2(SimdLevel level) const {
      for (int l = static_cast<int>(level); l >= 1; --l)
        if (deriv2_lvl[l - 1] != nullptr) return deriv2_lvl[l - 1];
      return deriv2;
    }
  };

  virtual ~Concave1d() = default;
  virtual double value(double x) const = 0;
  virtual double deriv(double x) const = 0;
  virtual double second(double x) const = 0;

  /// Batch fast path: fills `params` with this instance's parameters and
  /// returns a (statically allocated) kernel, or nullptr when only the
  /// scalar virtuals exist (the default). A kernel must compute exactly
  /// what the scalar virtuals compute, operation for operation.
  virtual const BatchKernel* batch_kernel(BatchParams& params) const {
    (void)params;
    return nullptr;
  }
};

/// f(p) = sum_k M_k( a_k + (Rp)_k ) with sparse non-negative R and
/// optional per-row offsets a_k (used by the sequential linearization of
/// the exact effective rate, where the tangent plane has a constant term).
class SeparableConcaveObjective final : public Objective {
 public:
  /// Pair-list row format accepted by the converting constructors.
  using SparseRows = std::vector<std::vector<std::pair<std::size_t, double>>>;

  /// CSR-native constructor: `matrix` is R (one row per term, one column
  /// per variable); `offsets` is empty or one a_k per row.
  SeparableConcaveObjective(linalg::SparseCsr matrix,
                            std::vector<std::shared_ptr<const Concave1d>>
                                utilities,
                            std::vector<double> offsets = {});

  /// Pair-list conveniences (convert to CSR on construction).
  SeparableConcaveObjective(std::size_t dimension, SparseRows rows,
                            std::vector<std::shared_ptr<const Concave1d>>
                                utilities);
  SeparableConcaveObjective(std::size_t dimension, SparseRows rows,
                            std::vector<std::shared_ptr<const Concave1d>>
                                utilities,
                            std::vector<double> offsets);

  std::size_t dimension() const override { return matrix_.cols(); }
  double value(std::span<const double> p) const override;
  void gradient(std::span<const double> p,
                std::span<double> out) const override;
  double directional_second(std::span<const double> p,
                            std::span<const double> s) const override;

  /// Allocation-free evaluation through a caller-provided workspace.
  double value(std::span<const double> p,
               linalg::EvalWorkspace& ws) const override;
  void gradient(std::span<const double> p, std::span<double> out,
                linalg::EvalWorkspace& ws) const override;
  double directional_second(std::span<const double> p,
                            std::span<const double> s,
                            linalg::EvalWorkspace& ws) const override;

  const SeparableConcaveObjective* separable() const override {
    return this;
  }

  /// ---- Fused evaluation layer ----

  /// Per-term state produced by one fused evaluation. The spans alias
  /// the workspace (or solver-maintained buffers) handed to the call and
  /// stay valid until those buffers are next reused.
  struct FusedEval {
    double value = 0.0;
    std::span<const double> x;   ///< inner products a + Rp per term
    std::span<const double> m1;  ///< M'_k(x_k) per term
    std::span<const double> m2;  ///< M''_k(x_k) per term
  };

  /// Objective value + gradient + per-term derivatives from ONE matrix
  /// traversal for the inner products, ONE fused pass over the utility
  /// terms (all of M, M', M'' per term) and ONE transposed scatter —
  /// versus the three traversals and three term passes of calling
  /// value() + gradient() + directional_second() separately. The value
  /// and gradient are bit-identical to the separate entry points.
  FusedEval fused_eval(std::span<const double> p, std::span<double> grad,
                       linalg::EvalWorkspace& ws) const;

  /// Same, starting from known inner products `x` (e.g. the solver's
  /// incrementally maintained rho = R p): skips the matrix traversal.
  FusedEval fused_eval_from_inner(std::span<const double> x,
                                  std::span<double> grad,
                                  linalg::EvalWorkspace& ws) const;

  /// ---- Intra-solve parallel evaluation ----
  //
  // Pool-taking variants of the hot entry points, used by the solver for
  // instances above SolverOptions::parallel_min_terms. Each one shards
  // only elementwise work (term-kernel sub-ranges, matrix rows) with
  // deterministic chunking and keeps every order-sensitive reduction
  // (the value sum) serial, so the outputs are bit-identical to the
  // serial entry points at every thread count — not merely stable across
  // thread counts. The gradient runs as a row-parallel spmv over the
  // stored transpose, which is bit-identical to the serial spmv_t
  // scatter (see linalg/parallel_kernels.hpp).

  /// inner_into, rows sharded across `pool`. Bit-identical.
  void inner_into(std::span<const double> p, std::span<double> x,
                  runtime::ThreadPool& pool) const;

  /// fused_terms, term ranges sharded across `pool` (run structure is
  /// respected; kernels see contiguous sub-ranges of the SoA table).
  /// Bit-identical.
  void fused_terms(std::span<const double> x, std::span<double> v,
                   std::span<double> m1, std::span<double> m2,
                   runtime::ThreadPool& pool) const;

  /// fused_eval_from_inner with the term pass and the gradient sharded
  /// across `pool` when non-null (the value sum stays serial).
  /// Bit-identical to the serial overload.
  FusedEval fused_eval_from_inner(std::span<const double> x,
                                  std::span<double> grad,
                                  linalg::EvalWorkspace& ws,
                                  runtime::ThreadPool* pool) const;

  /// Hessian diagonal h_j = sum_k M''_k r_{k,j}^2 together with the
  /// gradient, from the m1/m2 of a fused evaluation — one traversal for
  /// both scatters (linalg::spmv_t_grad_hess).
  void grad_hess_diag_from_terms(std::span<const double> m1,
                                 std::span<const double> m2,
                                 std::span<double> grad,
                                 std::span<double> hess_diag) const;

  /// d^2/dt^2 f(p + t s) given per-term M'' and rs = R s: sum m2 rs^2.
  double directional_second_from_terms(std::span<const double> m2,
                                       std::span<const double> rs) const;

  /// f value from known inner products (one term pass, no traversal).
  double value_from_inner(std::span<const double> x,
                          linalg::EvalWorkspace& ws) const;

  /// Per-term M, M', M'' at inner products x: one fused batch-kernel
  /// pass per run, dispatched to the SIMD variant when enabled.
  void fused_terms(std::span<const double> x, std::span<double> v,
                   std::span<double> m1, std::span<double> m2) const;

  /// Incremental inner-product maintenance: x += delta * R e_col, one
  /// walk of the CSC column (the delta-update the solver applies when a
  /// projection step clamps or snaps coordinate `col`).
  void inner_axpy(std::size_t col, double delta, std::span<double> x) const;

  /// Deterministic parallel value: CSR row ranges are folded via
  /// runtime::parallel_reduce, so the result is bit-identical at every
  /// thread count (chunk layout is thread-count independent).
  double value_parallel(std::span<const double> p,
                        runtime::ThreadPool& pool) const;

  /// Writes the inner products a_k + (Rp)_k — the effective sampling
  /// rates — into `x` (size term_count()). Allocation-free.
  void inner_into(std::span<const double> p, std::span<double> x) const;

  /// The inner products as a fresh vector.
  std::vector<double> inner(std::span<const double> p) const;

  /// Number of separable terms (rows of R).
  std::size_t term_count() const noexcept { return matrix_.rows(); }

  /// Utility value of one term at the given inner product.
  const Concave1d& utility(std::size_t k) const { return *utilities_[k]; }

  /// R as a flat CSR (used by composing objectives, e.g. smooth-min).
  const linalg::SparseCsr& matrix() const noexcept { return matrix_; }

  /// R^T as a flat CSR — the CSC view used for column delta-updates.
  const linalg::SparseCsr& matrix_transposed() const noexcept {
    return matrix_t_;
  }

 private:
  friend class SeparableRestriction;

  /// One maximal run of consecutive terms sharing a batch kernel
  /// (kernel == nullptr marks a scalar-dispatch run).
  struct BatchRun {
    const Concave1d::BatchKernel* kernel = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  enum class Map { kValue, kDeriv, kSecond };

  void validate();
  void compile_batch_runs();
  /// out[k] = M_k / M'_k / M''_k applied to x[k], batched per run.
  void map_terms(Map mode, std::span<const double> x,
                 std::span<double> out) const;
  /// fused_terms restricted to terms [begin, end): the unit of work the
  /// parallel overload shards. The dispatch level is hoisted so every
  /// shard of one evaluation dispatches identically.
  void fused_terms_range(std::size_t begin, std::size_t end,
                         std::span<const double> x, std::span<double> v,
                         std::span<double> m1, std::span<double> m2,
                         SimdLevel level) const;
  /// SoA table base pointer for the run starting at term `begin`:
  /// parameter j of term (begin + i) is soa_base(begin)[j * n + i] with
  /// n = term_count() the column stride.
  const double* soa_base(std::size_t begin) const {
    return soa_.data() + begin;
  }

  linalg::SparseCsr matrix_;
  linalg::SparseCsr matrix_t_;  // transpose (CSC view) for column updates
  std::vector<std::shared_ptr<const Concave1d>> utilities_;
  std::vector<double> offsets_;
  /// Structure-of-arrays coefficient table: parameter j of term i at
  /// soa_[j * term_count() + i]. Runs index into it via soa_base().
  /// Page-backed: the batch kernels stream all four parameter columns
  /// per pass (see util/page_alloc.hpp).
  util::PageVector<double> soa_;
  std::vector<BatchRun> runs_;
  /// Scratch for the workspace-less virtuals; grow-only, so repeated
  /// calls allocate nothing. Not for concurrent evaluation of the same
  /// instance — concurrent callers must use the workspace overloads.
  mutable linalg::EvalWorkspace scratch_;
};

}  // namespace netmon::opt
