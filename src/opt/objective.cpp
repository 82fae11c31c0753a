#include "opt/objective.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "linalg/parallel_kernels.hpp"
#include "runtime/parallel.hpp"
#include "util/error.hpp"

namespace netmon::opt {

namespace {

SimdLevel clamp_level(SimdLevel level) {
  const int max = static_cast<int>(simd_max_level());
  const int requested = static_cast<int>(level);
  return static_cast<SimdLevel>(std::min(std::max(requested, 0), max));
}

SimdLevel level_from_env() {
  const char* env = std::getenv("NETMON_SIMD");
  return env == nullptr ? simd_max_level() : clamp_level(parse_simd_level(env));
}

std::atomic<int>& simd_level_flag() {
  static std::atomic<int> level{static_cast<int>(level_from_env())};
  return level;
}

}  // namespace

SimdLevel simd_max_level() {
#if defined(NETMON_HAVE_AVX512) || defined(NETMON_HAVE_AVX2)
  static const SimdLevel detected = [] {
#ifdef NETMON_HAVE_AVX512
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq")) {
      return SimdLevel::kAvx512;
    }
#endif
#ifdef NETMON_HAVE_AVX2
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
      return SimdLevel::kAvx2;
#endif
    return SimdLevel::kScalar;
  }();
  return detected;
#else
  return SimdLevel::kScalar;
#endif
}

SimdLevel parse_simd_level(std::string_view value) {
  if (value == "scalar" || value == "0" || value == "off")
    return SimdLevel::kScalar;
  if (value == "avx2") return SimdLevel::kAvx2;
  if (value == "avx512") return SimdLevel::kAvx512;
  if (value == "auto" || value == "on" || value == "1" || value.empty())
    return simd_max_level();
  NETMON_REQUIRE(false, "NETMON_SIMD: unknown value '" + std::string(value) +
                            "' (expected scalar|avx2|avx512|auto, or "
                            "0|off|1|on)");
  return SimdLevel::kScalar;  // unreachable
}

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx512:
      return "avx512";
    case SimdLevel::kAvx2:
      return "avx2";
    default:
      return "scalar";
  }
}

SimdLevel simd_dispatch_level() {
  return static_cast<SimdLevel>(
      simd_level_flag().load(std::memory_order_relaxed));
}

void set_simd_dispatch_level(SimdLevel level) {
  simd_level_flag().store(static_cast<int>(clamp_level(level)),
                          std::memory_order_relaxed);
}

SeparableConcaveObjective::SeparableConcaveObjective(
    linalg::SparseCsr matrix,
    std::vector<std::shared_ptr<const Concave1d>> utilities,
    std::vector<double> offsets)
    : matrix_(std::move(matrix)),
      utilities_(std::move(utilities)),
      offsets_(std::move(offsets)) {
  validate();
  compile_batch_runs();
  matrix_t_ = matrix_.transpose();
}

SeparableConcaveObjective::SeparableConcaveObjective(
    std::size_t dimension, SparseRows rows,
    std::vector<std::shared_ptr<const Concave1d>> utilities)
    : SeparableConcaveObjective(dimension, std::move(rows),
                                std::move(utilities), {}) {}

SeparableConcaveObjective::SeparableConcaveObjective(
    std::size_t dimension, SparseRows rows,
    std::vector<std::shared_ptr<const Concave1d>> utilities,
    std::vector<double> offsets)
    : SeparableConcaveObjective(linalg::SparseCsr::from_rows(dimension, rows),
                                std::move(utilities), std::move(offsets)) {}

void SeparableConcaveObjective::validate() {
  NETMON_REQUIRE(offsets_.empty() || offsets_.size() == matrix_.rows(),
                 "one offset per row required when offsets are given");
  NETMON_REQUIRE(matrix_.rows() == utilities_.size(),
                 "one utility per objective term required");
  for (const double coeff : matrix_.values())
    NETMON_REQUIRE(coeff >= 0.0, "routing coefficients must be >= 0");
  for (const auto& u : utilities_)
    NETMON_REQUIRE(u != nullptr, "null utility");
}

void SeparableConcaveObjective::compile_batch_runs() {
  const std::size_t n = utilities_.size();
  soa_.assign(Concave1d::kBatchParamCount * n, 0.0);
  runs_.clear();
  for (std::size_t k = 0; k < n; ++k) {
    Concave1d::BatchParams params{};
    const Concave1d::BatchKernel* kernel =
        utilities_[k]->batch_kernel(params);
    // Transpose the per-term parameter pack into the SoA columns.
    for (std::size_t j = 0; j < Concave1d::kBatchParamCount; ++j)
      soa_[j * n + k] = params[j];
    if (!runs_.empty() && runs_.back().kernel == kernel) {
      runs_.back().end = k + 1;
    } else {
      runs_.push_back({kernel, k, k + 1});
    }
  }
}

void SeparableConcaveObjective::map_terms(Map mode, std::span<const double> x,
                                          std::span<double> out) const {
  const std::size_t stride = term_count();
  for (const BatchRun& run : runs_) {
    const std::size_t n = run.end - run.begin;
    if (run.kernel != nullptr) {
      const Concave1d::BatchKernel::MapFn fn =
          mode == Map::kValue    ? run.kernel->value
          : mode == Map::kDeriv  ? run.kernel->deriv
                                 : run.kernel->second;
      fn(soa_base(run.begin), stride, x.data() + run.begin,
         out.data() + run.begin, n);
      continue;
    }
    for (std::size_t k = run.begin; k < run.end; ++k) {
      switch (mode) {
        case Map::kValue:
          out[k] = utilities_[k]->value(x[k]);
          break;
        case Map::kDeriv:
          out[k] = utilities_[k]->deriv(x[k]);
          break;
        case Map::kSecond:
          out[k] = utilities_[k]->second(x[k]);
          break;
      }
    }
  }
}

void SeparableConcaveObjective::fused_terms(std::span<const double> x,
                                            std::span<double> v,
                                            std::span<double> m1,
                                            std::span<double> m2) const {
  fused_terms_range(0, term_count(), x, v, m1, m2, simd_dispatch_level());
}

void SeparableConcaveObjective::fused_terms_range(
    std::size_t begin, std::size_t end, std::span<const double> x,
    std::span<double> v, std::span<double> m1, std::span<double> m2,
    SimdLevel level) const {
  const std::size_t stride = term_count();
  // First run overlapping [begin, end): runs_ partitions [0, n) in order.
  auto it = std::partition_point(
      runs_.begin(), runs_.end(),
      [begin](const BatchRun& run) { return run.end <= begin; });
  for (; it != runs_.end() && it->begin < end; ++it) {
    const std::size_t lo = std::max(it->begin, begin);
    const std::size_t hi = std::min(it->end, end);
    const std::size_t n = hi - lo;
    if (it->kernel != nullptr && it->kernel->fused != nullptr) {
      // Sub-range dispatch is safe because the kernels are elementwise:
      // every level is bit-identical per element no matter where the
      // range starts.
      const Concave1d::BatchKernel::FusedFn fn =
          it->kernel->select_fused(level);
      fn(soa_base(lo), stride, x.data() + lo, v.data() + lo, m1.data() + lo,
         m2.data() + lo, n);
      continue;
    }
    for (std::size_t k = lo; k < hi; ++k) {
      v[k] = utilities_[k]->value(x[k]);
      m1[k] = utilities_[k]->deriv(x[k]);
      m2[k] = utilities_[k]->second(x[k]);
    }
  }
}

void SeparableConcaveObjective::fused_terms(std::span<const double> x,
                                            std::span<double> v,
                                            std::span<double> m1,
                                            std::span<double> m2,
                                            runtime::ThreadPool& pool) const {
  const SimdLevel level = simd_dispatch_level();
  const auto chunks = runtime::make_chunks_for_width(
      term_count(), runtime::ChunkOptions{.grain = 512}, pool.size());
  if (chunks.size() <= 1) {
    fused_terms_range(0, term_count(), x, v, m1, m2, level);
    return;
  }
  runtime::TaskGroup group(pool);
  for (const auto& [b, e] : chunks) {
    group.run([this, b = b, e = e, x, v, m1, m2, level] {
      fused_terms_range(b, e, x, v, m1, m2, level);
    });
  }
  group.wait();
}

void SeparableConcaveObjective::inner_into(std::span<const double> p,
                                           std::span<double> x) const {
  NETMON_REQUIRE(p.size() == matrix_.cols(), "variable dimension mismatch");
  NETMON_REQUIRE(x.size() == matrix_.rows(), "inner output size mismatch");
  if (offsets_.empty()) {
    linalg::spmv(matrix_, p, x);
    return;
  }
  // Offset-first accumulation, matching the historical pair-list loop
  // bit for bit: x_k = a_k + sum_i r_{k,i} p_i, left to right.
  const std::span<const std::size_t> row_ptr = matrix_.row_ptr();
  const std::span<const linalg::SparseCsr::Index> cols = matrix_.col_idx();
  const std::span<const double> vals = matrix_.values();
  for (std::size_t k = 0; k < matrix_.rows(); ++k) {
    double acc = offsets_[k];
    for (std::size_t i = row_ptr[k]; i < row_ptr[k + 1]; ++i)
      acc += vals[i] * p[cols[i]];
    x[k] = acc;
  }
}

void SeparableConcaveObjective::inner_into(std::span<const double> p,
                                           std::span<double> x,
                                           runtime::ThreadPool& pool) const {
  NETMON_REQUIRE(p.size() == matrix_.cols(), "variable dimension mismatch");
  NETMON_REQUIRE(x.size() == matrix_.rows(), "inner output size mismatch");
  if (offsets_.empty()) {
    linalg::spmv_parallel(matrix_, p, x, pool);
    return;
  }
  // Row-sharded offset-first accumulation; same per-row loop as the
  // serial overload, disjoint output slots — bit-identical.
  const std::span<const std::size_t> row_ptr = matrix_.row_ptr();
  const std::span<const linalg::SparseCsr::Index> cols = matrix_.col_idx();
  const std::span<const double> vals = matrix_.values();
  runtime::parallel_for(pool, matrix_.rows(), [&](std::size_t k) {
    double acc = offsets_[k];
    for (std::size_t i = row_ptr[k]; i < row_ptr[k + 1]; ++i)
      acc += vals[i] * p[cols[i]];
    x[k] = acc;
  });
}

void SeparableConcaveObjective::inner_axpy(std::size_t col, double delta,
                                           std::span<double> x) const {
  NETMON_REQUIRE(x.size() == matrix_.rows(), "inner size mismatch");
  linalg::row_axpy(matrix_t_, col, delta, x);
}

std::vector<double> SeparableConcaveObjective::inner(
    std::span<const double> p) const {
  std::vector<double> x(matrix_.rows());
  inner_into(p, x);
  return x;
}

double SeparableConcaveObjective::value(std::span<const double> p,
                                        linalg::EvalWorkspace& ws) const {
  const std::size_t n = term_count();
  const std::span<double> x = ws.rows_a(n);
  const std::span<double> m = ws.rows_b(n);
  inner_into(p, x);
  map_terms(Map::kValue, x, m);
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) sum += m[k];
  return sum;
}

double SeparableConcaveObjective::value_from_inner(
    std::span<const double> x, linalg::EvalWorkspace& ws) const {
  NETMON_REQUIRE(x.size() == term_count(), "inner size mismatch");
  const std::size_t n = term_count();
  const std::span<double> m = ws.rows_b(n);
  map_terms(Map::kValue, x, m);
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) sum += m[k];
  return sum;
}

void SeparableConcaveObjective::gradient(std::span<const double> p,
                                         std::span<double> out,
                                         linalg::EvalWorkspace& ws) const {
  NETMON_REQUIRE(out.size() == matrix_.cols(), "gradient dimension mismatch");
  const std::size_t n = term_count();
  const std::span<double> x = ws.rows_a(n);
  const std::span<double> d = ws.rows_b(n);
  inner_into(p, x);
  map_terms(Map::kDeriv, x, d);
  // grad f = R^T M'(x): the scatter visits rows in ascending order, so
  // each out[j] accumulates in the same order as the old nested loop.
  linalg::spmv_t(matrix_, d, out);
}

double SeparableConcaveObjective::directional_second(
    std::span<const double> p, std::span<const double> s,
    linalg::EvalWorkspace& ws) const {
  NETMON_REQUIRE(s.size() == matrix_.cols(), "direction dimension mismatch");
  const std::size_t n = term_count();
  const std::span<double> x = ws.rows_a(n);
  const std::span<double> rs = ws.rows_b(n);
  const std::span<double> m2 = ws.rows_c(n);
  inner_into(p, x);
  linalg::spmv(matrix_, s, rs);  // (Rs)_k, no offsets in the derivative
  map_terms(Map::kSecond, x, m2);
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) sum += m2[k] * rs[k] * rs[k];
  return sum;
}

SeparableConcaveObjective::FusedEval SeparableConcaveObjective::fused_eval(
    std::span<const double> p, std::span<double> grad,
    linalg::EvalWorkspace& ws) const {
  const std::span<double> x = ws.rows_a(term_count());
  inner_into(p, x);
  return fused_eval_from_inner(x, grad, ws);
}

SeparableConcaveObjective::FusedEval
SeparableConcaveObjective::fused_eval_from_inner(
    std::span<const double> x, std::span<double> grad,
    linalg::EvalWorkspace& ws) const {
  return fused_eval_from_inner(x, grad, ws, nullptr);
}

SeparableConcaveObjective::FusedEval
SeparableConcaveObjective::fused_eval_from_inner(
    std::span<const double> x, std::span<double> grad,
    linalg::EvalWorkspace& ws, runtime::ThreadPool* pool) const {
  NETMON_REQUIRE(x.size() == term_count(), "inner size mismatch");
  NETMON_REQUIRE(grad.size() == matrix_.cols(),
                 "gradient dimension mismatch");
  const std::size_t n = term_count();
  const std::span<double> v = ws.rows_b(n);
  const std::span<double> m1 = ws.rows_c(n);
  const std::span<double> m2 = ws.rows_d(n);
  if (pool != nullptr) {
    fused_terms(x, v, m1, m2, *pool);
    // grad = R^T m1 as a row-parallel spmv over the stored transpose —
    // bit-identical to the serial scatter (parallel_kernels.hpp).
    linalg::spmv_t_parallel(matrix_t_, m1, grad, *pool);
  } else {
    fused_terms(x, v, m1, m2);
    linalg::spmv_t(matrix_, m1, grad);
  }
  FusedEval out;
  // Same left-to-right sum as value(), so the result is bit-identical.
  for (std::size_t k = 0; k < n; ++k) out.value += v[k];
  out.x = x;
  out.m1 = m1;
  out.m2 = m2;
  return out;
}

void SeparableConcaveObjective::grad_hess_diag_from_terms(
    std::span<const double> m1, std::span<const double> m2,
    std::span<double> grad, std::span<double> hess_diag) const {
  linalg::spmv_t_grad_hess(matrix_, m1, m2, grad, hess_diag);
}

double SeparableConcaveObjective::directional_second_from_terms(
    std::span<const double> m2, std::span<const double> rs) const {
  NETMON_REQUIRE(m2.size() == term_count() && rs.size() == term_count(),
                 "term size mismatch");
  double sum = 0.0;
  for (std::size_t k = 0; k < term_count(); ++k)
    sum += m2[k] * rs[k] * rs[k];
  return sum;
}

double SeparableConcaveObjective::value(std::span<const double> p) const {
  return value(p, scratch_);
}

void SeparableConcaveObjective::gradient(std::span<const double> p,
                                         std::span<double> out) const {
  gradient(p, out, scratch_);
}

double SeparableConcaveObjective::directional_second(
    std::span<const double> p, std::span<const double> s) const {
  return directional_second(p, s, scratch_);
}

double SeparableConcaveObjective::value_parallel(
    std::span<const double> p, runtime::ThreadPool& pool) const {
  NETMON_REQUIRE(p.size() == matrix_.cols(), "variable dimension mismatch");
  // Per-chunk partial sums over CSR row ranges; the chunk layout is a
  // pure function of the term count, so the result is bit-identical at
  // every thread count (though not to the serial single-sum value()).
  return runtime::parallel_reduce(
      pool, term_count(), 0.0,
      [&](std::size_t k) {
        double x = offsets_.empty() ? 0.0 : offsets_[k];
        x += linalg::row_dot(matrix_, k, p);
        return utilities_[k]->value(x);
      },
      [](double a, double b) { return a + b; },
      runtime::ChunkOptions{.grain = 64});
}

}  // namespace netmon::opt
