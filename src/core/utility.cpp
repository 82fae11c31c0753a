#include "core/utility.hpp"

#include <cmath>

#include "core/utility_kernels.hpp"
#include "util/error.hpp"

namespace netmon::core {

namespace {

using BatchParams = opt::Concave1d::BatchParams;
using BatchKernel = opt::Concave1d::BatchKernel;

// The scalar virtuals and every batch kernel route through the Ops
// structs in core/utility_kernels.hpp, so batch (and vector) evaluation
// is bit-identical to scalar evaluation by construction. This TU is the
// scalar reference: it is pinned to -fno-tree-vectorize
// -ffp-contract=off (src/CMakeLists.txt) so NETMON_SIMD=scalar means
// genuinely scalar, contraction-free execution even under -march flags.
// The leveled vector variants live in core/utility_avx2.cpp and
// core/utility_avx512.cpp; which slot runs is a runtime decision
// (opt::simd_dispatch_level).

const BatchKernel kSreKernel{
    .value = kernels::map_value<kernels::SreOps>,
    .deriv = kernels::map_deriv<kernels::SreOps>,
    .second = kernels::map_second<kernels::SreOps>,
    .fused = kernels::fused<kernels::SreOps>,
    .deriv2 = kernels::deriv2<kernels::SreOps>,
    .fused_lvl =
        {
#ifdef NETMON_HAVE_AVX2
            kernels::sre_fused_avx2,
#else
            nullptr,
#endif
#ifdef NETMON_HAVE_AVX512
            kernels::sre_fused_avx512,
#else
            nullptr,
#endif
        },
    .deriv2_lvl =
        {
#ifdef NETMON_HAVE_AVX2
            kernels::sre_deriv2_avx2,
#else
            nullptr,
#endif
#ifdef NETMON_HAVE_AVX512
            kernels::sre_deriv2_avx512,
#else
            nullptr,
#endif
        },
    .pivot_param = 1,  // x0 splits the quadratic / rational regimes
};

const BatchKernel kLogKernel{
    .value = kernels::map_value<kernels::LogOps>,
    .deriv = kernels::map_deriv<kernels::LogOps>,
    .second = kernels::map_second<kernels::LogOps>,
    .fused = kernels::fused<kernels::LogOps>,
    .deriv2 = kernels::deriv2<kernels::LogOps>,
    // libm-bound (log1p): no vector variants, every level falls back to
    // the scalar reference; single regime, no pivot.
};

const BatchKernel kDetectKernel{
    .value = kernels::map_value<kernels::DetectOps>,
    .deriv = kernels::map_deriv<kernels::DetectOps>,
    .second = kernels::map_second<kernels::DetectOps>,
    .fused = kernels::fused<kernels::DetectOps>,
    .deriv2 = kernels::deriv2<kernels::DetectOps>,
    // libm-bound (expm1/exp): scalar-only; single regime, no pivot.
};

}  // namespace

void kernels::fill_affine_scalar(double* __restrict dst,
                                 const double* __restrict x0,
                                 const double* __restrict rd, double t,
                                 std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = std::fma(t, rd[i], x0[i]);
}

SreUtility::SreUtility(double inv_mean_size) : c_(inv_mean_size) {
  NETMON_REQUIRE(c_ > 0.0 && c_ <= 0.5,
                 "E[1/S] must lie in (0, 0.5] for a pivot inside (0,1]");
  x0_ = pivot_for(c_);
  // A*(x) = A(x0) + (x-x0)A'(x0) + (x-x0)^2 A''(x0)/2 with
  // A'(x0) = c/x0^2, A''(x0) = -2c/x0^3; the constant term vanishes by
  // the choice of x0, leaving a1 x + a2 x^2.
  a1_ = 3.0 * c_ / (x0_ * x0_);
  a2_ = -c_ / (x0_ * x0_ * x0_);
}

double SreUtility::value(double x) const {
  // Slightly negative arguments arise from floating-point undershoot at
  // the bounds and from the constant term of the sequential exact-rate
  // linearization; the quadratic branch is their analytic extension.
  NETMON_REQUIRE(x >= -1.0, "utility argument out of domain");
  return kernels::SreOps::value({c_, x0_, a1_, a2_}, x);
}

double SreUtility::deriv(double x) const {
  NETMON_REQUIRE(x >= -1.0, "utility argument out of domain");
  return kernels::SreOps::deriv({c_, x0_, a1_, a2_}, x);
}

double SreUtility::second(double x) const {
  NETMON_REQUIRE(x >= -1.0, "utility argument out of domain");
  return kernels::SreOps::second({c_, x0_, a1_, a2_}, x);
}

const BatchKernel* SreUtility::batch_kernel(BatchParams& params) const {
  params = {c_, x0_, a1_, a2_};
  return &kSreKernel;
}

LogUtility::LogUtility(double eps) : eps_(eps) {
  NETMON_REQUIRE(eps > 0.0, "log utility eps must be positive");
}

double LogUtility::value(double x) const {
  // The natural domain is x > -eps (where the log diverges); slightly
  // negative arguments arise from linearization offsets.
  NETMON_REQUIRE(x > -eps_, "utility argument out of domain");
  return kernels::LogOps::value({eps_}, x);
}

double LogUtility::deriv(double x) const {
  NETMON_REQUIRE(x > -eps_, "utility argument out of domain");
  return kernels::LogOps::deriv({eps_}, x);
}

double LogUtility::second(double x) const {
  NETMON_REQUIRE(x > -eps_, "utility argument out of domain");
  return kernels::LogOps::second({eps_}, x);
}

const BatchKernel* LogUtility::batch_kernel(BatchParams& params) const {
  params = {eps_, 0.0, 0.0, 0.0};
  return &kLogKernel;
}

WeightedUtility::WeightedUtility(std::shared_ptr<const opt::Concave1d> base,
                                 double weight)
    : base_(std::move(base)), w_(weight) {
  NETMON_REQUIRE(base_ != nullptr, "weighted utility needs a base");
  NETMON_REQUIRE(weight > 0.0, "utility weight must be positive");
}

double WeightedUtility::value(double x) const { return w_ * base_->value(x); }

double WeightedUtility::deriv(double x) const { return w_ * base_->deriv(x); }

double WeightedUtility::second(double x) const {
  return w_ * base_->second(x);
}

DetectionUtility::DetectionUtility(double flow_packets) : s_(flow_packets) {
  NETMON_REQUIRE(flow_packets >= 2.0,
                 "detection utility needs flow size >= 2 packets");
}

double DetectionUtility::value(double x) const {
  NETMON_REQUIRE(x >= -1e-9, "utility argument must be >= 0");
  return kernels::DetectOps::value({s_}, x);
}

double DetectionUtility::deriv(double x) const {
  NETMON_REQUIRE(x >= -1e-9, "utility argument must be >= 0");
  return kernels::DetectOps::deriv({s_}, x);
}

double DetectionUtility::second(double x) const {
  NETMON_REQUIRE(x >= -1e-9, "utility argument must be >= 0");
  return kernels::DetectOps::second({s_}, x);
}

const BatchKernel* DetectionUtility::batch_kernel(BatchParams& params) const {
  params = {s_, 0.0, 0.0, 0.0};
  return &kDetectKernel;
}

}  // namespace netmon::core
