// Explicit AVX2+FMA instantiations of the SRE batch kernels.
//
// This TU is compiled with -O3 -mavx2 -mfma -ffp-contract=off (see
// src/CMakeLists.txt) and is only ever CALLED after
// opt::simd_max_level() has confirmed AVX2+FMA via CPUID — the compile
// flags license the instructions, the runtime check licenses executing
// them.
//
// Bit-exactness: the exact kernels replay the frozen SreOps operation
// sequence (core/utility_kernels.hpp) lane for lane — one vdivpd for the
// shared reciprocal, vfmadd/vfnmadd where the reference writes std::fma,
// plain vmulpd/vaddpd elsewhere. Each per-lane IEEE operation is
// bitwise identical to its scalar counterpart, so the whole kernel is
// bit-identical to the scalar reference by construction (enforced by
// tests/opt_simd_dispatch_test.cpp and the perf gate).
//
// Both pivot legs are evaluated branch-free and _mm256_blendv_pd on the
// x < x0 mask selects one — except that a movemask check skips the
// division leg entirely when a whole vector sits below the pivot (or the
// quadratic leg when none does). Skipping never changes results (the
// blend would have discarded the skipped leg), it only saves the vdivpd;
// the line-search restriction partitions its terms by regime precisely
// so these uniform fast paths hit on nearly every vector.
#ifdef NETMON_HAVE_AVX2

#include <immintrin.h>

#include "core/utility_kernels.hpp"

namespace netmon::core::kernels {

namespace {

/// Shared kernel body: kWantValue drops the value column for the deriv2
/// (line-search) form.
template <bool kWantValue>
inline void sre_kernel(const double* soa, std::size_t stride,
                       const double* __restrict x, double* __restrict v,
                       double* __restrict m1, double* __restrict m2,
                       std::size_t n) {
  const double* __restrict cp = soa;
  const double* __restrict x0p = soa + stride;
  const double* __restrict a1p = soa + 2 * stride;
  const double* __restrict a2p = soa + 3 * stride;
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d neg_two = _mm256_set1_pd(-2.0);
  const __m256d dom_lo = _mm256_set1_pd(-1.0);
  __m256d dom_ok = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xi = _mm256_loadu_pd(x + i);
    dom_ok = _mm256_and_pd(dom_ok, _mm256_cmp_pd(xi, dom_lo, _CMP_GE_OQ));
    const __m256d x0 = _mm256_loadu_pd(x0p + i);
    const __m256d a1 = _mm256_loadu_pd(a1p + i);
    const __m256d a2 = _mm256_loadu_pd(a2p + i);
    const __m256d lt = _mm256_cmp_pd(xi, x0, _CMP_LT_OQ);
    const int mm = _mm256_movemask_pd(lt);
    const __m256d two_a2 = _mm256_add_pd(a2, a2);
    if (mm == 0xF) {
      // Uniform quadratic block: no reciprocal needed at all.
      if constexpr (kWantValue) {
        _mm256_storeu_pd(v + i,
                         _mm256_mul_pd(_mm256_fmadd_pd(a2, xi, a1), xi));
      }
      _mm256_storeu_pd(m1 + i, _mm256_fmadd_pd(two_a2, xi, a1));
      _mm256_storeu_pd(m2 + i, two_a2);
      continue;
    }
    const __m256d c = _mm256_loadu_pd(cp + i);
    const __m256d inv = _mm256_div_pd(one, xi);  // exact (vdivpd)
    const __m256d rat_m1 = _mm256_mul_pd(_mm256_mul_pd(c, inv), inv);
    const __m256d rat_m2 = _mm256_mul_pd(neg_two, _mm256_mul_pd(rat_m1, inv));
    if (mm == 0) {
      // Uniform rational block: skip the quadratic leg's stores.
      if constexpr (kWantValue) {
        _mm256_storeu_pd(
            v + i, _mm256_fnmadd_pd(c, inv, _mm256_add_pd(one, c)));
      }
      _mm256_storeu_pd(m1 + i, rat_m1);
      _mm256_storeu_pd(m2 + i, rat_m2);
      continue;
    }
    if constexpr (kWantValue) {
      const __m256d quad_v = _mm256_mul_pd(_mm256_fmadd_pd(a2, xi, a1), xi);
      const __m256d rat_v =
          _mm256_fnmadd_pd(c, inv, _mm256_add_pd(one, c));
      _mm256_storeu_pd(v + i, _mm256_blendv_pd(rat_v, quad_v, lt));
    }
    _mm256_storeu_pd(
        m1 + i,
        _mm256_blendv_pd(rat_m1, _mm256_fmadd_pd(two_a2, xi, a1), lt));
    _mm256_storeu_pd(m2 + i, _mm256_blendv_pd(rat_m2, two_a2, lt));
  }
  bool ok = _mm256_movemask_pd(dom_ok) == 0xF;
  for (; i < n; ++i) {
    const SreOps::P q = SreOps::load(soa, stride, i);
    ok &= SreOps::in_domain(q, x[i]);
    if constexpr (kWantValue) {
      SreOps::fused1(q, x[i], v[i], m1[i], m2[i]);
    } else {
      SreOps::deriv2_1(q, x[i], m1[i], m2[i]);
    }
  }
  NETMON_REQUIRE(ok, "utility argument out of domain");
}

}  // namespace

void sre_fused_avx2(const double* soa, std::size_t stride, const double* x,
                    double* v, double* m1, double* m2, std::size_t n) {
  sre_kernel<true>(soa, stride, x, v, m1, m2, n);
}

void sre_deriv2_avx2(const double* soa, std::size_t stride, const double* x,
                     double* m1, double* m2, std::size_t n) {
  sre_kernel<false>(soa, stride, x, nullptr, m1, m2, n);
}

void fill_affine_avx2(double* dst, const double* x0, const double* rd,
                      double t, std::size_t n) {
  const __m256d tv = _mm256_set1_pd(t);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i,
                     _mm256_fmadd_pd(tv, _mm256_loadu_pd(rd + i),
                                     _mm256_loadu_pd(x0 + i)));
  }
  for (; i < n; ++i) dst[i] = std::fma(t, rd[i], x0[i]);
}

}  // namespace netmon::core::kernels

#endif  // NETMON_HAVE_AVX2
