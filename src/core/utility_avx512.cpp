// Explicit AVX-512F/DQ instantiations of the SRE batch kernels.
//
// Compiled with -O3 -mavx512f -mavx512dq -ffp-contract=off (see
// src/CMakeLists.txt); only called after opt::simd_max_level() has
// confirmed AVX-512F+DQ via CPUID. Same frozen-sequence bit-exactness
// contract as core/utility_avx2.cpp, with two AVX-512 twists:
//
//  - regime selection uses __mmask8 compares (_mm512_cmp_pd_mask) and
//    _mm512_mask_blend_pd instead of sign-bit blendv;
//  - remainders run through the SAME vector body under a tail mask
//    (_mm512_maskz_loadu_pd / _mm512_mask_storeu_pd) — masked-off lanes
//    load 0.0, whose worst case is an inf in the discarded rational leg.
#ifdef NETMON_HAVE_AVX512

#include <immintrin.h>

#include "core/utility_kernels.hpp"

namespace netmon::core::kernels {

namespace {

/// One 8-lane step of the frozen SreOps sequence under lane mask `active`
/// (0xFF for full vectors, the tail mask for the remainder).
template <bool kWantValue>
inline void sre_step(const double* cp, const double* x0p, const double* a1p,
                     const double* a2p, const double* x, double* v,
                     double* m1, double* m2, std::size_t i, __mmask8 active,
                     __mmask8& dom_bad) {
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d neg_two = _mm512_set1_pd(-2.0);
  const __m512d xi = _mm512_maskz_loadu_pd(active, x + i);
  // Domain: ok lanes satisfy x >= -1.0 (quiet compare, so NaN lanes read
  // as violations, matching the scalar reference).
  const __mmask8 ok =
      _mm512_cmp_pd_mask(xi, _mm512_set1_pd(-1.0), _CMP_GE_OQ);
  dom_bad |= static_cast<__mmask8>(active & ~ok);
  const __m512d x0 = _mm512_maskz_loadu_pd(active, x0p + i);
  const __m512d a1 = _mm512_maskz_loadu_pd(active, a1p + i);
  const __m512d a2 = _mm512_maskz_loadu_pd(active, a2p + i);
  const __mmask8 lt = _mm512_cmp_pd_mask(xi, x0, _CMP_LT_OQ);
  const __m512d two_a2 = _mm512_add_pd(a2, a2);
  if (static_cast<__mmask8>(lt | ~active) == 0xFF) {
    // Uniform quadratic block: no reciprocal needed at all.
    if constexpr (kWantValue) {
      _mm512_mask_storeu_pd(v + i, active,
                            _mm512_mul_pd(_mm512_fmadd_pd(a2, xi, a1), xi));
    }
    _mm512_mask_storeu_pd(m1 + i, active, _mm512_fmadd_pd(two_a2, xi, a1));
    _mm512_mask_storeu_pd(m2 + i, active, two_a2);
    return;
  }
  const __m512d c = _mm512_maskz_loadu_pd(active, cp + i);
  const __m512d inv = _mm512_div_pd(one, xi);  // exact (vdivpd)
  const __m512d rat_m1 = _mm512_mul_pd(_mm512_mul_pd(c, inv), inv);
  const __m512d rat_m2 = _mm512_mul_pd(neg_two, _mm512_mul_pd(rat_m1, inv));
  if (static_cast<__mmask8>(lt & active) == 0) {
    // Uniform rational block: skip the quadratic leg.
    if constexpr (kWantValue) {
      _mm512_mask_storeu_pd(
          v + i, active, _mm512_fnmadd_pd(c, inv, _mm512_add_pd(one, c)));
    }
    _mm512_mask_storeu_pd(m1 + i, active, rat_m1);
    _mm512_mask_storeu_pd(m2 + i, active, rat_m2);
    return;
  }
  if constexpr (kWantValue) {
    const __m512d quad_v = _mm512_mul_pd(_mm512_fmadd_pd(a2, xi, a1), xi);
    const __m512d rat_v = _mm512_fnmadd_pd(c, inv, _mm512_add_pd(one, c));
    _mm512_mask_storeu_pd(v + i, active,
                          _mm512_mask_blend_pd(lt, rat_v, quad_v));
  }
  _mm512_mask_storeu_pd(
      m1 + i, active,
      _mm512_mask_blend_pd(lt, rat_m1, _mm512_fmadd_pd(two_a2, xi, a1)));
  _mm512_mask_storeu_pd(m2 + i, active,
                        _mm512_mask_blend_pd(lt, rat_m2, two_a2));
}

template <bool kWantValue>
inline void sre_kernel(const double* soa, std::size_t stride,
                       const double* __restrict x, double* __restrict v,
                       double* __restrict m1, double* __restrict m2,
                       std::size_t n) {
  const double* __restrict cp = soa;
  const double* __restrict x0p = soa + stride;
  const double* __restrict a1p = soa + 2 * stride;
  const double* __restrict a2p = soa + 3 * stride;
  __mmask8 dom_bad = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    sre_step<kWantValue>(cp, x0p, a1p, a2p, x, v, m1, m2, i, 0xFF, dom_bad);
  }
  if (i < n) {
    const __mmask8 tail =
        static_cast<__mmask8>((1u << (n - i)) - 1u);
    sre_step<kWantValue>(cp, x0p, a1p, a2p, x, v, m1, m2, i, tail, dom_bad);
  }
  NETMON_REQUIRE(dom_bad == 0, "utility argument out of domain");
}

}  // namespace

void sre_fused_avx512(const double* soa, std::size_t stride, const double* x,
                      double* v, double* m1, double* m2, std::size_t n) {
  sre_kernel<true>(soa, stride, x, v, m1, m2, n);
}

void sre_deriv2_avx512(const double* soa, std::size_t stride,
                       const double* x, double* m1, double* m2,
                       std::size_t n) {
  sre_kernel<false>(soa, stride, x, nullptr, m1, m2, n);
}

void fill_affine_avx512(double* dst, const double* x0, const double* rd,
                        double t, std::size_t n) {
  const __m512d tv = _mm512_set1_pd(t);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(dst + i,
                     _mm512_fmadd_pd(tv, _mm512_loadu_pd(rd + i),
                                     _mm512_loadu_pd(x0 + i)));
  }
  if (i < n) {
    const __mmask8 tail = static_cast<__mmask8>((1u << (n - i)) - 1u);
    _mm512_mask_storeu_pd(
        dst + i, tail,
        _mm512_fmadd_pd(tv, _mm512_maskz_loadu_pd(tail, rd + i),
                        _mm512_maskz_loadu_pd(tail, x0 + i)));
  }
}

}  // namespace netmon::core::kernels

#endif  // NETMON_HAVE_AVX512
