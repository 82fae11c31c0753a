// Per-family utility math shared by the scalar virtuals, the scalar
// batch kernels and the explicit-SIMD batch kernels — one source of
// truth, so every dispatch level is bit-identical by construction.
//
// Layout contract (see opt::Concave1d::BatchKernel): parameters are
// structure-of-arrays, parameter j of term i at soa[j * stride + i].
// Each Ops struct gathers its pack with load(), states its domain with
// in_domain(), and computes value/deriv/second as BRANCH-FREE selects:
// both sides of the pivot are evaluated and the comparison picks one.
// The discarded lane may divide by zero — that is well-defined IEEE
// arithmetic (inf) and the result is never selected.
//
// Bit-exactness contract. The vector kernels (core/utility_avx2.cpp,
// core/utility_avx512.cpp) replay EXACTLY the operation sequence the Ops
// structs define, lane for lane: same divisions, same multiplication
// association, fused multiply-adds written explicitly as std::fma here
// and as vfmadd/vfnmadd intrinsics there (both correctly rounded, hence
// bitwise equal). Because of that the sequence below is a frozen
// contract — reassociating it changes results on every dispatch path at
// once (fine), but changing it in ONE path breaks the EXPECT_EQ gates in
// tests/opt_simd_dispatch_test.cpp. All three TUs that instantiate this
// math are compiled with -ffp-contract=off so the compiler can neither
// add nor remove fusions behind the source's back (relevant for the
// -march=x86-64-v3 CI leg, where contraction would otherwise kick in).
//
// The SRE family is restructured around ONE reciprocal: inv = 1/x is the
// only division, and value/deriv/second of the rational leg are derived
// from it multiplicatively. That single division is what the AVX kernels
// amortize (one vdivpd per 4/8 lanes).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "util/error.hpp"

namespace netmon::core::kernels {

/// SRE utility (paper eq. 7 linearized below the pivot x0):
///   M(x) = (a1 + a2 x) x        for x < x0
///   M(x) = 1 + c - c / x        for x >= x0
/// Pack layout {c, x0, a1, a2}; pivot parameter index 1 (x0).
///
/// Frozen operation sequence (shared with the vector kernels):
///   inv     = 1 / x                      — the only division
///   quad_v  = fma(a2, x, a1) * x
///   rat_v   = fma(-c, inv, 1 + c)        — = 1 + c - c/x up to rounding
///   quad_m1 = fma(a2 + a2, x, a1)
///   rat_m1  = (c * inv) * inv
///   quad_m2 = a2 + a2
///   rat_m2  = -2 * (rat_m1 * inv)
/// selected by the quiet ordered compare x < x0.
struct SreOps {
  struct P {
    double c, x0, a1, a2;
  };
  static inline P load(const double* soa, std::size_t stride,
                       std::size_t i) {
    return {soa[i], soa[stride + i], soa[2 * stride + i],
            soa[3 * stride + i]};
  }
  static inline bool in_domain(const P&, double x) { return x >= -1.0; }
  static inline double value(const P& q, double x) {
    const double inv = 1.0 / x;
    const double quad = std::fma(q.a2, x, q.a1) * x;
    const double rat = std::fma(-q.c, inv, 1.0 + q.c);
    return x < q.x0 ? quad : rat;
  }
  static inline double deriv(const P& q, double x) {
    const double inv = 1.0 / x;
    const double quad = std::fma(q.a2 + q.a2, x, q.a1);
    const double rat = (q.c * inv) * inv;
    return x < q.x0 ? quad : rat;
  }
  static inline double second(const P& q, double x) {
    const double inv = 1.0 / x;
    const double quad = q.a2 + q.a2;
    const double rat = -2.0 * (((q.c * inv) * inv) * inv);
    return x < q.x0 ? quad : rat;
  }
  /// All three from one reciprocal — what the fused kernels run. Each
  /// output is bit-identical to its standalone entry point above (the
  /// per-entry op sequences are the same; only the division is shared,
  /// and 1/x is a pure function of x).
  static inline void fused1(const P& q, double x, double& v, double& m1,
                            double& m2) {
    const double inv = 1.0 / x;
    const bool lt = x < q.x0;
    const double two_a2 = q.a2 + q.a2;
    v = lt ? std::fma(q.a2, x, q.a1) * x : std::fma(-q.c, inv, 1.0 + q.c);
    const double rat_m1 = (q.c * inv) * inv;
    m1 = lt ? std::fma(two_a2, x, q.a1) : rat_m1;
    m2 = lt ? two_a2 : -2.0 * (rat_m1 * inv);
  }
  static inline void deriv2_1(const P& q, double x, double& m1, double& m2) {
    const double inv = 1.0 / x;
    const bool lt = x < q.x0;
    const double two_a2 = q.a2 + q.a2;
    const double rat_m1 = (q.c * inv) * inv;
    m1 = lt ? std::fma(two_a2, x, q.a1) : rat_m1;
    m2 = lt ? two_a2 : -2.0 * (rat_m1 * inv);
  }
};

/// Logarithmic utility M(x) = ln(1 + x/eps). Pack layout {eps}.
/// Libm-bound (log1p): scalar-only, no vector variants.
struct LogOps {
  struct P {
    double eps;
  };
  static inline P load(const double* soa, std::size_t /*stride*/,
                       std::size_t i) {
    return {soa[i]};
  }
  static inline bool in_domain(const P& q, double x) { return x > -q.eps; }
  static inline double value(const P& q, double x) {
    return std::log1p(x / q.eps);
  }
  static inline double deriv(const P& q, double x) {
    return 1.0 / (q.eps + x);
  }
  static inline double second(const P& q, double x) {
    return -1.0 / ((q.eps + x) * (q.eps + x));
  }
  static inline void fused1(const P& q, double x, double& v, double& m1,
                            double& m2) {
    v = value(q, x);
    m1 = deriv(q, x);
    m2 = second(q, x);
  }
  static inline void deriv2_1(const P& q, double x, double& m1, double& m2) {
    m1 = deriv(q, x);
    m2 = second(q, x);
  }
};

/// Detection utility M(x) = 1 - (1-x)^S on the clamped rate. Pack {s}.
/// Libm-bound (expm1/exp/log1p): scalar-only, no vector variants.
struct DetectOps {
  struct P {
    double s;
  };
  static inline P load(const double* soa, std::size_t /*stride*/,
                       std::size_t i) {
    return {soa[i]};
  }
  static inline bool in_domain(const P&, double x) { return x >= -1e-9; }
  static inline double clamp_rate(double x) {
    return std::min(std::max(x, 0.0), 1.0 - 1e-12);
  }
  static inline double value(const P& q, double x) {
    const double c = clamp_rate(x);
    return -std::expm1(q.s * std::log1p(-c));  // 1 - (1-c)^S
  }
  static inline double deriv(const P& q, double x) {
    const double c = clamp_rate(x);
    return q.s * std::exp((q.s - 1.0) * std::log1p(-c));
  }
  static inline double second(const P& q, double x) {
    const double c = clamp_rate(x);
    return -q.s * (q.s - 1.0) * std::exp((q.s - 2.0) * std::log1p(-c));
  }
  static inline void fused1(const P& q, double x, double& v, double& m1,
                            double& m2) {
    v = value(q, x);
    m1 = deriv(q, x);
    m2 = second(q, x);
  }
  static inline void deriv2_1(const P& q, double x, double& m1, double& m2) {
    m1 = deriv(q, x);
    m2 = second(q, x);
  }
};

/// Domain pre-check over a whole run: a single fold, then one
/// NETMON_REQUIRE. (A domain violation is fatal either way; the vector
/// kernels fold the same check into their main loop and raise the same
/// error after the pass.)
template <typename Ops>
inline void check_domain(const double* soa, std::size_t stride,
                         const double* x, std::size_t n) {
  bool ok = true;
  for (std::size_t i = 0; i < n; ++i)
    ok &= Ops::in_domain(Ops::load(soa, stride, i), x[i]);
  NETMON_REQUIRE(ok, "utility argument out of domain");
}

// Scalar reference kernels. Instantiated ONLY in core/utility.cpp, which
// is pinned to -fno-tree-vectorize -ffp-contract=off: NETMON_SIMD=scalar
// means genuinely scalar execution, and the compiler cannot fuse or
// vectorize the reference path into something the leveled dispatch would
// then be compared against.

template <typename Ops>
void map_value(const double* soa, std::size_t stride,
               const double* __restrict x, double* __restrict out,
               std::size_t n) {
  check_domain<Ops>(soa, stride, x, n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = Ops::value(Ops::load(soa, stride, i), x[i]);
}

template <typename Ops>
void map_deriv(const double* soa, std::size_t stride,
               const double* __restrict x, double* __restrict out,
               std::size_t n) {
  check_domain<Ops>(soa, stride, x, n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = Ops::deriv(Ops::load(soa, stride, i), x[i]);
}

template <typename Ops>
void map_second(const double* soa, std::size_t stride,
                const double* __restrict x, double* __restrict out,
                std::size_t n) {
  check_domain<Ops>(soa, stride, x, n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = Ops::second(Ops::load(soa, stride, i), x[i]);
}

/// M, M', M'' from one pass over x — the fused evaluation kernel.
template <typename Ops>
void fused(const double* soa, std::size_t stride,
           const double* __restrict x, double* __restrict v,
           double* __restrict m1, double* __restrict m2, std::size_t n) {
  check_domain<Ops>(soa, stride, x, n);
  for (std::size_t i = 0; i < n; ++i)
    Ops::fused1(Ops::load(soa, stride, i), x[i], v[i], m1[i], m2[i]);
}

/// M', M'' only (line-search probes skip the value).
template <typename Ops>
void deriv2(const double* soa, std::size_t stride,
            const double* __restrict x, double* __restrict m1,
            double* __restrict m2, std::size_t n) {
  check_domain<Ops>(soa, stride, x, n);
  for (std::size_t i = 0; i < n; ++i)
    Ops::deriv2_1(Ops::load(soa, stride, i), x[i], m1[i], m2[i]);
}

/// Line-search probe points: dst[i] = fma(t, rd[i], x0[i]). The scalar
/// reference (core/utility.cpp) uses std::fma so the vector variants'
/// vfmadd produces the same bits; dispatched via fill_affine below.
void fill_affine_scalar(double* __restrict dst, const double* __restrict x0,
                        const double* __restrict rd, double t, std::size_t n);

#ifdef NETMON_HAVE_AVX2
// Explicit AVX2+FMA kernels (core/utility_avx2.cpp, compiled with
// -mavx2 -mfma). They replay the Ops sequence lane for lane with vdivpd.
void sre_fused_avx2(const double* soa, std::size_t stride, const double* x,
                    double* v, double* m1, double* m2, std::size_t n);
void sre_deriv2_avx2(const double* soa, std::size_t stride, const double* x,
                     double* m1, double* m2, std::size_t n);
void fill_affine_avx2(double* dst, const double* x0, const double* rd,
                      double t, std::size_t n);
#endif

#ifdef NETMON_HAVE_AVX512
// Explicit AVX-512F kernels (core/utility_avx512.cpp, -mavx512f -mavx512dq).
void sre_fused_avx512(const double* soa, std::size_t stride, const double* x,
                      double* v, double* m1, double* m2, std::size_t n);
void sre_deriv2_avx512(const double* soa, std::size_t stride,
                       const double* x, double* m1, double* m2,
                       std::size_t n);
void fill_affine_avx512(double* dst, const double* x0, const double* rd,
                        double t, std::size_t n);
#endif

}  // namespace netmon::core::kernels
