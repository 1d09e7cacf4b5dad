#pragma once

// 4-lane AVX2 mirrors of the deterministic transcendentals in
// scalar_math.hpp. Each function performs the EXACT operation sequence of
// its scalar twin, one IEEE-754 op per step, in the same order — mul, add,
// sub, div, floor, max/min clamp, then the final range/NaN blends — so
// every lane is bitwise identical to the scalar result. No FMA (this TU is
// built with -mavx2 only), no reassociation, no rsqrt/rcp approximations.
//
// tanh comes in parts (the two branches, the shared finish and the branch
// mask) because its one vector form is the split-branch pass in avx2.cpp,
// which runs each lane's branch only.
//
// When editing, change scalar_math.hpp first and transcribe: the scalar
// file is the specification, this file is its vectorization.

#include <immintrin.h>

#include "linalg/kernels/scalar_math.hpp"

namespace nofis::linalg::kernels::avx2 {

/// Vector pow2i: 2^n per lane via biased-exponent construction; exact.
inline __m256d pow2i4(__m128i n) {
    const __m256i wide = _mm256_cvtepi32_epi64(n);
    const __m256i bits = _mm256_slli_epi64(
        _mm256_add_epi64(wide, _mm256_set1_epi64x(1023)), 52);
    return _mm256_castsi256_pd(bits);
}

/// Lane-wise k_exp. See scalar_math.hpp for the algorithm commentary.
inline __m256d kexp4(__m256d x) {
    using namespace cephes;
    const __m256d lo = _mm256_set1_pd(kExpUnderflow);
    const __m256d hi = _mm256_set1_pd(kExpOverflow);
    // max/min match the scalar (a > b ? a : b) clamps: NaN lanes collapse
    // to the bound and are restored by the last blend.
    __m256d xm = _mm256_max_pd(x, lo);
    xm = _mm256_min_pd(xm, hi);

    __m256d w = _mm256_add_pd(_mm256_mul_pd(xm, _mm256_set1_pd(kLog2E)),
                              _mm256_set1_pd(0.5));
    w = _mm256_floor_pd(w);
    // w is integer-valued and clamped, so truncation == exact conversion.
    const __m128i n = _mm256_cvttpd_epi32(w);

    __m256d r = _mm256_sub_pd(xm, _mm256_mul_pd(w, _mm256_set1_pd(kExpC1)));
    r = _mm256_sub_pd(r, _mm256_mul_pd(w, _mm256_set1_pd(kExpC2)));
    const __m256d rr = _mm256_mul_pd(r, r);
    __m256d px = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(kExpP0), rr),
                               _mm256_set1_pd(kExpP1));
    px = _mm256_add_pd(_mm256_mul_pd(px, rr), _mm256_set1_pd(kExpP2));
    px = _mm256_mul_pd(r, px);
    __m256d qx = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(kExpQ0), rr),
                               _mm256_set1_pd(kExpQ1));
    qx = _mm256_add_pd(_mm256_mul_pd(qx, rr), _mm256_set1_pd(kExpQ2));
    qx = _mm256_add_pd(_mm256_mul_pd(qx, rr), _mm256_set1_pd(kExpQ3));
    __m256d e = _mm256_add_pd(
        _mm256_set1_pd(1.0),
        _mm256_mul_pd(_mm256_set1_pd(2.0),
                      _mm256_div_pd(px, _mm256_sub_pd(qx, px))));

    // n >> 1 (vpsrad floors like the scalar arithmetic shift), two exact
    // 2^n factors applied in the scalar's order.
    const __m128i n1 = _mm_srai_epi32(n, 1);
    const __m128i n2 = _mm_sub_epi32(n, n1);
    e = _mm256_mul_pd(_mm256_mul_pd(e, pow2i4(n1)), pow2i4(n2));

    e = _mm256_blendv_pd(e, _mm256_set1_pd(__builtin_inf()),
                         _mm256_cmp_pd(x, hi, _CMP_GT_OQ));
    e = _mm256_blendv_pd(e, _mm256_setzero_pd(),
                         _mm256_cmp_pd(x, lo, _CMP_LT_OQ));
    // Canonical (sign-cleared) NaN out, matching scalar k_abs semantics.
    const __m256d ax = _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
    e = _mm256_blendv_pd(e, ax, _mm256_cmp_pd(x, x, _CMP_UNORD_Q));
    return e;
}

/// Big-branch tanh numerator/denominator: (1 − s, 1 + s), s = e^(−2|x|).
inline void ktanh4_big(__m256d ax, __m256d* num, __m256d* den) {
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d s = kexp4(_mm256_mul_pd(_mm256_set1_pd(-2.0), ax));
    *num = _mm256_sub_pd(one, s);
    *den = _mm256_add_pd(one, s);
}

/// Small-branch tanh numerator/denominator: (|x|·(Q + x²·P), Q).
inline void ktanh4_small(__m256d ax, __m256d* num, __m256d* den) {
    using namespace cephes;
    const __m256d x2 = _mm256_mul_pd(ax, ax);
    __m256d p = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(kTanhP0), x2),
                              _mm256_set1_pd(kTanhP1));
    p = _mm256_add_pd(_mm256_mul_pd(p, x2), _mm256_set1_pd(kTanhP2));
    __m256d q = _mm256_add_pd(x2, _mm256_set1_pd(kTanhQ0));
    q = _mm256_add_pd(_mm256_mul_pd(q, x2), _mm256_set1_pd(kTanhQ1));
    q = _mm256_add_pd(_mm256_mul_pd(q, x2), _mm256_set1_pd(kTanhQ2));
    *num = _mm256_mul_pd(ax, _mm256_add_pd(q, _mm256_mul_pd(x2, p)));
    *den = q;
}

/// The tail k_tanh runs after either branch: the one division num/den, the
/// input's sign bit or-ed in, and the canonical NaN (ax = sign-cleared
/// input) for NaN lanes, same as the scalar.
inline __m256d ktanh4_finish(__m256d x, __m256d ax, __m256d num,
                             __m256d den) {
    __m256d t = _mm256_div_pd(num, den);
    t = _mm256_or_pd(t, _mm256_and_pd(x, _mm256_set1_pd(-0.0)));
    return _mm256_blendv_pd(t, ax, _mm256_cmp_pd(x, x, _CMP_UNORD_Q));
}

/// Lane mask of the lanes that take the exp branch (|x| ≥ 0.625). NaN
/// lanes compare false and ride the small branch, like the scalar.
inline __m256d ktanh4_bigmask(__m256d ax) {
    return _mm256_cmp_pd(ax, _mm256_set1_pd(cephes::kTanhBranch),
                         _CMP_GE_OQ);
}

/// Lane-wise k_sigmoid: 1/(1 + kexp4(−x)); negation is the same sign-bit
/// xor the scalar compiler emits for -x.
inline __m256d ksigmoid4(__m256d x) {
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d nx = _mm256_xor_pd(x, _mm256_set1_pd(-0.0));
    return _mm256_div_pd(one, _mm256_add_pd(one, kexp4(nx)));
}

}  // namespace nofis::linalg::kernels::avx2
