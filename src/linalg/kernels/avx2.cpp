// AVX2 intrinsic kernels (x86-64). This TU is compiled with -mavx2 and
// -ffp-contract=off; every other TU stays on the baseline ISA, and the
// functions here are only ever reached after a runtime
// __builtin_cpu_supports("avx2") check in avx2_table().
//
// Bitwise contract: no FMA is ever emitted (-mavx2 without -mfma makes
// contraction impossible), and each output element accumulates its k-terms
// in the same ascending order as the scalar reference, so results are
// bit-identical to the scalar kernels (NaN payloads aside: kernels.hpp).
// tanh/exp/sigmoid use the 4-lane mirrors in avx2_math.hpp of the
// deterministic scalar ports in scalar_math.hpp — the one place where
// "same math" required owning the math instead of calling libm.
//
// Only the grouping of elements into vectors differs from the scalar
// loops: the fused dense layer computes four rows × eight columns per
// register tile, tanh runs the split-branch pass below, which packs the
// lanes taking the exp branch into vectors of their own, and the affine
// coupling gathers its s-values across rows into one buffer for that
// pass. None of them changes any element's operation sequence.

#include "linalg/kernels/table.hpp"

#if defined(__AVX2__) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

#include "linalg/kernels/avx2_math.hpp"

namespace nofis::linalg::kernels::detail {

namespace {

/// Lane mask for a partial (1–3 column) vector tail: lane u active iff
/// u < rem.
inline __m256i tail_mask(std::size_t rem) {
    return _mm256_set_epi64x(rem > 3 ? -1 : 0, rem > 2 ? -1 : 0,
                             rem > 1 ? -1 : 0, -1);
}

void ew_add_avx2(const double* a, const double* b, double* out,
                 std::size_t n) {
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(out + i, _mm256_add_pd(_mm256_loadu_pd(a + i),
                                                _mm256_loadu_pd(b + i)));
    for (; i < n; ++i) out[i] = a[i] + b[i];
}

void ew_sub_avx2(const double* a, const double* b, double* out,
                 std::size_t n) {
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(out + i, _mm256_sub_pd(_mm256_loadu_pd(a + i),
                                                _mm256_loadu_pd(b + i)));
    for (; i < n; ++i) out[i] = a[i] - b[i];
}

void ew_mul_avx2(const double* a, const double* b, double* out,
                 std::size_t n) {
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_loadu_pd(a + i),
                                                _mm256_loadu_pd(b + i)));
    for (; i < n; ++i) out[i] = a[i] * b[i];
}

void ew_scale_avx2(const double* a, double s, double* out, std::size_t n) {
    const __m256d vs = _mm256_set1_pd(s);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_loadu_pd(a + i), vs));
    for (; i < n; ++i) out[i] = a[i] * s;
}

void ew_tanh_bwd_avx2(const double* y, const double* g, double* out,
                      std::size_t n) {
    const __m256d one = _mm256_set1_pd(1.0);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d vy = _mm256_loadu_pd(y + i);
        const __m256d d = _mm256_sub_pd(one, _mm256_mul_pd(vy, vy));
        _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_loadu_pd(g + i), d));
    }
    for (; i < n; ++i) out[i] = g[i] * (1.0 - y[i] * y[i]);
}

// Split-branch tanh, the backend's one tanh: the dense layer's activation,
// ew_tanh and the affine coupling's s all run it. k_tanh takes the exp
// branch (two divisions: kexp4's and the tanh ratio) for |x| ≥ 0.625 and a
// rational one below, and the lanes of a vector of the flows'
// pre-activations often disagree. Rather than run both branches on all
// four lanes and blend, the split pass runs each value's branch only:
// pass 1 finishes every vector with the rational branch and packs the
// inputs of its big lanes (and where they go) into stack arrays; pass 2
// runs the exp branch four packed lanes at a time and scatters the
// results over pass 1's stores. Each lane still performs exactly k_tanh's
// operation sequence for its branch, so the bits are the scalar's.
// Vectors whose four lanes are all big run the exp branch in place,
// unpacked.

/// Values per split-tanh chunk. The packed lanes live in fixed stack
/// arrays (about 4 KiB), so the pass never allocates and its memory does
/// not grow with the batch.
constexpr std::size_t kTanhChunk = 256;

/// _mm256_permutevar8x32 indices moving the 64-bit lanes set in a 4-bit
/// mask to the front, in lane order (the slots past them repeat lane 0).
struct PackLut {
    alignas(32) std::int32_t idx[16][8];
};

constexpr PackLut make_pack_lut() {
    PackLut lut{};
    for (int m = 0; m < 16; ++m) {
        int to = 0;
        for (int u = 0; u < 4; ++u) {
            if (m & (1 << u)) {
                lut.idx[m][2 * to] = 2 * u;
                lut.idx[m][2 * to + 1] = 2 * u + 1;
                ++to;
            }
        }
    }
    return lut;
}

constexpr PackLut kPackLut = make_pack_lut();

/// out[i] = k_tanh(a[i]) for i in [i0, i1), i1 − i0 ≤ kTanhChunk and a
/// multiple of 4. Every store to out[i] comes after the load of a[i], so
/// out may alias a.
void tanh_chunk(const double* a, double* out, std::size_t i0,
                std::size_t i1) {
    // Uninitialised on purpose: pass 2 reads only the slots pass 1 packed.
    // The 4 slots of slack take the full-vector store at the cursor.
    alignas(32) double big_x[kTanhChunk + 4];
    alignas(32) std::int64_t big_at[kTanhChunk + 4];
    const __m256d signmask = _mm256_set1_pd(-0.0);
    const __m256i four = _mm256_set1_epi64x(4);
    // at = the positions i .. i + 3 of the current vector's lanes.
    __m256i at = _mm256_add_epi64(
        _mm256_set1_epi64x(static_cast<long long>(i0)),
        _mm256_setr_epi64x(0, 1, 2, 3));
    std::size_t nbig = 0;
    for (std::size_t i = i0; i < i1;
         i += 4, at = _mm256_add_epi64(at, four)) {
        const __m256d x = _mm256_loadu_pd(a + i);
        const __m256d ax = _mm256_andnot_pd(signmask, x);
        const int mm = _mm256_movemask_pd(avx2::ktanh4_bigmask(ax));
        __m256d num, den;
        if (mm == 0xF) {
            avx2::ktanh4_big(ax, &num, &den);
            _mm256_storeu_pd(out + i, avx2::ktanh4_finish(x, ax, num, den));
            continue;
        }
        avx2::ktanh4_small(ax, &num, &den);
        _mm256_storeu_pd(out + i, avx2::ktanh4_finish(x, ax, num, den));
        const __m256i perm = _mm256_load_si256(
            reinterpret_cast<const __m256i*>(kPackLut.idx[mm]));
        _mm256_storeu_pd(big_x + nbig,
                         _mm256_castsi256_pd(_mm256_permutevar8x32_epi32(
                             _mm256_castpd_si256(x), perm)));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(big_at + nbig),
                            _mm256_permutevar8x32_epi32(at, perm));
        nbig += static_cast<std::size_t>(__builtin_popcount(mm));
    }
    std::size_t k = 0;
    for (; k + 4 <= nbig; k += 4) {
        // Big lanes are never NaN, so ktanh4_finish's NaN blend keeps t.
        const __m256d x = _mm256_load_pd(big_x + k);
        const __m256d ax = _mm256_andnot_pd(signmask, x);
        __m256d num, den;
        avx2::ktanh4_big(ax, &num, &den);
        alignas(32) double t[4];
        _mm256_store_pd(t, avx2::ktanh4_finish(x, ax, num, den));
        for (std::size_t u = 0; u < 4; ++u) out[big_at[k + u]] = t[u];
    }
    for (; k < nbig; ++k) out[big_at[k]] = k_tanh(big_x[k]);
}

void ew_tanh_avx2(const double* a, double* out, std::size_t n) {
    const std::size_t nv = n & ~std::size_t{3};
    for (std::size_t i = 0; i < nv; i += kTanhChunk)
        tanh_chunk(a, out, i, std::min(nv, i + kTanhChunk));
    for (std::size_t i = nv; i < n; ++i) out[i] = k_tanh(a[i]);
}

void ew_exp_avx2(const double* a, double* out, std::size_t n) {
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(out + i, avx2::kexp4(_mm256_loadu_pd(a + i)));
    for (; i < n; ++i) out[i] = k_exp(a[i]);
}

/// 4-lane activation on v = y + b in the dense tile's epilogue, lane-wise
/// bitwise identical to the scalar k_* twins. kTanh is left to the
/// split-branch pass linear_act_rows_avx2 runs over the tiles' output, so
/// the tile stores its pre-activation.
__m256d epilogue_act4(__m256d v, Act act) {
    switch (act) {
        case Act::kNone:
        case Act::kTanh:
            return v;
        case Act::kRelu:
            // max(v, 0) == (v > 0 ? v : 0); NaN lanes take 0 like the
            // scalar ternary.
            return _mm256_max_pd(v, _mm256_setzero_pd());
        case Act::kLeakyRelu: {
            const __m256d leak = _mm256_mul_pd(_mm256_set1_pd(0.01), v);
            const __m256d pos =
                _mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_GT_OQ);
            return _mm256_blendv_pd(leak, v, pos);
        }
        case Act::kSigmoid:
            return avx2::ksigmoid4(v);
    }
    return v;
}

/// One register tile of the fused dense layer: R rows × NV four-column
/// vectors at column j (NV = 1 and only the `mask` lanes when Masked).
/// The R·NV accumulators stay in registers across the whole k loop, each
/// W load serves all R rows, and every element runs the scalar's chain
/// ((0 + x₀·w₀) + x₁·w₁) + … + b exactly. Masked lanes load 0.0 and are
/// never stored. GCC does not unroll these loops by itself, and rolled
/// they keep the accumulators in memory, hence the pragmas.
template <int R, int NV, bool Masked>
void dense_tile(const double* x, const double* w, const double* b, double* y,
                std::size_t in, std::size_t out, std::size_t j, Act act,
                __m256i mask) {
    static_assert(!Masked || NV == 1);
    __m256d acc[R][NV];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r)
#pragma GCC unroll 2
        for (int m = 0; m < NV; ++m) acc[r][m] = _mm256_setzero_pd();
    for (std::size_t kk = 0; kk < in; ++kk) {
        const double* wp = w + kk * out + j;
        __m256d wv[NV];
#pragma GCC unroll 2
        for (int m = 0; m < NV; ++m) {
            if constexpr (Masked)
                wv[m] = _mm256_maskload_pd(wp, mask);
            else
                wv[m] = _mm256_loadu_pd(wp + 4 * m);
        }
#pragma GCC unroll 4
        for (int r = 0; r < R; ++r) {
            const __m256d xv = _mm256_set1_pd(x[r * in + kk]);
#pragma GCC unroll 2
            for (int m = 0; m < NV; ++m)
                acc[r][m] =
                    _mm256_add_pd(acc[r][m], _mm256_mul_pd(xv, wv[m]));
        }
    }
#pragma GCC unroll 2
    for (int m = 0; m < NV; ++m) {
        __m256d bv;
        if constexpr (Masked)
            bv = _mm256_maskload_pd(b + j, mask);
        else
            bv = _mm256_loadu_pd(b + j + 4 * m);
#pragma GCC unroll 4
        for (int r = 0; r < R; ++r) {
            double* yp = y + r * out + j + 4 * m;
            const __m256d v =
                epilogue_act4(_mm256_add_pd(acc[r][m], bv), act);
            if constexpr (Masked)
                _mm256_maskstore_pd(yp, mask, v);
            else
                _mm256_storeu_pd(yp, v);
        }
    }
}

/// Rows [0, R) of x/y, every column: 8-column tiles, then a 4-column
/// tile, then a masked tile for the last 1–3 columns.
template <int R>
void dense_rows(const double* x, const double* w, const double* b, double* y,
                std::size_t in, std::size_t out, Act act) {
    const __m256i all = _mm256_set1_epi64x(-1);
    std::size_t j = 0;
    for (; j + 8 <= out; j += 8)
        dense_tile<R, 2, false>(x, w, b, y, in, out, j, act, all);
    if (j + 4 <= out) {
        dense_tile<R, 1, false>(x, w, b, y, in, out, j, act, all);
        j += 4;
    }
    if (j < out)
        dense_tile<R, 1, true>(x, w, b, y, in, out, j, act,
                               tail_mask(out - j));
}

void linear_act_rows_avx2(const double* x, const double* w, const double* b,
                          double* y, std::size_t r0, std::size_t r1,
                          std::size_t in, std::size_t out, Act act) {
    // With tanh, rows go in blocks of about one tanh chunk, and the split
    // pass runs over each block's outputs while they are still in L1.
    std::size_t block = r1 - r0;
    if (act == Act::kTanh && out > 0)
        block = std::max<std::size_t>(4, (kTanhChunk / out) & ~std::size_t{3});
    for (std::size_t b0 = r0; b0 < r1; b0 += block) {
        const std::size_t b1 = std::min(r1, b0 + block);
        std::size_t i = b0;
        for (; i + 4 <= b1; i += 4)
            dense_rows<4>(x + i * in, w, b, y + i * out, in, out, act);
        for (; i < b1; ++i)
            dense_rows<1>(x + i * in, w, b, y + i * out, in, out, act);
        if (act == Act::kTanh)
            ew_tanh_avx2(y + b0 * out, y + b0 * out, (b1 - b0) * out);
    }
}

/// dst[0, n) = src[0, n): four values at a time, then the last one to
/// three one by one. GCC compiles a plain copy loop to a string move (rep
/// movsq), whose start-up costs far more than a narrow row's copy.
void copy_run(const double* src, double* dst, std::size_t n) {
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4)
        _mm256_storeu_pd(dst + k, _mm256_loadu_pd(src + k));
    switch (n - k) {
        case 3:
            dst[k + 2] = src[k + 2];
            [[fallthrough]];
        case 2:
            dst[k + 1] = src[k + 1];
            [[fallthrough]];
        case 1:
            dst[k] = src[k];
    }
}

/// The affine coupling in both directions: for each (row, column) pair,
/// s = cap·tanh(h_s), then y = x·e^s + t (forward) or x = (y − t)·e^(−s)
/// (Inverse), and log_det[r] += Σ_j s in ascending j. The pairs go in
/// row-major order, at most kTanhChunk at a time: their s-half of h is
/// copied into a stack buffer (a row may span two buffers), the split
/// tanh, the cap multiply and the exp run over it, and then the pairs are
/// applied in order. Each element runs the scalar's sequence, so the bits
/// are the scalar kernels'.
template <bool Inverse>
void affine_rows_avx2(const double* in, const double* h,
                      const std::size_t* idx_b, std::size_t nb,
                      double scale_cap, std::size_t dim, double* out,
                      double* log_det, std::size_t r0, std::size_t r1) {
    if (nb == 0) {
        for (std::size_t r = r0; r < r1; ++r) log_det[r] += 0.0;
        return;
    }
    alignas(32) double s[kTanhChunk];
    alignas(32) double e[kTanhChunk];
    const __m256d cap = _mm256_set1_pd(scale_cap);
    const __m256d signmask = _mm256_set1_pd(-0.0);
    // (r, j) is the next pair to apply and ld row r's partial log-det; a
    // row may span two buffers.
    std::size_t r = r0, j = 0;
    double ld = 0.0;
    while (r < r1) {
        std::size_t n = 0;
        for (std::size_t gr = r, gj = j; gr < r1 && n < kTanhChunk;
             ++gr, gj = 0) {
            const std::size_t run = std::min(nb - gj, kTanhChunk - n);
            copy_run(h + gr * 2 * nb + gj, s + n, run);
            n += run;
        }
        ew_tanh_avx2(s, s, n);
        std::size_t k = 0;
        for (; k + 4 <= n; k += 4) {
            const __m256d sv = _mm256_mul_pd(cap, _mm256_load_pd(s + k));
            const __m256d arg = Inverse ? _mm256_xor_pd(sv, signmask) : sv;
            _mm256_store_pd(s + k, sv);
            _mm256_store_pd(e + k, avx2::kexp4(arg));
        }
        for (; k < n; ++k) {
            s[k] = scale_cap * s[k];
            e[k] = k_exp(Inverse ? -s[k] : s[k]);
        }
        for (k = 0; k < n; ++k) {
            const double t = h[r * 2 * nb + nb + j];
            const std::size_t at = r * dim + idx_b[j];
            out[at] = Inverse ? (in[at] - t) * e[k] : in[at] * e[k] + t;
            ld += s[k];
            if (++j == nb) {
                log_det[r++] += ld;
                ld = 0.0;
                j = 0;
            }
        }
    }
}

}  // namespace

const Table* avx2_table() {
    if (!__builtin_cpu_supports("avx2")) return nullptr;
    static const Table t = [] {
        Table tab;
        tab.linear_act_rows = linear_act_rows_avx2;
        tab.affine_fwd_rows = affine_rows_avx2<false>;
        tab.affine_inv_rows = affine_rows_avx2<true>;
        tab.ew_add = ew_add_avx2;
        tab.ew_sub = ew_sub_avx2;
        tab.ew_mul = ew_mul_avx2;
        tab.ew_scale = ew_scale_avx2;
        tab.ew_tanh = ew_tanh_avx2;
        tab.ew_exp = ew_exp_avx2;
        tab.ew_tanh_bwd = ew_tanh_bwd_avx2;
        return tab;
    }();
    return &t;
}

}  // namespace nofis::linalg::kernels::detail

#else  // not compiled as AVX2 / not x86

namespace nofis::linalg::kernels::detail {
const Table* avx2_table() { return nullptr; }
}  // namespace nofis::linalg::kernels::detail

#endif
