#pragma once

#include <cstddef>
#include <optional>
#include <string>

namespace nofis::linalg::kernels {

/// Vectorized hot-path kernel layer (DESIGN.md §13).
///
/// Every kernel exists in two observable flavours selected at runtime:
///
///   * `scalar` — the serial reference table. Plain loops with the exact
///     operation order of the autodiff tape; this is the honest baseline
///     every vectorized kernel is bitwise-checked against.
///   * `simd`   — register-blocked, vectorized variants (AVX2 intrinsics
///     when the CPU has them, portable `#pragma omp simd`-style loops
///     otherwise).
///
/// Both flavours run the same value path (MLP::predict and the flow
/// layers' forward_values/inverse_values call the fused row kernels); the
/// choice only selects which table those calls dispatch to.
///
/// Determinism contract: for every kernel the per-output-element operation
/// and accumulation order is IDENTICAL across flavours and SIMD backends —
/// vectorization only widens the independent output lanes, never
/// reassociates a reduction. Which elements share a vector is free: the
/// AVX2 dense layer tiles four rows by eight columns, its one tanh packs
/// the lanes that take the exp branch into vectors of their own, and the
/// affine coupling runs that tanh over a buffer of s-values gathered
/// across rows, because each element still runs its own unchanged
/// sequence. Where a backend has nothing to vectorize it points its slot
/// at the scalar kernel itself. No FMA contraction is permitted
/// (`-ffp-contract=off` on the kernel translation units, and no TU is
/// built with -mfma). tanh/exp/sigmoid do NOT call libm: the kernel layer
/// owns deterministic Cephes-style ports (scalar_math.hpp) whose AVX2
/// mirrors (avx2_math.hpp) perform the identical operation sequence per
/// lane. Consequently `scalar` and `simd` produce bitwise-identical
/// results, including which outputs NaN/Inf inputs reach, and DESIGN.md
/// §8.2's any-thread-count bitwise guarantee holds unchanged for either
/// choice. One exception: where two NaNs of different sign or payload meet
/// in one dense-layer sum, which of them survives differs by backend
/// (KernelMath.MatmulBitsArePinned pins each backend's bits). (Swapping libm out re-baselined flow numerics by a few ulps vs
/// the pre-kernel goldens — the §8.2 re-baseline note records it.)
///
/// The active flavour comes from `--kernels auto|scalar|simd` (CLI) or the
/// NOFIS_KERNELS environment variable, `auto` (the default) resolving to
/// `simd`. Like `--threads`, the choice changes wall-clock only, never
/// results.
enum class Choice {
    kAuto,    ///< resolve to kSimd (best available backend)
    kScalar,  ///< serial reference kernels
    kSimd,    ///< vectorized kernels
};

/// Resolved active choice — never kAuto.
Choice active() noexcept;

/// Selects the kernel flavour (kAuto picks kSimd). Not safe to call
/// concurrently with in-flight numeric work, same caveat as
/// parallel::set_num_threads.
void set_choice(Choice c) noexcept;

/// Parses "auto" | "scalar" | "simd"; nullopt on anything else.
std::optional<Choice> parse_choice(const std::string& name) noexcept;

/// Name of the resolved active choice: "scalar" or "simd".
const char* choice_name() noexcept;

/// SIMD backend the `simd` flavour dispatches to on this machine:
/// "avx2" or "portable".
const char* simd_backend() noexcept;

/// Activation applied by the fused linear kernel (mirrors nn::Activation;
/// kept separate so linalg does not depend on nn).
enum class Act { kNone, kTanh, kRelu, kLeakyRelu, kSigmoid };

// --- batched row kernels -----------------------------------------------------
// All matrices are dense row-major. Row kernels operate on the row range
// [r0, r1) so parallel_for can tile them with disjoint writes (§8.2).

/// Dense layer, the one kernel behind every product x · W in the system:
/// y[i,:] = act(x[i,:] · W + b) for i in [r0, r1). W is (in x out)
/// row-major, b has `out` entries. Each output accumulates from +0.0 over
/// k in strictly ascending order, the bias is added after the full k-sum
/// and the activation is applied last. Matrix::matmul is this kernel with
/// a zero bias and Act::kNone: a sum that starts at +0.0 is never −0.0 in
/// round-to-nearest and a NaN stays the same NaN, so adding +0.0 changes
/// no bit of the product.
void linear_act_rows(const double* x, const double* w, const double* b,
                     double* y, std::size_t r0, std::size_t r1,
                     std::size_t in, std::size_t out, Act act);

/// Dense products below this many multiply-adds (rows · in · out) run
/// inline; larger ones tile their rows over the pool. The one fork rule of
/// Matrix::matmul and MLP::predict: below it the fork-join overhead beats
/// any speedup, as for the small conditioner layers.
inline constexpr std::size_t kParallelDenseMinOps = std::size_t{1} << 15;

/// Fused RealNVP affine-coupling forward transform for rows [r0, r1):
/// given the raw conditioner output h (rows x 2·nb), for each j < nb
///   s = scale_cap · tanh(h[i,j]),  t = h[i, j+nb],
///   y[i, idx_b[j]] = x[i, idx_b[j]] · exp(s) + t,
/// and log_det[i] += Σ_j s (ascending j). Passthrough columns of y must
/// already hold x's values (callers copy x into y first).
void affine_fwd_rows(const double* x, const double* h,
                     const std::size_t* idx_b, std::size_t nb,
                     double scale_cap, std::size_t dim, double* y,
                     double* log_det, std::size_t r0, std::size_t r1);

/// Inverse of affine_fwd_rows: x[i,c] = (y[i,c] − t) · exp(−s), with the
/// *forward* log-det (Σ_j s) added into log_det — the conditioner input
/// (the passthrough half) is identical in both directions.
void affine_inv_rows(const double* y, const double* h,
                     const std::size_t* idx_b, std::size_t nb,
                     double scale_cap, std::size_t dim, double* x,
                     double* log_det, std::size_t r0, std::size_t r1);

/// Row-broadcast affine map (ActNorm value path): for i in [r0, r1),
/// y[i,:] = x[i,:] ⊙ scale + shift, with scale/shift rows of length dim.
/// One scalar loop for every flavour: no backend vectorizes it.
void scale_shift_rows(const double* x, const double* scale,
                      const double* shift, double* y, std::size_t dim,
                      std::size_t r0, std::size_t r1);

// --- rational-quadratic spline coupling (DESIGN.md §14) ----------------------
// Monotone RQS transform (Durkan et al., "Neural Spline Flows"): per
// transformed column j the conditioner provides 3·num_bins+1 raw params
// (num_bins widths, num_bins heights, num_bins+1 knot derivatives) mapped
// to a spline on [-tail_bound, tail_bound] with identity tails. `h` rows
// are laid out as nb consecutive param groups of size 3·num_bins+1.
//
// These kernels ship only the scalar reference implementation, which
// every flavour calls directly (they have no table slot), so the
// scalar ≡ simd bitwise contract holds trivially. Unlike the affine
// kernels they may call libm log/sqrt/log1p —
// safe precisely because no independently-rounded vector variant exists;
// a future vectorized flavour must port those first (see scalar_math.hpp).

/// Hard cap on spline bins: lets the kernels use fixed stack buffers.
inline constexpr std::size_t kMaxRqsBins = 32;

/// Forward spline transform for rows [r0, r1): for each j < nb,
/// y[i, idx_b[j]] = RQS(x[i, idx_b[j]]; h[i, j-th group]) and
/// log_det[i] += Σ_j log RQS'(x) (ascending j). Passthrough columns of y
/// must already hold x's values (callers copy x into y first).
void rqs_fwd_rows(const double* x, const double* h, const std::size_t* idx_b,
                  std::size_t nb, std::size_t num_bins, double tail_bound,
                  std::size_t dim, double* y, double* log_det, std::size_t r0,
                  std::size_t r1);

/// Analytic inverse of rqs_fwd_rows, with the *forward* log-det at the
/// reconstructed input added into log_det — the conditioner input (the
/// passthrough half) is identical in both directions.
void rqs_inv_rows(const double* y, const double* h, const std::size_t* idx_b,
                  std::size_t nb, std::size_t num_bins, double tail_bound,
                  std::size_t dim, double* x, double* log_det, std::size_t r0,
                  std::size_t r1);

/// Reverse-mode backward of the forward transform on COMPACT inputs
/// (xb is rows x nb — transformed columns only). Given upstream grads
/// gy (rows x nb, ∂L/∂y elementwise) and gld (rows x 1, ∂L/∂log_det row
/// sums), ADDS ∂L/∂x into gx (rows x nb) and ∂L/∂h into gh (same layout
/// as h). Callers zero-initialise gx/gh.
void rqs_bwd_rows(const double* xb, const double* h, std::size_t nb,
                  std::size_t num_bins, double tail_bound, const double* gy,
                  const double* gld, double* gx, double* gh, std::size_t r0,
                  std::size_t r1);

// --- optimiser ---------------------------------------------------------------

/// One Adam step's constants (nn::Adam): the moment decays β₁ and β₂, the
/// bias corrections 1 − β₁ᵗ and 1 − β₂ᵗ, the learning rate and ε.
struct AdamStep {
    double beta1;
    double beta2;
    double bias1;
    double bias2;
    double lr;
    double eps;
};

/// Adam's update of n parameters p from their gradients g and moments m, v,
/// per element in this order and grouping:
///   m = β₁·m + (1 − β₁)·g,   v = β₂·v + ((1 − β₂)·g)·g,
///   p = p − (lr·(m / bias1)) / (√(v / bias2) + ε).
/// IEEE division and square root are correctly rounded, so a vector form
/// of the same sequence is bitwise the scalar loop; none may multiply by a
/// reciprocal instead of dividing.
void adam_step(double* p, const double* g, double* m, double* v,
               std::size_t n, const AdamStep& c);

// --- flat elementwise kernels (autodiff value & backward phases) -------------
// `out` may alias `a` (in-place accumulate forms); n may be 0.

void ew_add(const double* a, const double* b, double* out, std::size_t n);
void ew_sub(const double* a, const double* b, double* out, std::size_t n);
void ew_mul(const double* a, const double* b, double* out, std::size_t n);
void ew_scale(const double* a, double s, double* out, std::size_t n);
void ew_tanh(const double* a, double* out, std::size_t n);
void ew_exp(const double* a, double* out, std::size_t n);
/// Backward of tanh given its forward output y: out = g ⊙ (1 − y²).
void ew_tanh_bwd(const double* y, const double* g, double* out,
                 std::size_t n);

}  // namespace nofis::linalg::kernels
