#pragma once

#include <span>
#include <vector>

#include "autodiff/var.hpp"

namespace nofis::autodiff {

/// Reverse-mode ops over Matrix-valued Vars.
///
/// Every op returns a fresh Var whose node records parents and a backward
/// closure. Gradient flow is pruned automatically: a result requires grad
/// only if some parent does, and the backward closure only deposits into
/// parents that require grad — this is what implements the paper's
/// freeze-earlier-blocks training (frozen parameters simply opt out).

// --- binary ------------------------------------------------------------------
Var matmul(const Var& a, const Var& b);
Var add(const Var& a, const Var& b);
Var sub(const Var& a, const Var& b);
/// Element-wise (Hadamard) product.
Var mul(const Var& a, const Var& b);
/// x + bias with bias (1 x cols) broadcast over rows.
Var add_bias(const Var& x, const Var& bias);

// --- unary / scalar ------------------------------------------------------------
Var neg(const Var& a);
Var scale(const Var& a, double s);
Var add_const(const Var& a, double c);
Var tanh_v(const Var& a);
Var sigmoid_v(const Var& a);
Var relu_v(const Var& a);
Var leaky_relu_v(const Var& a, double slope = 0.01);
Var exp_v(const Var& a);
/// Natural log; caller guarantees positive inputs.
Var log_v(const Var& a);
Var softplus_v(const Var& a);
Var square_v(const Var& a);
/// Element-wise product with a constant (non-differentiated) matrix.
Var hadamard_const(const Var& a, const linalg::Matrix& c);

// --- fused nodes ---------------------------------------------------------------
// One node where the tape used to chain elementwise ops (DESIGN.md §13.4).
// Each forward is the kernel the value path runs, so tape and value path
// agree bitwise; each backward keeps the chain's operation sequence per
// element, so every gradient keeps its bits.

/// Dense layer act(x·W + b) with b (1 x cols(W)): linalg::linear_act
/// forward. The backward forms the activation derivative as tanh_v,
/// sigmoid_v, relu_v and leaky_relu_v do (ReLU tests the pre-activation,
/// so a NaN there passes its gradient), then b's gradient by col_sums, x's
/// by δ·Wᵀ and W's by xᵀ·δ through Matrix::matmul. Act::kLeakyRelu has the
/// kernels' slope, 0.01.
Var dense(const Var& x, const Var& w, const Var& b, linalg::kernels::Act act);

/// The affine coupling's transform (AffineCoupling::forward): with
/// h = [h_s | h_t] (n x 2·nb) and s = cap·tanh(h_s), returns
/// y = x_b ⊙ e^s + h_t (n x nb) and the per-row log|det J| = Σ_j s (n x 1),
/// with kernels::affine_fwd_rows's values. Both outputs select from one
/// node valued [y | log_det], whose one backward sees both upstream
/// gradients and forms ∂/∂h_s = ((g·x_b·e^s + g_ld)·cap)·(1 − tanh²) as the
/// eight-op chain did: a per-output backward would distribute the cap over
/// the sum, which rounds differently. An output no loss reaches has a zero
/// gradient, as with rqs_forward.
struct AffineForward {
    Var y;
    Var log_det;
};
AffineForward affine_forward(const Var& xb, const Var& h, double cap);

/// Differentiable monotone rational-quadratic spline transform (DESIGN.md
/// §14). `xb` (n x nb) holds the transformed coordinates; `h`
/// (n x nb·(3·num_bins+1)) the raw conditioner output, one param group per
/// column of xb. Returns y (n x nb) and the per-row log|det J| (n x 1).
/// Values come from the dispatched kernels::rqs_fwd_rows, so the tape and
/// value paths agree bitwise; the backward pass is the analytic
/// kernels::rqs_bwd_rows (property-tested against finite differences).
struct RqsForward {
    Var y;
    Var log_det;
};
RqsForward rqs_forward(const Var& xb, const Var& h, std::size_t num_bins,
                       double tail_bound);

// --- reductions ----------------------------------------------------------------
/// Sum of all elements -> 1x1.
Var sum(const Var& a);
/// Mean of all elements -> 1x1.
Var mean(const Var& a);
/// Row-wise sums -> (rows x 1).
Var row_sums(const Var& a);

// --- structural ------------------------------------------------------------------
/// Copy of the columns selected by idx (gradient scatters back).
Var select_cols(const Var& a, std::span<const std::size_t> idx);
/// Builds an (rows x total_cols) matrix placing a's columns at idx_a and b's
/// at idx_b; the two index sets must partition [0, total_cols).
Var combine_cols(const Var& a, std::span<const std::size_t> idx_a,
                 const Var& b, std::span<const std::size_t> idx_b,
                 std::size_t total_cols);

/// <a, c> = Σ_ij a_ij c_ij as a 1x1 Var. The constant c is typically an
/// externally-computed gradient (e.g. ∂/∂z of a black-box tempered target),
/// making this the injection point for non-graph gradient information:
/// d(result)/da = c exactly.
Var dot_constant(const Var& a, const linalg::Matrix& c);

}  // namespace nofis::autodiff
