// Serial reference kernels. These loops define the numeric contract: the
// exact per-output-element operation and accumulation order every SIMD /
// fused variant must reproduce bitwise. They intentionally contain no
// sparsity shortcuts — a zero multiplier must still multiply so that
// 0·NaN == NaN and non-finite divergence propagates to all_finite() checks.
//
// tanh/exp/sigmoid go through the deterministic k_* ports in
// scalar_math.hpp, not libm — libm is the one piece of the pipeline whose
// rounding we do not control, and the AVX2 backend mirrors k_* op-for-op.
//
// The kernels with one implementation, the ActNorm scale-shift and the
// splines, follow the table: no backend has a vector variant of them, so
// they have no slot and every flavour calls them directly.

#include <cmath>

#include "linalg/kernels/scalar_math.hpp"
#include "linalg/kernels/table.hpp"

namespace nofis::linalg::kernels {

namespace detail {

namespace {

double apply_act(double v, Act act) {
    switch (act) {
        case Act::kNone:
            return v;
        case Act::kTanh:
            return k_tanh(v);
        case Act::kRelu:
            return v > 0.0 ? v : 0.0;
        case Act::kLeakyRelu:
            return v > 0.0 ? v : 0.01 * v;
        case Act::kSigmoid:
            return k_sigmoid(v);
    }
    return v;
}

void linear_act_rows_scalar(const double* x, const double* w, const double* b,
                            double* y, std::size_t r0, std::size_t r1,
                            std::size_t in, std::size_t out, Act act) {
    for (std::size_t i = r0; i < r1; ++i) {
        const double* x_row = x + i * in;
        double* y_row = y + i * out;
        // Accumulate from zero in ascending-k order, bias strictly after the
        // full sum — the same order as matmul followed by add_row_broadcast.
        for (std::size_t j = 0; j < out; ++j) y_row[j] = 0.0;
        for (std::size_t kk = 0; kk < in; ++kk) {
            const double a = x_row[kk];
            const double* w_row = w + kk * out;
            for (std::size_t j = 0; j < out; ++j) y_row[j] += a * w_row[j];
        }
        for (std::size_t j = 0; j < out; ++j)
            y_row[j] = apply_act(y_row[j] + b[j], act);
    }
}

void affine_fwd_rows_scalar(const double* x, const double* h,
                            const std::size_t* idx_b, std::size_t nb,
                            double scale_cap, std::size_t dim, double* y,
                            double* log_det, std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
        const double* h_row = h + r * (2 * nb);
        double ld = 0.0;
        for (std::size_t j = 0; j < nb; ++j) {
            const double s = scale_cap * k_tanh(h_row[j]);
            const double t = h_row[j + nb];
            const std::size_t c = idx_b[j];
            y[r * dim + c] = x[r * dim + c] * k_exp(s) + t;
            ld += s;
        }
        log_det[r] += ld;
    }
}

void affine_inv_rows_scalar(const double* y, const double* h,
                            const std::size_t* idx_b, std::size_t nb,
                            double scale_cap, std::size_t dim, double* x,
                            double* log_det, std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
        const double* h_row = h + r * (2 * nb);
        double ld = 0.0;
        for (std::size_t j = 0; j < nb; ++j) {
            const double s = scale_cap * k_tanh(h_row[j]);
            const double t = h_row[j + nb];
            const std::size_t c = idx_b[j];
            x[r * dim + c] = (y[r * dim + c] - t) * k_exp(-s);
            ld += s;
        }
        log_det[r] += ld;
    }
}

void ew_add_scalar(const double* a, const double* b, double* out,
                   std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void ew_sub_scalar(const double* a, const double* b, double* out,
                   std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void ew_mul_scalar(const double* a, const double* b, double* out,
                   std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void ew_scale_scalar(const double* a, double s, double* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * s;
}

void ew_tanh_scalar(const double* a, double* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = k_tanh(a[i]);
}

void ew_exp_scalar(const double* a, double* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = k_exp(a[i]);
}

void ew_tanh_bwd_scalar(const double* y, const double* g, double* out,
                        std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = g[i] * (1.0 - y[i] * y[i]);
}

void adam_step_scalar(double* p, const double* g, double* m, double* v,
                      std::size_t n, const AdamStep& c) {
    for (std::size_t k = 0; k < n; ++k) {
        m[k] = c.beta1 * m[k] + (1.0 - c.beta1) * g[k];
        v[k] = c.beta2 * v[k] + (1.0 - c.beta2) * g[k] * g[k];
        const double mhat = m[k] / c.bias1;
        const double vhat = v[k] / c.bias2;
        p[k] -= c.lr * mhat / (std::sqrt(vhat) + c.eps);
    }
}

}  // namespace

const Table& scalar_table() {
    static const Table t = [] {
        Table tab;
        tab.linear_act_rows = linear_act_rows_scalar;
        tab.affine_fwd_rows = affine_fwd_rows_scalar;
        tab.affine_inv_rows = affine_inv_rows_scalar;
        tab.ew_add = ew_add_scalar;
        tab.ew_sub = ew_sub_scalar;
        tab.ew_mul = ew_mul_scalar;
        tab.ew_scale = ew_scale_scalar;
        tab.ew_tanh = ew_tanh_scalar;
        tab.ew_exp = ew_exp_scalar;
        tab.ew_tanh_bwd = ew_tanh_bwd_scalar;
        tab.adam_step = adam_step_scalar;
        return tab;
    }();
    return t;
}

}  // namespace detail

void scale_shift_rows(const double* x, const double* scale,
                      const double* shift, double* y, std::size_t dim,
                      std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r)
        for (std::size_t c = 0; c < dim; ++c)
            y[r * dim + c] = x[r * dim + c] * scale[c] + shift[c];
}

// --- rational-quadratic splines (DESIGN.md §14) ------------------------------
// Per-element monotone RQS transform after Durkan et al., "Neural Spline
// Flows". All spline arithmetic lives in THIS translation unit (compiled
// with -ffp-contract=off like every kernel TU) and every flavour calls
// these functions, so the bitwise scalar ≡ simd and tape ≡ value-path
// guarantees hold by construction. std::log/std::sqrt/std::log1p are
// permitted (unlike tanh/exp) because no independently-rounded vector
// variant of these kernels exists — see the note in kernels.hpp.

namespace {

/// Fraction of the interval each bin keeps at minimum (keeps softmax bins
/// from collapsing and the log-det finite).
constexpr double kRqsMinBin = 1e-3;
/// Floor on knot derivatives (keeps the transform strictly monotone).
constexpr double kRqsMinDeriv = 1e-3;

/// Stable softplus log(1 + e^x) built on the deterministic k_exp.
double rqs_softplus(double x) {
    const double ax = k_abs(x);
    const double base = x > 0.0 ? x : 0.0;
    return base + std::log1p(k_exp(-ax));
}

/// Raw-parameter offset chosen so that zero raw derivatives map to slope
/// exactly 1: kRqsMinDeriv + softplus(shift) == 1.
double rqs_deriv_shift() {
    static const double shift = std::log(std::expm1(1.0 - kRqsMinDeriv));
    return shift;
}

/// Scratch for one spline instance: knot positions/heights/derivatives plus
/// the softmax weights needed by the backward pass.
struct RqsKnots {
    double xk[kMaxRqsBins + 1];
    double yk[kMaxRqsBins + 1];
    double dk[kMaxRqsBins + 1];
    double sw[kMaxRqsBins];  ///< softmax width weights (sum 1)
    double sh[kMaxRqsBins];  ///< softmax height weights (sum 1)
};

/// Maps the 3K+1 raw params `p` (K widths, K heights, K+1 derivatives) to
/// knots on [-B, B]. The last knot is pinned to exactly B (the softmax
/// weights sum to 1 mathematically; pinning removes cumsum rounding so the
/// bin search and the tail test agree on the boundary).
void rqs_build(const double* p, std::size_t K, double B, RqsKnots& kn) {
    const double span = 2.0 * B;
    const double floor_w = span * kRqsMinBin;
    const double free_w = span * (1.0 - static_cast<double>(K) * kRqsMinBin);
    for (int which = 0; which < 2; ++which) {
        const double* raw = p + (which == 0 ? 0 : K);
        double* sm = which == 0 ? kn.sw : kn.sh;
        double* knot = which == 0 ? kn.xk : kn.yk;
        double m = raw[0];
        for (std::size_t k = 1; k < K; ++k) m = raw[k] > m ? raw[k] : m;
        double sum = 0.0;
        for (std::size_t k = 0; k < K; ++k) {
            sm[k] = k_exp(raw[k] - m);
            sum += sm[k];
        }
        const double inv = 1.0 / sum;
        double acc = -B;
        knot[0] = -B;
        for (std::size_t k = 0; k < K; ++k) {
            sm[k] *= inv;
            acc += floor_w + free_w * sm[k];
            knot[k + 1] = acc;
        }
        knot[K] = B;
    }
    const double shift = rqs_deriv_shift();
    for (std::size_t k = 0; k <= K; ++k)
        kn.dk[k] = kRqsMinDeriv + rqs_softplus(p[2 * K + k] + shift);
}

/// Bin index of `v` against ascending knots; v must be in [-B, B].
std::size_t rqs_bin(double v, const double* knots, std::size_t K) {
    std::size_t k = 0;
    while (k + 1 < K && v >= knots[k + 1]) ++k;
    return k;
}

/// Forward transform of one element; writes log|dy/dx| into *logd.
/// Outside [-B, B] (and for NaN) the map is the identity with log-det 0.
double rqs_fwd_one(double x, const RqsKnots& kn, std::size_t K, double B,
                   double* logd) {
    if (!(x >= -B && x <= B)) {
        *logd = 0.0;
        return x;
    }
    const std::size_t k = rqs_bin(x, kn.xk, K);
    const double w = kn.xk[k + 1] - kn.xk[k];
    const double hb = kn.yk[k + 1] - kn.yk[k];
    const double s = hb / w;
    const double xi = (x - kn.xk[k]) / w;
    const double u = xi * (1.0 - xi);
    const double c2 = kn.dk[k] + kn.dk[k + 1] - 2.0 * s;
    const double den = s + c2 * u;
    const double num = s * xi * xi + kn.dk[k] * u;
    const double omxi = 1.0 - xi;
    const double mid = kn.dk[k + 1] * xi * xi + 2.0 * s * u +
                       kn.dk[k] * omxi * omxi;
    *logd = std::log((s * s * mid) / (den * den));
    return kn.yk[k] + hb * (num / den);
}

/// Inverse of rqs_fwd_one via the numerically stable quadratic root;
/// writes the FORWARD log-det at the reconstructed input into *logd.
double rqs_inv_one(double y, const RqsKnots& kn, std::size_t K, double B,
                   double* logd) {
    if (!(y >= -B && y <= B)) {
        *logd = 0.0;
        return y;
    }
    const std::size_t k = rqs_bin(y, kn.yk, K);
    const double w = kn.xk[k + 1] - kn.xk[k];
    const double hb = kn.yk[k + 1] - kn.yk[k];
    const double s = hb / w;
    const double dy = y - kn.yk[k];
    const double c2 = kn.dk[k] + kn.dk[k + 1] - 2.0 * s;
    const double qa = hb * (s - kn.dk[k]) + dy * c2;
    const double qb = hb * kn.dk[k] - dy * c2;
    const double qc = -s * dy;
    double disc = qb * qb - 4.0 * qa * qc;
    disc = disc > 0.0 ? disc : 0.0;  // clamp -0/rounding dust
    const double xi = (2.0 * qc) / (-qb - std::sqrt(disc));
    const double u = xi * (1.0 - xi);
    const double den = s + c2 * u;
    const double omxi = 1.0 - xi;
    const double mid = kn.dk[k + 1] * xi * xi + 2.0 * s * u +
                       kn.dk[k] * omxi * omxi;
    *logd = std::log((s * s * mid) / (den * den));
    return kn.xk[k] + xi * w;
}

}  // namespace

void rqs_fwd_rows(const double* x, const double* h, const std::size_t* idx_b,
                  std::size_t nb, std::size_t num_bins, double tail_bound,
                  std::size_t dim, double* y, double* log_det, std::size_t r0,
                  std::size_t r1) {
    const std::size_t group = 3 * num_bins + 1;
    RqsKnots kn;
    for (std::size_t r = r0; r < r1; ++r) {
        const double* h_row = h + r * (nb * group);
        double ld = 0.0;
        for (std::size_t j = 0; j < nb; ++j) {
            rqs_build(h_row + j * group, num_bins, tail_bound, kn);
            const std::size_t c = idx_b[j];
            double el = 0.0;
            y[r * dim + c] =
                rqs_fwd_one(x[r * dim + c], kn, num_bins, tail_bound, &el);
            ld += el;
        }
        log_det[r] += ld;
    }
}

void rqs_inv_rows(const double* y, const double* h, const std::size_t* idx_b,
                  std::size_t nb, std::size_t num_bins, double tail_bound,
                  std::size_t dim, double* x, double* log_det, std::size_t r0,
                  std::size_t r1) {
    const std::size_t group = 3 * num_bins + 1;
    RqsKnots kn;
    for (std::size_t r = r0; r < r1; ++r) {
        const double* h_row = h + r * (nb * group);
        double ld = 0.0;
        for (std::size_t j = 0; j < nb; ++j) {
            rqs_build(h_row + j * group, num_bins, tail_bound, kn);
            const std::size_t c = idx_b[j];
            double el = 0.0;
            x[r * dim + c] =
                rqs_inv_one(y[r * dim + c], kn, num_bins, tail_bound, &el);
            ld += el;
        }
        log_det[r] += ld;
    }
}

namespace {

/// Backward of one spline element: accumulates ∂L/∂x into *gx and ∂L/∂raw
/// params into gp[0..3K]. gy_el is ∂L/∂y, gl is ∂L/∂(this element's logd).
void rqs_bwd_one(double x, const double* p, const RqsKnots& kn,
                 std::size_t K, double B, double gy_el, double gl, double* gx,
                 double* gp) {
    if (!(x >= -B && x <= B)) {
        *gx += gy_el;  // identity tail: dy/dx = 1, logd ≡ 0
        return;
    }
    const std::size_t k = rqs_bin(x, kn.xk, K);
    const double w = kn.xk[k + 1] - kn.xk[k];
    const double hb = kn.yk[k + 1] - kn.yk[k];
    const double s = hb / w;
    const double xi = (x - kn.xk[k]) / w;
    const double u = xi * (1.0 - xi);
    const double omxi = 1.0 - xi;
    const double d0 = kn.dk[k];
    const double d1 = kn.dk[k + 1];
    const double c2 = d0 + d1 - 2.0 * s;
    const double den = s + c2 * u;
    const double num = s * xi * xi + d0 * u;
    const double mid = d1 * xi * xi + 2.0 * s * u + d0 * omxi * omxi;

    // Partials of num/den/mid w.r.t. the local variables (ξ, s, d0, d1).
    const double one_m2xi = 1.0 - 2.0 * xi;
    const double num_xi = 2.0 * s * xi + d0 * one_m2xi;
    const double den_xi = c2 * one_m2xi;
    const double mid_xi = 2.0 * (d1 * xi + s * one_m2xi - d0 * omxi);
    const double inv_den = 1.0 / den;
    const double inv_den2 = inv_den * inv_den;

    // y = yk + hb·num/den, logd = log(s²·mid/den²).
    const double y_xi = hb * (num_xi * den - num * den_xi) * inv_den2;
    const double y_s = hb * (xi * xi * den - num * (1.0 - 2.0 * u)) * inv_den2;
    const double y_d0 = hb * (u * den - num * u) * inv_den2;
    const double y_d1 = -hb * num * u * inv_den2;
    const double inv_mid = 1.0 / mid;
    const double l_xi = mid_xi * inv_mid - 2.0 * den_xi * inv_den;
    const double l_s = 2.0 / s + 2.0 * u * inv_mid -
                       2.0 * (1.0 - 2.0 * u) * inv_den;
    const double l_d0 = omxi * omxi * inv_mid - 2.0 * u * inv_den;
    const double l_d1 = xi * xi * inv_mid - 2.0 * u * inv_den;

    const double g_xi = gy_el * y_xi + gl * l_xi;
    const double g_s = gy_el * y_s + gl * l_s;
    const double g_d0 = gy_el * y_d0 + gl * l_d0;
    const double g_d1 = gy_el * y_d1 + gl * l_d1;
    const double g_hb = gy_el * (num * inv_den) + g_s / w;  // s = hb/w
    const double g_yk = gy_el;
    const double g_w = -(g_s * s + g_xi * xi) / w;  // via s and ξ
    const double g_xk = -g_xi / w;
    *gx += g_xi / w;

    // Chain knot grads through cumsum → scaled softmax → raw widths/heights.
    // width_i = 2B·kMinBin + span_free·softmax_i; xk_k sees width_i for
    // i < k, w sees width_k (and symmetrically for heights/yk_k/hb).
    // Softmax backward: g_raw_j = sm_j·(g_sm_j − Σ_i g_sm_i·sm_i).
    const double span_free =
        2.0 * B * (1.0 - static_cast<double>(K) * kRqsMinBin);
    double wsum_lt = 0.0;
    double hsum_lt = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
        wsum_lt += kn.sw[i];
        hsum_lt += kn.sh[i];
    }
    const double wdot = span_free * (g_xk * wsum_lt + g_w * kn.sw[k]);
    const double hdot = span_free * (g_yk * hsum_lt + g_hb * kn.sh[k]);
    for (std::size_t i = 0; i < K; ++i) {
        const double gsw =
            span_free * ((i < k ? g_xk : 0.0) + (i == k ? g_w : 0.0));
        gp[i] += kn.sw[i] * (gsw - wdot);
        const double gsh =
            span_free * ((i < k ? g_yk : 0.0) + (i == k ? g_hb : 0.0));
        gp[K + i] += kn.sh[i] * (gsh - hdot);
    }
    // derivatives: d = kRqsMinDeriv + softplus(raw + shift).
    const double shift = rqs_deriv_shift();
    gp[2 * K + k] += g_d0 * k_sigmoid(p[2 * K + k] + shift);
    gp[2 * K + k + 1] += g_d1 * k_sigmoid(p[2 * K + k + 1] + shift);
}

}  // namespace

void rqs_bwd_rows(const double* xb, const double* h, std::size_t nb,
                  std::size_t num_bins, double tail_bound, const double* gy,
                  const double* gld, double* gx, double* gh, std::size_t r0,
                  std::size_t r1) {
    const std::size_t group = 3 * num_bins + 1;
    RqsKnots kn;
    for (std::size_t r = r0; r < r1; ++r) {
        const double* h_row = h + r * (nb * group);
        double* gh_row = gh + r * (nb * group);
        const double gl = gld[r];
        for (std::size_t j = 0; j < nb; ++j) {
            const double* p = h_row + j * group;
            rqs_build(p, num_bins, tail_bound, kn);
            rqs_bwd_one(xb[r * nb + j], p, kn, num_bins, tail_bound,
                        gy[r * nb + j], gl, &gx[r * nb + j],
                        gh_row + j * group);
        }
    }
}

}  // namespace nofis::linalg::kernels
