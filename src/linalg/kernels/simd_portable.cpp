// Portable vectorized kernels: register-blocked loops annotated with
// `#pragma omp simd` (honored via -fopenmp-simd; plain auto-vectorizable
// loops otherwise). The inner j loops are lane-parallel over independent
// output elements, so vectorization never reassociates an accumulation:
// each out[j] still sums its k-terms in strictly ascending order, exactly
// like the scalar reference. This TU is compiled with -ffp-contract=off so
// no mul+add pair is fused into an FMA — bitwise equality with the scalar
// kernels is a hard contract, not a tolerance.

#include "linalg/kernels/scalar_math.hpp"
#include "linalg/kernels/table.hpp"

namespace nofis::linalg::kernels::detail {

namespace {

void linear_act_rows_portable(const double* x, const double* w,
                              const double* b, double* y, std::size_t r0,
                              std::size_t r1, std::size_t in, std::size_t out,
                              Act act) {
    for (std::size_t i = r0; i < r1; ++i) {
        const double* x_row = x + i * in;
        double* y_row = y + i * out;
#pragma omp simd
        for (std::size_t j = 0; j < out; ++j) y_row[j] = 0.0;
        std::size_t kk = 0;
        for (; kk + 4 <= in; kk += 4) {
            const double a0 = x_row[kk];
            const double a1 = x_row[kk + 1];
            const double a2 = x_row[kk + 2];
            const double a3 = x_row[kk + 3];
            const double* w0 = w + kk * out;
            const double* w1 = w0 + out;
            const double* w2 = w1 + out;
            const double* w3 = w2 + out;
#pragma omp simd
            for (std::size_t j = 0; j < out; ++j) {
                double acc = y_row[j];
                acc = acc + a0 * w0[j];
                acc = acc + a1 * w1[j];
                acc = acc + a2 * w2[j];
                acc = acc + a3 * w3[j];
                y_row[j] = acc;
            }
        }
        for (; kk < in; ++kk) {
            const double a = x_row[kk];
            const double* w_row = w + kk * out;
#pragma omp simd
            for (std::size_t j = 0; j < out; ++j) y_row[j] += a * w_row[j];
        }
        switch (act) {
            case Act::kNone:
#pragma omp simd
                for (std::size_t j = 0; j < out; ++j) y_row[j] += b[j];
                break;
            case Act::kTanh:
                for (std::size_t j = 0; j < out; ++j)
                    y_row[j] = k_tanh(y_row[j] + b[j]);
                break;
            case Act::kRelu:
#pragma omp simd
                for (std::size_t j = 0; j < out; ++j) {
                    const double v = y_row[j] + b[j];
                    y_row[j] = v > 0.0 ? v : 0.0;
                }
                break;
            case Act::kLeakyRelu:
#pragma omp simd
                for (std::size_t j = 0; j < out; ++j) {
                    const double v = y_row[j] + b[j];
                    y_row[j] = v > 0.0 ? v : 0.01 * v;
                }
                break;
            case Act::kSigmoid:
                for (std::size_t j = 0; j < out; ++j)
                    y_row[j] = k_sigmoid(y_row[j] + b[j]);
                break;
        }
    }
}

void ew_add_portable(const double* a, const double* b, double* out,
                     std::size_t n) {
#pragma omp simd
    for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void ew_sub_portable(const double* a, const double* b, double* out,
                     std::size_t n) {
#pragma omp simd
    for (std::size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void ew_mul_portable(const double* a, const double* b, double* out,
                     std::size_t n) {
#pragma omp simd
    for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void ew_scale_portable(const double* a, double s, double* out,
                       std::size_t n) {
#pragma omp simd
    for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * s;
}

void ew_tanh_bwd_portable(const double* y, const double* g, double* out,
                          std::size_t n) {
#pragma omp simd
    for (std::size_t i = 0; i < n; ++i) out[i] = g[i] * (1.0 - y[i] * y[i]);
}

}  // namespace

const Table& portable_table() {
    static const Table t = [] {
        Table tab;
        tab.linear_act_rows = linear_act_rows_portable;
        tab.ew_add = ew_add_portable;
        tab.ew_sub = ew_sub_portable;
        tab.ew_mul = ew_mul_portable;
        tab.ew_scale = ew_scale_portable;
        tab.ew_tanh_bwd = ew_tanh_bwd_portable;
        // The scalar loops, not copies of them: each element is one
        // k_tanh/k_exp call, which leaves a portable loop nothing to
        // vectorize (kernels.hpp), and Adam's std::sqrt keeps errno, which
        // stops the compiler from vectorizing its loop.
        const Table& scalar = scalar_table();
        tab.affine_fwd_rows = scalar.affine_fwd_rows;
        tab.affine_inv_rows = scalar.affine_inv_rows;
        tab.ew_tanh = scalar.ew_tanh;
        tab.ew_exp = scalar.ew_exp;
        tab.adam_step = scalar.adam_step;
        return tab;
    }();
    return t;
}

}  // namespace nofis::linalg::kernels::detail
