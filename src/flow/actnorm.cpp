#include "flow/actnorm.hpp"

#include <stdexcept>
#include <vector>

#include "autodiff/ops.hpp"
#include "linalg/kernels/kernels.hpp"
#include "linalg/kernels/scalar_math.hpp"

namespace nofis::flow {

ActNorm::ActNorm(std::size_t dim)
    : dim_(dim),
      log_scale_(linalg::Matrix(1, dim), /*requires_grad=*/true),
      shift_(linalg::Matrix(1, dim), /*requires_grad=*/true) {
    if (dim == 0) throw std::invalid_argument("ActNorm: dim must be > 0");
}

FlowLayer::ForwardVar ActNorm::forward(const autodiff::Var& x) const {
    using namespace autodiff;
    if (x.cols() != dim_)
        throw std::invalid_argument("ActNorm::forward: dim mismatch");
    const std::size_t n = x.rows();
    // Broadcast the 1 x d parameters over the batch by materialising the
    // row-replicated scale: y = x ⊙ exp(S) + B with S, B broadcast.
    // exp(s) broadcast: build via add_bias on a zero matrix (cheap trick
    // that keeps the graph simple and exact).
    Var zero(linalg::Matrix(n, dim_));
    Var s_rows = add_bias(zero, log_scale_);  // n x d, each row = log_scale
    Var y = add_bias(mul(x, exp_v(s_rows)), shift_);
    // log|det J| per sample = Σ_d log_scale_d (same for all rows).
    Var log_det = row_sums(s_rows);
    return {y, log_det};
}

linalg::Matrix ActNorm::forward_values(const linalg::Matrix& x,
                                       std::vector<double>& log_det) const {
    if (x.cols() != dim_ || log_det.size() != x.rows())
        throw std::invalid_argument("ActNorm::forward_values");
    const auto& s = log_scale_.value();
    const auto& b = shift_.value();
    double ld = 0.0;
    for (std::size_t c = 0; c < dim_; ++c) ld += s(0, c);
    // Hoist the per-column exp out of the batch loop — exp of the same
    // input is the same double, so this is bitwise-identical to the tape
    // forward while doing dim exps instead of rows·dim.
    std::vector<double> scale(dim_);
    for (std::size_t c = 0; c < dim_; ++c)
        scale[c] = linalg::kernels::k_exp(s(0, c));
    linalg::Matrix y(x.rows(), dim_);
    linalg::kernels::scale_shift_rows(x.data(), scale.data(), b.data(),
                                      y.data(), dim_, 0, x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r) log_det[r] += ld;
    return y;
}

linalg::Matrix ActNorm::inverse_values(const linalg::Matrix& y,
                                       std::vector<double>& log_det) const {
    if (y.cols() != dim_ || log_det.size() != y.rows())
        throw std::invalid_argument("ActNorm::inverse_values");
    const auto& s = log_scale_.value();
    const auto& b = shift_.value();
    double ld = 0.0;
    for (std::size_t c = 0; c < dim_; ++c) ld += s(0, c);
    linalg::Matrix x = y;
    for (std::size_t r = 0; r < y.rows(); ++r) {
        for (std::size_t c = 0; c < dim_; ++c)
            x(r, c) = (y(r, c) - b(0, c)) * linalg::kernels::k_exp(-s(0, c));
        log_det[r] += ld;
    }
    return x;
}

}  // namespace nofis::flow
