#include "flow/coupling.hpp"

#include <numeric>
#include <stdexcept>

#include "linalg/kernels/kernels.hpp"
#include "parallel/thread_pool.hpp"

namespace nofis::flow {

namespace {

namespace kernels = linalg::kernels;

/// Transformed elements below this count run inline; each element costs a
/// tanh + exp, so the bar is much lower than the matmul threshold.
constexpr std::size_t kParallelAffineMinElems = 1u << 12;

}  // namespace

AffineCoupling::AffineCoupling(std::size_t dim, bool pass_first_half,
                               std::vector<std::size_t> hidden,
                               rng::Engine& eng, double scale_cap)
    : mask_(dim, pass_first_half, "AffineCoupling"),
      scale_cap_(scale_cap),
      net_(mask_.conditioner_layout(hidden, kParamsPerDim),
           nn::Activation::kTanh, eng, /*out_gain=*/0.0) {}

FlowLayer::ForwardVar AffineCoupling::forward(const autodiff::Var& x) const {
    using namespace autodiff;
    if (x.cols() != mask_.dim)
        throw std::invalid_argument("AffineCoupling::forward: dim mismatch");
    const std::size_t nb = mask_.transform.size();

    Var xa = select_cols(x, mask_.pass);
    Var xb = select_cols(x, mask_.transform);
    Var h = net_.forward(xa);

    std::vector<std::size_t> s_idx(nb);
    std::vector<std::size_t> t_idx(nb);
    std::iota(s_idx.begin(), s_idx.end(), std::size_t{0});
    std::iota(t_idx.begin(), t_idx.end(), nb);

    Var s = scale(tanh_v(select_cols(h, s_idx)), scale_cap_);
    Var t = select_cols(h, t_idx);

    Var yb = add(mul(xb, exp_v(s)), t);
    Var y = combine_cols(xa, mask_.pass, yb, mask_.transform, mask_.dim);
    Var log_det = row_sums(s);
    return {y, log_det};
}

linalg::Matrix AffineCoupling::forward_values(
    const linalg::Matrix& x, std::vector<double>& log_det) const {
    if (x.cols() != mask_.dim)
        throw std::invalid_argument("AffineCoupling::forward_values: dim");
    if (log_det.size() != x.rows())
        throw std::invalid_argument("AffineCoupling::forward_values: log_det");

    // The raw conditioner output h feeds affine_fwd_rows directly — no s/t
    // temporaries, tanh/exp applied in the same order as the tape forward so
    // results stay bitwise identical to it.
    const std::size_t nb = mask_.transform.size();
    const linalg::Matrix h = net_.predict(x.select_cols(mask_.pass));
    linalg::Matrix y = x;
    auto row_range = [&](std::size_t r0, std::size_t r1) {
        kernels::affine_fwd_rows(x.data(), h.data(), mask_.transform.data(), nb,
                                 scale_cap_, mask_.dim, y.data(),
                                 log_det.data(), r0, r1);
    };
    if (x.rows() * nb >= kParallelAffineMinElems)
        parallel::parallel_for(x.rows(), row_range);
    else
        row_range(0, x.rows());
    return y;
}

linalg::Matrix AffineCoupling::inverse_values(
    const linalg::Matrix& y, std::vector<double>& log_det) const {
    if (y.cols() != mask_.dim)
        throw std::invalid_argument("AffineCoupling::inverse_values: dim");
    if (log_det.size() != y.rows())
        throw std::invalid_argument("AffineCoupling::inverse_values: log_det");

    // y_A == x_A, so the conditioner sees the same input as in forward.
    const std::size_t nb = mask_.transform.size();
    const linalg::Matrix h = net_.predict(y.select_cols(mask_.pass));
    linalg::Matrix x = y;
    auto row_range = [&](std::size_t r0, std::size_t r1) {
        kernels::affine_inv_rows(y.data(), h.data(), mask_.transform.data(), nb,
                                 scale_cap_, mask_.dim, x.data(),
                                 log_det.data(), r0, r1);
    };
    if (y.rows() * nb >= kParallelAffineMinElems)
        parallel::parallel_for(y.rows(), row_range);
    else
        row_range(0, y.rows());
    return x;
}

}  // namespace nofis::flow
