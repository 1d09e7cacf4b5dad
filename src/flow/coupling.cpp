#include "flow/coupling.hpp"

#include <stdexcept>

#include "linalg/kernels/kernels.hpp"

namespace nofis::flow {

namespace {
namespace kernels = linalg::kernels;
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
    Var xa = select_cols(x, mask_.pass);
    Var xb = select_cols(x, mask_.transform);
    Var h = net_.forward(xa);
    auto [yb, log_det] = affine_forward(xb, h, scale_cap_);
    Var y = combine_cols(xa, mask_.pass, yb, mask_.transform, mask_.dim);
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
    kernels::affine_fwd_rows(x.data(), h.data(), mask_.transform.data(), nb,
                             scale_cap_, mask_.dim, y.data(), log_det.data(), 0,
                             x.rows());
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
    kernels::affine_inv_rows(y.data(), h.data(), mask_.transform.data(), nb,
                             scale_cap_, mask_.dim, x.data(), log_det.data(), 0,
                             y.rows());
    return x;
}

}  // namespace nofis::flow
