#include "flow/additive_coupling.hpp"

#include <stdexcept>

#include "autodiff/ops.hpp"

namespace nofis::flow {

AdditiveCoupling::AdditiveCoupling(std::size_t dim, bool pass_first_half,
                                   std::vector<std::size_t> hidden,
                                   rng::Engine& eng)
    : mask_(dim, pass_first_half, "AdditiveCoupling"),
      net_(mask_.conditioner_layout(hidden, kParamsPerDim),
           nn::Activation::kTanh, eng, /*out_gain=*/0.0) {}

FlowLayer::ForwardVar AdditiveCoupling::forward(const autodiff::Var& x) const {
    using namespace autodiff;
    if (x.cols() != mask_.dim)
        throw std::invalid_argument("AdditiveCoupling::forward: dim mismatch");
    Var xa = select_cols(x, mask_.pass);
    Var xb = select_cols(x, mask_.transform);
    Var t = net_.forward(xa);
    Var yb = add(xb, t);
    Var y = combine_cols(xa, mask_.pass, yb, mask_.transform, mask_.dim);
    // Volume preserving: log|det J| = 0 for every sample.
    Var log_det(linalg::Matrix(x.rows(), 1));
    return {y, log_det};
}

linalg::Matrix AdditiveCoupling::forward_values(
    const linalg::Matrix& x, std::vector<double>& log_det) const {
    if (x.cols() != mask_.dim || log_det.size() != x.rows())
        throw std::invalid_argument("AdditiveCoupling::forward_values");
    const linalg::Matrix t = net_.predict(x.select_cols(mask_.pass));
    linalg::Matrix y = x;
    for (std::size_t r = 0; r < x.rows(); ++r)
        for (std::size_t j = 0; j < mask_.transform.size(); ++j)
            y(r, mask_.transform[j]) += t(r, j);
    return y;
}

linalg::Matrix AdditiveCoupling::inverse_values(
    const linalg::Matrix& y, std::vector<double>& log_det) const {
    if (y.cols() != mask_.dim || log_det.size() != y.rows())
        throw std::invalid_argument("AdditiveCoupling::inverse_values");
    const linalg::Matrix t = net_.predict(y.select_cols(mask_.pass));
    linalg::Matrix x = y;
    for (std::size_t r = 0; r < y.rows(); ++r)
        for (std::size_t j = 0; j < mask_.transform.size(); ++j)
            x(r, mask_.transform[j]) -= t(r, j);
    return x;
}

}  // namespace nofis::flow
