#include "flow/rqs_coupling.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/kernels/kernels.hpp"

namespace nofis::flow {

namespace {
namespace kernels = linalg::kernels;
}  // namespace

RqsCoupling::RqsCoupling(std::size_t dim, bool pass_first_half,
                         std::vector<std::size_t> hidden, rng::Engine& eng,
                         std::size_t num_bins, double tail_bound)
    : mask_(dim, pass_first_half, "RqsCoupling"),
      num_bins_(num_bins),
      tail_bound_(tail_bound),
      net_([&] {
          if (num_bins == 0 || num_bins > kernels::kMaxRqsBins)
              throw std::invalid_argument(
                  "RqsCoupling: num_bins must be in [1, " +
                  std::to_string(kernels::kMaxRqsBins) + "]");
          if (!std::isfinite(tail_bound) || tail_bound <= 0.0)
              throw std::invalid_argument(
                  "RqsCoupling: tail_bound must be finite and positive");
          return nn::MLP(
              mask_.conditioner_layout(hidden, params_per_dim(num_bins)),
              nn::Activation::kTanh, eng, /*out_gain=*/0.0);
      }()) {}

FlowLayer::ForwardVar RqsCoupling::forward(const autodiff::Var& x) const {
    using namespace autodiff;
    if (x.cols() != mask_.dim)
        throw std::invalid_argument("RqsCoupling::forward: dim mismatch");
    Var xa = select_cols(x, mask_.pass);
    Var xb = select_cols(x, mask_.transform);
    Var h = net_.forward(xa);
    auto [yb, log_det] = rqs_forward(xb, h, num_bins_, tail_bound_);
    Var y = combine_cols(xa, mask_.pass, yb, mask_.transform, mask_.dim);
    return {y, log_det};
}

linalg::Matrix RqsCoupling::forward_values(
    const linalg::Matrix& x, std::vector<double>& log_det) const {
    if (x.cols() != mask_.dim)
        throw std::invalid_argument("RqsCoupling::forward_values: dim");
    if (log_det.size() != x.rows())
        throw std::invalid_argument("RqsCoupling::forward_values: log_det");

    const std::size_t nb = mask_.transform.size();
    const linalg::Matrix h = net_.predict(x.select_cols(mask_.pass));
    linalg::Matrix y = x;
    kernels::rqs_fwd_rows(x.data(), h.data(), mask_.transform.data(), nb,
                          num_bins_, tail_bound_, mask_.dim, y.data(),
                          log_det.data(), 0, x.rows());
    return y;
}

linalg::Matrix RqsCoupling::inverse_values(
    const linalg::Matrix& y, std::vector<double>& log_det) const {
    if (y.cols() != mask_.dim)
        throw std::invalid_argument("RqsCoupling::inverse_values: dim");
    if (log_det.size() != y.rows())
        throw std::invalid_argument("RqsCoupling::inverse_values: log_det");

    // y_A == x_A, so the conditioner sees the same input as in forward.
    const std::size_t nb = mask_.transform.size();
    const linalg::Matrix h = net_.predict(y.select_cols(mask_.pass));
    linalg::Matrix x = y;
    kernels::rqs_inv_rows(y.data(), h.data(), mask_.transform.data(), nb,
                          num_bins_, tail_bound_, mask_.dim, x.data(),
                          log_det.data(), 0, y.rows());
    return x;
}

}  // namespace nofis::flow
