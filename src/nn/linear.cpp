#include "nn/linear.hpp"

#include <cmath>

namespace nofis::nn {

Linear::Linear(std::size_t in, std::size_t out, rng::Engine& eng, double gain)
    : in_(in), out_(out) {
    linalg::Matrix w(in, out);
    const double bound =
        gain * std::sqrt(6.0 / static_cast<double>(in + out));
    for (double& v : w.flat()) v = eng.uniform(-bound, bound);
    weight_ = autodiff::Var(std::move(w), /*requires_grad=*/true);
    bias_ = autodiff::Var(linalg::Matrix(1, out), /*requires_grad=*/true);
}

autodiff::Var Linear::forward(const autodiff::Var& x,
                              linalg::kernels::Act act) const {
    return autodiff::dense(x, weight_, bias_, act);
}

}  // namespace nofis::nn
