#include "estimators/problem.hpp"

#include <cmath>
#include <stdexcept>

#include "parallel/thread_pool.hpp"

namespace nofis::estimators {

double RareEventProblem::g_grad(std::span<const double> x,
                                std::span<double> grad_out) const {
    if (x.size() != dim() || grad_out.size() != dim())
        throw std::invalid_argument("g_grad: dimension mismatch");
    const double h = fd_step();
    std::vector<double> probe(x.begin(), x.end());
    for (std::size_t i = 0; i < dim(); ++i) {
        const double orig = probe[i];
        probe[i] = orig + h;
        const double fp = g(probe);
        probe[i] = orig - h;
        const double fm = g(probe);
        probe[i] = orig;
        grad_out[i] = (fp - fm) / (2.0 * h);
    }
    return g(x);
}

std::vector<double> RareEventProblem::g_rows(const linalg::Matrix& x) const {
    if (x.cols() != dim())
        throw std::invalid_argument("g_rows: dimension mismatch");
    std::vector<double> out(x.rows());
    parallel::for_each_index(
        x.rows(), [&](std::size_t r) { out[r] = g(x.row_span(r)); });
    return out;
}

std::vector<double> CountedProblem::g_rows(const linalg::Matrix& x) {
    if (x.cols() != dim())
        throw std::invalid_argument("g_rows: dimension mismatch");
    calls_.fetch_add(x.rows(), std::memory_order_relaxed);
    return p_->g_rows(x);
}

double log_error(double p_hat, double golden, double floor) {
    if (!(golden > 0.0))
        throw std::invalid_argument("log_error: golden must be positive");
    const double clipped = std::max(p_hat, floor);
    return std::abs(std::log(clipped) - std::log(golden));
}

}  // namespace nofis::estimators
