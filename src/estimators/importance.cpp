#include "estimators/importance.hpp"

#include <limits>
#include <stdexcept>

#include "rng/normal.hpp"

namespace nofis::estimators {

IsEstimate importance_reduce(const linalg::Matrix& x,
                             std::span<const double> log_q,
                             std::span<const double> g) {
    const std::size_t n = x.rows();
    if (log_q.size() != n || g.size() != n)
        throw std::invalid_argument("importance_reduce: size mismatch");
    IsEstimate est;
    IsDiagnostics& d = est.diag;
    d.draws = n;
    double sum_w = 0.0;  // over hits: the Eq. (2) numerator
    double sum_w2 = 0.0;
    double all_sum_w = 0.0;
    double all_sum_w2 = 0.0;
    bool g_unknown = false;
    for (std::size_t r = 0; r < n; ++r) {
        const double w =
            std::exp(rng::standard_normal_log_pdf(x.row_span(r)) - log_q[r]);
        all_sum_w += w;
        all_sum_w2 += w * w;
        if (!std::isfinite(g[r])) {
            g_unknown = true;
            continue;
        }
        if (g[r] > 0.0) continue;
        sum_w += w;
        sum_w2 += w * w;
        d.max_weight = std::max(d.max_weight, w);
        ++d.hits;
    }
    est.p_hat = g_unknown ? std::numeric_limits<double>::quiet_NaN()
                          : sum_w / static_cast<double>(n);
    d.effective_sample_size = sum_w2 > 0.0 ? (sum_w * sum_w) / sum_w2 : 0.0;
    d.ess_all =
        all_sum_w2 > 0.0 ? (all_sum_w * all_sum_w) / all_sum_w2 : 0.0;
    if (n > 0 && all_sum_w > 0.0) {
        const double mean_w = all_sum_w / static_cast<double>(n);
        const double var_w = std::max(
            all_sum_w2 / static_cast<double>(n) - mean_w * mean_w, 0.0);
        d.weight_cv = std::sqrt(var_w) / mean_w;
    }
    return est;
}

}  // namespace nofis::estimators
