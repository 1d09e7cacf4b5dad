#include "latent/defensive_is.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "rng/normal.hpp"
#include "telemetry/telemetry.hpp"

namespace nofis::latent {

estimators::EstimateResult defensive_estimate(
    const flow::CouplingStack& trained_flow,
    const estimators::RareEventProblem& problem, rng::Engine& eng,
    std::size_t n_draws, const dist::GaussianMixture& refined, double alpha,
    estimators::IsDiagnostics* diag) {
    if (!(alpha > 0.0) || alpha > 1.0)
        throw std::invalid_argument(
            "latent::defensive_estimate: alpha must be in (0, 1]");
    const std::size_t d_dim = trained_flow.dim();
    if (refined.dim() != d_dim)
        throw std::invalid_argument(
            "latent::defensive_estimate: refined mixture dim mismatch");
    const std::size_t blocks = trained_flow.num_blocks();
    const telemetry::ScopedSpan is_span("final_is");
    telemetry::count("g_calls.final_is", n_draws);
    estimators::CountedProblem counted(problem);

    // Component choice per draw, then batched sampling of each component.
    const double lw_flow = std::log(alpha);
    const double lw_ref = std::log1p(-alpha);  // −inf at α = 1 (flow only)
    std::vector<bool> from_ref(n_draws);
    std::size_t n_ref = 0;
    for (std::size_t r = 0; r < n_draws; ++r) {
        from_ref[r] = eng.uniform() < 1.0 - alpha;
        if (from_ref[r]) ++n_ref;
    }
    const linalg::Matrix z_ref =
        n_ref > 0 ? refined.sample(eng, n_ref) : linalg::Matrix(0, d_dim);
    const linalg::Matrix z_base =
        rng::standard_normal_matrix(eng, n_draws - n_ref, d_dim);

    // Exact latent mixture log-density per draw (both components are
    // closed-form in base space; no inverse transport needed).
    linalg::Matrix z0(n_draws, d_dim);
    std::vector<double> log_q(n_draws);
    std::size_t ir = 0;
    std::size_t ib = 0;
    for (std::size_t r = 0; r < n_draws; ++r) {
        const auto row =
            from_ref[r] ? z_ref.row_span(ir++) : z_base.row_span(ib++);
        std::copy(row.begin(), row.end(), z0.row_span(r).begin());
        const double a = lw_flow + rng::standard_normal_log_pdf(row);
        const double b = lw_ref + refined.log_pdf(row);
        log_q[r] = estimators::log_add_exp(a, b);
    }

    // One forward transport for every draw; the pushforward density only
    // needs the forward log-det: log q_x(T(z)) = log q_z(z) − log|det J|.
    std::vector<double> log_det(n_draws, 0.0);
    const linalg::Matrix x =
        trained_flow.transport_range(z0, 0, blocks, log_det);
    for (std::size_t r = 0; r < n_draws; ++r) log_q[r] -= log_det[r];

    // Batched g (parallel, row-order call indices); serial row-order
    // reduction keeps the estimate bitwise identical at any thread count.
    const std::vector<double> g_vals = counted.g_rows(x);
    const estimators::IsEstimate is =
        estimators::importance_reduce(x, log_q, g_vals);
    estimators::EstimateResult res;
    res.p_hat = is.p_hat;
    res.calls = counted.calls();
    res.failed = !std::isfinite(res.p_hat);
    if (diag != nullptr) *diag = is.diag;
    return res;
}

}  // namespace nofis::latent
