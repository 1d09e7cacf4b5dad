#include "latent/chain.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "rng/normal.hpp"

namespace nofis::latent {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// min(τ(a − g), 0): the tempered log-indicator of Eq. (6)/(9). Non-finite
/// g (a clamped fault or a propagated ±inf) maps to −inf so the state is
/// never preferred.
double tempered_log_weight(double tau, double a, double g) noexcept {
    if (std::isnan(g)) return kNegInf;
    const double t = tau * (a - g);
    if (std::isnan(t)) return kNegInf;
    return std::min(t, 0.0);
}

/// Metropolis decision with defined behaviour at −inf targets: a chain
/// whose current state became unsupported (level tightened past it) escapes
/// on the first supported proposal instead of comparing −inf − −inf = NaN.
bool accept_move(double u, double cur_lt, double prop_lt) noexcept {
    if (prop_lt == kNegInf || std::isnan(prop_lt)) return false;
    if (cur_lt == kNegInf || std::isnan(cur_lt)) return true;
    return std::log(u) < prop_lt - cur_lt;
}

}  // namespace

ExploreResult explore(const flow::CouplingStack& trained_flow,
                      const estimators::RareEventProblem& problem,
                      const ChainConfig& cfg, std::uint64_t master_seed) {
    const std::size_t k = cfg.chains;
    const std::size_t s = cfg.steps;
    if (k == 0 || s == 0)
        throw std::invalid_argument("latent::explore: chains and steps must be >= 1");
    const std::size_t d = trained_flow.dim();
    if (problem.dim() != d)
        throw std::invalid_argument("latent::explore: flow/problem dim mismatch");
    const std::size_t blocks = trained_flow.num_blocks();
    // Random-walk proposal stddev in base space: the classic Roberts–
    // Rosenthal scaling.
    const double sigma = 2.38 / std::sqrt(static_cast<double>(d));
    const AnnealSchedule sched(cfg.anneal, cfg.a_start, s);

    // One substream per chain: stable under chain-count changes, no draws
    // shared with the caller's engine beyond the master seed.
    std::vector<rng::Engine> eng;
    eng.reserve(k);
    for (std::size_t i = 0; i < k; ++i)
        eng.push_back(rng::substream(master_seed, i));

    ExploreResult res;
    const std::size_t burn_in = s / 2;
    const std::size_t kept_steps = s - burn_in;
    res.harvest = linalg::Matrix(kept_steps * k, d);
    res.harvest_chain.reserve(kept_steps * k);

    // Initial states: z_i ~ N(0, I) from each chain's own substream, then
    // one batched g over the pushforwards (row-order call indices).
    linalg::Matrix z_cur(k, d);
    for (std::size_t i = 0; i < k; ++i)
        rng::fill_standard_normal(eng[i], z_cur.row_span(i));
    std::vector<double> log_det(k, 0.0);
    std::vector<double> g_cur =
        problem.g_rows(trained_flow.transport_range(z_cur, 0, blocks, log_det));
    res.g_calls += k;
    std::vector<double> base_lp_cur(k);
    for (std::size_t i = 0; i < k; ++i)
        base_lp_cur[i] = rng::standard_normal_log_pdf(z_cur.row_span(i));

    linalg::Matrix z_prop(k, d);
    std::size_t harvest_row = 0;
    for (std::size_t t = 1; t <= s; ++t) {
        const double a_t = sched.level(t);
        for (std::size_t i = 0; i < k; ++i) {
            const auto cur = z_cur.row_span(i);
            const auto prop = z_prop.row_span(i);
            for (std::size_t j = 0; j < d; ++j)
                prop[j] = cur[j] + sigma * rng::standard_normal(eng[i]);
        }
        log_det.assign(k, 0.0);
        const std::vector<double> g_prop = problem.g_rows(
            trained_flow.transport_range(z_prop, 0, blocks, log_det));
        res.g_calls += k;
        // Serial accept/reject in chain order; the uniform is consumed
        // unconditionally so every chain's stream position is a pure
        // function of (master_seed, chain, step).
        for (std::size_t i = 0; i < k; ++i) {
            const double u = eng[i].uniform();
            const double prop_lp =
                rng::standard_normal_log_pdf(z_prop.row_span(i));
            const double cur_lt =
                tempered_log_weight(cfg.tau, a_t, g_cur[i]) + base_lp_cur[i];
            const double prop_lt =
                tempered_log_weight(cfg.tau, a_t, g_prop[i]) + prop_lp;
            ++res.proposals;
            if (accept_move(u, cur_lt, prop_lt)) {
                const auto prop = z_prop.row_span(i);
                const auto cur = z_cur.row_span(i);
                std::copy(prop.begin(), prop.end(), cur.begin());
                g_cur[i] = g_prop[i];
                base_lp_cur[i] = prop_lp;
                ++res.accepted;
            }
        }
        if (t > burn_in) {
            for (std::size_t i = 0; i < k; ++i) {
                const auto cur = z_cur.row_span(i);
                std::copy(cur.begin(), cur.end(),
                          res.harvest.row_span(harvest_row).begin());
                res.harvest_chain.push_back(i);
                ++harvest_row;
            }
        }
    }
    return res;
}

}  // namespace nofis::latent
