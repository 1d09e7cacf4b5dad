#include "latent/latent_explore.hpp"

#include <optional>
#include <stdexcept>
#include <string>

#include "latent/chain.hpp"
#include "latent/defensive_is.hpp"
#include "latent/refine.hpp"
#include "telemetry/telemetry.hpp"

namespace nofis::latent {

estimators::EstimateResult explore_and_estimate(
    const flow::CouplingStack& trained_flow,
    const estimators::RareEventProblem& problem, rng::Engine& eng,
    std::size_t n_is_total, double tau, double a_start,
    const LatentConfig& cfg, estimators::IsDiagnostics* diag,
    LatentReport* report) {
    if (cfg.chains == 0 || cfg.steps == 0)
        throw std::invalid_argument(
            "latent: --latent-chains and --latent-steps must be >= 1");
    if (!(cfg.alpha > 0.0) || cfg.alpha > 1.0)
        throw std::invalid_argument("latent: --latent-alpha must be in (0, 1]");
    const std::size_t explore_budget = cfg.chains * (cfg.steps + 1);
    if (n_is_total <= explore_budget)
        throw std::invalid_argument(
            "latent: exploration budget " + std::to_string(explore_budget) +
            " (= chains * (steps + 1)) must leave final-IS draws out of "
            "n_is = " + std::to_string(n_is_total));
    const std::size_t n_final = n_is_total - explore_budget;

    // One master-seed draw regardless of K: the chain substreams derive
    // from it, so the caller's stream position does not depend on the
    // chain count and the final-IS draws below stay aligned.
    const std::uint64_t master_seed = eng();

    std::optional<dist::GaussianMixture> refined;
    LatentReport rep;
    {
        const telemetry::ScopedSpan span("latent_explore");
        ChainConfig ccfg;
        ccfg.chains = cfg.chains;
        ccfg.steps = cfg.steps;
        ccfg.anneal = cfg.anneal;
        ccfg.tau = tau;
        ccfg.a_start = a_start;
        const ExploreResult ex = explore(trained_flow, problem, ccfg,
                                         master_seed);
        RefineConfig rcfg;
        rcfg.sigma_floor = kSigmaFloor;
        rcfg.em_iters = kEmIters;
        refined.emplace(fit_refinement(ex, trained_flow.dim(), rcfg));
        rep.explore_calls = ex.g_calls;
        rep.harvest_rows = ex.harvest.rows();
        rep.components = refined->num_components();
        rep.acceptance_rate = ex.acceptance_rate();
        telemetry::count("g_calls.latent_explore", ex.g_calls);
        telemetry::metric("latent_acceptance_rate", rep.acceptance_rate);
        telemetry::metric("latent_harvest_rows",
                          static_cast<double>(rep.harvest_rows));
        telemetry::metric("latent_components",
                          static_cast<double>(rep.components));
    }

    estimators::EstimateResult est = defensive_estimate(
        trained_flow, problem, eng, n_final, *refined, cfg.alpha, diag);
    rep.final_is_draws = n_final;
    // Honest budget: the exploration calls ride on top of the final-IS
    // calls counted by defensive_estimate — the sum is n_is_total.
    est.calls += rep.explore_calls;
    if (report != nullptr) *report = rep;
    return est;
}

}  // namespace nofis::latent
