#pragma once

#include <cstdint>

#include "estimators/importance.hpp"
#include "estimators/problem.hpp"
#include "flow/coupling_stack.hpp"
#include "latent/anneal.hpp"

namespace nofis::latent {

/// Configuration of the latent-space exploration estimator (DESIGN.md §16).
/// Lives inside core::NofisConfig; `enabled = false` keeps every existing
/// run bit-identical.
struct LatentConfig {
    bool enabled = false;
    std::size_t chains = 8;  ///< K — independent annealed walkers
    std::size_t steps = 40;  ///< S — Metropolis proposals per walker
    /// Defensive mixture weight on the learned flow's own base measure:
    /// q_z = α·N(0,I) + (1−α)·refined. α → 1 recovers plain final IS.
    double alpha = 0.8;
    AnnealKind anneal = AnnealKind::kLinear;
};

/// Fixed exploration knobs (no flag sets them): the chains' random-walk
/// stddev (<= 0 selects 2.38/sqrt(d)), the refinement components' sigma
/// floor, and the EM polish passes over the harvest.
inline constexpr double kRwSigma = 0.0;
inline constexpr double kSigmaFloor = 0.05;
inline constexpr std::size_t kEmIters = 2;

/// What the exploration phase did — surfaced through RunResult / the CLI.
struct LatentReport {
    std::size_t explore_calls = 0;   ///< g-calls spent by the chains
    std::size_t final_is_draws = 0;  ///< defensive-mixture draws
    std::size_t harvest_rows = 0;
    std::size_t components = 0;      ///< refined mixture size after EM
    double acceptance_rate = 0.0;
};

/// The full latent-exploration estimate on an already-trained flow:
/// explore (K·(S+1) g-calls, "latent_explore" span), fit the refinement
/// mixture, then spend the REMAINING n_is_total − K·(S+1) draws on the
/// defensive-mixture final IS ("final_is" span) — so the total g-budget is
/// exactly what plain final IS with n_is_total draws would spend.
///
/// `problem` should be the run's Guarded(Cached(problem)) composition;
/// every evaluation goes through g_rows with row-order call indices.
/// Consumes one draw from `eng` for the chain master seed, then only the
/// final-IS draws — results are bitwise identical for any chain count's
/// thread schedule. Throws std::invalid_argument when n_is_total does not
/// leave at least one final-IS draw after the exploration budget.
estimators::EstimateResult explore_and_estimate(
    const flow::CouplingStack& trained_flow,
    const estimators::RareEventProblem& problem, rng::Engine& eng,
    std::size_t n_is_total, double tau, double a_start,
    const LatentConfig& cfg, estimators::IsDiagnostics* diag = nullptr,
    LatentReport* report = nullptr);

}  // namespace nofis::latent
