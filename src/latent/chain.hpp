#pragma once

#include <cstdint>
#include <vector>

#include "estimators/problem.hpp"
#include "flow/coupling_stack.hpp"
#include "latent/anneal.hpp"

namespace nofis::latent {

/// Knobs of the annealed latent random walk (DESIGN.md §16).
struct ChainConfig {
    std::size_t chains = 8;  ///< K — independent Metropolis walkers
    std::size_t steps = 40;  ///< S — proposals per walker
    AnnealKind anneal = AnnealKind::kLinear;
    double tau = 20.0;    ///< temperature of the tempered indicator
    double a_start = 0.0; ///< first (easiest) level of the ladder
};

/// Harvested latent states plus the exploration ledger.
struct ExploreResult {
    /// Post-burn-in chain states, one row per (chain, kept step) in step-
    /// major order. Rejected steps repeat the previous state — the correct
    /// MCMC weighting, and it keeps the row count a pure function of the
    /// config. Never empty for steps >= 1.
    linalg::Matrix harvest;
    std::vector<std::size_t> harvest_chain;  ///< owning chain per row

    std::size_t g_calls = 0;    ///< exactly chains * (steps + 1)
    std::size_t accepted = 0;
    std::size_t proposals = 0;  ///< chains * steps

    double acceptance_rate() const noexcept {
        return proposals > 0
                   ? static_cast<double>(accepted) /
                         static_cast<double>(proposals)
                   : 0.0;
    }
};

/// Runs K independent annealed Metropolis random-walk chains in the base
/// space of `trained_flow`, targeting the pulled-back tempered failure
/// indicator exp(min(τ(a_t − g(T(z))), 0)) · N(z; 0, I) so walkers migrate
/// toward failure lobes the flow under-covers.
///
/// Determinism contract: chain i draws exclusively from
/// rng::substream(master_seed, i) (d proposal normals + 1 accept uniform
/// per step, consumed unconditionally), all K proposals of a step are
/// evaluated as ONE g_rows batch (row-order call indices under a
/// GuardedProblem), and accept/reject runs serially in chain order — so the
/// harvest is bitwise identical at any thread count, any kernel flavour,
/// and cache off/cold/warm.
ExploreResult explore(const flow::CouplingStack& trained_flow,
                      const estimators::RareEventProblem& problem,
                      const ChainConfig& cfg, std::uint64_t master_seed);

}  // namespace nofis::latent
