#pragma once

#include "dist/gaussian_mixture.hpp"
#include "estimators/importance.hpp"
#include "estimators/problem.hpp"
#include "flow/coupling_stack.hpp"

namespace nofis::latent {

/// Final importance-sampling estimate with the latent defensive mixture
/// proposal q_z = α·N(0, I) + (1−α)·refined, pushed forward through the
/// trained flow. Because both components live in base space and share the
/// transport T, the pushforward density is exact:
///     log q_x(T(z)) = log q_z(z) − log|det ∂T/∂z|,
/// and the balance-heuristic weight of every draw is p(x) / q_x(x) against
/// the full mixture — the estimator is unbiased for any α in (0, 1] and
/// degenerates to the plain Eq. (2) final IS in the α → 1 limit.
///
/// Mirrors NofisEstimator::importance_estimate's determinism contract: one
/// batched g_rows over all draws (row-order call indices), serial row-order
/// reduction, bitwise identical at any thread count. Counts `n_draws` calls
/// and opens the usual "final_is" span / g_calls.final_is counter so the
/// honest-accounting ledger stays additive.
estimators::EstimateResult defensive_estimate(
    const flow::CouplingStack& trained_flow,
    const estimators::RareEventProblem& problem, rng::Engine& eng,
    std::size_t n_draws, const dist::GaussianMixture& refined, double alpha,
    estimators::IsDiagnostics* diag = nullptr);

}  // namespace nofis::latent
