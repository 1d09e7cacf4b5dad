#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>

#include "estimators/problem.hpp"
#include "linalg/matrix.hpp"

namespace nofis::estimators {

/// Diagnostics for a final importance-sampling estimate.
struct IsDiagnostics {
    double max_weight = 0.0;        ///< largest p/q ratio observed
    double effective_sample_size = 0.0;  ///< (Σw)² / Σw² over hit samples
    std::size_t hits = 0;           ///< samples that landed inside Ω
    std::size_t draws = 0;          ///< total proposal draws (N_IS)

    // Proposal-quality early warnings, computed over the *raw* importance
    // weights p/q of ALL draws (no failure indicator). A collapsing
    // proposal shows up here as ess_all ≪ draws and weight_cv ≫ 1 long
    // before the hit-restricted ESS reacts.
    double ess_all = 0.0;    ///< (Σw)² / Σw² over every proposal draw
    double weight_cv = 0.0;  ///< std(w) / mean(w) over every proposal draw
};

/// p̂ and diagnostics of one importance-sampling estimate.
struct IsEstimate {
    double p_hat = 0.0;
    IsDiagnostics diag;
};

/// The Eq. (2) reduction every importance-sampling estimator shares.
/// Row r of `x` is a proposal draw with exact log-density `log_q[r]` and
/// simulator value `g[r]`; its weight is w = p(x)/q(x) with p = N(0, I),
/// and p̂ = (1/N) Σ w·1[g ≤ 0]. Reduced serially in row order, so a
/// caller that evaluates g in parallel stays bitwise identical at any
/// thread count.
///
/// A non-finite g makes p̂ NaN: the simulator could not say whether that
/// draw failed, so no estimate is reported rather than one that silently
/// counts (or drops) it. Callers flag the result via !isfinite(p̂).
IsEstimate importance_reduce(const linalg::Matrix& x,
                             std::span<const double> log_q,
                             std::span<const double> g);

/// The tail of every final importance-sampling estimate, whatever the
/// proposal: one batched g_rows over the draws (row-order call indices,
/// counted on "g_calls.final_is"), importance_reduce, and the result with
/// `calls` = draws and `failed` = !isfinite(p̂). Callers open the
/// "final_is" span around their sampling (its "sample" child) and this
/// call, which adds the "g_eval" and "reduce" children. Throws
/// std::invalid_argument when there are no draws.
EstimateResult evaluate_and_reduce(const RareEventProblem& problem,
                                   const linalg::Matrix& x,
                                   std::span<const double> log_q,
                                   IsDiagnostics* diag = nullptr);

/// Writes p̂ and the final-IS diagnostics into the active telemetry record
/// (p_hat, ess_hits, ess_all, max_weight, weight_cv, is_hits, is_draws);
/// no-op when telemetry is off.
void record_is_metrics(double p_hat, const IsDiagnostics& diag);

/// log(eᵃ + eᵇ) without overflow: the log-density of a two-component
/// mixture from its two weighted component log-densities.
inline double log_add_exp(double a, double b) {
    const double m = std::max(a, b);
    return m + std::log(std::exp(a - m) + std::exp(b - m));
}

}  // namespace nofis::estimators
