#pragma once

#include <string>
#include <vector>

#include "estimators/guarded_problem.hpp"

namespace nofis::core {

/// Per-stage training record (Figure 3(e) of the paper plots exactly this:
/// the KL loss of every stage against the epoch index).
struct StageDiagnostics {
    std::size_t stage = 0;          ///< m (1-based)
    double level = 0.0;             ///< a_m
    /// True KL-loss value per epoch. Epochs whose update was skipped (flow
    /// blow-up / non-finite loss in legacy skip mode) hold a quiet NaN
    /// sentinel — no loss was computed, and fabricating one would fake
    /// convergence. Consumers must skip non-finite entries; see
    /// first_finite_loss / last_finite_loss.
    std::vector<double> epoch_loss;
    /// Fraction of the stage's final-epoch samples inside Ω_{a_m} — a cheap
    /// health indicator (should climb toward ~1 as the proposal locks on).
    double inside_fraction = 0.0;

    /// First / last finite entry of epoch_loss (skipped-epoch NaN sentinels
    /// excluded); NaN when the stage never computed a loss.
    double first_finite_loss() const noexcept;
    double last_finite_loss() const noexcept;

    // --- rollback-retry telemetry -------------------------------------------
    /// Times this stage was rolled back to its checkpoint and retrained
    /// (each retry restores parameters, shrinks the LR, and tightens the
    /// grad-clip / scale-cap).
    std::size_t retries = 0;
    /// Human-readable trigger per retry ("non-finite KL loss", ...).
    std::vector<std::string> retry_reasons;
    /// Epochs whose update was skipped because divergence persisted after
    /// the retry budget was exhausted (legacy skip-and-continue behaviour).
    std::size_t skipped_epochs = 0;
};

/// End-to-end health of one NofisEstimator::run: g-evaluation faults, stage
/// rollbacks, and the final proposal-quality numbers in one place. Printed
/// by the CLI after training and carried in RunResult for callers that
/// alert on degraded runs.
struct RunHealth {
    estimators::FaultReport faults;  ///< guarded g/g_grad fault ledger
    std::size_t g_retry_calls = 0;   ///< extra g calls spent on fault retries
    std::size_t stage_retries = 0;   ///< rollback-retries across all stages
    std::size_t stages_rolled_back = 0;  ///< stages that needed ≥ 1 rollback
    std::size_t skipped_epochs = 0;  ///< epochs dropped after retry budget
    double final_ess = 0.0;          ///< hit-restricted ESS of the estimate
    double ess_all = 0.0;            ///< all-draw ESS (proposal quality)
    double max_weight = 0.0;
    double weight_cv = 0.0;

    bool degraded() const noexcept {
        return faults.total_faults() > 0 || stage_retries > 0 ||
               skipped_epochs > 0;
    }
    /// Multi-line human-readable digest for CLI output / logs.
    std::string summary() const;
};

/// Serialises a loss curve as "epoch,loss" CSV lines (bench figure output).
std::string loss_curve_csv(const std::vector<StageDiagnostics>& stages);

}  // namespace nofis::core
