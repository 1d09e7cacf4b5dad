#pragma once

#include <string>
#include <vector>

#include "checkpoint/checkpoint.hpp"
#include "estimators/guarded_problem.hpp"

namespace nofis::core {

/// The per-stage training record; snapshots persist the same struct.
using checkpoint::StageDiagnostics;

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
