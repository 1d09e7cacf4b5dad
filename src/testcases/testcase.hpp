#pragma once

#include <memory>
#include <string>
#include <vector>

#include "estimators/problem.hpp"

namespace nofis::core {
struct NofisConfig;
}

namespace nofis::testcases {

/// Per-case NOFIS hyper-parameters (Table 1 uses case-specific M, E, N,
/// N_IS, τ and level sequences; these mirror the paper's reported budgets).
struct NofisBudget {
    std::vector<double> levels;           ///< {a_m}, strictly decreasing, ends at 0
    std::size_t epochs = 20;              ///< E
    std::size_t samples_per_epoch = 400;  ///< N
    std::size_t n_is = 1000;              ///< N_IS
    double tau = 20.0;
    std::size_t layers_per_block = 8;     ///< K
    std::vector<std::size_t> hidden = {32, 32};
    double learning_rate = 7e-3;
    double lr_decay = 0.99;
    /// Defensive-mixture extension (see NofisConfig); 0 = plain Eq. 2.
    double defensive_weight = 0.0;
    double defensive_sigma = 1.3;

    std::size_t total_calls() const noexcept {
        return levels.size() * epochs * samples_per_epoch + n_is;
    }
};

/// The NOFIS config that runs Algorithm 1 at budget `b`: every budget
/// field except the levels (which go to core::LevelSchedule) is copied in,
/// and every other knob keeps its NofisConfig default. Include
/// core/nofis.hpp to use the result.
core::NofisConfig nofis_config_from_budget(const NofisBudget& b);

/// Per-case budgets for the six baselines, sized to the call counts the
/// paper reports for each Table-1 row.
struct BaselineBudget {
    std::size_t mc_samples = 50000;
    std::size_t sir_train_samples = 50000;
    std::size_t sir_surrogate_evals = 2000000;
    std::size_t sus_samples_per_level = 5000;
    std::size_t sus_max_levels = 10;
    std::size_t suc_samples_per_level = 5000;
    std::size_t suc_max_levels = 10;
    std::size_t sss_total_samples = 40000;
    std::size_t ais_iterations = 6;
    std::size_t ais_samples_per_iteration = 5000;
    std::size_t ais_final_samples = 5000;
};

/// A Table-1 problem: a RareEventProblem plus its metadata (golden
/// probability, dimensionality is inherited, and the per-method budgets).
class TestCase : public estimators::RareEventProblem {
public:
    virtual std::string name() const = 0;
    /// Reference failure probability (analytic where possible, otherwise
    /// calibrated offline — see EXPERIMENTS.md for the recipe per case).
    virtual double golden_pr() const noexcept = 0;
    virtual NofisBudget nofis_budget() const = 0;
    virtual BaselineBudget baseline_budget() const = 0;
};

}  // namespace nofis::testcases
