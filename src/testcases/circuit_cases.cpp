#include "testcases/circuit_cases.hpp"

namespace nofis::testcases {

// Golden values calibrated offline with large-sample runs against OUR
// models (tools/calibrate; recipe in EXPERIMENTS.md). Paper golden values
// for comparison: Opamp 1.30e-5, Charge Pump 5.75e-6, Y-branch 4.27e-5.

// ---------------------------------------------------------------------------
// Opamp
// ---------------------------------------------------------------------------

double OpampCase::golden_pr() const noexcept { return 1.5e-5; }

double OpampCase::g(std::span<const double> x) const {
    return model_.gain_db(x) - 72.0;
}

NofisBudget OpampCase::nofis_budget() const {
    NofisBudget b;
    // Paper: 45K total calls.
    b.levels = {6.0, 4.0, 2.5, 1.2, 0.0};  // dB margins above the 72 dB spec
    b.epochs = 86;
    b.samples_per_epoch = 100;
    b.n_is = 2000;  // 5*86*100 + 2000 = 45,000
    b.tau = 15.0;
    return b;
}

BaselineBudget OpampCase::baseline_budget() const {
    BaselineBudget b;
    b.mc_samples = 100000;
    b.sir_train_samples = 50000;
    b.sus_samples_per_level = 7500;  // ~45K over ~5 levels
    b.sus_max_levels = 8;
    b.suc_samples_per_level = 8000;  // ~49K
    b.suc_max_levels = 8;
    b.sss_total_samples = 60000;
    b.ais_iterations = 6;
    b.ais_samples_per_iteration = 6000;
    b.ais_final_samples = 12000;     // ~48K
    return b;
}

// ---------------------------------------------------------------------------
// Charge pump
// ---------------------------------------------------------------------------

double ChargePumpCase::golden_pr() const noexcept { return 1.0e-5; }

double ChargePumpCase::g(std::span<const double> x) const {
    return kMismatchLimit - model_.mismatch_amps(x);
}

NofisBudget ChargePumpCase::nofis_budget() const {
    NofisBudget b;
    // Paper: 35K total calls. Levels in amps of mismatch margin.
    b.levels = {253e-6, 175e-6, 115e-6, 64e-6, 12e-6, 0.0};
    b.epochs = 110;
    b.samples_per_epoch = 50;
    b.n_is = 2000;  // 6*110*50 + 2000 = 35,000
    b.tau = 8e4;    // τ scaled to the µA-range units of g
    return b;
}

BaselineBudget ChargePumpCase::baseline_budget() const {
    BaselineBudget b;
    b.mc_samples = 100000;
    b.sir_train_samples = 100000;
    b.sus_samples_per_level = 7500;  // ~45K over ~6 levels
    b.sus_max_levels = 9;
    b.suc_samples_per_level = 8400;  // ~50K
    b.suc_max_levels = 9;
    b.sss_total_samples = 40000;
    b.ais_iterations = 6;
    b.ais_samples_per_iteration = 5500;
    b.ais_final_samples = 10000;     // ~43K
    return b;
}

// ---------------------------------------------------------------------------
// Y-branch
// ---------------------------------------------------------------------------

double YBranchCase::golden_pr() const noexcept { return 4.0e-5; }

double YBranchCase::g(std::span<const double> x) const {
    return model_.transmission(x) - kTransmissionLimit;
}

double YBranchCase::g_grad(std::span<const double> x,
                           std::span<double> grad_out) const {
    return model_.transmission_grad(x, grad_out) - kTransmissionLimit;
}

NofisBudget YBranchCase::nofis_budget() const {
    NofisBudget b;
    // Paper: 32.5K total calls. Levels in transmission margin above 32%.
    b.levels = {0.061, 0.042, 0.023, 0.0053, 0.0};
    b.epochs = 122;
    b.samples_per_epoch = 50;
    b.n_is = 2000;  // 5*122*50 + 2000 = 32,500
    b.tau = 150.0;
    return b;
}

BaselineBudget YBranchCase::baseline_budget() const {
    BaselineBudget b;
    b.mc_samples = 50000;
    b.sir_train_samples = 50000;
    b.sus_samples_per_level = 5800;  // ~35K over ~5 levels
    b.sus_max_levels = 8;
    b.suc_samples_per_level = 4000;  // ~24K
    b.suc_max_levels = 8;
    b.sss_total_samples = 40000;
    b.ais_iterations = 6;
    b.ais_samples_per_iteration = 5500;
    b.ais_final_samples = 10000;     // ~43K
    return b;
}

}  // namespace nofis::testcases
