// Bring-your-own-simulator example: wrap any expensive characteristic
// function g(x) as a RareEventProblem, let the auto-level extension build
// the nested subset schedule from a pilot batch, and estimate the failure
// probability — no hand-tuned levels needed.
//
// The toy "simulator" here is an SRAM read-stability flavoured margin:
// two cross-coupled inverters whose static noise margin collapses when the
// six threshold-voltage variations conspire.
//
// Run: ./build/examples/custom_testcase [seed]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "core/levels.hpp"
#include "core/nofis.hpp"
#include "rng/normal.hpp"
#include "util/parse.hpp"

namespace {

using namespace nofis;

/// A behavioural static-noise-margin model of a 6T SRAM cell: the margin of
/// each inverter degrades with its device mismatches; the cell fails when
/// the worse side dips below 40 mV.
class SramCell final : public estimators::RareEventProblem {
public:
    std::size_t dim() const noexcept override { return 6; }

    double g(std::span<const double> x) const override {
        // Per-side margins [V]: nominal 180 mV, degraded by pull-down /
        // pass-gate / pull-up mismatch with classic sensitivities, plus a
        // weak quadratic interaction term.
        const double left = 0.180 - 0.020 * x[0] - 0.014 * x[1] +
                            0.008 * x[2] - 0.002 * x[0] * x[1];
        const double right = 0.180 - 0.020 * x[3] - 0.014 * x[4] +
                             0.008 * x[5] - 0.002 * x[3] * x[4];
        return std::min(left, right) - 0.040;
    }
};

}  // namespace

int main(int argc, char** argv) {
    const auto seed = argc > 1 ? util::parse_u64(argv[1])
                               : std::optional<std::uint64_t>(3);
    if (!seed) {
        std::fprintf(stderr, "error: invalid seed '%s'\n", argv[1]);
        return 2;
    }

    SramCell cell;
    std::printf("Custom test case: 6T SRAM static-noise-margin model\n");
    std::printf("Nominal margin above spec: %.1f mV\n",
                1000.0 * cell.g(std::vector<double>(6, 0.0)));

    // 1. Let the library pick the nested subset levels from a pilot batch
    //    (the paper's future-work extension; calls are counted).
    rng::Engine eng(*seed);
    estimators::CountedProblem counted(cell);
    core::AutoLevelConfig auto_cfg;
    auto_cfg.num_levels = 5;
    auto_cfg.pilot_samples = 500;
    const auto levels = core::auto_levels(counted, eng, auto_cfg);
    std::printf("\nAuto-selected levels (pilot of %zu calls):", counted.calls());
    for (double a : levels.levels()) std::printf(" %.4f", a);
    std::printf("\n");

    // 2. Run NOFIS with a moderate budget.
    core::NofisConfig cfg;
    cfg.epochs = 80;
    cfg.samples_per_epoch = 50;
    cfg.n_is = 2000;
    cfg.tau = 400.0;  // g is in volts: τ ~ O(1 / level-scale)
    core::NofisEstimator est(cfg, levels);
    const auto run = est.run(cell, eng);

    std::printf("\nNOFIS estimate: P[fail] = %.3e  (%zu calls + %zu pilot)\n",
                run.estimate.p_hat, run.estimate.calls, counted.calls());
    std::printf("Per-stage inside-fraction:");
    for (const auto& s : run.stages)
        std::printf(" %.0f%%", 100.0 * s.inside_fraction);
    std::printf("\nIS diagnostics: %zu hits, ESS %.1f\n", run.is_diag.hits,
                run.is_diag.effective_sample_size);

    // 3. Sanity-check with a one-shot importance re-estimate at larger N_IS
    //    from the same trained flow (no retraining).
    const auto recheck = core::NofisEstimator::importance_estimate(
        *run.flow, cell, eng, 8000);
    std::printf("Re-estimate with N_IS = 8000: P = %.3e (%zu extra calls)\n",
                recheck.p_hat, recheck.calls);
    return 0;
}
