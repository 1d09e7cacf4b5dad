// Regenerates Figure 5 (left): ablations on the three circuit cases —
//   Nominal   : the Table-1 configuration,
//   NoFreeze  : earlier blocks stay trainable at every stage,
//   LongThre  : the level sequence stretched to M = 9,
//   SmallTemp : τ = 1.
// The paper's observation: none of the deviations consistently improves on
// the nominal configuration.
//
// Usage: fig5_ablation [--repeats 3] [--cases Opamp,ChargePump,YBranch]

#include <cmath>

#include "bench_common.hpp"

namespace {

/// Stretches a level schedule to `target` levels by linear interpolation in
/// index space (keeps a_1 and a_M = 0).
std::vector<double> densify_levels(const std::vector<double>& levels,
                                   std::size_t target) {
    std::vector<double> out(target);
    const double last = static_cast<double>(levels.size() - 1);
    for (std::size_t i = 0; i < target; ++i) {
        const double pos =
            last * static_cast<double>(i) / static_cast<double>(target - 1);
        const auto lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, levels.size() - 1);
        const double frac = pos - static_cast<double>(lo);
        out[i] = (1.0 - frac) * levels[lo] + frac * levels[hi];
    }
    out.back() = 0.0;
    // Deduplicate any interpolation ties.
    for (std::size_t i = 1; i + 1 < out.size(); ++i)
        if (out[i] >= out[i - 1]) out[i] = out[i - 1] * 0.75;
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace nofis;
    using namespace nofis::bench;

    apply_threads_flag(argc, argv);
    apply_kernels_flag(argc, argv);
    MetricsSession metrics(argc, argv);

    const auto repeats = size_flag(argc, argv, "--repeats", "2", 1);
    const auto cases = split_csv(
        arg_value(argc, argv, "--cases", "Opamp,ChargePump,YBranch"));

    std::printf("Figure 5 (left) reproduction — ablations, %zu repeat(s)\n",
                repeats);
    std::printf("%-12s %-10s %-10s %-10s %-10s\n", "case", "Nominal",
                "NoFreeze", "LongThre", "SmallTemp");

    for (const auto& name : cases) {
        const auto tc = testcases::make_case(name);
        const auto budget = tc->nofis_budget();
        std::printf("%-12s", name.c_str());

        const auto run_variant = [&](const core::NofisConfig& cfg,
                                     const std::vector<double>& levels) {
            core::NofisEstimator est(cfg,
                                     core::LevelSchedule::manual(levels));
            double err = 0.0;
            for (std::size_t r = 0; r < repeats; ++r) {
                rng::Engine eng(555 + 101 * r);
                const auto res = est.estimate(*tc, eng);
                err += estimators::log_error(res.p_hat, tc->golden_pr());
            }
            return err / static_cast<double>(repeats);
        };

        core::NofisConfig nominal = nofis_config_from_budget(budget);
        std::printf(" %-10.3f", run_variant(nominal, budget.levels));
        std::fflush(stdout);

        core::NofisConfig no_freeze = nominal;
        no_freeze.freeze_previous = false;
        std::printf(" %-10.3f", run_variant(no_freeze, budget.levels));
        std::fflush(stdout);

        // LongThre: M = 9, same total training calls (E scaled down).
        core::NofisConfig long_thre = nominal;
        const auto levels9 = densify_levels(budget.levels, 9);
        long_thre.epochs = std::max<std::size_t>(
            1, budget.epochs * budget.levels.size() / 9);
        std::printf(" %-10.3f", run_variant(long_thre, levels9));
        std::fflush(stdout);

        core::NofisConfig small_temp = nominal;
        // "τ = 1" in the paper is relative to g's natural O(1) scale; keep
        // the same 1:nominal ratio for cases whose g units differ.
        small_temp.tau = nominal.tau / 15.0;
        std::printf(" %-10.3f\n", run_variant(small_temp, budget.levels));
        std::fflush(stdout);
    }
    std::printf("\n(Expect Nominal to be best or tied on most rows.)\n");
    return 0;
}
