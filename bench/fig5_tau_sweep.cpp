// Regenerates Figure 5 (right): NOFIS log-error versus the temperature τ on
// the three circuit test cases. The paper's observations: (i) robustness
// over a wide τ band, (ii) a tuned τ can beat the nominal setting.
//
// τ is swept as a multiple of each case's nominal τ, since our circuit
// cases express g in different physical units (dB, A, transmission) — the
// paper's absolute grid {1..300} assumes O(1) g.
//
// Usage: fig5_tau_sweep [--repeats 3] [--cases Opamp,ChargePump,YBranch]

#include <cmath>

#include "bench_common.hpp"

int main(int argc, char** argv) {
    using namespace nofis;
    using namespace nofis::bench;

    apply_threads_flag(argc, argv);
    apply_kernels_flag(argc, argv);
    MetricsSession metrics(argc, argv);

    const auto repeats = size_flag(argc, argv, "--repeats", "2", 1);
    const auto cases = split_csv(
        arg_value(argc, argv, "--cases", "Opamp,ChargePump,YBranch"));
    const double multipliers[] = {1.0 / 15.0, 0.2, 0.5, 1.0, 2.0, 5.0, 13.0};

    std::printf("Figure 5 (right) reproduction — log-error vs τ, "
                "%zu repeat(s)\n", repeats);
    std::printf("%-12s", "tau/nominal");
    for (const auto& c : cases) std::printf(" %-12s", c.c_str());
    std::printf("\n");

    std::vector<std::unique_ptr<testcases::TestCase>> tcs;
    for (const auto& name : cases) tcs.push_back(testcases::make_case(name));

    for (double mult : multipliers) {
        std::printf("%-12.3f", mult);
        for (const auto& tc : tcs) {
            const auto budget = tc->nofis_budget();
            core::NofisConfig cfg = nofis_config_from_budget(budget);
            cfg.tau = budget.tau * mult;
            core::NofisEstimator est(
                cfg, core::LevelSchedule::manual(budget.levels));
            double err = 0.0;
            for (std::size_t r = 0; r < repeats; ++r) {
                rng::Engine eng(777 + 211 * r);
                const auto res = est.estimate(*tc, eng);
                err += estimators::log_error(res.p_hat, tc->golden_pr());
            }
            std::printf(" %-12.3f", err / static_cast<double>(repeats));
            std::fflush(stdout);
        }
        std::printf("\n");
    }
    std::printf("\n(Expect a flat basin around 1x nominal and degradation "
                "at the extremes.)\n");
    return 0;
}
