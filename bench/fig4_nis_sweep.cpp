// Regenerates Figure 4: trains the Leaf proposal once at the Table-1 call
// budget, then re-estimates P_r from the same trained flow with increasing
// N_IS. The paper's observation: accuracy keeps improving with N_IS even
// when the learned proposal is degraded by the budget limit.
//
// Usage: fig4_nis_sweep [--repeats 5] [--seed 1]

#include <cmath>

#include "bench_common.hpp"
#include "testcases/synthetic.hpp"

int main(int argc, char** argv) {
    using namespace nofis;
    using namespace nofis::bench;

    apply_threads_flag(argc, argv);
    apply_kernels_flag(argc, argv);
    MetricsSession metrics(argc, argv);

    const auto repeats = size_flag(argc, argv, "--repeats", "5", 1);
    const auto seed = u64_flag(argc, argv, "--seed", "1");

    testcases::LeafCase leaf;
    const auto budget = leaf.nofis_budget();
    const std::size_t nis_grid[] = {20, 50, 100, 200, 500, 1000, 2000, 5000};

    std::printf("Figure 4 reproduction — log-error vs N_IS on Leaf "
                "(%zu trained flows)\n", repeats);
    std::printf("%-8s", "N_IS");
    for (std::size_t r = 0; r < repeats; ++r) std::printf("   run%zu", r);
    std::printf("    mean\n");

    // Train `repeats` independent proposals at the paper's training budget.
    std::vector<std::unique_ptr<flow::CouplingStack>> flows;
    core::NofisConfig cfg = nofis_config_from_budget(budget);
    core::NofisEstimator est(cfg, core::LevelSchedule::manual(budget.levels));
    for (std::size_t r = 0; r < repeats; ++r) {
        rng::Engine eng(seed + 31 * r);
        flows.push_back(est.run(leaf, eng).flow);
    }

    for (std::size_t nis : nis_grid) {
        std::printf("%-8zu", nis);
        double mean = 0.0;
        for (std::size_t r = 0; r < repeats; ++r) {
            rng::Engine eng(10 * seed + 977 * r + nis);
            const auto res = core::NofisEstimator::importance_estimate(
                *flows[r], leaf, eng, nis, nullptr, cfg.defensive_weight,
                cfg.defensive_sigma);
            const double err =
                estimators::log_error(res.p_hat, leaf.golden_pr());
            std::printf(" %7.3f", err);
            mean += err;
        }
        std::printf(" %7.3f\n", mean / static_cast<double>(repeats));
        std::fflush(stdout);
    }
    std::printf("\n(Expect the mean column to decrease as N_IS grows, "
                "mirroring the paper's right panel.)\n");
    return 0;
}
