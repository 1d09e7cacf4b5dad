// SRAM read-stability yield — the application the paper's introduction
// motivates (an SRAM cell must fail with probability below ~1e-6 for the
// array to yield). Every g() call here is a real nonlinear circuit
// simulation: two butterfly-curve traces, each point a Newton DC solve of
// the 3-transistor half cell, followed by Seevinck SNM extraction.
//
// Run: ./build/examples/sram_yield [seed]

#include <cmath>
#include <cstdio>
#include <optional>

#include "core/nofis.hpp"
#include "estimators/monte_carlo.hpp"
#include "estimators/sus.hpp"
#include "rng/normal.hpp"
#include "testcases/sram_case.hpp"
#include "util/parse.hpp"

int main(int argc, char** argv) {
    using namespace nofis;

    const auto seed = argc > 1 ? util::parse_u64(argv[1])
                               : std::optional<std::uint64_t>(17);
    if (!seed) {
        std::fprintf(stderr, "error: invalid seed '%s'\n", argv[1]);
        return 2;
    }

    testcases::SramCase cell;
    const std::vector<double> nominal(cell.dim(), 0.0);
    std::printf("6T SRAM cell, read configuration, %zu VT-mismatch "
                "variables\n", cell.dim());
    std::printf("Nominal read SNM: %.1f mV (spec: >= %.0f mV)\n",
                1000.0 * (cell.g(nominal) + testcases::SramCase::kSnmMin),
                1000.0 * testcases::SramCase::kSnmMin);

    // Show the failure mechanism: the classic read-upset corner.
    std::vector<double> corner = {2.0, 0.0, -2.0, 0.0, 0.0, 0.0};
    std::printf("Weak pull-down + strong access corner (2σ): SNM = %.1f mV\n",
                1000.0 * (cell.g(corner) + testcases::SramCase::kSnmMin));

    const auto budget = cell.nofis_budget();
    const core::NofisConfig cfg = testcases::nofis_config_from_budget(budget);
    core::NofisEstimator nofis(cfg,
                               core::LevelSchedule::manual(budget.levels));
    rng::Engine eng(*seed);
    const auto run = nofis.run(cell, eng);
    std::printf("\nNOFIS (%zu simulations): P[SNM < spec] = %.3e "
                "(log-err vs golden %.2f)\n",
                run.estimate.calls, run.estimate.p_hat,
                estimators::log_error(run.estimate.p_hat, cell.golden_pr()));
    if (run.estimate.p_hat > 0.0)
        std::printf("Cell yield: %.2f sigma — array of 1 Mb fails with "
                    "P ≈ %.1f%%\n",
                    -rng::normal_quantile(run.estimate.p_hat),
                    100.0 * (1.0 - std::pow(1.0 - run.estimate.p_hat,
                                            1048576.0)));

    estimators::SubsetSimulationEstimator sus({.samples_per_level = 3700,
                                               .p0 = 0.1,
                                               .max_levels = 9,
                                               .proposal_spread = 1.0});
    const auto sus_res = sus.estimate(cell, eng);
    std::printf("SUS   (%zu simulations): P = %.3e\n", sus_res.calls,
                sus_res.p_hat);
    std::printf("(Plain MC would need ~%.0fM simulations for 10%% accuracy.)\n",
                100.0 / cell.golden_pr() / 1e6);
    return 0;
}
