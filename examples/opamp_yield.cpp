// Circuit-yield example: estimate the probability that a three-stage opamp
// misses its 72 dB gain spec under process variation — the paper's test
// case #6 — and turn it into a yield (in sigma) figure.
//
// Demonstrates the full EDA path of the library:
//   1. the MNA small-signal macromodel (src/circuit) as the expensive g(),
//   2. per-case NOFIS budgets from the test-case registry,
//   3. call-counted comparison against subset simulation and Monte Carlo,
//   4. proposal diagnostics (effective sample size, IS hit rate).
//
// Run: ./build/examples/opamp_yield [seed]

#include <cstdio>
#include <optional>

#include "core/nofis.hpp"
#include "estimators/monte_carlo.hpp"
#include "estimators/sus.hpp"
#include "rng/normal.hpp"
#include "testcases/circuit_cases.hpp"
#include "util/parse.hpp"

int main(int argc, char** argv) {
    using namespace nofis;

    const auto seed = argc > 1 ? util::parse_u64(argv[1])
                               : std::optional<std::uint64_t>(11);
    if (!seed) {
        std::fprintf(stderr, "error: invalid seed '%s'\n", argv[1]);
        return 2;
    }

    testcases::OpampCase opamp;
    const std::vector<double> nominal(opamp.dim(), 0.0);
    std::printf("Three-stage opamp, %zu process variables\n", opamp.dim());
    std::printf("Nominal gain: %.2f dB (spec: 72 dB, margin %.2f dB)\n",
                opamp.model().gain_db(nominal) ,
                opamp.g(nominal));

    // --- NOFIS at the paper's 45K-call budget -------------------------------
    const auto budget = opamp.nofis_budget();
    const core::NofisConfig cfg = testcases::nofis_config_from_budget(budget);
    core::NofisEstimator nofis(cfg,
                               core::LevelSchedule::manual(budget.levels));
    rng::Engine eng(*seed);
    const auto run = nofis.run(opamp, eng);

    std::printf("\nNOFIS (%zu calls):\n", run.estimate.calls);
    std::printf("  P[gain < 72 dB] = %.3e\n", run.estimate.p_hat);
    if (run.estimate.p_hat > 0.0) {
        // One-sided yield expressed in sigma.
        const double sigma_yield =
            -rng::normal_quantile(run.estimate.p_hat);
        std::printf("  yield            = %.4f%%  (%.2f sigma)\n",
                    100.0 * (1.0 - run.estimate.p_hat), sigma_yield);
    }
    std::printf("  IS diagnostics   : %zu/%zu hits, ESS %.1f, max w %.2e\n",
                run.is_diag.hits, cfg.n_is,
                run.is_diag.effective_sample_size, run.is_diag.max_weight);

    // --- Classical baselines at comparable budgets ----------------------------
    estimators::SubsetSimulationEstimator sus(
        {.samples_per_level = 7500, .p0 = 0.1, .max_levels = 8,
         .proposal_spread = 1.0});
    const auto sus_res = sus.estimate(opamp, eng);
    std::printf("\nSUS   (%zu calls): P = %.3e\n", sus_res.calls,
                sus_res.p_hat);

    estimators::MonteCarloEstimator mc({.num_samples = 45000, .batch = 8192});
    const auto mc_res = mc.estimate(opamp, eng);
    std::printf("MC    (%zu calls): P = %.3e%s\n", mc_res.calls, mc_res.p_hat,
                mc_res.p_hat == 0.0 ? "  <- too rare for plain MC" : "");

    std::printf("\nReference (calibrated golden): %.3e\n", opamp.golden_pr());
    return 0;
}
