// Quickstart: estimate the rare failure probability of the paper's "Leaf"
// test case (two discs deep in the tail of N(0,I), P_r ≈ 4.7e-6) with NOFIS
// and compare against plain Monte Carlo at a larger budget.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [seed]

#include <cstdio>
#include <optional>

#include "core/nofis.hpp"
#include "estimators/monte_carlo.hpp"
#include "testcases/synthetic.hpp"
#include "util/parse.hpp"

int main(int argc, char** argv) {
    using namespace nofis;

    const auto seed = argc > 1 ? util::parse_u64(argv[1])
                               : std::optional<std::uint64_t>(7);
    if (!seed) {
        std::fprintf(stderr, "error: invalid seed '%s'\n", argv[1]);
        return 2;
    }
    rng::Engine eng(*seed);

    testcases::LeafCase problem;
    const double golden = problem.golden_pr();
    std::printf("Problem: %s (D = %zu), golden P_r = %.3e\n",
                problem.name().c_str(), problem.dim(), golden);

    // --- NOFIS -------------------------------------------------------------
    const auto budget = problem.nofis_budget();
    const core::NofisConfig cfg = testcases::nofis_config_from_budget(budget);

    core::NofisEstimator nofis(cfg, core::LevelSchedule::manual(budget.levels));
    auto run = nofis.run(problem, eng);

    std::printf("\nNOFIS stages:\n");
    // Skipped epochs hold NaN loss sentinels; report the finite endpoints.
    for (const auto& s : run.stages)
        std::printf("  stage %zu (a = %6.2f): loss %8.3f -> %8.3f, "
                    "inside %.0f%%\n",
                    s.stage, s.level, s.first_finite_loss(),
                    s.last_finite_loss(), 100.0 * s.inside_fraction);

    std::printf("\nNOFIS estimate: %.3e  (calls %zu, log-err %.3f, "
                "IS hits %zu/%zu, ESS %.1f)\n",
                run.estimate.p_hat, run.estimate.calls,
                estimators::log_error(run.estimate.p_hat, golden),
                run.is_diag.hits, cfg.n_is,
                run.is_diag.effective_sample_size);

    // --- Monte Carlo at a larger budget --------------------------------------
    estimators::MonteCarloEstimator mc({.num_samples = 50000, .batch = 8192});
    const auto mc_res = mc.estimate(problem, eng);
    std::printf("MC estimate:    %.3e  (calls %zu, log-err %.3f)\n",
                mc_res.p_hat, mc_res.calls,
                estimators::log_error(mc_res.p_hat, golden));
    return 0;
}
