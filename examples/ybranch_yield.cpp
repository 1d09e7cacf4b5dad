// Photonic-yield example: probability that a Y-branch splitter arm drops
// below 32% power transmission under line-edge (boundary) deformation — the
// paper's test case #9 — plus a look at what the learned proposal says
// about the *failure mechanism* (which deformation modes matter).
//
// Run: ./build/examples/ybranch_yield [seed]

#include <cmath>
#include <cstdio>
#include <optional>

#include "core/nofis.hpp"
#include "rng/normal.hpp"
#include "testcases/circuit_cases.hpp"
#include "util/parse.hpp"

int main(int argc, char** argv) {
    using namespace nofis;

    const auto seed = argc > 1 ? util::parse_u64(argv[1])
                               : std::optional<std::uint64_t>(5);
    if (!seed) {
        std::fprintf(stderr, "error: invalid seed '%s'\n", argv[1]);
        return 2;
    }

    testcases::YBranchCase yb;
    const std::vector<double> nominal(yb.dim(), 0.0);
    std::printf("Photonic Y-branch, %zu deformation modes\n", yb.dim());
    std::printf("Nominal transmission: %.1f%% (spec: >= 32%%)\n",
                100.0 * yb.model().transmission(nominal));

    const auto budget = yb.nofis_budget();
    const core::NofisConfig cfg = testcases::nofis_config_from_budget(budget);
    core::NofisEstimator nofis(cfg,
                               core::LevelSchedule::manual(budget.levels));
    rng::Engine eng(*seed);
    auto run = nofis.run(yb, eng);

    std::printf("\nNOFIS (%zu calls): P[T < 32%%] = %.3e  (golden %.3e)\n",
                run.estimate.calls, run.estimate.p_hat, yb.golden_pr());

    // Failure-mechanism analysis: the learned proposal q_MK concentrates on
    // the failure set, so its per-mode second moments reveal which
    // deformation modes drive transmission loss.
    rng::Engine probe(*seed + 1);
    const auto samples = run.flow->sample(probe, 2000, run.flow->num_blocks());
    std::printf("\nDeformation-mode energy of the learned failure "
                "distribution\n(E[x_k^2] under q_MK; p would give 1.0 "
                "everywhere):\n");
    for (std::size_t k = 0; k < yb.dim(); ++k) {
        double m2 = 0.0;
        for (std::size_t r = 0; r < samples.z.rows(); ++r)
            m2 += samples.z(r, k) * samples.z(r, k);
        m2 /= static_cast<double>(samples.z.rows());
        if (k < 8 || m2 > 1.5)
            std::printf("  mode %2zu: E[x^2] = %.2f %s\n", k + 1, m2,
                        m2 > 1.5 ? "<== failure driver" : "");
    }
    std::printf("\n(Low-order modes dominate: slowly-varying width errors "
                "couple power into the lossy mode most effectively.)\n");
    return 0;
}
