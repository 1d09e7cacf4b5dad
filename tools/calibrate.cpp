// Calibration utility (development-time): measures nominal responses,
// g-quantiles under p, and failure probabilities for the test-case models so
// thresholds / golden values hard-coded in src/testcases can be set
// honestly. Recipes and results are recorded in EXPERIMENTS.md.
//
// Usage: calibrate <case> <num_samples> [mode]
//   mode "mc"  (default): plain MC estimate of P[g<=0] + quantiles of g
//   mode "sus": deep subset simulation estimate (for very rare cases)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "estimators/sus.hpp"
#include "rng/normal.hpp"
#include "testcases/registry.hpp"
#include "util/parse.hpp"

using namespace nofis;

int main(int argc, char** argv) {
    if (argc < 3) {
        std::fprintf(stderr, "usage: calibrate <case> <samples> [mc|sus]\n");
        return 1;
    }
    const std::string name = argv[1];
    const auto parsed_n = util::parse_u64(argv[2]);
    if (!parsed_n) {
        std::fprintf(stderr, "error: invalid sample count '%s'\n", argv[2]);
        return 2;
    }
    const std::size_t n = static_cast<std::size_t>(*parsed_n);
    const std::string mode = argc > 3 ? argv[3] : "mc";
    if (mode != "mc" && mode != "sus") {
        std::fprintf(stderr, "error: unknown mode '%s' (expected mc|sus)\n",
                     mode.c_str());
        return 2;
    }

    auto tc = testcases::make_case(name);
    rng::Engine eng(123456789);

    std::vector<double> zero(tc->dim(), 0.0);
    std::printf("%s: dim=%zu g(0)=%.6g golden(hardcoded)=%.4g\n", name.c_str(),
                tc->dim(), tc->g(zero), tc->golden_pr());

    if (mode == "sus") {
        double sum = 0.0;
        const int reps = 5;
        for (int r = 0; r < reps; ++r) {
            rng::Engine e2(999 + r);
            estimators::SubsetSimulationEstimator sus(
                {.samples_per_level = n, .p0 = 0.1, .max_levels = 14,
                 .proposal_spread = 1.0});
            const auto res = sus.estimate(*tc, e2);
            std::printf("  sus rep %d: p=%.5e calls=%zu%s\n", r, res.p_hat,
                        res.calls, res.failed ? " FAILED" : "");
            sum += res.p_hat;
        }
        std::printf("  sus mean: %.5e\n", sum / reps);
        return 0;
    }

    // Plain MC with quantile report.
    std::vector<double> gv;
    gv.reserve(n);
    std::size_t hits = 0;
    const std::size_t chunk = 8192;
    std::vector<double> x(tc->dim());
    for (std::size_t done = 0; done < n;) {
        const std::size_t b = std::min(chunk, n - done);
        for (std::size_t i = 0; i < b; ++i) {
            rng::fill_standard_normal(eng, x);
            const double g = tc->g(x);
            gv.push_back(g);
            if (g <= 0.0) ++hits;
        }
        done += b;
    }
    std::printf("  P[g<=0] = %.5e  (%zu/%zu hits)\n",
                static_cast<double>(hits) / static_cast<double>(n), hits, n);
    std::sort(gv.begin(), gv.end());
    for (double q : {1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.25, 0.5, 0.9}) {
        const auto idx = static_cast<std::size_t>(
            q * static_cast<double>(gv.size() - 1));
        std::printf("  quantile %-7g -> g = %.6g\n", q, gv[idx]);
    }
    return 0;
}
