// Latent-space exploration ablation (DESIGN.md §16): plain final IS versus
// annealed-MCMC latent exploration with a defensive-mixture proposal, on the
// same trained flow at IDENTICAL total g-budgets. The latent estimator
// carves K·(S+1) exploration calls out of the n_is budget, so any accuracy
// win is free — it never spends more simulator work than the baseline.
//
// Usage: latent_bench [--cases YBranch,Levy,Powell] [--repeats 3]
//        [--latent-chains K] [--latent-steps S] [--latent-alpha A]
//        [--latent-anneal linear|geom|none] [--train-seed N] [--seed N]
//
// Exit status is the acceptance gate, not just a log line:
//   * On YBranch (when benched) the latent mean |log error| must be <= the
//     plain final-IS mean at the same budget, else FAIL (exit 1).
//   * The latent estimate must be bitwise identical across --threads {1,8}
//     x cache {off, cold, warm} x kernels {scalar, simd}, else FAIL.

#include <cmath>
#include <cstring>

#include "bench_common.hpp"
#include "estimators/guarded_problem.hpp"
#include "latent/latent_explore.hpp"
#include "testcases/registry.hpp"

namespace {

/// Bitwise double comparison — the determinism contract is equality of the
/// representation, not closeness.
bool same_bits(double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace nofis;
    using namespace nofis::bench;

    apply_threads_flag(argc, argv);
    apply_kernels_flag(argc, argv);
    MetricsSession metrics(argc, argv);

    const auto repeats = size_flag(argc, argv, "--repeats", "3", 1);
    const auto cases =
        split_csv(arg_value(argc, argv, "--cases", "YBranch,Levy,Powell"));
    const auto train_seed = u64_flag(argc, argv, "--train-seed", "9001");
    const auto est_seed = u64_flag(argc, argv, "--seed", "777");
    latent::LatentConfig lcfg = latent_config_from_flags(argc, argv);
    lcfg.enabled = true;

    std::printf("Latent exploration vs plain final IS — %zu repeat(s), "
                "identical g-budget per row\n", repeats);
    std::printf("%-10s %-10s %-9s %-9s %-7s %-7s %-8s %-7s\n", "case",
                "estimator", "log-err", "ess", "hits", "calls", "accept",
                "comps");

    bool failed = false;
    for (const auto& name : cases) {
        const auto tc = testcases::make_case(name);
        const auto budget = tc->nofis_budget();
        const auto cfg = nofis_config_from_budget(budget);
        const core::NofisEstimator trainer(
            cfg, core::LevelSchedule::manual(budget.levels));
        rng::Engine teng(train_seed);
        const auto run = trainer.run(*tc, teng);
        if (run.flow == nullptr) {
            std::printf("%-10s training did not return a flow — FAIL\n",
                        name.c_str());
            failed = true;
            continue;
        }
        const flow::CouplingStack& stack = *run.flow;
        const estimators::GuardedProblem guarded(*tc);

        struct Acc {
            double err = 0.0, ess = 0.0, hits = 0.0, calls = 0.0;
            double accept = 0.0, comps = 0.0;
        } plain, lat;
        // The final-IS step of a run on the one trained flow, with latent
        // exploration off (plain) or on, at the same seed and g-budget.
        auto final_is = [&](bool explore, std::uint64_t seed, Acc& acc) {
            core::NofisConfig fcfg = cfg;
            fcfg.latent = lcfg;
            fcfg.latent.enabled = explore;
            rng::Engine eng(seed);
            estimators::IsDiagnostics d;
            latent::LatentReport rep;
            const auto res = core::NofisEstimator::final_estimate(
                stack, guarded, eng, fcfg, budget.levels.front(), &d, &rep);
            acc.err += estimators::log_error(res.p_hat, tc->golden_pr());
            acc.ess += d.effective_sample_size;
            acc.hits += static_cast<double>(d.hits);
            acc.calls += static_cast<double>(res.calls);
            acc.accept += rep.acceptance_rate;
            acc.comps += static_cast<double>(rep.components);
        };
        for (std::size_t r = 0; r < repeats; ++r) {
            final_is(false, est_seed + 101 * r, plain);
            final_is(true, est_seed + 101 * r, lat);
        }
        const auto dr = static_cast<double>(repeats);
        std::printf("%-10s %-10s %-9.3f %-9.1f %-7.0f %-7.0f %-8s %-7s\n",
                    name.c_str(), "plain", plain.err / dr, plain.ess / dr,
                    plain.hits / dr, plain.calls / dr, "-", "-");
        std::printf("%-10s %-10s %-9.3f %-9.1f %-7.0f %-7.0f %-8.3f %-7.0f\n",
                    name.c_str(), "latent", lat.err / dr, lat.ess / dr,
                    lat.hits / dr, lat.calls / dr, lat.accept / dr,
                    lat.comps / dr);
        std::fflush(stdout);
        if (!same_bits(plain.calls, lat.calls)) {
            std::printf("  FAIL: g-budgets differ (plain %.0f vs latent "
                        "%.0f)\n", plain.calls / dr, lat.calls / dr);
            failed = true;
        }
        if (name == "YBranch" && !(lat.err <= plain.err)) {
            std::printf("  FAIL: latent mean log-err %.3f > plain %.3f on "
                        "YBranch at identical budget\n", lat.err / dr,
                        plain.err / dr);
            failed = true;
        }

        // Determinism matrix on the post-training phase: the latent
        // estimate must not depend on thread count, kernel flavour, or
        // cache state (DESIGN.md §13/§16).
        double ref_p = 0.0;
        bool have_ref = false;
        bool det_ok = true;
        for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
            parallel::set_num_threads(threads);
            for (const char* kname : {"scalar", "simd"}) {
                linalg::kernels::set_choice(
                    *linalg::kernels::parse_choice(kname));
                auto cache = std::make_shared<evalcache::EvalCache>(
                    evalcache::CacheConfig{});
                for (const char* mode : {"off", "cold", "warm"}) {
                    std::unique_ptr<evalcache::CachedProblem> cached;
                    const estimators::RareEventProblem* prob = &guarded;
                    if (std::strcmp(mode, "off") != 0) {
                        cached = std::make_unique<evalcache::CachedProblem>(
                            *tc, cache, testcases::cache_key(*tc));
                        prob = cached.get();
                    }
                    rng::Engine eng(est_seed);
                    const auto res = latent::explore_and_estimate(
                        *run.flow, *prob, eng, cfg.n_is, cfg.tau,
                        budget.levels.front(), lcfg);
                    if (!have_ref) {
                        ref_p = res.p_hat;
                        have_ref = true;
                    } else if (!same_bits(res.p_hat, ref_p)) {
                        std::printf("  FAIL: determinism break at threads=%zu "
                                    "kernels=%s cache=%s (p_hat %.17g vs "
                                    "%.17g)\n", threads, kname, mode,
                                    res.p_hat, ref_p);
                        det_ok = false;
                    }
                }
            }
        }
        linalg::kernels::set_choice(linalg::kernels::Choice::kAuto);
        if (det_ok)
            std::printf("  determinism: threads {1,8} x kernels "
                        "{scalar,simd} x cache {off,cold,warm} bitwise OK\n");
        else
            failed = true;
    }

    std::printf("\n(The latent estimator re-invests part of the final-IS "
                "budget into annealed Metropolis chains in the flow's base "
                "space; the defensive mixture\nalpha*flow + "
                "(1-alpha)*refined bounds the weight blow-up when the flow "
                "under-covers a failure lobe. alpha -> 1 degenerates to "
                "plain final IS.\nSee EXPERIMENTS.md §latent-explore for "
                "measured tables.)\n");
    if (failed) {
        std::printf("latent_bench: FAIL\n");
        return 1;
    }
    std::printf("latent_bench: PASS\n");
    return 0;
}
