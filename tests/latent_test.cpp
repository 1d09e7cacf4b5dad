// Tests for the latent-space exploration estimator (DESIGN.md §16):
// annealing ladder, Metropolis chains in the flow's base space, refinement
// fit, defensive-mixture final IS, and the NofisEstimator integration —
// including the honest g-call ledger and the bitwise determinism contract.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "core/levels.hpp"
#include "core/nofis.hpp"
#include "estimators/guarded_problem.hpp"
#include "evalcache/eval_cache.hpp"
#include "latent/anneal.hpp"
#include "latent/chain.hpp"
#include "latent/defensive_is.hpp"
#include "latent/latent_explore.hpp"
#include "latent/refine.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/normal.hpp"
#include "telemetry/telemetry.hpp"
#include "testcases/fault_injector.hpp"

namespace {

using namespace nofis;
using core::LevelSchedule;
using core::NofisConfig;
using core::NofisEstimator;
using latent::AnnealKind;
using latent::AnnealSchedule;

/// Cheap 2-D analytic problem: Ω = {x0 >= t}, P = 1 - Φ(t).
class HalfSpace2D final : public estimators::RareEventProblem {
public:
    explicit HalfSpace2D(double t) : t_(t) {}
    std::size_t dim() const noexcept override { return 2; }
    double g(std::span<const double> x) const override { return t_ - x[0]; }
    double g_grad(std::span<const double> x,
                  std::span<double> grad) const override {
        grad[0] = -1.0;
        grad[1] = 0.0;
        return t_ - x[0];
    }
    double analytic() const { return 1.0 - rng::normal_cdf(t_); }

private:
    double t_;
};

NofisConfig small_latent_config() {
    NofisConfig cfg;
    cfg.layers_per_block = 4;
    cfg.hidden = {16, 16};
    cfg.epochs = 60;
    cfg.samples_per_epoch = 40;
    cfg.learning_rate = 7e-3;
    cfg.lr_decay = 0.99;
    cfg.tau = 10.0;
    cfg.n_is = 800;
    cfg.latent.enabled = true;
    cfg.latent.chains = 4;
    cfg.latent.steps = 10;
    return cfg;
}

/// Small freshly-initialised stack — a near-identity transport (the
/// conditioner MLPs start at small random weights), good enough for chain
/// mechanics tests that do not need a trained proposal.
flow::CouplingStack fresh_stack(std::size_t dim, std::uint64_t seed) {
    flow::StackConfig cfg;
    cfg.dim = dim;
    cfg.num_blocks = 1;
    cfg.layers_per_block = 2;
    cfg.hidden = {8};
    rng::Engine eng(seed);
    return flow::CouplingStack(cfg, eng);
}

bool same_bits(double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// AnnealSchedule
// ---------------------------------------------------------------------------
TEST(Anneal, ParseRoundTripAndRejectsUnknown) {
    EXPECT_EQ(latent::parse_anneal("linear"), AnnealKind::kLinear);
    EXPECT_EQ(latent::parse_anneal("geom"), AnnealKind::kGeom);
    EXPECT_EQ(latent::parse_anneal("none"), AnnealKind::kNone);
    EXPECT_THROW(latent::parse_anneal("cosine"), std::invalid_argument);
    EXPECT_STREQ(latent::anneal_name(AnnealKind::kLinear), "linear");
    EXPECT_STREQ(latent::anneal_name(AnnealKind::kGeom), "geom");
    EXPECT_STREQ(latent::anneal_name(AnnealKind::kNone), "none");
}

TEST(Anneal, LaddersStartAtAStartAndEndAtExactlyZero) {
    for (const auto kind : {AnnealKind::kLinear, AnnealKind::kGeom}) {
        const AnnealSchedule s(kind, 2.0, 10);
        EXPECT_DOUBLE_EQ(s.level(0), 2.0) << latent::anneal_name(kind);
        EXPECT_EQ(s.level(10), 0.0) << latent::anneal_name(kind);
        EXPECT_EQ(s.level(999), 0.0) << latent::anneal_name(kind);
        for (std::size_t t = 1; t <= 10; ++t)
            EXPECT_LE(s.level(t), s.level(t - 1))
                << latent::anneal_name(kind) << " step " << t;
    }
}

TEST(Anneal, NoneAndNonPositiveStartCollapseToZero) {
    const AnnealSchedule none(AnnealKind::kNone, 5.0, 10);
    const AnnealSchedule flat(AnnealKind::kLinear, 0.0, 10);
    for (std::size_t t = 0; t <= 10; ++t) {
        EXPECT_EQ(none.level(t), 0.0);
        EXPECT_EQ(flat.level(t), 0.0);
    }
}

// ---------------------------------------------------------------------------
// Metropolis chains in base space
// ---------------------------------------------------------------------------
TEST(Explore, DeterministicAcrossRepeatsAndThreadCounts) {
    const auto stack = fresh_stack(2, 11);
    HalfSpace2D prob(2.0);
    latent::ChainConfig cfg;
    cfg.chains = 4;
    cfg.steps = 20;
    cfg.tau = 5.0;
    cfg.a_start = 1.0;

    const auto a = latent::explore(stack, prob, cfg, 0xfeedULL);
    const auto b = latent::explore(stack, prob, cfg, 0xfeedULL);
    parallel::set_num_threads(8);
    const auto c = latent::explore(stack, prob, cfg, 0xfeedULL);
    parallel::set_num_threads(1);

    ASSERT_EQ(a.harvest.rows(), b.harvest.rows());
    ASSERT_EQ(a.harvest.rows(), c.harvest.rows());
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.accepted, c.accepted);
    for (std::size_t r = 0; r < a.harvest.rows(); ++r)
        for (std::size_t j = 0; j < a.harvest.cols(); ++j) {
            EXPECT_TRUE(same_bits(a.harvest(r, j), b.harvest(r, j)));
            EXPECT_TRUE(same_bits(a.harvest(r, j), c.harvest(r, j)));
        }
}

TEST(Explore, LedgerMatchesConfig) {
    const auto stack = fresh_stack(2, 7);
    HalfSpace2D prob(1.5);
    latent::ChainConfig cfg;
    cfg.chains = 3;
    cfg.steps = 8;
    const auto res = latent::explore(stack, prob, cfg, 1);
    EXPECT_EQ(res.g_calls, 3u * 9u);
    EXPECT_EQ(res.proposals, 3u * 8u);
    EXPECT_LE(res.accepted, res.proposals);
    // steps/2 burn-in, the rest harvested for every chain.
    EXPECT_EQ(res.harvest.rows(), (8u - 4u) * 3u);
    EXPECT_EQ(res.harvest_chain.size(), res.harvest.rows());
}

TEST(Explore, ChainsMigrateIntoShiftedFailureLobe) {
    // Failure at x0 >= 3 — about 4.9σ of base mass away from the origin
    // start. The annealed tempered target must pull the walkers there.
    const auto stack = fresh_stack(2, 3);
    HalfSpace2D prob(3.0);
    latent::ChainConfig cfg;
    cfg.chains = 4;
    cfg.steps = 200;
    cfg.tau = 5.0;
    cfg.a_start = 2.0;
    const auto res = latent::explore(stack, prob, cfg, 99);
    double mean_x0 = 0.0;
    for (std::size_t r = 0; r < res.harvest.rows(); ++r)
        mean_x0 += res.harvest(r, 0);
    mean_x0 /= static_cast<double>(res.harvest.rows());
    EXPECT_GT(mean_x0, 1.0);
    EXPECT_GT(res.acceptance_rate(), 0.05);
    EXPECT_LT(res.acceptance_rate(), 0.95);
}

TEST(Explore, ValidatesArguments) {
    const auto stack = fresh_stack(2, 5);
    HalfSpace2D prob(1.0);
    latent::ChainConfig cfg;
    cfg.chains = 0;
    EXPECT_THROW(latent::explore(stack, prob, cfg, 1),
                 std::invalid_argument);
    cfg.chains = 2;
    cfg.steps = 0;
    EXPECT_THROW(latent::explore(stack, prob, cfg, 1),
                 std::invalid_argument);
    const auto stack3 = fresh_stack(3, 5);
    cfg.steps = 4;
    EXPECT_THROW(latent::explore(stack3, prob, cfg, 1),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Refinement fit
// ---------------------------------------------------------------------------
TEST(Refine, OneComponentPerChainNearItsStates) {
    latent::ExploreResult ex;
    ex.harvest = linalg::Matrix(8, 2);
    // Chain 0 parked near (5, 0); chain 1 near (-5, 0).
    for (std::size_t r = 0; r < 8; ++r) {
        const bool first = r % 2 == 0;
        ex.harvest(r, 0) = first ? 5.0 + 0.01 * static_cast<double>(r)
                                 : -5.0 - 0.01 * static_cast<double>(r);
        ex.harvest(r, 1) = 0.1 * static_cast<double>(r % 4);
        ex.harvest_chain.push_back(first ? 0 : 1);
    }
    latent::RefineConfig rc;
    rc.em_iters = 0;  // keep the raw per-chain moment fit
    const auto mix = latent::fit_refinement(ex, 2, rc);
    ASSERT_EQ(mix.num_components(), 2u);
    double lo = 0.0, hi = 0.0;
    for (std::size_t c = 0; c < 2; ++c) {
        lo = std::min(lo, mix.component(c).mean[0]);
        hi = std::max(hi, mix.component(c).mean[0]);
    }
    EXPECT_NEAR(hi, 5.0, 0.2);
    EXPECT_NEAR(lo, -5.0, 0.2);
    for (std::size_t c = 0; c < 2; ++c)
        for (const double s : mix.component(c).sigma)
            EXPECT_GE(s, rc.sigma_floor);
}

TEST(Refine, RejectsEmptyHarvest) {
    latent::ExploreResult ex;
    EXPECT_THROW(latent::fit_refinement(ex, 2), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Full estimator integration
// ---------------------------------------------------------------------------
TEST(LatentRun, AccuracyAndExactCallAccounting) {
    HalfSpace2D prob(2.8);
    const NofisConfig cfg = small_latent_config();
    NofisEstimator est(cfg, LevelSchedule::manual({1.5, 0.6, 0.0}));
    rng::Engine eng(4);
    const auto run = est.run(prob, eng);

    ASSERT_FALSE(run.estimate.failed);
    // Same total budget as a plain run: training plus exactly n_is.
    EXPECT_EQ(run.estimate.calls,
              3u * cfg.epochs * cfg.samples_per_epoch + cfg.n_is);
    const auto& rep = run.latent_report;
    EXPECT_EQ(rep.explore_calls, cfg.latent.chains * (cfg.latent.steps + 1));
    EXPECT_EQ(rep.explore_calls + rep.final_is_draws, cfg.n_is);
    EXPECT_EQ(rep.harvest_rows,
              (cfg.latent.steps - cfg.latent.steps / 2) * cfg.latent.chains);
    EXPECT_GE(rep.components, 1u);
    EXPECT_LE(rep.components, cfg.latent.chains);
    EXPECT_LT(estimators::log_error(run.estimate.p_hat, prob.analytic()),
              1.0);
    EXPECT_GT(run.is_diag.hits, 0u);
}

TEST(LatentRun, HonestLedgerSumsToProblemCalls) {
    HalfSpace2D inner(2.5);
    testcases::FaultInjectorConfig fic;  // all rates zero: pure call counter
    // The phase counters ledger g-VALUE evaluations; keep the injector's
    // counter on the same basis by letting gradient calls pass through.
    fic.affect_grad = false;
    const testcases::FaultInjector prob(inner, fic);

    telemetry::RunTrace trace;
    telemetry::set_active(&trace);
    const NofisConfig cfg = small_latent_config();
    NofisEstimator est(cfg, LevelSchedule::manual({1.4, 0.6, 0.0}));
    rng::Engine eng(9);
    const auto res = est.estimate(prob, eng);
    telemetry::set_active(nullptr);

    ASSERT_FALSE(res.failed);
    const auto train = trace.counter("g_calls.train");
    const auto final_is = trace.counter("g_calls.final_is");
    const auto explore = trace.counter("g_calls.latent_explore");
    EXPECT_GT(train, 0u);
    EXPECT_GT(final_is, 0u);
    EXPECT_EQ(explore, cfg.latent.chains * (cfg.latent.steps + 1));
    // Every g evaluation the estimator made is attributed to exactly one
    // phase counter — nothing double-counted, nothing dropped.
    EXPECT_EQ(train + final_is + explore, prob.calls());
    EXPECT_EQ(train + final_is + explore, res.calls);
}

TEST(LatentRun, BitwiseIdenticalAcrossCacheOffColdWarm) {
    HalfSpace2D prob(2.6);
    const auto run_with = [&](std::shared_ptr<evalcache::EvalCache> cache) {
        NofisConfig cfg = small_latent_config();
        cfg.epochs = 30;
        if (cache) {
            cfg.cache = std::move(cache);
            cfg.cache_key = "latent-halfspace-test";
        }
        NofisEstimator est(cfg, LevelSchedule::manual({1.4, 0.0}));
        rng::Engine eng(21);
        return est.estimate(prob, eng);
    };
    const auto off = run_with(nullptr);
    const auto cache =
        std::make_shared<evalcache::EvalCache>(evalcache::CacheConfig{});
    const auto cold = run_with(cache);
    const auto warm = run_with(cache);
    EXPECT_TRUE(same_bits(off.p_hat, cold.p_hat));
    EXPECT_TRUE(same_bits(off.p_hat, warm.p_hat));
    EXPECT_EQ(off.calls, cold.calls);
    EXPECT_EQ(off.calls, warm.calls);
    // Only the fresh/cached split may move.
    EXPECT_EQ(cold.cached_calls, 0u);
    EXPECT_GT(warm.cached_calls, 0u);
}

TEST(LatentRun, ThrowsWhenExplorationEatsTheWholeBudget) {
    const auto stack = fresh_stack(2, 13);
    HalfSpace2D prob(2.0);
    const estimators::GuardedProblem guarded(prob);
    latent::LatentConfig cfg;
    cfg.enabled = true;
    cfg.chains = 4;
    cfg.steps = 10;  // exploration needs 44 calls
    rng::Engine eng(1);
    EXPECT_THROW(latent::explore_and_estimate(stack, guarded, eng, 44, 10.0,
                                              1.0, cfg),
                 std::invalid_argument);
    EXPECT_THROW(latent::explore_and_estimate(stack, guarded, eng, 20, 10.0,
                                              1.0, cfg),
                 std::invalid_argument);
}

TEST(LatentRun, AlphaValidated) {
    const auto stack = fresh_stack(2, 13);
    HalfSpace2D prob(2.0);
    const estimators::GuardedProblem guarded(prob);
    latent::LatentConfig cfg;
    cfg.enabled = true;
    cfg.chains = 2;
    cfg.steps = 4;
    rng::Engine eng(1);
    for (const double bad : {0.0, -0.5, 1.5}) {
        cfg.alpha = bad;
        EXPECT_THROW(latent::explore_and_estimate(stack, guarded, eng, 200,
                                                  10.0, 1.0, cfg),
                     std::invalid_argument)
            << "alpha " << bad;
    }
}

TEST(LatentRun, NanSimulatorValueFailsTheDefensiveEstimate) {
    // g is NaN for x0 > 0 and 10 elsewhere (P = 0): a draw with no answer
    // must not be counted as a failure, so the estimate reports failed.
    class NanHalfPlane final : public estimators::RareEventProblem {
    public:
        std::size_t dim() const noexcept override { return 2; }
        double g(std::span<const double> x) const override {
            return x[0] > 0.0 ? std::numeric_limits<double>::quiet_NaN()
                              : 10.0;
        }
    };
    const auto stack = fresh_stack(2, 13);
    const NanHalfPlane prob;
    const dist::GaussianMixture refined(
        {{1.0, std::vector<double>{1.0, 0.0}, std::vector<double>{0.5, 0.5}}});
    rng::Engine eng(5);
    estimators::IsDiagnostics diag;
    const auto res =
        latent::defensive_estimate(stack, prob, eng, 500, refined, 0.8, &diag);
    EXPECT_TRUE(res.failed);
    EXPECT_TRUE(std::isnan(res.p_hat));
    EXPECT_EQ(diag.hits, 0u);
    EXPECT_EQ(res.calls, 500u);
}

}  // namespace
