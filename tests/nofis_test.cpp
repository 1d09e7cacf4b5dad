#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <string>

#include "core/levels.hpp"
#include "core/nofis.hpp"
#include "linalg/solver_error.hpp"
#include "rng/normal.hpp"
#include "testcases/synthetic.hpp"

namespace {

using namespace nofis;
using core::LevelSchedule;
using core::NofisConfig;
using core::NofisEstimator;

/// Cheap 2-D analytic problem for end-to-end tests: Ω = {x0 >= t},
/// P = 1 - Φ(t).
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

NofisConfig small_config() {
    NofisConfig cfg;
    cfg.layers_per_block = 4;
    cfg.hidden = {16, 16};
    cfg.epochs = 60;
    cfg.samples_per_epoch = 40;
    cfg.learning_rate = 7e-3;
    cfg.lr_decay = 0.99;
    cfg.tau = 10.0;
    cfg.n_is = 800;
    return cfg;
}

// ---------------------------------------------------------------------------
// LevelSchedule
// ---------------------------------------------------------------------------

TEST(LevelSchedule, ValidatesMonotoneDecreasingEndingAtZero) {
    EXPECT_NO_THROW(LevelSchedule::manual({3.0, 1.0, 0.0}));
    EXPECT_THROW(LevelSchedule::manual({}), std::invalid_argument);
    EXPECT_THROW(LevelSchedule::manual({1.0, 2.0, 0.0}),
                 std::invalid_argument);
    EXPECT_THROW(LevelSchedule::manual({2.0, 2.0, 0.0}),
                 std::invalid_argument);
    EXPECT_THROW(LevelSchedule::manual({2.0, 1.0}), std::invalid_argument);
    const auto ls = LevelSchedule::manual({5.0, 2.0, 0.0});
    EXPECT_EQ(ls.num_levels(), 3u);
    EXPECT_DOUBLE_EQ(ls.level(1), 2.0);
}

TEST(AutoLevels, ProducesValidScheduleAndChargesCalls) {
    HalfSpace2D prob(3.0);
    estimators::CountedProblem counted(prob);
    rng::Engine eng(1);
    core::AutoLevelConfig cfg;
    cfg.num_levels = 4;
    cfg.pilot_samples = 300;
    const auto ls = core::auto_levels(counted, eng, cfg);
    EXPECT_EQ(counted.calls(), 300u);
    ASSERT_EQ(ls.num_levels(), 4u);
    EXPECT_DOUBLE_EQ(ls.level(3), 0.0);
    for (std::size_t m = 1; m < 4; ++m) EXPECT_LT(ls.level(m), ls.level(m - 1));
    // a1 should approximate the 10% quantile of g = 3 - x0, i.e. 3 - q90(x0)
    // ≈ 3 - 1.28 ≈ 1.72.
    EXPECT_NEAR(ls.level(0), 1.72, 0.4);
}

TEST(AutoLevels, DegeneratesToSingleLevelForCommonEvents) {
    HalfSpace2D prob(-1.0);  // P ≈ 0.84: not rare
    estimators::CountedProblem counted(prob);
    rng::Engine eng(2);
    const auto ls = core::auto_levels(counted, eng, {});
    EXPECT_EQ(ls.num_levels(), 1u);
}

/// Half-space whose g is non-finite on part of the pilot cloud — models a
/// guarded problem handing back NaN (propagate policy) or inf (clamp).
class PartiallyNonFinite final : public estimators::RareEventProblem {
public:
    /// Returns NaN whenever x1 > cut, else the HalfSpace2D response.
    explicit PartiallyNonFinite(double t, double cut) : t_(t), cut_(cut) {}
    std::size_t dim() const noexcept override { return 2; }
    double g(std::span<const double> x) const override {
        if (x[1] > cut_) return std::numeric_limits<double>::quiet_NaN();
        return t_ - x[0];
    }

private:
    double t_;
    double cut_;
};

TEST(AutoLevels, StripsNonFinitePilotValuesBeforeQuantile) {
    // ~7% of pilots go NaN; before the fix these sorted unpredictably (NaN
    // breaks strict-weak-ordering) and silently shifted the quantile.
    PartiallyNonFinite prob(3.0, 1.5);
    estimators::CountedProblem counted(prob);
    rng::Engine eng(1);
    core::AutoLevelConfig cfg;
    cfg.num_levels = 4;
    cfg.pilot_samples = 300;
    const auto ls = core::auto_levels(counted, eng, cfg);
    ASSERT_EQ(ls.num_levels(), 4u);
    for (std::size_t m = 0; m < 4; ++m)
        EXPECT_TRUE(std::isfinite(ls.level(m))) << "level " << m;
    for (std::size_t m = 1; m < 4; ++m) EXPECT_LT(ls.level(m), ls.level(m - 1));
    // The finite-subset quantile still lands near the analytic value.
    EXPECT_NEAR(ls.level(0), 1.72, 0.4);
}

/// Returns the call number (1, 2, 3, ...) regardless of input: after
/// sorting, an n-sample pilot's g-values are exactly {1, ..., n}, so the
/// quantile rank the implementation picks is directly observable.
class CallCounterProblem final : public estimators::RareEventProblem {
public:
    std::size_t dim() const noexcept override { return 2; }
    double g(std::span<const double>) const override {
        return static_cast<double>(
            calls_.fetch_add(1, std::memory_order_relaxed) + 1);
    }

private:
    mutable std::atomic<std::size_t> calls_{0};
};

TEST(AutoLevels, QuantileUsesNearestRankNotFloor) {
    // Regression for the off-by-one: with n = 11 sorted values {1..11} and
    // q = 0.95, the nearest-rank index is llround(0.95 * 10) = 10 (value
    // 11). Floor truncation picked index 9 (value 10) — a systematically
    // optimistic first level on small pilots.
    CallCounterProblem prob;
    estimators::CountedProblem counted(prob);
    rng::Engine eng(3);
    core::AutoLevelConfig cfg;
    cfg.num_levels = 3;
    cfg.pilot_samples = 11;
    cfg.head_quantile = 0.95;
    const auto ls = core::auto_levels(counted, eng, cfg);
    EXPECT_DOUBLE_EQ(ls.level(0), 11.0);
}

TEST(AutoLevels, ThrowsStructuredErrorWhenTooFewPilotsAreFinite) {
    PartiallyNonFinite prob(3.0, -100.0);  // every pilot g-value is NaN
    estimators::CountedProblem counted(prob);
    rng::Engine eng(1);
    core::AutoLevelConfig cfg;
    cfg.num_levels = 4;
    cfg.pilot_samples = 200;
    try {
        core::auto_levels(counted, eng, cfg);
        FAIL() << "expected BadInputError";
    } catch (const BadInputError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("auto_levels"), std::string::npos);
        EXPECT_NE(msg.find("finite"), std::string::npos);
    }
}

// ---------------------------------------------------------------------------
// NOFIS end-to-end
// ---------------------------------------------------------------------------

TEST(Nofis, CallAccountingIsExact) {
    HalfSpace2D prob(2.5);
    NofisConfig cfg = small_config();
    NofisEstimator est(cfg, LevelSchedule::manual({1.5, 0.7, 0.0}));
    rng::Engine eng(3);
    const auto res = est.estimate(prob, eng);
    EXPECT_EQ(res.calls,
              3u * cfg.epochs * cfg.samples_per_epoch + cfg.n_is);
}

TEST(Nofis, EstimatesModeratelyRareHalfSpace) {
    HalfSpace2D prob(3.2);  // P ≈ 6.9e-4
    NofisEstimator est(small_config(),
                       LevelSchedule::manual({1.8, 0.9, 0.0}));
    double mean_err = 0.0;
    const int reps = 3;
    for (int r = 0; r < reps; ++r) {
        rng::Engine eng(100 + r);
        const auto res = est.estimate(prob, eng);
        ASSERT_FALSE(res.failed);
        mean_err += estimators::log_error(res.p_hat, prob.analytic());
    }
    EXPECT_LT(mean_err / reps, 0.5);
}

TEST(Nofis, RunExposesDiagnosticsAndTrainedFlow) {
    HalfSpace2D prob(2.8);
    NofisConfig cfg = small_config();
    cfg.epochs = 30;
    NofisEstimator est(cfg, LevelSchedule::manual({1.5, 0.6, 0.0}));
    rng::Engine eng(4);
    const auto run = est.run(prob, eng);

    ASSERT_EQ(run.stages.size(), 3u);
    for (std::size_t m = 0; m < 3; ++m) {
        EXPECT_EQ(run.stages[m].stage, m + 1);
        EXPECT_EQ(run.stages[m].epoch_loss.size(), cfg.epochs);
    }
    // The last stage should put a solid fraction of samples inside Ω.
    EXPECT_GT(run.stages.back().inside_fraction, 0.2);
    ASSERT_NE(run.flow, nullptr);
    EXPECT_EQ(run.flow->num_blocks(), 3u);
    EXPECT_GT(run.is_diag.hits, 0u);
    EXPECT_GT(run.is_diag.effective_sample_size, 1.0);
}

TEST(Nofis, TrainingReducesStageLoss) {
    HalfSpace2D prob(2.8);
    NofisConfig cfg = small_config();
    NofisEstimator est(cfg, LevelSchedule::manual({1.5, 0.6, 0.0}));
    rng::Engine eng(5);
    const auto run = est.run(prob, eng);
    for (const auto& s : run.stages) {
        // Compare the mean of the first and last thirds to be robust to
        // stochastic per-epoch noise.
        const std::size_t third = s.epoch_loss.size() / 3;
        double head = 0.0, tail = 0.0;
        for (std::size_t i = 0; i < third; ++i) {
            head += s.epoch_loss[i];
            tail += s.epoch_loss[s.epoch_loss.size() - 1 - i];
        }
        EXPECT_LT(tail, head) << "stage " << s.stage << " did not improve";
    }
}

TEST(Nofis, ImportanceEstimateReusesTrainedFlow) {
    HalfSpace2D prob(3.0);
    NofisEstimator est(small_config(),
                       LevelSchedule::manual({1.7, 0.8, 0.0}));
    rng::Engine eng(6);
    auto run = est.run(prob, eng);
    // Fresh estimates from the same flow, growing N_IS (Figure 4's sweep).
    estimators::IsDiagnostics diag;
    const auto res = NofisEstimator::importance_estimate(
        *run.flow, prob, eng, 4000, &diag);
    EXPECT_EQ(res.calls, 4000u);
    EXPECT_LT(estimators::log_error(res.p_hat, prob.analytic()), 0.6);
    EXPECT_GT(diag.effective_sample_size, 10.0);
}

/// g is NaN on the half-plane x0 > 0 and 10 (no failure) elsewhere: the
/// true failure probability is 0, and half the draws get no answer.
class NanHalfPlane final : public estimators::RareEventProblem {
public:
    std::size_t dim() const noexcept override { return 2; }
    double g(std::span<const double> x) const override {
        return x[0] > 0.0 ? std::numeric_limits<double>::quiet_NaN() : 10.0;
    }
};

TEST(Nofis, NanSimulatorValueIsNotCountedAsFailure) {
    // Regression: the final IS skipped a draw only when g > 0, so a NaN g
    // counted as a full-weight hit and this P = 0 problem came back as a
    // clean p_hat ≈ 0.48 (hits ≈ N/2). No answer must mean no estimate.
    flow::StackConfig scfg;
    scfg.dim = 2;
    scfg.num_blocks = 1;
    scfg.layers_per_block = 2;
    scfg.hidden = {8};
    rng::Engine init(3);
    const flow::CouplingStack identity(scfg, init);  // fresh = identity map
    NanHalfPlane prob;
    for (const double defensive_weight : {0.0, 0.3}) {
        rng::Engine eng(17);
        estimators::IsDiagnostics diag;
        const auto res = NofisEstimator::importance_estimate(
            identity, prob, eng, 2000, &diag, defensive_weight);
        EXPECT_TRUE(res.failed) << defensive_weight;
        EXPECT_TRUE(std::isnan(res.p_hat)) << defensive_weight;
        EXPECT_EQ(res.calls, 2000u);
        EXPECT_EQ(diag.hits, 0u) << defensive_weight;
        EXPECT_EQ(diag.draws, 2000u);
    }
}

TEST(Nofis, FinalIsRejectsZeroDraws) {
    // Zero draws would report p = 0/0 as a clean estimate; the shared
    // final-IS tail refuses instead, whichever proposal fed it.
    HalfSpace2D prob(2.0);
    EXPECT_THROW(estimators::evaluate_and_reduce(prob, linalg::Matrix(0, 2),
                                                 std::vector<double>{}),
                 std::invalid_argument);
    flow::StackConfig scfg;
    scfg.dim = 2;
    scfg.num_blocks = 1;
    scfg.layers_per_block = 2;
    scfg.hidden = {8};
    rng::Engine init(3);
    const flow::CouplingStack flow(scfg, init);
    for (const double defensive_weight : {0.0, 0.3}) {
        rng::Engine eng(5);
        EXPECT_THROW(NofisEstimator::importance_estimate(
                         flow, prob, eng, 0, nullptr, defensive_weight),
                     std::invalid_argument)
            << defensive_weight;
    }
}

TEST(Nofis, DefensiveMixtureStaysCalibrated) {
    // The defensive proposal must leave the estimator consistent (it only
    // reshapes the sampling distribution, densities stay exact).
    HalfSpace2D prob(3.0);
    NofisConfig cfg = small_config();
    cfg.defensive_weight = 0.4;
    cfg.defensive_sigma = 1.5;
    NofisEstimator est(cfg, LevelSchedule::manual({1.7, 0.8, 0.0}));
    double mean = 0.0;
    const int reps = 3;
    for (int r = 0; r < reps; ++r) {
        rng::Engine eng(200 + r);
        mean += est.estimate(prob, eng).p_hat;
    }
    EXPECT_LT(estimators::log_error(mean / reps, prob.analytic()), 0.5);
}

TEST(Nofis, NoFreezeAblationRuns) {
    HalfSpace2D prob(2.5);
    NofisConfig cfg = small_config();
    cfg.freeze_previous = false;
    cfg.epochs = 25;
    NofisEstimator est(cfg, LevelSchedule::manual({1.4, 0.6, 0.0}));
    rng::Engine eng(7);
    const auto res = est.estimate(prob, eng);
    EXPECT_FALSE(res.failed);
    EXPECT_GT(res.p_hat, 0.0);
}

TEST(Nofis, FreezeLeavesEarlierBlocksUntouched) {
    HalfSpace2D prob(2.5);
    NofisConfig cfg = small_config();
    cfg.epochs = 15;
    NofisEstimator est(cfg, LevelSchedule::manual({1.2, 0.0}));
    rng::Engine eng(8);
    const auto run = est.run(prob, eng);
    // After the full run blocks before the last are frozen; parameters of
    // block 0 must still require no grad, block 1 must be trainable.
    for (const auto& p : run.flow->block_params(0))
        EXPECT_FALSE(p.requires_grad());
    for (const auto& p : run.flow->block_params(1))
        EXPECT_TRUE(p.requires_grad());
}

TEST(Nofis, LeafEndToEndAtReducedBudget) {
    // A trimmed Leaf run (quarter budget) still lands within an order of
    // magnitude — the full-budget behaviour is covered by bench/table1.
    testcases::LeafCase leaf;
    NofisConfig cfg;
    cfg.epochs = 40;
    cfg.samples_per_epoch = 30;
    cfg.n_is = 1000;
    cfg.tau = 30.0;
    cfg.learning_rate = 7e-3;
    cfg.lr_decay = 0.99;
    NofisEstimator est(
        cfg, LevelSchedule::manual({40.0, 28.0, 18.0, 10.0, 4.0, 0.0}));
    rng::Engine eng(9);
    const auto res = est.estimate(leaf, eng);
    EXPECT_FALSE(res.failed);
    EXPECT_LT(estimators::log_error(res.p_hat, leaf.golden_pr()), 2.5);
}

TEST(Nofis, ReproducibleUnderSameSeed) {
    HalfSpace2D prob(2.5);
    NofisEstimator est(small_config(), LevelSchedule::manual({1.2, 0.0}));
    rng::Engine a(11);
    rng::Engine b(11);
    EXPECT_DOUBLE_EQ(est.estimate(prob, a).p_hat,
                     est.estimate(prob, b).p_hat);
}

}  // namespace
