#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "estimators/adaptive_is.hpp"
#include "estimators/importance.hpp"
#include "estimators/monte_carlo.hpp"
#include "estimators/problem.hpp"
#include "estimators/sir.hpp"
#include "estimators/sss.hpp"
#include "estimators/suc.hpp"
#include "estimators/sus.hpp"
#include "linalg/solver_error.hpp"
#include "rng/normal.hpp"
#include "testcases/synthetic.hpp"

namespace {

using namespace nofis;
using estimators::CountedProblem;
using estimators::RareEventProblem;

/// 1-D half-space problem with analytic probability: Ω = {x0 >= t},
/// P = 1 - Φ(t). Dimension padded so higher-D estimators exercise their
/// code paths.
class HalfSpace final : public RareEventProblem {
public:
    HalfSpace(std::size_t dim, double threshold)
        : dim_(dim), threshold_(threshold) {}
    std::size_t dim() const noexcept override { return dim_; }
    double g(std::span<const double> x) const override {
        return threshold_ - x[0];
    }
    double analytic() const { return 1.0 - rng::normal_cdf(threshold_); }

private:
    std::size_t dim_;
    double threshold_;
};

/// Tilted slab: Ω = {aᵀx >= t‖a‖}, analytic P = 1 - Φ(t).
class Slab final : public RareEventProblem {
public:
    Slab(std::vector<double> a, double t) : a_(std::move(a)), t_(t) {
        norm_ = linalg::norm2(a_);
    }
    std::size_t dim() const noexcept override { return a_.size(); }
    double g(std::span<const double> x) const override {
        return t_ * norm_ - linalg::dot(a_, x);
    }
    double analytic() const { return 1.0 - rng::normal_cdf(t_); }

private:
    std::vector<double> a_;
    double t_;
    double norm_;
};

TEST(LogError, Definition) {
    EXPECT_NEAR(estimators::log_error(1e-5, 1e-5), 0.0, 1e-12);
    EXPECT_NEAR(estimators::log_error(2.718281828e-5, 1e-5), 1.0, 1e-6);
    EXPECT_NEAR(estimators::log_error(1e-5, 2.718281828e-5), 1.0, 1e-6);
    // The floor keeps zero estimates finite.
    EXPECT_NEAR(estimators::log_error(0.0, 1e-5, 1e-10),
                std::log(1e-5) - std::log(1e-10), 1e-9);
    EXPECT_THROW(estimators::log_error(0.1, 0.0), std::invalid_argument);
}

TEST(MonteCarlo, UnbiasedOnCommonEvent) {
    HalfSpace prob(3, 1.0);  // P ≈ 0.1587
    estimators::MonteCarloEstimator mc({.num_samples = 200000, .batch = 8192});
    rng::Engine eng(1);
    const auto res = mc.estimate(prob, eng);
    EXPECT_EQ(res.calls, 200000u);
    EXPECT_NEAR(res.p_hat, prob.analytic(), 0.003);
    EXPECT_FALSE(res.failed);
}

TEST(MonteCarlo, ZeroEstimateOnVeryRareEvent) {
    HalfSpace prob(2, 6.0);  // P ≈ 1e-9
    estimators::MonteCarloEstimator mc({.num_samples = 10000, .batch = 4096});
    rng::Engine eng(2);
    EXPECT_DOUBLE_EQ(mc.estimate(prob, eng).p_hat, 0.0);
}

TEST(SubsetSimulation, RecoversHalfSpaceTail) {
    HalfSpace prob(4, 4.0);  // P ≈ 3.17e-5
    estimators::SubsetSimulationEstimator sus(
        {.samples_per_level = 3000, .p0 = 0.1, .max_levels = 10,
         .proposal_spread = 1.0});
    double mean = 0.0;
    const int reps = 5;
    for (int r = 0; r < reps; ++r) {
        rng::Engine eng(10 + r);
        const auto res = sus.estimate(prob, eng);
        ASSERT_FALSE(res.failed);
        mean += res.p_hat;
    }
    mean /= reps;
    EXPECT_LT(estimators::log_error(mean, prob.analytic()), 0.35);
}

TEST(SubsetSimulation, MatchesAnalyticCubeProbability) {
    testcases::CubeCase cube;
    estimators::SubsetSimulationEstimator sus(
        {.samples_per_level = 4000, .p0 = 0.1, .max_levels = 14,
         .proposal_spread = 1.0});
    double mean = 0.0;
    const int reps = 3;
    for (int r = 0; r < reps; ++r) {
        rng::Engine eng(30 + r);
        const auto res = sus.estimate(cube, eng);
        ASSERT_FALSE(res.failed);
        mean += res.p_hat;
    }
    mean /= reps;
    EXPECT_LT(estimators::log_error(mean, cube.golden_pr()), 1.0);
}

TEST(SubsetSimulation, TerminatesOnCommonEvent) {
    HalfSpace prob(2, 0.5);  // P ≈ 0.31 — level 0 already suffices.
    estimators::SubsetSimulationEstimator sus({.samples_per_level = 2000});
    rng::Engine eng(4);
    const auto res = sus.estimate(prob, eng);
    EXPECT_NEAR(res.p_hat, prob.analytic(), 0.03);
    EXPECT_EQ(res.calls, 2000u);
}

TEST(SubsetSimulation, FailsGracefullyAtMaxLevels) {
    HalfSpace prob(2, 15.0);  // essentially unreachable
    estimators::SubsetSimulationEstimator sus(
        {.samples_per_level = 500, .p0 = 0.1, .max_levels = 3});
    rng::Engine eng(5);
    const auto res = sus.estimate(prob, eng);
    EXPECT_TRUE(res.failed || res.p_hat < 1e-6);
}

TEST(ScaledSigma, RecoversLinearLimitState) {
    // For a half-space, log P(s) = log(1 - Φ(t/s)) is captured well by the
    // SSS model; extrapolation should land within a factor of ~2.
    HalfSpace prob(6, 4.2);  // P ≈ 1.33e-5
    estimators::ScaledSigmaEstimator sss(
        {.sigmas = {1.5, 2.0, 2.5, 3.0, 3.5, 4.0}, .total_samples = 120000});
    double mean_err = 0.0;
    const int reps = 3;
    for (int r = 0; r < reps; ++r) {
        rng::Engine eng(40 + r);
        const auto res = sss.estimate(prob, eng);
        ASSERT_FALSE(res.failed);
        mean_err += estimators::log_error(res.p_hat, prob.analytic());
    }
    EXPECT_LT(mean_err / reps, 1.0);
}

TEST(ScaledSigma, FailsWhenNoSigmaReachesFailure) {
    HalfSpace prob(2, 40.0);
    estimators::ScaledSigmaEstimator sss(
        {.sigmas = {1.5, 2.0, 2.5}, .total_samples = 3000});
    rng::Engine eng(6);
    const auto res = sss.estimate(prob, eng);
    EXPECT_TRUE(res.failed);
    EXPECT_EQ(res.calls, 3000u);  // 1000 per sigma x 3 — budget still spent
}

TEST(AdaptiveIs, FindsShiftedSlabRegion) {
    Slab prob({1.0, 1.0, 1.0}, 4.0);  // P ≈ 3.17e-5
    estimators::AdaptiveIsEstimator ais(
        {.num_components = 2, .iterations = 5,
         .samples_per_iteration = 3000, .final_samples = 4000});
    double mean_err = 0.0;
    const int reps = 3;
    for (int r = 0; r < reps; ++r) {
        rng::Engine eng(50 + r);
        const auto res = ais.estimate(prob, eng);
        mean_err += estimators::log_error(res.p_hat, prob.analytic());
    }
    EXPECT_LT(mean_err / reps, 0.5);
}

TEST(AdaptiveIs, CallAccountingMatchesConfig) {
    HalfSpace prob(2, 2.0);
    estimators::AdaptiveIsEstimator ais(
        {.num_components = 2, .iterations = 3,
         .samples_per_iteration = 500, .final_samples = 700});
    rng::Engine eng(7);
    EXPECT_EQ(ais.estimate(prob, eng).calls, 3u * 500u + 700u);
}

TEST(Sir, LearnsSmoothBoundary) {
    HalfSpace prob(4, 3.0);  // P ≈ 1.35e-3 — learnable boundary
    estimators::SirEstimator sir(
        {.train_samples = 20000, .surrogate_evals = 400000,
         .hidden = {32, 32}, .epochs = 40});
    rng::Engine eng(8);
    const auto res = sir.estimate(prob, eng);
    EXPECT_EQ(res.calls, 20000u);
    EXPECT_LT(estimators::log_error(res.p_hat, prob.analytic()), 1.0);
}

// ---------------------------------------------------------------------------
// The shared importance-sampling reduction
// ---------------------------------------------------------------------------

/// Four 1-D draws whose log q makes the weights p/q = {1, 2, 4, 0.5}, with
/// g placing rows 0, 1 (g = 0 is a failure) and 3 inside Ω.
struct HandDraws {
    linalg::Matrix x{{0.0}, {0.5}, {-1.0}, {2.0}};
    std::vector<double> log_q;
    std::vector<double> g{-1.0, 0.0, 3.0, -2.0};
    HandDraws() {
        const double w[] = {1.0, 2.0, 4.0, 0.5};
        for (std::size_t r = 0; r < 4; ++r)
            log_q.push_back(rng::standard_normal_log_pdf(x.row_span(r)) -
                            std::log(w[r]));
    }
};

TEST(ImportanceReduce, MatchesHandComputedDraws) {
    const HandDraws h;
    const auto est = estimators::importance_reduce(h.x, h.log_q, h.g);
    const auto& d = est.diag;
    EXPECT_NEAR(est.p_hat, (1.0 + 2.0 + 0.5) / 4.0, 1e-12);
    EXPECT_EQ(d.hits, 3u);
    EXPECT_EQ(d.draws, 4u);
    // Hit ESS (1 + 2 + 0.5)² / (1 + 4 + 0.25).
    EXPECT_NEAR(d.effective_sample_size, 12.25 / 5.25, 1e-12);
    // All-draw ESS (7.5)² / (1 + 4 + 16 + 0.25).
    EXPECT_NEAR(d.ess_all, 56.25 / 21.25, 1e-12);
    // CV: mean 1.875, E[w²] = 5.3125, var = 1.796875.
    EXPECT_NEAR(d.weight_cv, std::sqrt(1.796875) / 1.875, 1e-12);
    EXPECT_NEAR(d.max_weight, 2.0, 1e-12);  // largest weight among hits
}

TEST(ImportanceReduce, NonFiniteGMakesTheEstimateNan) {
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
        HandDraws h;
        h.g[1] = bad;
        const auto est = estimators::importance_reduce(h.x, h.log_q, h.g);
        EXPECT_TRUE(std::isnan(est.p_hat)) << bad;
        EXPECT_EQ(est.diag.hits, 2u) << bad;  // the unanswered row is no hit
        EXPECT_NEAR(est.diag.ess_all, 56.25 / 21.25, 1e-12) << bad;
    }
}

TEST(ImportanceReduce, LogAddExpIsTheMixtureDensity) {
    EXPECT_NEAR(estimators::log_add_exp(std::log(0.25), std::log(0.5)),
                std::log(0.75), 1e-15);
    // No overflow far out in the tails, and a -inf component drops out.
    EXPECT_NEAR(estimators::log_add_exp(-1000.0, -1000.0),
                -1000.0 + std::log(2.0), 1e-12);
    EXPECT_EQ(estimators::log_add_exp(
                  -3.0, -std::numeric_limits<double>::infinity()),
              -3.0);
}

/// Wraps another problem and returns NaN for a deterministic fraction of
/// calls — the shape of a guarded problem running under the propagate
/// policy.
class SometimesNan final : public RareEventProblem {
public:
    SometimesNan(const RareEventProblem& inner, std::size_t every)
        : inner_(inner), every_(every) {}
    std::size_t dim() const noexcept override { return inner_.dim(); }
    double g(std::span<const double> x) const override {
        if (++calls_ % every_ == 0)
            return std::numeric_limits<double>::quiet_NaN();
        return inner_.g(x);
    }

private:
    const RareEventProblem& inner_;
    std::size_t every_;
    mutable std::size_t calls_ = 0;
};

TEST(Sir, NonFiniteTrainingRowsAreDroppedNotPoisonous) {
    // Regression: one NaN g-value used to poison the mean/sd
    // standardisation — every target went NaN and the surrogate trained on
    // garbage, collapsing the estimate. Now the rows are stripped and the
    // estimate stays in the same ballpark as the clean run.
    HalfSpace clean(4, 3.0);
    SometimesNan dirty(clean, 50);  // 2% of training rows go NaN
    estimators::SirEstimator sir(
        {.train_samples = 20000, .surrogate_evals = 400000,
         .hidden = {32, 32}, .epochs = 40});
    rng::Engine eng(8);
    const auto res = sir.estimate(dirty, eng);
    EXPECT_TRUE(std::isfinite(res.p_hat));
    EXPECT_GT(res.p_hat, 0.0);
    EXPECT_LT(estimators::log_error(res.p_hat, clean.analytic()), 1.0);
}

TEST(Sir, AllNanTrainingSetFailsLoudly) {
    HalfSpace clean(3, 2.0);
    SometimesNan dirty(clean, 1);  // every call returns NaN
    estimators::SirEstimator sir(
        {.train_samples = 200, .surrogate_evals = 1000, .hidden = {8}});
    rng::Engine eng(9);
    EXPECT_THROW(sir.estimate(dirty, eng), nofis::BadInputError);
}

TEST(Sir, ZeroBudgetsAreRejectedUpFront) {
    // surrogate_evals == 0 used to divide hits by zero and surface as a
    // silent NaN p_hat; train_samples == 0 trained on nothing.
    HalfSpace prob(3, 2.0);
    rng::Engine eng(10);
    {
        estimators::SirEstimator sir(
            {.train_samples = 100, .surrogate_evals = 0, .hidden = {8}});
        EXPECT_THROW(sir.estimate(prob, eng), nofis::BadInputError);
    }
    {
        estimators::SirEstimator sir(
            {.train_samples = 0, .surrogate_evals = 1000, .hidden = {8}});
        EXPECT_THROW(sir.estimate(prob, eng), nofis::BadInputError);
    }
}

TEST(Suc, EstimatesModeratelyRareHalfSpace) {
    HalfSpace prob(3, 3.5);  // P ≈ 2.3e-4
    estimators::SubsetClassificationEstimator suc(
        {.samples_per_level = 2500, .p0 = 0.1, .max_levels = 8});
    double mean_err = 0.0;
    int ok = 0;
    for (int r = 0; r < 3; ++r) {
        rng::Engine eng(60 + r);
        const auto res = suc.estimate(prob, eng);
        if (res.failed) continue;
        ++ok;
        mean_err += estimators::log_error(res.p_hat, prob.analytic());
    }
    ASSERT_GT(ok, 0);
    EXPECT_LT(mean_err / ok, 1.5);
}

}  // namespace
