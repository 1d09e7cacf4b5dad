// Cross-cutting estimator properties, checked uniformly for every method:
//   * determinism: identical seed => identical estimate,
//   * probability range: p_hat ∈ [0, 1],
//   * call accounting: calls stay within the configured budget bound,
//   * seed sensitivity: different seeds actually change the randomness.
// These are the invariants Table 1's "number of calls" column and repeated
// -run averaging silently rely on.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/nofis.hpp"
#include "estimators/adaptive_is.hpp"
#include "estimators/line_sampling.hpp"
#include "estimators/monte_carlo.hpp"
#include "estimators/sir.hpp"
#include "estimators/sss.hpp"
#include "estimators/suc.hpp"
#include "estimators/sus.hpp"
#include "rng/normal.hpp"

namespace {

using namespace nofis;

/// Shared cheap problem: tilted half-space with P ≈ 1.3e-3 — rare enough
/// to exercise level machinery, common enough that every method finishes
/// within a tiny budget.
class TiltedHalfSpace final : public estimators::RareEventProblem {
public:
    std::size_t dim() const noexcept override { return 4; }
    double g(std::span<const double> x) const override {
        return 3.0 - (0.8 * x[0] + 0.6 * x[1]);
    }
    double analytic() const { return 1.0 - rng::normal_cdf(3.0); }
};

struct MethodSpec {
    std::string name;
    std::function<std::unique_ptr<estimators::Estimator>()> make;
    std::size_t max_calls;  ///< hard budget bound the config implies
};

std::vector<MethodSpec> specs() {
    std::vector<MethodSpec> out;
    out.push_back({"MC",
                   [] {
                       return std::make_unique<estimators::MonteCarloEstimator>(
                           estimators::MonteCarloEstimator::Config{2000, 512});
                   },
                   2000});
    out.push_back({"SUS",
                   [] {
                       return std::make_unique<
                           estimators::SubsetSimulationEstimator>(
                           estimators::SubsetSimulationEstimator::Config{
                               800, 0.1, 6, 1.0});
                   },
                   800 * 7});
    out.push_back({"SSS",
                   [] {
                       estimators::ScaledSigmaEstimator::Config cfg;
                       cfg.total_samples = 3000;
                       return std::make_unique<estimators::ScaledSigmaEstimator>(
                           cfg);
                   },
                   3000});
    out.push_back({"Adapt-IS",
                   [] {
                       estimators::AdaptiveIsEstimator::Config cfg;
                       cfg.iterations = 3;
                       cfg.samples_per_iteration = 600;
                       cfg.final_samples = 800;
                       return std::make_unique<estimators::AdaptiveIsEstimator>(
                           cfg);
                   },
                   3 * 600 + 800});
    out.push_back({"SIR",
                   [] {
                       estimators::SirEstimator::Config cfg;
                       cfg.train_samples = 1500;
                       cfg.surrogate_evals = 50000;
                       cfg.epochs = 20;
                       return std::make_unique<estimators::SirEstimator>(cfg);
                   },
                   1500});
    out.push_back({"SUC",
                   [] {
                       estimators::SubsetClassificationEstimator::Config cfg;
                       cfg.samples_per_level = 700;
                       cfg.max_levels = 6;
                       cfg.classifier_epochs = 15;
                       return std::make_unique<
                           estimators::SubsetClassificationEstimator>(cfg);
                   },
                   700 * 7});
    out.push_back({"LineSampling",
                   [] {
                       estimators::LineSamplingEstimator::Config cfg;
                       cfg.num_lines = 60;
                       cfg.pilot_samples = 150;
                       return std::make_unique<estimators::LineSamplingEstimator>(
                           cfg);
                   },
                   150 + 60 * 12 + 1});
    out.push_back({"NOFIS",
                   [] {
                       core::NofisConfig cfg;
                       cfg.layers_per_block = 2;
                       cfg.hidden = {8};
                       cfg.epochs = 10;
                       cfg.samples_per_epoch = 20;
                       cfg.n_is = 200;
                       cfg.tau = 10.0;
                       return std::make_unique<core::NofisEstimator>(
                           cfg, core::LevelSchedule::manual({1.6, 0.7, 0.0}));
                   },
                   3 * 10 * 20 + 200});
    return out;
}

class EveryEstimator : public ::testing::TestWithParam<std::size_t> {
protected:
    const MethodSpec& spec() const {
        static const auto all = specs();
        return all[GetParam()];
    }
};

TEST_P(EveryEstimator, DeterministicUnderFixedSeed) {
    TiltedHalfSpace problem;
    const auto est = spec().make();
    rng::Engine a(12345);
    rng::Engine b(12345);
    const auto ra = est->estimate(problem, a);
    const auto rb = est->estimate(problem, b);
    EXPECT_DOUBLE_EQ(ra.p_hat, rb.p_hat) << spec().name;
    EXPECT_EQ(ra.calls, rb.calls) << spec().name;
}

TEST_P(EveryEstimator, EstimateIsAValidProbability) {
    TiltedHalfSpace problem;
    const auto est = spec().make();
    rng::Engine eng(777);
    const auto res = est->estimate(problem, eng);
    EXPECT_TRUE(std::isfinite(res.p_hat)) << spec().name;
    EXPECT_GE(res.p_hat, 0.0) << spec().name;
    // IS-style estimators can overshoot 1 only through broken densities.
    EXPECT_LE(res.p_hat, 1.0) << spec().name;
}

TEST_P(EveryEstimator, CallAccountingWithinBudget) {
    TiltedHalfSpace problem;
    const auto est = spec().make();
    rng::Engine eng(4242);
    const auto res = est->estimate(problem, eng);
    EXPECT_GT(res.calls, 0u) << spec().name;
    EXPECT_LE(res.calls, spec().max_calls) << spec().name;
}

TEST_P(EveryEstimator, SeedChangesRandomness) {
    TiltedHalfSpace problem;
    const auto est = spec().make();
    rng::Engine a(1);
    rng::Engine b(2);
    const auto ra = est->estimate(problem, a);
    const auto rb = est->estimate(problem, b);
    // Different draws; allow the (legitimate) coincidence of two zero
    // estimates for the crudest methods at this budget.
    if (ra.p_hat != 0.0 || rb.p_hat != 0.0) {
        EXPECT_NE(ra.p_hat, rb.p_hat) << spec().name;
    }
}

INSTANTIATE_TEST_SUITE_P(Methods, EveryEstimator,
                         ::testing::Range<std::size_t>(0, 8));

}  // namespace
