// Tests for the library extensions: line sampling and flow serialisation.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "core/nofis.hpp"
#include "estimators/line_sampling.hpp"
#include "flow/serialize.hpp"
#include "rng/normal.hpp"
#include "testcases/registry.hpp"
#include "testcases/synthetic.hpp"

namespace {

using namespace nofis;

class HalfSpace final : public estimators::RareEventProblem {
public:
    HalfSpace(std::size_t dim, double t) : dim_(dim), t_(t) {}
    std::size_t dim() const noexcept override { return dim_; }
    double g(std::span<const double> x) const override { return t_ - x[0]; }
    double analytic() const { return 1.0 - rng::normal_cdf(t_); }

private:
    std::size_t dim_;
    double t_;
};

// ---------------------------------------------------------------------------
// Line sampling
// ---------------------------------------------------------------------------

TEST(LineSampling, ExactOnAffineLimitState) {
    // For a half-space every line crosses at the same distance, so line
    // sampling is (nearly) zero-variance even for P ~ 1e-9.
    HalfSpace prob(5, 6.0);  // P ≈ 9.9e-10
    estimators::LineSamplingEstimator ls(
        {.num_lines = 60, .pilot_samples = 200, .pilot_sigma = 3.0});
    rng::Engine eng(1);
    const auto res = ls.estimate(prob, eng);
    ASSERT_FALSE(res.failed);
    EXPECT_LT(estimators::log_error(res.p_hat, prob.analytic()), 0.05);
    // Budget: pilot + ~evals-per-line * lines.
    EXPECT_LT(res.calls, 200u + 60u * 12u + 1u);
}

TEST(LineSampling, AccurateOnLeafDespiteCurvature) {
    // The Leaf region is two discs; lines through the located disc solve
    // exactly, and the missed twin biases by at most ~ln 2.
    testcases::LeafCase leaf;
    estimators::LineSamplingEstimator ls(
        {.num_lines = 150, .pilot_samples = 400, .pilot_sigma = 2.5});
    double mean = 0.0;
    for (int r = 0; r < 3; ++r) {
        rng::Engine eng(10 + r);
        const auto res = ls.estimate(leaf, eng);
        mean += res.p_hat;
    }
    mean /= 3.0;
    EXPECT_LT(estimators::log_error(mean, leaf.golden_pr()), 1.2);
}

TEST(LineSampling, FailsGracefullyWhenRegionUnreachable) {
    HalfSpace prob(3, 50.0);
    estimators::LineSamplingEstimator ls(
        {.num_lines = 20, .pilot_samples = 50, .pilot_sigma = 2.0,
         .c_max = 8.0});
    rng::Engine eng(2);
    const auto res = ls.estimate(prob, eng);
    EXPECT_TRUE(res.failed || res.p_hat < 1e-12);
}

// ---------------------------------------------------------------------------
// Flow serialisation
// ---------------------------------------------------------------------------

flow::CouplingStack make_trained_stack(flow::CouplingKind kind,
                                       bool actnorm) {
    flow::StackConfig cfg;
    cfg.dim = 3;
    cfg.num_blocks = 2;
    cfg.layers_per_block = 4;
    cfg.hidden = {10};
    cfg.coupling = kind;
    cfg.use_actnorm = actnorm;
    rng::Engine eng(3);
    flow::CouplingStack stack(cfg, eng);
    rng::Engine weights(4);
    for (auto& p : stack.params())
        for (double& v : p.mutable_value().flat())
            v = 0.2 * rng::standard_normal(weights);
    return stack;
}

class SerializeVariant
    : public ::testing::TestWithParam<std::tuple<flow::CouplingKind, bool>> {
};

TEST_P(SerializeVariant, RoundTripPreservesDensitiesExactly) {
    const auto [kind, actnorm] = GetParam();
    const auto original = make_trained_stack(kind, actnorm);

    std::stringstream buffer;
    flow::save_stack(original, buffer);
    const auto loaded = flow::load_stack(buffer);

    EXPECT_EQ(loaded.dim(), original.dim());
    EXPECT_EQ(loaded.num_blocks(), original.num_blocks());

    rng::Engine probe(5);
    const auto x = rng::standard_normal_matrix(probe, 20, 3);
    const auto lp_orig = original.log_prob(x, 2);
    const auto lp_load = loaded.log_prob(x, 2);
    for (std::size_t r = 0; r < 20; ++r)
        EXPECT_DOUBLE_EQ(lp_orig[r], lp_load[r]);
}

TEST_P(SerializeVariant, TallyMatchesTheBuiltStack) {
    // stack_tally counts from the config alone what the constructor
    // builds: even and odd dims, an odd coupling count (the masks
    // alternate), with and without hidden layers.
    const auto [kind, actnorm] = GetParam();
    for (std::size_t dim : {2ul, 5ul, 6ul}) {
        for (const std::vector<std::size_t>& hidden :
             {std::vector<std::size_t>{}, std::vector<std::size_t>{7, 3}}) {
            flow::StackConfig cfg;
            cfg.dim = dim;
            cfg.num_blocks = 3;
            cfg.layers_per_block = 3;
            cfg.hidden = hidden;
            cfg.coupling = kind;
            cfg.use_actnorm = actnorm;
            cfg.rqs_bins = 5;
            rng::Engine eng(8);
            const flow::CouplingStack stack(cfg, eng);
            const auto params = stack.params();
            std::size_t values = 0;
            for (const auto& p : params) values += p.value().size();
            const flow::StackTally tally = flow::stack_tally(cfg);
            EXPECT_EQ(tally.layers, stack.scale_caps().size()) << dim;
            EXPECT_EQ(tally.tensors, params.size()) << dim;
            EXPECT_EQ(tally.values, values) << dim;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SerializeVariant,
    ::testing::Combine(::testing::Values(flow::CouplingKind::kAffine,
                                         flow::CouplingKind::kAdditive,
                                         flow::CouplingKind::kRqs),
                       ::testing::Bool()));

TEST(Serialize, RqsRoundTripIsBitwiseStable) {
    // save → load → save must reproduce the file byte for byte, including
    // the spline header fields (bins, full-precision tail bound), and the
    // scale cap must reload bit for bit.
    flow::StackConfig cfg;
    cfg.dim = 3;
    cfg.num_blocks = 2;
    cfg.layers_per_block = 2;
    cfg.hidden = {8};
    cfg.coupling = flow::CouplingKind::kRqs;
    cfg.rqs_bins = 5;
    cfg.rqs_tail = 2.5;
    cfg.scale_cap = 4.0 / 3.0;
    rng::Engine eng(8);
    flow::CouplingStack stack(cfg, eng);
    rng::Engine weights(9);
    for (auto& p : stack.params())
        for (double& v : p.mutable_value().flat())
            v = 0.2 * rng::standard_normal(weights);

    std::stringstream first;
    flow::save_stack(stack, first);
    const auto loaded = flow::load_stack(first);
    EXPECT_EQ(loaded.config().rqs_bins, 5u);
    EXPECT_EQ(loaded.config().rqs_tail, 2.5);
    EXPECT_EQ(loaded.config().scale_cap, 4.0 / 3.0);
    std::stringstream second;
    flow::save_stack(loaded, second);
    EXPECT_EQ(first.str(), second.str());
}

TEST(Serialize, NonRqsFilesCarryNoSplineFields) {
    // The rqs header fields ride only on the "rqs" tag: an affine stack
    // saves byte-identically whatever the (ignored) spline knobs say, so
    // pre-rqs readers and files are unaffected by this release.
    auto cfg_of = [](std::size_t bins, double tail) {
        flow::StackConfig cfg;
        cfg.dim = 3;
        cfg.num_blocks = 1;
        cfg.layers_per_block = 2;
        cfg.hidden = {6};
        cfg.coupling = flow::CouplingKind::kAffine;
        cfg.rqs_bins = bins;
        cfg.rqs_tail = tail;
        return cfg;
    };
    rng::Engine e1(10);
    rng::Engine e2(10);
    const flow::CouplingStack a(cfg_of(8, 3.0), e1);
    const flow::CouplingStack b(cfg_of(31, 0.125), e2);
    std::stringstream sa;
    std::stringstream sb;
    flow::save_stack(a, sa);
    flow::save_stack(b, sb);
    EXPECT_EQ(sa.str(), sb.str());
    EXPECT_EQ(sa.str().find("rqs"), std::string::npos);
}

TEST(Serialize, RqsHeaderIsValidated) {
    // Zero bins, absurd bins, non-finite/negative tail, truncated spline
    // fields: each must fail with the structured error, never construct.
    const char* bad[] = {
        "nofisflow-v1\n2 1 2 2.0 rqs 0 0 3.0\n1 4\n",
        "nofisflow-v1\n2 1 2 2.0 rqs 0 999 3.0\n1 4\n",
        "nofisflow-v1\n2 1 2 2.0 rqs 0 8 -1.0\n1 4\n",
        "nofisflow-v1\n2 1 2 2.0 rqs 0 8 nan\n1 4\n",
        "nofisflow-v1\n2 1 2 2.0 rqs 0\n",
    };
    for (const char* text : bad) {
        std::istringstream is(text);
        EXPECT_THROW(flow::load_stack(is), std::runtime_error) << text;
    }
}

/// Loads `text` and expects a structured error that contains `reason`.
void expect_header_rejected(const char* text, const char* reason) {
    std::istringstream is(text);
    try {
        flow::load_stack(is);
        ADD_FAILURE() << "loaded " << text;
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_EQ(what.rfind("flow serialisation: ", 0), 0u) << what;
        EXPECT_NE(what.find(reason), std::string::npos) << what;
    }
}

// Each header field below passes its own bound; what they imply together
// is checked before the stack is built.

TEST(Serialize, WideHeaderIsRejectedBeforeAllocating) {
    // One coupling of dim 2^20 with a 2^20-wide hidden layer: 1.6e12
    // values, refused before any is allocated.
    expect_header_rejected(
        "nofisflow-v1\n1048576 1 1 2 affine 0\n1 1048576\n",
        "implausible parameter value count");
}

TEST(Serialize, DeepHeaderIsRejectedBeforeBuilding) {
    // 4096 x 4096 couplings: 16.7M layers, refused before any is built.
    expect_header_rejected("nofisflow-v1\n2 4096 4096 2 affine 0\n0\n",
                           "implausible layer count");
}

TEST(Serialize, OneDimHeaderIsAStructuredError) {
    // No coupling accepts dim 1, and the file must say so in its own
    // error, not the layer constructor's std::invalid_argument.
    expect_header_rejected("nofisflow-v1\n1 1 1 2 affine 0\n0\n",
                           "implausible dim 1");
}

TEST(Serialize, SamplingMatchesAfterRoundTrip) {
    const auto original =
        make_trained_stack(flow::CouplingKind::kAffine, false);
    std::stringstream buffer;
    flow::save_stack(original, buffer);
    const auto loaded = flow::load_stack(buffer);
    rng::Engine a(6);
    rng::Engine b(6);
    const auto sa = original.sample(a, 10, 2);
    const auto sb = loaded.sample(b, 10, 2);
    EXPECT_LT(linalg::max_abs_diff(sa.z, sb.z), 1e-15);
}

TEST(Serialize, RejectsCorruptedInput) {
    std::stringstream bad("not-a-flow 1 2 3");
    EXPECT_THROW(flow::load_stack(bad), std::runtime_error);

    const auto original =
        make_trained_stack(flow::CouplingKind::kAffine, false);
    std::stringstream buffer;
    flow::save_stack(original, buffer);
    std::string text = buffer.str();
    std::stringstream truncated(text.substr(0, text.size() / 2));
    EXPECT_THROW(flow::load_stack(truncated), std::runtime_error);
}

TEST(Serialize, RolledBackRunReloadsTheTrainedProposal) {
    // Leaf seed 7 rolls one stage back, which tightens that block's scale
    // caps; the saved file must carry them, or the reloaded proposal is
    // not the one the run trained and estimated with.
    const auto tc = testcases::make_case("Leaf");
    const auto budget = tc->nofis_budget();
    const auto cfg = testcases::nofis_config_from_budget(budget);
    const core::NofisEstimator est(cfg,
                                   core::LevelSchedule::manual(budget.levels));
    rng::Engine eng(7);
    const auto run = est.run(*tc, eng);
    ASSERT_EQ(run.health.stage_retries, 1u);
    const std::vector<double> caps = run.flow->scale_caps();
    ASSERT_NE(caps.front(), caps.back());

    std::stringstream buffer;
    flow::save_stack(*run.flow, buffer);
    const auto loaded = flow::load_stack(buffer);
    EXPECT_EQ(loaded.scale_caps(), caps);

    // log q of both stacks over a final IS's worth of proposal draws.
    const std::size_t blocks = run.flow->num_blocks();
    rng::Engine draws(77);
    const auto s = run.flow->sample(draws, cfg.n_is, blocks);
    const auto lq_trained = run.flow->log_prob(s.z, blocks);
    const auto lq_loaded = loaded.log_prob(s.z, blocks);
    ASSERT_EQ(lq_trained.size(), lq_loaded.size());
    EXPECT_EQ(std::memcmp(lq_trained.data(), lq_loaded.data(),
                          lq_trained.size() * sizeof(double)),
              0);
}

TEST(Serialize, VersionOneFilesLoadWithUniformCaps) {
    // A file from before the caps line: every affine layer takes the
    // header's cap, and re-saving writes the current format.
    const char* v1 =
        "nofisflow-v1\n2 1 1 0.75 affine 1\n1 3\n6\n"
        "1 2 0.5 -0.25\n1 2 0.125 0\n1 3 1 2 3\n1 3 0 0 0\n"
        "3 2 0 0 0 0 0 0\n1 2 0 0\n";
    std::istringstream is(v1);
    const auto stack = flow::load_stack(is);
    EXPECT_EQ(stack.scale_caps(), (std::vector<double>{0.0, 0.75}));
    std::ostringstream os;
    flow::save_stack(stack, os);
    EXPECT_EQ(os.str().rfind("nofisflow-v2\n", 0), 0u);
    EXPECT_NE(os.str().find("\n2 0 0.75\n"), std::string::npos) << os.str();
}

TEST(Serialize, ScaleCapLineIsValidated) {
    // Two layers (an ActNorm and one coupling), so two caps.
    const std::string head = "nofisflow-v2\n2 1 1 2 affine 1\n0\n";
    const std::string params = "\n4\n1 2 0 0\n1 2 0 0\n1 2 0 0\n1 2 0 0\n";
    std::istringstream good(head + "2 0 1.5" + params);
    EXPECT_EQ(flow::load_stack(good).scale_caps(),
              (std::vector<double>{0.0, 1.5}));
    for (const char* caps : {"1 1.5", "3 0 1.5 1.5", "2 0 -1.5", "2 0 nan",
                             "2 0 inf", "2 0", "99999999999999 0 1.5"}) {
        std::istringstream is(head + caps + params);
        try {
            flow::load_stack(is);
            ADD_FAILURE() << "loaded caps line '" << caps << "'";
        } catch (const std::runtime_error& e) {
            EXPECT_EQ(std::string(e.what()).rfind("flow serialisation: ", 0),
                      0u)
                << e.what();
        }
    }
}

/// A temp-dir path unique to the running test and process, removed when
/// the guard goes out of scope, whether or not the test passed.
struct TempPath {
    std::string path =
        ::testing::TempDir() + "/" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        "_" + std::to_string(::getpid()) + ".nofisflow";
    ~TempPath() {
        std::error_code ec;
        std::filesystem::remove(path, ec);
    }
};

TEST(Serialize, FileRoundTrip) {
    const auto original =
        make_trained_stack(flow::CouplingKind::kAdditive, true);
    const TempPath temp;
    flow::save_stack(original, temp.path);
    const auto loaded = flow::load_stack(temp.path);
    rng::Engine probe(7);
    const auto x = rng::standard_normal_matrix(probe, 5, 3);
    const auto lp_orig = original.log_prob(x, 2);
    const auto lp_load = loaded.log_prob(x, 2);
    for (std::size_t r = 0; r < 5; ++r)
        EXPECT_DOUBLE_EQ(lp_orig[r], lp_load[r]);
}

}  // namespace
