// Golden bits of the training path: what the autodiff tape, the conditioner
// networks and Adam produce, pinned end to end. A cut-budget NOFIS run's
// saved `.nofisflow` text and its p̂, DeepNet62's g and g_grad (whose base
// network is itself trained at construction), and a leaky-ReLU classifier
// fit (the SIR/SUC path) each hash to a constant taken from a build before
// the tape was fused. Any change in the order of any gradient's operations
// changes a hash; a faster tape must leave every one of them as is
// (DESIGN.md §13.4).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/nofis.hpp"
#include "flow/serialize.hpp"
#include "nn/trainer.hpp"
#include "rng/normal.hpp"
#include "testcases/deepnet62.hpp"
#include "testcases/registry.hpp"
#include "testcases/testcase.hpp"
#include "util/hash.hpp"

namespace {

using namespace nofis;

std::uint64_t bits_hash(const std::vector<double>& v) {
    return util::fnv1a64(v.data(), v.size() * sizeof(double));
}

std::uint64_t double_bits(double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

struct RunBits {
    std::uint64_t flow_text;  ///< FNV-1a of the saved .nofisflow text
    std::uint64_t p_hat;      ///< raw bits of the run's estimate
};

/// A short NOFIS run of `case_name` at the case's own levels: `epochs`
/// updates of `n` draws per stage and `n_is` final draws.
RunBits cut_run(const std::string& case_name, std::uint64_t seed,
                std::size_t epochs, std::size_t n, std::size_t n_is,
                flow::CouplingKind coupling = flow::CouplingKind::kAffine,
                bool actnorm = false) {
    const auto tc = testcases::make_case(case_name);
    const auto budget = tc->nofis_budget();
    auto cfg = testcases::nofis_config_from_budget(budget);
    cfg.epochs = epochs;
    cfg.samples_per_epoch = n;
    cfg.n_is = n_is;
    cfg.coupling = coupling;
    cfg.use_actnorm = actnorm;
    const core::NofisEstimator est(cfg,
                                   core::LevelSchedule::manual(budget.levels));
    rng::Engine eng(seed);
    const auto run = est.run(*tc, eng);
    std::ostringstream text;
    flow::save_stack(*run.flow, text);
    const std::string s = text.str();
    return {util::fnv1a64(s.data(), s.size()),
            double_bits(run.estimate.p_hat)};
}

TEST(TrainingGolden, LeafAffineRun) {
    const RunBits r = cut_run("Leaf", 7, 6, 50, 500);
    EXPECT_EQ(r.flow_text, 0x13893460276e85dcULL);
    EXPECT_EQ(r.p_hat, 0x3ed35a8d7f834765ULL);  // 4.6142868017228714e-06
}

TEST(TrainingGolden, YBranchRun) {
    const RunBits r = cut_run("YBranch", 13, 2, 20, 200);
    EXPECT_EQ(r.flow_text, 0xe8dc98df1c2cb0aeULL);
    EXPECT_EQ(r.p_hat, 0x3edaa8b1df5fb13bULL);  // 6.3559923457574722e-06
}

TEST(TrainingGolden, LeafRqsRun) {
    const RunBits r = cut_run("Leaf", 7, 3, 30, 300, flow::CouplingKind::kRqs);
    EXPECT_EQ(r.flow_text, 0xece4323b76286e8cULL);
    EXPECT_EQ(r.p_hat, 0x3e9057befd51e481ULL);  // 2.4352607159263057e-07
}

TEST(TrainingGolden, LeafAdditiveActNormRun) {
    const RunBits r = cut_run("Leaf", 7, 4, 50, 500,
                              flow::CouplingKind::kAdditive, true);
    EXPECT_EQ(r.flow_text, 0xf6ffc1ec45879a61ULL);
    EXPECT_EQ(r.p_hat, 0x3ecdd92b255863e0ULL);  // 3.5581963782169195e-06
}

TEST(TrainingGolden, DeepNet62ValueAndGradient) {
    // Eight standard-normal draws, each followed by the same draw times 3,
    // which reaches the soft-accuracy drop the estimator hunts for.
    const testcases::DeepNet62Case net;
    rng::Engine eng(62);
    std::vector<double> values;
    std::vector<double> with_grad;
    std::vector<double> grad(net.dim());
    for (std::size_t i = 0; i < 8; ++i) {
        std::vector<double> x(net.dim());
        rng::fill_standard_normal(eng, x);
        for (int pass = 0; pass < 2; ++pass) {
            const double g = net.g(x);
            const double gv = net.g_grad(x, grad);
            EXPECT_EQ(double_bits(gv), double_bits(g))
                << "g_grad's value must be g(x) bit for bit";
            values.push_back(g);
            with_grad.push_back(gv);
            with_grad.insert(with_grad.end(), grad.begin(), grad.end());
            for (double& v : x) v *= 3.0;
        }
    }
    EXPECT_EQ(bits_hash(values), 0x0d471154d044be81ULL);
    EXPECT_EQ(bits_hash(with_grad), 0xfbe5dc860e080f99ULL);
}

TEST(TrainingGolden, LeakyReluClassifierFit) {
    rng::Engine eng(5);
    const auto x = rng::standard_normal_matrix(eng, 200, 3);
    linalg::Matrix labels(200, 1);
    for (std::size_t r = 0; r < 200; ++r)
        labels(r, 0) = x(r, 0) * x(r, 1) + 0.5 * x(r, 2) > 0.0 ? 1.0 : 0.0;
    nn::MLP net({3, 16, 16, 1}, nn::Activation::kLeakyRelu, eng);
    nn::TrainConfig tc;
    tc.epochs = 10;
    tc.batch_size = 32;
    tc.learning_rate = 3e-3;
    const auto hist = nn::fit_classifier(net, x, labels, tc, eng);
    std::vector<double> bits = hist.epoch_loss;
    for (const auto& p : net.params())
        bits.insert(bits.end(), p.value().flat().begin(),
                    p.value().flat().end());
    EXPECT_EQ(bits_hash(bits), 0xd300810d77fd3260ULL);
}

}  // namespace
