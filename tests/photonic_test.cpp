#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "evalcache/disk_log.hpp"
#include "photonic/ybranch.hpp"
#include "rng/normal.hpp"
#include "testcases/circuit_cases.hpp"

namespace {

using nofis::photonic::YBranchModel;

/// Fixed seeded inputs for the golden-bit tests: each standard-normal row
/// is followed by the same row scaled by 2, which reaches strongly deformed,
/// low-transmission regions.
std::vector<std::vector<double>> golden_inputs(std::size_t draws) {
    nofis::rng::Engine eng(21);
    std::vector<std::vector<double>> rows;
    for (std::size_t i = 0; i < draws; ++i) {
        std::vector<double> x(26);
        nofis::rng::fill_standard_normal(eng, x);
        rows.push_back(x);
        for (double& v : x) v *= 2.0;
        rows.push_back(std::move(x));
    }
    return rows;
}

/// FNV-1a over the raw bytes of `v`: any change in any bit of any output
/// changes the hash.
std::uint64_t bits_hash(const std::vector<double>& v) {
    return nofis::evalcache::fnv1a64(v.data(), v.size() * sizeof(double));
}

TEST(YBranch, NominalTransmissionInDesignWindow) {
    YBranchModel model;
    const std::vector<double> nominal(26, 0.0);
    const double t = model.transmission(nominal);
    // Nominal arm transmission sits comfortably above the 32% failure spec.
    EXPECT_GT(t, 0.40);
    EXPECT_LT(t, 0.55);
}

TEST(YBranch, TransmissionBoundedByUnity) {
    YBranchModel model;
    nofis::rng::Engine eng(1);
    std::vector<double> x(26);
    for (int i = 0; i < 200; ++i) {
        nofis::rng::fill_standard_normal(eng, x);
        const double t = model.transmission(x);
        EXPECT_GE(t, 0.0);
        EXPECT_LE(t, 1.0) << "energy conservation violated";
    }
}

TEST(YBranch, DeformationReducesTransmissionOnAverage) {
    YBranchModel model;
    const std::vector<double> nominal(26, 0.0);
    const double t0 = model.transmission(nominal);
    nofis::rng::Engine eng(2);
    std::vector<double> x(26);
    double mean_deformed = 0.0;
    const int n = 300;
    for (int i = 0; i < n; ++i) {
        nofis::rng::fill_standard_normal(eng, x);
        for (double& v : x) v *= 2.0;  // strong deformation
        mean_deformed += model.transmission(x);
    }
    mean_deformed /= n;
    EXPECT_LT(mean_deformed, t0);
}

TEST(YBranch, WidthProfileReflectsFourierModes) {
    YBranchModel model;
    std::vector<double> x(26, 0.0);
    const auto w0 = model.width_profile(x);
    x[0] = 1.0;  // first sine mode: positive bump mid-taper
    const auto w1 = model.width_profile(x);
    ASSERT_EQ(w0.size(), w1.size());
    const std::size_t mid = w0.size() / 2;
    EXPECT_GT(w1[mid], w0[mid]);
    // Mode 1 vanishes at the taper ends.
    EXPECT_NEAR(w1.front(), w0.front(), 2e-3);
    EXPECT_NEAR(w1.back(), w0.back(), 2e-3);
}

TEST(YBranch, NominalWidthTapersMonotonically) {
    YBranchModel model;
    const auto w = model.width_profile(std::vector<double>(26, 0.0));
    for (std::size_t i = 1; i < w.size(); ++i) EXPECT_GT(w[i], w[i - 1]);
    EXPECT_NEAR(w.front(), 0.5, 0.01);
    EXPECT_NEAR(w.back(), 1.2, 0.01);
}

TEST(YBranch, SymmetricDeformationPairsGiveSimilarLoss) {
    // T depends on the deformation through coupling² and loss terms, so
    // x and -x give comparable (not wildly different) transmissions.
    YBranchModel model;
    nofis::rng::Engine eng(3);
    std::vector<double> x(26);
    nofis::rng::fill_standard_normal(eng, x);
    std::vector<double> neg(x);
    for (double& v : neg) v = -v;
    EXPECT_NEAR(model.transmission(x), model.transmission(neg), 0.05);
}

TEST(YBranch, ConfigurableSegmentsConverge) {
    // Halving the discretisation step changes T only slightly (the model is
    // a consistent discretisation, not segment-count noise).
    YBranchModel::Params p;
    p.segments = 64;
    YBranchModel coarse(p);
    p.segments = 128;
    YBranchModel fine(p);
    nofis::rng::Engine eng(4);
    std::vector<double> x(26);
    nofis::rng::fill_standard_normal(eng, x);
    EXPECT_NEAR(coarse.transmission(x), fine.transmission(x), 0.03);
}

TEST(YBranch, RejectsBadArguments) {
    YBranchModel model;
    EXPECT_THROW(model.transmission(std::vector<double>(3)),
                 std::invalid_argument);
    std::vector<double> grad(3);
    EXPECT_THROW(model.transmission_grad(std::vector<double>(26), grad),
                 std::invalid_argument);
    grad.resize(26);
    EXPECT_THROW(model.transmission_grad(std::vector<double>(3), grad),
                 std::invalid_argument);
    YBranchModel::Params p;
    p.segments = 1;
    EXPECT_THROW(YBranchModel{p}, std::invalid_argument);
}

// The golden constants below pin the simulator's output bits on x86-64
// with glibc's libm. The per-element deformation expression and its
// summation order are part of the determinism contract (DESIGN.md §2.1), so
// an optimisation of the model must leave every one of these hashes as is.
TEST(YBranch, TransmissionBitsMatchGolden) {
    YBranchModel model;
    std::vector<double> t;
    for (const auto& x : golden_inputs(100)) t.push_back(model.transmission(x));
    EXPECT_EQ(bits_hash(t), 0x92a35c90ac4379d3ULL);
}

TEST(YBranch, WidthProfileBitsMatchGolden) {
    YBranchModel model;
    std::vector<double> w;
    for (const auto& x : golden_inputs(100)) {
        const auto profile = model.width_profile(x);
        w.insert(w.end(), profile.begin(), profile.end());
    }
    EXPECT_EQ(bits_hash(w), 0xb5a49308bd29f72aULL);
}

TEST(YBranch, FiniteDifferenceGradientBitsMatchGolden) {
    // The central-difference oracle the adjoint is checked against: the
    // base-class g_grad, called explicitly, at 2·26 + 1 transmissions.
    nofis::testcases::YBranchCase yb;
    std::vector<double> out;
    std::vector<double> grad(yb.dim());
    for (const auto& x : golden_inputs(8)) {
        out.push_back(yb.RareEventProblem::g_grad(x, grad));
        out.insert(out.end(), grad.begin(), grad.end());
    }
    EXPECT_EQ(bits_hash(out), 0xe2890d446703f400ULL);
}

TEST(YBranch, AdjointGradientMatchesFiniteDifference) {
    nofis::testcases::YBranchCase yb;
    std::vector<double> adj(yb.dim());
    std::vector<double> fd(yb.dim());
    for (const auto& x : golden_inputs(32)) {
        const double v = yb.g_grad(x, adj);
        const double g = yb.g(x);
        EXPECT_EQ(std::memcmp(&v, &g, sizeof(double)), 0)
            << "adjoint value must be g(x) bit for bit";
        yb.RareEventProblem::g_grad(x, fd);
        double gap = 0.0;
        double scale = 0.0;
        for (std::size_t k = 0; k < yb.dim(); ++k) {
            gap = std::max(gap, std::abs(adj[k] - fd[k]));
            scale = std::max(scale, std::abs(fd[k]));
        }
        EXPECT_LE(gap, 1e-6 * scale);
    }
}

TEST(YBranch, AdjointGradientBitsMatchGolden) {
    nofis::testcases::YBranchCase yb;
    std::vector<double> out;
    std::vector<double> grad(yb.dim());
    for (const auto& x : golden_inputs(8)) {
        out.push_back(yb.g_grad(x, grad));
        out.insert(out.end(), grad.begin(), grad.end());
    }
    EXPECT_EQ(bits_hash(out), 0xab5ebf3c7f7bf7e8ULL);
}

}  // namespace
