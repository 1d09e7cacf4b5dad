#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>

#include "rng/engine.hpp"
#include "rng/normal.hpp"

namespace {

using nofis::rng::Engine;

TEST(Engine, DeterministicUnderSeed) {
    Engine a(42);
    Engine b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Engine, DifferentSeedsDiverge) {
    Engine a(1);
    Engine b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a() == b()) ++same;
    EXPECT_EQ(same, 0);
}

TEST(Engine, UniformInRange) {
    Engine eng(3);
    for (int i = 0; i < 10000; ++i) {
        const double u = eng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
    for (int i = 0; i < 1000; ++i) {
        const double u = eng.uniform(-2.0, 5.0);
        EXPECT_GE(u, -2.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Engine, UniformMomentsApproximatelyCorrect) {
    Engine eng(4);
    double sum = 0.0;
    double sum2 = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double u = eng.uniform();
        sum += u;
        sum2 += u * u;
    }
    EXPECT_NEAR(sum / n, 0.5, 5e-3);
    EXPECT_NEAR(sum2 / n - 0.25, 1.0 / 12.0, 5e-3);
}

TEST(Engine, UniformIndexBounds) {
    Engine eng(5);
    std::vector<int> counts(7, 0);
    for (int i = 0; i < 70000; ++i) {
        const auto k = eng.uniform_index(7);
        ASSERT_LT(k, 7u);
        ++counts[k];
    }
    for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(Engine, SplitProducesDecorrelatedStream) {
    Engine parent(77);
    Engine child = parent.split();
    // Child stream should not reproduce the parent's outputs.
    Engine parent_copy(77);
    (void)parent_copy.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (parent() == child()) ++same;
    EXPECT_LE(same, 1);
}

TEST(Engine, SplitIsReproducible) {
    Engine a(99);
    Engine b(99);
    Engine ca = a.split();
    Engine cb = b.split();
    for (int i = 0; i < 32; ++i) EXPECT_EQ(ca(), cb());
}

TEST(Engine, SubstreamIsAPureFunctionOfSeedAndId) {
    Engine a = nofis::rng::substream(1234, 7);
    Engine b = nofis::rng::substream(1234, 7);
    for (int i = 0; i < 64; ++i) EXPECT_EQ(a(), b());
}

TEST(Engine, SubstreamCollisionAndIndependenceSmoke) {
    // First outputs of many (seed, id) pairs must all be distinct — a
    // collision here would mean two latent chains walking in lock-step —
    // and neighbouring ids must not produce correlated streams.
    std::set<std::uint64_t> first;
    for (std::uint64_t seed : {1ULL, 2ULL, 0xdeadbeefULL})
        for (std::uint64_t id = 0; id < 512; ++id)
            first.insert(nofis::rng::substream(seed, id)());
    EXPECT_EQ(first.size(), 3u * 512u);

    Engine s0 = nofis::rng::substream(42, 0);
    Engine s1 = nofis::rng::substream(42, 1);
    int same = 0;
    for (int i = 0; i < 256; ++i)
        if (s0() == s1()) ++same;
    EXPECT_LE(same, 1);
}

TEST(Engine, SeedExpansionIsPinned) {
    // splitmix64 seeding and substream derivation: every seeded run in the
    // repo starts from these bits.
    Engine e(13);
    EXPECT_EQ(e(), 0x035e0619b1b542d7ULL);
    EXPECT_EQ(e(), 0x18a2186e157ab8f5ULL);
    EXPECT_EQ(e(), 0x929ec7d09572781cULL);
    EXPECT_EQ(e(), 0xf2d1177a6481806aULL);
    EXPECT_EQ(nofis::rng::substream(13, 2)(), 0x44ff4f5a9070f410ULL);
}

TEST(Engine, SubstreamDiffersFromDirectSeeding) {
    // substream(s, 0) must not alias Engine(s) itself — the master seed is
    // re-mixed first, so the caller's own stream stays untouched.
    Engine direct(4242);
    Engine sub = nofis::rng::substream(4242, 0);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (direct() == sub()) ++same;
    EXPECT_LE(same, 1);
}

TEST(Normal, MomentsOfStandardNormal) {
    Engine eng(11);
    const int n = 200000;
    double s1 = 0.0, s2 = 0.0, s3 = 0.0, s4 = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = nofis::rng::standard_normal(eng);
        s1 += x;
        s2 += x * x;
        s3 += x * x * x;
        s4 += x * x * x * x;
    }
    EXPECT_NEAR(s1 / n, 0.0, 0.01);
    EXPECT_NEAR(s2 / n, 1.0, 0.02);
    EXPECT_NEAR(s3 / n, 0.0, 0.05);
    EXPECT_NEAR(s4 / n, 3.0, 0.1);
}

TEST(Normal, LogPdfMatchesClosedForm) {
    EXPECT_NEAR(nofis::rng::normal_log_pdf(0.0),
                -0.5 * std::log(2.0 * M_PI), 1e-12);
    EXPECT_NEAR(nofis::rng::normal_log_pdf(1.5),
                -0.5 * std::log(2.0 * M_PI) - 1.125, 1e-12);
    const double x[] = {1.0, -2.0, 0.5};
    const double expected = nofis::rng::normal_log_pdf(1.0) +
                            nofis::rng::normal_log_pdf(-2.0) +
                            nofis::rng::normal_log_pdf(0.5);
    EXPECT_NEAR(nofis::rng::standard_normal_log_pdf(x), expected, 1e-12);
}

TEST(Normal, CdfKnownValues) {
    EXPECT_NEAR(nofis::rng::normal_cdf(0.0), 0.5, 1e-14);
    EXPECT_NEAR(nofis::rng::normal_cdf(1.0), 0.8413447460685429, 1e-10);
    EXPECT_NEAR(nofis::rng::normal_cdf(-1.96), 0.024997895148220435, 1e-9);
}

class QuantileRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(QuantileRoundTrip, CdfOfQuantileIsIdentity) {
    const double p = GetParam();
    const double x = nofis::rng::normal_quantile(p);
    EXPECT_NEAR(nofis::rng::normal_cdf(x), p, 1e-10) << "p=" << p;
}

INSTANTIATE_TEST_SUITE_P(Probabilities, QuantileRoundTrip,
                         ::testing::Values(1e-9, 1e-6, 1e-4, 0.01, 0.1, 0.25,
                                           0.5, 0.75, 0.9, 0.99, 1.0 - 1e-6));

TEST(Normal, QuantileRejectsInvalid) {
    EXPECT_THROW(nofis::rng::normal_quantile(0.0), std::domain_error);
    EXPECT_THROW(nofis::rng::normal_quantile(1.0), std::domain_error);
    EXPECT_THROW(nofis::rng::normal_quantile(-0.5), std::domain_error);
}

TEST(Normal, MatrixSamplerShapeAndStats) {
    Engine eng(13);
    const auto m = nofis::rng::standard_normal_matrix(eng, 1000, 8);
    EXPECT_EQ(m.rows(), 1000u);
    EXPECT_EQ(m.cols(), 8u);
    EXPECT_NEAR(m.mean(), 0.0, 0.05);
}

}  // namespace
