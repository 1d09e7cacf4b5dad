#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "dist/diag_gaussian.hpp"
#include "dist/gaussian_mixture.hpp"
#include "rng/normal.hpp"

namespace {

using nofis::dist::DiagGaussian;
using nofis::dist::GaussianMixture;
using nofis::linalg::Matrix;
using nofis::rng::Engine;

TEST(DiagGaussianDist, LogPdfClosedForm) {
    DiagGaussian d({1.0, -2.0}, {0.5, 2.0});
    // Independent sum of two 1-D normals.
    const double x[] = {1.5, 0.0};
    const double expect =
        nofis::rng::normal_log_pdf((1.5 - 1.0) / 0.5) - std::log(0.5) +
        nofis::rng::normal_log_pdf((0.0 + 2.0) / 2.0) - std::log(2.0);
    EXPECT_NEAR(d.log_pdf(x), expect, 1e-12);
}

TEST(DiagGaussianDist, SampleMomentsMatchParameters) {
    DiagGaussian d({3.0, -1.0, 0.0}, {0.1, 2.0, 1.0});
    Engine eng(2);
    const Matrix x = d.sample(eng, 50000);
    const Matrix mean = x.col_means();
    EXPECT_NEAR(mean(0, 0), 3.0, 0.01);
    EXPECT_NEAR(mean(0, 1), -1.0, 0.05);
    double var1 = 0.0;
    for (std::size_t r = 0; r < x.rows(); ++r) {
        const double c = x(r, 1) - mean(0, 1);
        var1 += c * c;
    }
    var1 /= static_cast<double>(x.rows());
    EXPECT_NEAR(var1, 4.0, 0.15);
}

TEST(DiagGaussianDist, RejectsBadParameters) {
    EXPECT_THROW(DiagGaussian({0.0}, {0.0}), std::invalid_argument);
    EXPECT_THROW(DiagGaussian({0.0}, {1.0, 2.0}), std::invalid_argument);
    EXPECT_THROW(DiagGaussian({}, {}), std::invalid_argument);
}

TEST(DiagGaussianDist, IsotropicMatchesScaledStandard) {
    const auto d = DiagGaussian::isotropic(3, 2.0);
    const double x[] = {1.0, 2.0, -1.0};
    const double xs[] = {0.5, 1.0, -0.5};
    EXPECT_NEAR(d.log_pdf(x),
                nofis::rng::standard_normal_log_pdf(xs) - 3.0 * std::log(2.0),
                1e-12);
}

TEST(Mixture, SingleComponentEqualsGaussian) {
    GaussianMixture m({{1.0, {0.5, -0.5}, {1.5, 0.7}}});
    DiagGaussian d({0.5, -0.5}, {1.5, 0.7});
    const double x[] = {0.0, 0.0};
    EXPECT_NEAR(m.log_pdf(x), d.log_pdf(x), 1e-12);
}

TEST(Mixture, WeightsAreNormalised) {
    GaussianMixture m({{2.0, {0.0}, {1.0}}, {6.0, {5.0}, {1.0}}});
    EXPECT_NEAR(m.component(0).weight, 0.25, 1e-12);
    EXPECT_NEAR(m.component(1).weight, 0.75, 1e-12);
}

TEST(Mixture, DensityIntegratesToOne) {
    GaussianMixture m({{0.3, {-2.0}, {0.5}}, {0.7, {3.0}, {1.0}}});
    double total = 0.0;
    const double h = 0.01;
    for (double x = -8.0; x < 9.0; x += h) {
        const double xv[] = {x};
        total += std::exp(m.log_pdf(xv)) * h;
    }
    EXPECT_NEAR(total, 1.0, 1e-3);
}

TEST(Mixture, SamplingRespectsWeights) {
    GaussianMixture m({{0.2, {-10.0}, {0.5}}, {0.8, {10.0}, {0.5}}});
    Engine eng(4);
    const Matrix x = m.sample(eng, 20000);
    int right = 0;
    for (std::size_t r = 0; r < x.rows(); ++r)
        if (x(r, 0) > 0.0) ++right;
    EXPECT_NEAR(static_cast<double>(right) / 20000.0, 0.8, 0.02);
}

TEST(Mixture, CeUpdateMovesTowardElite) {
    // Elite samples concentrated at +5; the proposal should shift there.
    GaussianMixture m = GaussianMixture::standard(1, 2);
    Engine eng(5);
    Matrix x(500, 1);
    std::vector<double> w(500);
    for (std::size_t r = 0; r < 500; ++r) {
        x(r, 0) = 5.0 + 0.3 * nofis::rng::standard_normal(eng);
        w[r] = 1.0;
    }
    m.ce_update(x, w);
    for (std::size_t k = 0; k < m.num_components(); ++k)
        EXPECT_NEAR(m.component(k).mean[0], 5.0, 0.2);
}

TEST(Mixture, CeUpdateRespectsSigmaFloor) {
    GaussianMixture m = GaussianMixture::standard(1, 1);
    Matrix x(100, 1);  // all identical -> zero variance
    std::vector<double> w(100, 1.0);
    for (std::size_t r = 0; r < 100; ++r) x(r, 0) = 2.0;
    m.ce_update(x, w, 0.25);
    EXPECT_GE(m.component(0).sigma[0], 0.25);
}

TEST(Mixture, CeUpdateIgnoresAllZeroWeights) {
    GaussianMixture m = GaussianMixture::standard(2, 2);
    Engine eng(6);
    const Matrix x = m.sample(eng, 50);
    std::vector<double> w(50, 0.0);
    const auto before = m.component(0).mean;
    m.ce_update(x, w);
    EXPECT_EQ(m.component(0).mean, before);
}

class MixtureRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MixtureRoundTrip, SampleMomentsMatchMixtureMoments) {
    // Two well-separated components in `dim` dimensions (2 = the toy cases,
    // 26 = YBranch): sample moments must reproduce the analytic mixture
    // mean Σ wᵢμᵢ and variance Σ wᵢ(σᵢ² + μᵢ²) − mean² per coordinate.
    const std::size_t dim = GetParam();
    std::vector<GaussianMixture::Component> comps(2);
    comps[0].weight = 0.3;
    comps[1].weight = 0.7;
    for (std::size_t j = 0; j < dim; ++j) {
        comps[0].mean.push_back(-2.0 + 0.1 * static_cast<double>(j));
        comps[0].sigma.push_back(0.8);
        comps[1].mean.push_back(1.5);
        comps[1].sigma.push_back(1.2);
    }
    const GaussianMixture m(comps);
    Engine eng(42);
    const Matrix x = m.sample(eng, 40000);
    ASSERT_EQ(x.cols(), dim);
    for (std::size_t j = 0; j < dim; ++j) {
        const double mu = 0.3 * comps[0].mean[j] + 0.7 * comps[1].mean[j];
        const double var = 0.3 * (0.8 * 0.8 + comps[0].mean[j] *
                                                  comps[0].mean[j]) +
                           0.7 * (1.2 * 1.2 + comps[1].mean[j] *
                                                  comps[1].mean[j]) -
                           mu * mu;
        double s1 = 0.0, s2 = 0.0;
        for (std::size_t r = 0; r < x.rows(); ++r) {
            s1 += x(r, j);
            s2 += x(r, j) * x(r, j);
        }
        const double sm = s1 / static_cast<double>(x.rows());
        const double sv = s2 / static_cast<double>(x.rows()) - sm * sm;
        EXPECT_NEAR(sm, mu, 0.05) << "dim " << j;
        EXPECT_NEAR(sv, var, 0.15) << "dim " << j;
    }
    // And the density agrees with where the samples actually land.
    double mean_lp = 0.0;
    for (std::size_t r = 0; r < 100; ++r)
        mean_lp += m.log_pdf(x.row_span(r));
    EXPECT_TRUE(std::isfinite(mean_lp));
}

INSTANTIATE_TEST_SUITE_P(Dims, MixtureRoundTrip,
                         ::testing::Values(std::size_t{2}, std::size_t{26}));

TEST(Mixture, LogPdfRejectsNonFiniteInput) {
    GaussianMixture m({{1.0, {0.0, 0.0}, {1.0, 1.0}}});
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const double bad_nan[] = {0.0, nan};
    const double bad_inf[] = {inf, 0.0};
    const double bad_ninf[] = {-inf, 0.0};
    EXPECT_THROW(m.log_pdf(bad_nan), std::invalid_argument);
    EXPECT_THROW(m.log_pdf(bad_inf), std::invalid_argument);
    EXPECT_THROW(m.log_pdf(bad_ninf), std::invalid_argument);
}

class MixtureSingleComponent : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(MixtureSingleComponent, LogPdfMatchesDiagGaussianEverywhere) {
    const std::size_t dim = GetParam();
    std::vector<double> mean(dim), sigma(dim);
    for (std::size_t j = 0; j < dim; ++j) {
        mean[j] = 0.3 * static_cast<double>(j) - 1.0;
        sigma[j] = 0.5 + 0.1 * static_cast<double>(j);
    }
    const GaussianMixture m({{1.0, mean, sigma}});
    const DiagGaussian d(mean, sigma);
    Engine eng(8);
    const Matrix x = m.sample(eng, 200);
    for (std::size_t r = 0; r < x.rows(); ++r)
        EXPECT_NEAR(m.log_pdf(x.row_span(r)), d.log_pdf(x.row_span(r)),
                    1e-12)
            << "row " << r;
}

INSTANTIATE_TEST_SUITE_P(Dims, MixtureSingleComponent,
                         ::testing::Values(std::size_t{2}, std::size_t{26}));

}  // namespace
