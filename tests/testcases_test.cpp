#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>

#include "estimators/problem.hpp"
#include "rng/normal.hpp"
#include "testcases/deepnet62.hpp"
#include "testcases/registry.hpp"
#include "testcases/synthetic.hpp"

namespace {

using namespace nofis;
using testcases::TestCase;

// DeepNet62 trains a network at construction; build each case once for the
// whole suite.
class AllCases : public ::testing::TestWithParam<std::string> {
protected:
    static TestCase& get(const std::string& name) {
        static std::map<std::string, std::unique_ptr<TestCase>> cache;
        auto it = cache.find(name);
        if (it == cache.end())
            it = cache.emplace(name, testcases::make_case(name)).first;
        return *it->second;
    }
};

TEST_P(AllCases, MetadataIsConsistent) {
    TestCase& tc = get(GetParam());
    EXPECT_EQ(tc.name(), GetParam());
    EXPECT_GT(tc.dim(), 0u);
    EXPECT_GT(tc.golden_pr(), 0.0);
    EXPECT_LT(tc.golden_pr(), 1e-3) << "rare events only";
}

TEST_P(AllCases, NominalPointIsSafe) {
    TestCase& tc = get(GetParam());
    const std::vector<double> zero(tc.dim(), 0.0);
    EXPECT_GT(tc.g(zero), 0.0) << "the nominal design must not fail";
}

TEST_P(AllCases, GRejectsWrongDimension) {
    TestCase& tc = get(GetParam());
    EXPECT_THROW(tc.g(std::vector<double>(tc.dim() + 1)),
                 std::invalid_argument);
}

TEST_P(AllCases, NofisBudgetIsWellFormed) {
    TestCase& tc = get(GetParam());
    const auto b = tc.nofis_budget();
    ASSERT_FALSE(b.levels.empty());
    EXPECT_DOUBLE_EQ(b.levels.back(), 0.0);
    for (std::size_t i = 1; i < b.levels.size(); ++i)
        EXPECT_LT(b.levels[i], b.levels[i - 1]);
    EXPECT_GT(b.epochs, 0u);
    EXPECT_GT(b.samples_per_epoch, 0u);
    EXPECT_GT(b.n_is, 0u);
    EXPECT_GT(b.tau, 0.0);
}

TEST_P(AllCases, LevelsBracketGDistribution) {
    // a1 should be a common event (pilot-reachable) under p.
    TestCase& tc = get(GetParam());
    const auto b = tc.nofis_budget();
    rng::Engine eng(77);
    std::vector<double> x(tc.dim());
    int inside_a1 = 0;
    const int n = 400;
    for (int i = 0; i < n; ++i) {
        rng::fill_standard_normal(eng, x);
        if (tc.g(x) <= b.levels.front()) ++inside_a1;
    }
    EXPECT_GT(inside_a1, n / 50)
        << "first level too rare for stage-1 training";
}

TEST_P(AllCases, GradientMatchesFiniteDifference) {
    TestCase& tc = get(GetParam());
    std::vector<double> grad(tc.dim());
    // The value g_grad returns must be g(x) bit for bit: CachedProblem
    // stores it, and later value lookups return it, so a last-bit
    // difference would split cache-on runs from cache-off runs. Each
    // seeded row is followed by the same row scaled by 2.5.
    rng::Engine pts(98);
    std::vector<double> p(tc.dim());
    for (int i = 0; i < 16; ++i) {
        if (i % 2 == 0)
            rng::fill_standard_normal(pts, p);
        else
            for (double& v : p) v *= 2.5;
        const double v = tc.g_grad(p, grad);
        const double g = tc.g(p);
        EXPECT_EQ(std::memcmp(&v, &g, sizeof(double)), 0)
            << GetParam() << " point " << i << ": " << v << " vs " << g;
    }

    rng::Engine eng(99);
    std::vector<double> x(tc.dim());
    rng::fill_standard_normal(eng, x);
    const double g0 = tc.g_grad(x, grad);
    const double gx = tc.g(x);
    EXPECT_EQ(std::memcmp(&g0, &gx, sizeof(double)), 0) << GetParam();
    // Directional FD check along a random direction (robust to the max/min
    // kinks in Leaf/Cube away from the boundary).
    std::vector<double> dir(tc.dim());
    rng::fill_standard_normal(eng, dir);
    const double h = 1e-5;
    std::vector<double> xp(x), xm(x);
    for (std::size_t i = 0; i < tc.dim(); ++i) {
        xp[i] += h * dir[i];
        xm[i] -= h * dir[i];
    }
    const double fd = (tc.g(xp) - tc.g(xm)) / (2.0 * h);
    double an = 0.0;
    for (std::size_t i = 0; i < tc.dim(); ++i) an += grad[i] * dir[i];
    const double scale = std::max({1.0, std::abs(fd), std::abs(an)});
    EXPECT_LT(std::abs(fd - an) / scale, 1e-3) << GetParam();
}

TEST_P(AllCases, CountedProblemCountsCalls) {
    TestCase& tc = get(GetParam());
    estimators::CountedProblem counted(tc);
    rng::Engine eng(5);
    const auto x = rng::standard_normal_matrix(eng, 7, tc.dim());
    counted.g_rows(x);
    EXPECT_EQ(counted.calls(), 7u);
    std::vector<double> grad(tc.dim());
    counted.g_grad(x.row_span(0), grad);
    EXPECT_EQ(counted.calls(), 8u);
    counted.reset_calls();
    EXPECT_EQ(counted.calls(), 0u);
}

namespace {
std::vector<std::string> table1_and_extension_cases() {
    auto names = testcases::all_case_names();
    for (auto& n : testcases::extension_case_names()) names.push_back(n);
    return names;
}
}  // namespace

INSTANTIATE_TEST_SUITE_P(Registry, AllCases,
                         ::testing::ValuesIn(table1_and_extension_cases()));

// ---------------------------------------------------------------------------
// Case-specific behaviour
// ---------------------------------------------------------------------------

TEST(Registry, KnowsAllTenCases) {
    EXPECT_EQ(testcases::all_case_names().size(), 10u);
    EXPECT_THROW(testcases::make_case("NoSuchCase"), std::invalid_argument);
}

TEST(LeafCase, FailureRegionIsTheTwoDiscs) {
    testcases::LeafCase leaf;
    EXPECT_LT(leaf.g(std::vector<double>{3.8, 3.8}), 0.0);
    EXPECT_LT(leaf.g(std::vector<double>{-3.8, -3.8}), 0.0);
    EXPECT_GT(leaf.g(std::vector<double>{3.8, -3.8}), 0.0);
    EXPECT_GT(leaf.g(std::vector<double>{0.0, 0.0}), 0.0);
    // Boundary: distance² - 1 = 0 at radius 1.
    EXPECT_NEAR(leaf.g(std::vector<double>{2.8, 3.8}), 0.0, 1e-12);
}

TEST(CubeCase, AnalyticGoldenMatchesFormula) {
    testcases::CubeCase cube;
    EXPECT_NEAR(cube.golden_pr(), testcases::CubeCase::analytic_prob(0.0),
                1e-11);
    // The corner event: all coordinates above 1.8.
    EXPECT_LT(cube.g(std::vector<double>(6, 2.0)), 0.0);
    std::vector<double> one_low(6, 2.0);
    one_low[3] = 1.7;
    EXPECT_GT(cube.g(one_low), 0.0);
}

TEST(CubeCase, AnalyticLevelsMatchDecadeDesign) {
    // The hard-coded level schedule was built so P[Ω_{a_m}] ≈ 10^{-m}.
    testcases::CubeCase cube;
    const auto levels = cube.nofis_budget().levels;
    for (std::size_t m = 0; m + 1 < levels.size(); ++m) {
        const double p = testcases::CubeCase::analytic_prob(levels[m]);
        EXPECT_NEAR(std::log10(p), -static_cast<double>(m + 1), 0.05)
            << "level " << m;
    }
}

TEST(SyntheticFunctions, KnownValues) {
    // rosenbrock(1,...,1) = 0; levy(1,...,1) = 0; powell(0,...,0) = 0.
    EXPECT_DOUBLE_EQ(testcases::rosenbrock(std::vector<double>(10, 1.0)), 0.0);
    EXPECT_NEAR(testcases::levy(std::vector<double>(20, 1.0)), 0.0, 1e-12);
    EXPECT_DOUBLE_EQ(testcases::powell(std::vector<double>(40, 0.0)), 0.0);
    // rosenbrock(0, 0) = 1 per pair term.
    EXPECT_DOUBLE_EQ(testcases::rosenbrock(std::vector<double>(2, 0.0)), 1.0);
}

TEST(DeepNet62, NominalMetricComfortablyAboveThreshold) {
    testcases::DeepNet62Case net;
    EXPECT_GT(net.nominal_metric(), 0.93);
    EXPECT_GT(net.g(std::vector<double>(62, 0.0)), 0.04);
}

TEST(DeepNet62, DeterministicAcrossInstances) {
    testcases::DeepNet62Case a;
    testcases::DeepNet62Case b;
    rng::Engine eng(6);
    std::vector<double> x(62);
    rng::fill_standard_normal(eng, x);
    EXPECT_DOUBLE_EQ(a.g(x), b.g(x));
}

TEST(DeepNet62, LargePerturbationDegradesMetric) {
    testcases::DeepNet62Case net;
    std::vector<double> x(62, 0.0);
    const double g0 = net.g(x);
    for (double& v : x) v = -3.0;
    EXPECT_LT(net.g(x), g0);
}

}  // namespace
