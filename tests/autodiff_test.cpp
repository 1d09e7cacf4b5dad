#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>

#include "autodiff/gradcheck.hpp"
#include "autodiff/ops.hpp"
#include "linalg/kernels/kernels.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/normal.hpp"

namespace {

using namespace nofis::autodiff;
using nofis::linalg::Matrix;
using nofis::rng::Engine;

Matrix random_matrix(std::uint64_t seed, std::size_t r, std::size_t c) {
    Engine eng(seed);
    return nofis::rng::standard_normal_matrix(eng, r, c);
}

// ---------------------------------------------------------------------------
// Basic graph mechanics
// ---------------------------------------------------------------------------

TEST(Var, BackwardRequiresScalar) {
    Var x(Matrix(2, 2), true);
    EXPECT_THROW(x.backward(), std::logic_error);
}

TEST(Var, SimpleChainGradient) {
    // f = sum(3 * x) -> df/dx = 3.
    Var x(Matrix{{1.0, 2.0}}, true);
    Var f = sum(scale(x, 3.0));
    f.backward();
    EXPECT_DOUBLE_EQ(x.grad()(0, 0), 3.0);
    EXPECT_DOUBLE_EQ(x.grad()(0, 1), 3.0);
}

TEST(Var, GradientAccumulatesAcrossBackwardCalls) {
    Var x(Matrix{{1.0}}, true);
    sum(scale(x, 2.0)).backward();
    sum(scale(x, 2.0)).backward();
    EXPECT_DOUBLE_EQ(x.grad()(0, 0), 4.0);
    x.zero_grad();
    EXPECT_DOUBLE_EQ(x.grad()(0, 0), 0.0);
}

TEST(Var, DiamondGraphSumsBothPaths) {
    // f = sum(x + x) -> df/dx = 2 (the node is reused).
    Var x(Matrix{{1.0, 1.0}}, true);
    Var f = sum(add(x, x));
    f.backward();
    EXPECT_DOUBLE_EQ(x.grad()(0, 0), 2.0);
}

TEST(Var, NoGradThroughConstLeaves) {
    Var x(Matrix{{1.0}}, false);
    Var y(Matrix{{2.0}}, true);
    Var f = sum(mul(x, y));
    f.backward();
    EXPECT_DOUBLE_EQ(y.grad()(0, 0), 1.0);
    EXPECT_TRUE(x.grad().empty());
}

TEST(Var, FrozenSubgraphIsPruned) {
    // Result of ops on non-grad leaves has requires_grad == false.
    Var x(Matrix{{1.0}}, false);
    Var h = tanh_v(scale(x, 2.0));
    EXPECT_FALSE(h.requires_grad());
}

// ---------------------------------------------------------------------------
// Finite-difference verification of every op (parameterized over shapes)
// ---------------------------------------------------------------------------

struct Shape {
    std::size_t rows;
    std::size_t cols;
};

class OpGradCheck : public ::testing::TestWithParam<Shape> {
protected:
    Matrix input() const {
        return random_matrix(17 + GetParam().rows * 31 + GetParam().cols,
                             GetParam().rows, GetParam().cols);
    }
};

TEST_P(OpGradCheck, Tanh) {
    const auto res = grad_check(
        [](const Var& x) { return sum(tanh_v(x)); }, input());
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST_P(OpGradCheck, Sigmoid) {
    const auto res = grad_check(
        [](const Var& x) { return sum(sigmoid_v(x)); }, input());
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST_P(OpGradCheck, Exp) {
    const auto res = grad_check([](const Var& x) { return sum(exp_v(x)); },
                                input());
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST_P(OpGradCheck, Softplus) {
    const auto res = grad_check(
        [](const Var& x) { return sum(softplus_v(x)); }, input());
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST_P(OpGradCheck, Square) {
    const auto res = grad_check(
        [](const Var& x) { return sum(square_v(x)); }, input());
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST_P(OpGradCheck, LogOfPositive) {
    Matrix in = input().map([](double v) { return std::abs(v) + 0.5; });
    const auto res = grad_check([](const Var& x) { return sum(log_v(x)); },
                                in);
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST_P(OpGradCheck, LeakyRelu) {
    // Keep inputs away from the kink where FD is invalid.
    Matrix in = input().map(
        [](double v) { return std::abs(v) < 0.05 ? v + 0.2 : v; });
    const auto res = grad_check(
        [](const Var& x) { return sum(leaky_relu_v(x)); }, in);
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST_P(OpGradCheck, MeanAndScale) {
    const auto res = grad_check(
        [](const Var& x) { return mean(scale(x, -2.5)); }, input());
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST_P(OpGradCheck, RowSumsComposition) {
    const auto res = grad_check(
        [](const Var& x) { return sum(square_v(row_sums(x))); }, input());
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST_P(OpGradCheck, MatmulLeft) {
    const Matrix rhs = random_matrix(5, GetParam().cols, 3);
    const auto res = grad_check(
        [&rhs](const Var& x) { return sum(matmul(x, Var(rhs))); }, input());
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST_P(OpGradCheck, MatmulRightThroughBoth) {
    // Gradient w.r.t. the right operand via a quadratic composition.
    const Matrix lhs = random_matrix(6, 3, GetParam().rows);
    const auto res = grad_check(
        [&lhs](const Var& x) {
            Var l(lhs, false);
            return sum(square_v(matmul(l, x)));
        },
        input());
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST_P(OpGradCheck, MulElementwise) {
    const Matrix other = random_matrix(7, GetParam().rows, GetParam().cols);
    const auto res = grad_check(
        [&other](const Var& x) { return sum(mul(x, Var(other))); }, input());
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST_P(OpGradCheck, MulBothOperandsSameLeaf) {
    const auto res = grad_check([](const Var& x) { return sum(mul(x, x)); },
                                input());
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST_P(OpGradCheck, SubAndNeg) {
    const Matrix other = random_matrix(9, GetParam().rows, GetParam().cols);
    const auto res = grad_check(
        [&other](const Var& x) { return sum(sub(neg(x), Var(other))); },
        input());
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST_P(OpGradCheck, HadamardConst) {
    const Matrix c = random_matrix(10, GetParam().rows, GetParam().cols);
    const auto res = grad_check(
        [&c](const Var& x) { return sum(hadamard_const(x, c)); }, input());
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST_P(OpGradCheck, DotConstant) {
    const Matrix c = random_matrix(11, GetParam().rows, GetParam().cols);
    const auto res = grad_check(
        [&c](const Var& x) { return dot_constant(x, c); }, input());
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, OpGradCheck,
    ::testing::Values(Shape{1, 1}, Shape{1, 4}, Shape{3, 1}, Shape{2, 3},
                      Shape{5, 5}));

// ---------------------------------------------------------------------------
// Structural ops
// ---------------------------------------------------------------------------

TEST(StructuralOps, AddBiasGradcheckBothOperands) {
    const Matrix x0 = random_matrix(21, 4, 3);
    const Matrix b0 = random_matrix(22, 1, 3);
    auto res = grad_check(
        [&b0](const Var& x) { return sum(square_v(add_bias(x, Var(b0, false)))); },
        x0);
    EXPECT_TRUE(res.passed) << res.max_rel_error;
    res = grad_check(
        [&x0](const Var& b) { return sum(square_v(add_bias(Var(x0), b))); },
        b0);
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(StructuralOps, SelectColsGradScattersBack) {
    Var x(Matrix{{1.0, 2.0, 3.0}}, true);
    const std::size_t idx[] = {2, 0};
    Var sel = select_cols(x, idx);
    EXPECT_DOUBLE_EQ(sel.value()(0, 0), 3.0);
    EXPECT_DOUBLE_EQ(sel.value()(0, 1), 1.0);
    sum(mul(sel, sel)).backward();
    EXPECT_DOUBLE_EQ(x.grad()(0, 0), 2.0);   // 2*x0
    EXPECT_DOUBLE_EQ(x.grad()(0, 1), 0.0);   // unselected
    EXPECT_DOUBLE_EQ(x.grad()(0, 2), 6.0);   // 2*x2
}

TEST(StructuralOps, CombineColsRoundTrip) {
    Var a(Matrix{{1.0, 2.0}}, true);
    Var b(Matrix{{3.0}}, true);
    const std::size_t ia[] = {0, 2};
    const std::size_t ib[] = {1};
    Var y = combine_cols(a, ia, b, ib, 3);
    EXPECT_DOUBLE_EQ(y.value()(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(y.value()(0, 1), 3.0);
    EXPECT_DOUBLE_EQ(y.value()(0, 2), 2.0);
    sum(scale(y, 2.0)).backward();
    EXPECT_DOUBLE_EQ(a.grad()(0, 0), 2.0);
    EXPECT_DOUBLE_EQ(b.grad()(0, 0), 2.0);
}

TEST(StructuralOps, CombineColsValidatesPartition) {
    Var a(Matrix(1, 2), true);
    Var b(Matrix(1, 2), true);
    const std::size_t ia[] = {0, 1};
    const std::size_t ib[] = {2, 3};
    EXPECT_NO_THROW(combine_cols(a, ia, b, ib, 4));
    EXPECT_THROW(combine_cols(a, ia, b, ib, 5), std::invalid_argument);
}

TEST(StructuralOps, ShapeMismatchThrows) {
    Var a(Matrix(2, 3), true);
    Var b(Matrix(3, 2), true);
    EXPECT_THROW(add(a, b), std::invalid_argument);
    EXPECT_THROW(mul(a, b), std::invalid_argument);
    EXPECT_THROW(matmul(a, a), std::invalid_argument);
    EXPECT_THROW(add_bias(a, Var(Matrix(1, 2))), std::invalid_argument);
    EXPECT_THROW(dot_constant(a, Matrix(1, 1)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Rational-quadratic spline op
// ---------------------------------------------------------------------------

TEST(RqsForward, GradChecksInput) {
    // 3 transformed dims, 4 bins → 13 raw params per dim. Random raw params
    // exercise non-uniform bins and knot slopes; gradcheck covers both the
    // y and log-det outputs.
    const std::size_t bins = 4;
    const Matrix h0 = random_matrix(31, 5, 3 * (3 * bins + 1));
    Matrix xb0 = random_matrix(32, 5, 3);
    // Keep inputs away from ±tail_bound (derivative kink) and bin knots are
    // random so clashes are measure-zero.
    for (double& v : xb0.flat()) v *= 0.8;
    const auto res = grad_check(
        [&h0, bins](const Var& xb) {
            auto f = rqs_forward(xb, Var(h0, false), bins, 3.0);
            return add(sum(square_v(f.y)), sum(f.log_det));
        },
        xb0);
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(RqsForward, GradChecksParams) {
    // Perturbing h moves every raw-parameter group (widths, heights,
    // derivatives) through softmax/softplus into the spline.
    const std::size_t bins = 4;
    Matrix xb0 = random_matrix(33, 5, 2);
    for (double& v : xb0.flat()) v *= 0.8;
    const Matrix h0 = random_matrix(34, 5, 2 * (3 * bins + 1));
    const auto res = grad_check(
        [&xb0, bins](const Var& h) {
            auto f = rqs_forward(Var(xb0, false), h, bins, 3.0);
            return add(sum(square_v(f.y)), sum(f.log_det));
        },
        h0);
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(RqsForward, TailInputsHaveUnitGradientAndZeroParamGrad) {
    // Outside the interval the map is the identity: dy/dx = 1 and no
    // gradient flows into the spline parameters.
    const std::size_t bins = 4;
    Var xb(Matrix{{5.0, -7.0}}, true);
    Var h(random_matrix(35, 1, 2 * (3 * bins + 1)), true);
    auto f = rqs_forward(xb, h, bins, 3.0);
    EXPECT_DOUBLE_EQ(f.y.value()(0, 0), 5.0);
    EXPECT_DOUBLE_EQ(f.y.value()(0, 1), -7.0);
    EXPECT_DOUBLE_EQ(f.log_det.value()(0, 0), 0.0);
    sum(f.y).backward();
    EXPECT_DOUBLE_EQ(xb.grad()(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(xb.grad()(0, 1), 1.0);
    EXPECT_DOUBLE_EQ(h.grad().max_abs(), 0.0);
}

TEST(RqsForward, ValidatesShapes) {
    Var xb(Matrix(2, 3), true);
    Var h(Matrix(2, 3 * 13), true);
    EXPECT_NO_THROW(rqs_forward(xb, h, 4, 3.0));
    EXPECT_THROW(rqs_forward(xb, Var(Matrix(2, 5)), 4, 3.0),
                 std::invalid_argument);
    EXPECT_THROW(rqs_forward(Var(Matrix(3, 3)), h, 4, 3.0),
                 std::invalid_argument);
    EXPECT_THROW(rqs_forward(xb, h, 0, 3.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fused nodes against the elementwise chains they replace
// ---------------------------------------------------------------------------

namespace kernels = nofis::linalg::kernels;
namespace parallel = nofis::parallel;

/// Element by element, the same bits or both NaN: a NaN's payload depends
/// on which of two NaNs an addition keeps, and the chain and the fused
/// node add a node's contributions in different orders.
::testing::AssertionResult same_bits(const Matrix& want, const Matrix& got) {
    if (want.rows() != got.rows() || want.cols() != got.cols())
        return ::testing::AssertionFailure() << "shape differs";
    for (std::size_t i = 0; i < want.size(); ++i) {
        const double a = want.flat()[i];
        const double b = got.flat()[i];
        if (std::isnan(a) && std::isnan(b)) continue;
        if (std::memcmp(&a, &b, sizeof a) != 0)
            return ::testing::AssertionFailure()
                   << "element " << i << ": " << a << " vs " << b;
    }
    return ::testing::AssertionSuccess();
}

/// Upstream gradients: mixed signs with exact +0 and −0 sprinkled in.
Matrix upstream(std::uint64_t seed, std::size_t r, std::size_t c) {
    Matrix g = random_matrix(seed, r, c);
    for (std::size_t i = 0; i < g.size(); i += 5)
        g.flat()[i] = (i / 5) % 2 == 0 ? 0.0 : -0.0;
    return g;
}

/// The dense layer as the tape built it before the fused node.
Var composed_dense(const Var& x, const Var& w, const Var& b,
                   kernels::Act act) {
    const Var z = add_bias(matmul(x, w), b);
    switch (act) {
        case kernels::Act::kNone:
            return z;
        case kernels::Act::kTanh:
            return tanh_v(z);
        case kernels::Act::kRelu:
            return relu_v(z);
        case kernels::Act::kLeakyRelu:
            return leaky_relu_v(z);
        case kernels::Act::kSigmoid:
            return sigmoid_v(z);
    }
    return z;
}

/// The affine transform as the eight ops AffineCoupling::forward chained
/// before the fused node: {y_b, log_det}.
AffineForward composed_affine(const Var& xb, const Var& h, double cap) {
    const std::size_t nb = xb.cols();
    std::vector<std::size_t> s_idx(nb);
    std::vector<std::size_t> t_idx(nb);
    std::iota(s_idx.begin(), s_idx.end(), std::size_t{0});
    std::iota(t_idx.begin(), t_idx.end(), nb);
    const Var s = scale(tanh_v(select_cols(h, s_idx)), cap);
    const Var t = select_cols(h, t_idx);
    return {add(mul(xb, exp_v(s)), t), row_sums(s)};
}

const std::size_t kOracleRows[] = {0, 1, 3, 4, 5, 50, 64, 65};
const std::size_t kOracleWidths[] = {1, 2, 13, 32};

/// Runs `body` under both kernel flavours at 1 and 3 lanes, then restores
/// the defaults.
template <typename Body>
void for_each_flavour_and_lanes(Body&& body) {
    const kernels::Choice before = kernels::active();
    for (const kernels::Choice choice :
         {kernels::Choice::kScalar, kernels::Choice::kSimd}) {
        kernels::set_choice(choice);
        for (const std::size_t lanes : {1ul, 3ul}) {
            parallel::set_num_threads(lanes);
            body(std::string(kernels::choice_name()) + " lanes=" +
                 std::to_string(lanes));
        }
    }
    kernels::set_choice(before);
    parallel::set_num_threads(0);
}

TEST(Tape, FusedDenseMatchesComposedOps) {
    using kernels::Act;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for_each_flavour_and_lanes([&](const std::string& where) {
        for (const std::size_t rows : kOracleRows)
            for (const std::size_t in : kOracleWidths)
                for (const std::size_t out : kOracleWidths)
                    for (const Act act : {Act::kNone, Act::kTanh, Act::kRelu,
                                          Act::kLeakyRelu, Act::kSigmoid})
                        for (const bool x_grad : {true, false}) {
                            const std::uint64_t seed =
                                1000 * rows + 10 * in + out;
                            Matrix xv = random_matrix(seed, rows, in);
                            // A NaN input row: NaN pre-activations, whose
                            // ReLU output is 0 while the gradient passes.
                            if (rows > 2)
                                for (double& v : xv.row_span(2)) v = nan;
                            const Matrix wv = random_matrix(seed + 1, in, out);
                            const Matrix bv = random_matrix(seed + 2, 1, out);
                            const Matrix gy = upstream(seed + 3, rows, out);
                            const std::string label =
                                where + " act=" +
                                std::to_string(static_cast<int>(act)) + " " +
                                std::to_string(rows) + "x" +
                                std::to_string(in) + "x" +
                                std::to_string(out) +
                                (x_grad ? "" : " const-x");
                            Var x0(xv, x_grad), w0(wv, true), b0(bv, true);
                            Var x1(xv, x_grad), w1(wv, true), b1(bv, true);
                            const Var y0 = composed_dense(x0, w0, b0, act);
                            const Var y1 = dense(x1, w1, b1, act);
                            ASSERT_TRUE(same_bits(y0.value(), y1.value()))
                                << label;
                            if (rows == 0) continue;
                            dot_constant(y0, gy).backward();
                            dot_constant(y1, gy).backward();
                            EXPECT_TRUE(same_bits(w0.grad(), w1.grad()))
                                << label << " dW";
                            EXPECT_TRUE(same_bits(b0.grad(), b1.grad()))
                                << label << " db";
                            if (x_grad) {
                                EXPECT_TRUE(same_bits(x0.grad(), x1.grad()))
                                    << label << " dx";
                            } else {
                                EXPECT_TRUE(x1.grad().empty()) << label;
                            }
                        }
    });
}

TEST(Tape, FusedDenseSkipsConstantBias) {
    // DeepNet62's biases are constants: no gradient is formed for them.
    Var x(random_matrix(1, 4, 3), true);
    Var w(random_matrix(2, 3, 2), true);
    Var b(random_matrix(3, 1, 2));
    sum(dense(x, w, b, kernels::Act::kLeakyRelu)).backward();
    EXPECT_TRUE(b.grad().empty());
    EXPECT_FALSE(w.grad().empty());
    EXPECT_THROW(dense(x, Var(Matrix(2, 2)), b, kernels::Act::kNone),
                 std::invalid_argument);
    EXPECT_THROW(dense(x, w, Var(Matrix(1, 3)), kernels::Act::kNone),
                 std::invalid_argument);
}

TEST(Tape, FusedAffineMatchesComposedOps) {
    // h_s walks tanh's branch point (0.625), its saturation beyond |h| = 20
    // (where 1 − tanh² is 0) and both signs; one row of h is NaN.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double hs_values[] = {0.0,    -0.0,  0.3,   -0.6249999, 0.625,
                                -0.625, 0.7,   -3.0,  19.9,       -20.5,
                                40.0,   1e-300};
    enum class Loss { kBoth, kYOnly, kLogDetOnly };
    for_each_flavour_and_lanes([&](const std::string& where) {
        for (const std::size_t rows : kOracleRows)
            for (const std::size_t nb : kOracleWidths)
                for (const double cap : {2.0, 1.4})
                    for (const Loss loss :
                         {Loss::kBoth, Loss::kYOnly, Loss::kLogDetOnly}) {
                        const std::uint64_t seed = 100 * rows + nb;
                        const Matrix xv = random_matrix(seed, rows, nb);
                        Matrix hv = random_matrix(seed + 1, rows, 2 * nb);
                        std::size_t k = 0;
                        for (std::size_t r = 0; r < rows; ++r)
                            for (std::size_t j = 0; j < nb; ++j, ++k)
                                if (k % 3 != 2)
                                    hv(r, j) = hs_values[k % 12];
                        if (rows > 3)
                            for (double& v : hv.row_span(3)) v = nan;
                        const Matrix gy = upstream(seed + 2, rows, nb);
                        const Matrix gld = upstream(seed + 3, rows, 1);
                        const std::string label =
                            where + " " + std::to_string(rows) + "x" +
                            std::to_string(nb) + " cap=" +
                            std::to_string(cap) + " loss=" +
                            std::to_string(static_cast<int>(loss));
                        Var x0(xv, true), h0(hv, true);
                        Var x1(xv, true), h1(hv, true);
                        const AffineForward f0 = composed_affine(x0, h0, cap);
                        const AffineForward f1 = affine_forward(x1, h1, cap);
                        ASSERT_TRUE(same_bits(f0.y.value(), f1.y.value()))
                            << label;
                        ASSERT_TRUE(
                            same_bits(f0.log_det.value(), f1.log_det.value()))
                            << label;
                        if (rows == 0) continue;
                        auto objective = [&](const AffineForward& f) {
                            if (loss == Loss::kYOnly)
                                return dot_constant(f.y, gy);
                            if (loss == Loss::kLogDetOnly)
                                return dot_constant(f.log_det, gld);
                            return add(dot_constant(f.y, gy),
                                       dot_constant(f.log_det, gld));
                        };
                        objective(f0).backward();
                        objective(f1).backward();
                        EXPECT_TRUE(same_bits(h0.grad(), h1.grad()))
                            << label << " dh";
                        // Without y in the loss the chain never reaches
                        // x_b, while the fused node reads y's gradient as
                        // zero, as rqs_forward does.
                        if (loss != Loss::kLogDetOnly) {
                            EXPECT_TRUE(same_bits(x0.grad(), x1.grad()))
                                << label << " dx";
                        }
                    }
    });
}

TEST(Tape, FusedAffineValuesMatchTheKernel) {
    // The tape's forward gives the value path's bits (affine_fwd_rows).
    const std::size_t n = 7;
    const std::size_t nb = 3;
    const Matrix xv = random_matrix(5, n, nb);
    const Matrix hv = random_matrix(6, n, 2 * nb);
    const AffineForward f = affine_forward(Var(xv), Var(hv), 1.5);
    Matrix y = xv;
    std::vector<double> ld(n, 0.0);
    const std::size_t idx[] = {0, 1, 2};
    kernels::affine_fwd_rows(xv.data(), hv.data(), idx, nb, 1.5, nb, y.data(),
                             ld.data(), 0, n);
    EXPECT_TRUE(same_bits(f.y.value(), y));
    EXPECT_TRUE(same_bits(f.log_det.value(), Matrix::col(ld)));
    EXPECT_THROW(affine_forward(Var(xv), Var(Matrix(n, nb)), 1.0),
                 std::invalid_argument);
}

TEST(GradCheckHarness, DetectsWrongGradient) {
    // A deliberately wrong "gradient" (treating d(x^2) as 1) must fail.
    const auto res = grad_check(
        [](const Var& x) {
            // sum(x ⊙ stop_grad(x)): gradient through one factor only,
            // giving x instead of 2x.
            return sum(hadamard_const(x, x.value()));
        },
        Matrix{{1.0, -2.0}});
    EXPECT_FALSE(res.passed);
}

}  // namespace
