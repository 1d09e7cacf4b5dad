#include <gtest/gtest.h>

#include <cmath>

#include "autodiff/gradcheck.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "rng/normal.hpp"

namespace {

using namespace nofis;
using autodiff::Var;
using linalg::Matrix;
using rng::Engine;

TEST(Linear, ShapesAndForward) {
    Engine eng(1);
    nn::Linear layer(3, 2, eng);
    EXPECT_EQ(layer.in_features(), 3u);
    EXPECT_EQ(layer.out_features(), 2u);
    Var x(Matrix(5, 3));
    Var y = layer.forward(x);
    EXPECT_EQ(y.rows(), 5u);
    EXPECT_EQ(y.cols(), 2u);
}

TEST(Linear, ZeroGainGivesZeroOutput) {
    Engine eng(2);
    nn::Linear layer(4, 4, eng, /*gain=*/0.0);
    Engine eng2(3);
    Var x(rng::standard_normal_matrix(eng2, 6, 4));
    EXPECT_DOUBLE_EQ(layer.forward(x).value().max_abs(), 0.0);
}

TEST(Linear, ForwardMatchesManualComputation) {
    Engine eng(4);
    nn::Linear layer(2, 1, eng);
    const Matrix w = layer.weight().value();
    layer.bias().mutable_value()(0, 0) = 0.5;
    Var x(Matrix{{1.0, 2.0}});
    const double expected = w(0, 0) * 1.0 + w(1, 0) * 2.0 + 0.5;
    EXPECT_NEAR(layer.forward(x).value()(0, 0), expected, 1e-12);
}

TEST(Mlp, LayerCountAndParams) {
    Engine eng(5);
    nn::MLP net({4, 8, 8, 2}, nn::Activation::kTanh, eng);
    EXPECT_EQ(net.in_features(), 4u);
    EXPECT_EQ(net.out_features(), 2u);
    EXPECT_EQ(net.params().size(), 6u);  // 3 layers x (W, b)
}

TEST(Mlp, RejectsTooFewSizes) {
    Engine eng(6);
    EXPECT_THROW(nn::MLP({4}, nn::Activation::kTanh, eng),
                 std::invalid_argument);
}

TEST(Mlp, GradCheckThroughWholeNetwork) {
    Engine eng(7);
    nn::MLP net({3, 6, 1}, nn::Activation::kTanh, eng);
    const Matrix x0 = rng::standard_normal_matrix(eng, 4, 3);
    const auto res = autodiff::grad_check(
        [&net](const Var& x) { return autodiff::sum(net.forward(x)); }, x0);
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(Mlp, SetTrainableFreezesParams) {
    Engine eng(8);
    nn::MLP net({2, 4, 1}, nn::Activation::kRelu, eng);
    net.set_trainable(false);
    for (const auto& p : net.params()) EXPECT_FALSE(p.requires_grad());
    net.set_trainable(true);
    for (const auto& p : net.params()) EXPECT_TRUE(p.requires_grad());
}

// --- losses ------------------------------------------------------------------

TEST(Loss, MseKnownValue) {
    Var pred(Matrix{{1.0, 2.0}});
    const Matrix target{{0.0, 4.0}};
    // ((1-0)^2 + (2-4)^2) / 2 = 2.5
    EXPECT_NEAR(nn::mse_loss(pred, target).value()(0, 0), 2.5, 1e-12);
}

TEST(Loss, MseGradCheck) {
    const Matrix target{{0.5, -1.0}, {2.0, 0.0}};
    const auto res = autodiff::grad_check(
        [&target](const Var& x) { return nn::mse_loss(x, target); },
        Matrix{{1.0, 0.0}, {0.3, -0.2}});
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(Loss, BceMatchesClosedForm) {
    // BCE with logits z and label y: -y log σ(z) - (1-y) log(1-σ(z)).
    const double z = 0.7;
    const double y = 1.0;
    Var logits(Matrix{{z}});
    const Matrix labels{{y}};
    const double sigma = 1.0 / (1.0 + std::exp(-z));
    const double expected = -std::log(sigma);
    EXPECT_NEAR(nn::bce_with_logits_loss(logits, labels).value()(0, 0),
                expected, 1e-10);
}

TEST(Loss, BceStableForExtremeLogits) {
    Var logits(Matrix{{40.0, -40.0}});
    const Matrix labels{{1.0, 0.0}};
    const double loss =
        nn::bce_with_logits_loss(logits, labels).value()(0, 0);
    EXPECT_TRUE(std::isfinite(loss));
    EXPECT_NEAR(loss, 0.0, 1e-10);
}

TEST(Loss, BceGradCheck) {
    const Matrix labels{{1.0, 0.0}, {0.0, 1.0}};
    const auto res = autodiff::grad_check(
        [&labels](const Var& z) { return nn::bce_with_logits_loss(z, labels); },
        Matrix{{0.3, -0.8}, {1.2, 0.1}});
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

// --- optimizers --------------------------------------------------------------

TEST(Optimizer, AdamConvergesOnIllConditionedQuadratic) {
    // min 100 (a-1)^2 + (b+2)^2.
    Var a(Matrix{{5.0}}, true);
    Var b(Matrix{{5.0}}, true);
    nn::Adam opt({a, b}, 0.1);
    for (int i = 0; i < 500; ++i) {
        opt.zero_grad();
        Var la = autodiff::scale(
            autodiff::square_v(autodiff::add_const(a, -1.0)), 100.0);
        Var lb = autodiff::square_v(autodiff::add_const(b, 2.0));
        autodiff::add(autodiff::sum(la), autodiff::sum(lb)).backward();
        opt.step();
    }
    EXPECT_NEAR(a.value()(0, 0), 1.0, 1e-3);
    EXPECT_NEAR(b.value()(0, 0), -2.0, 1e-3);
}

TEST(Optimizer, SkipsFrozenParameters) {
    Var w(Matrix{{1.0}}, true);
    Var frozen(Matrix{{1.0}}, true);
    nn::Adam opt({w, frozen}, 0.5);
    frozen.set_requires_grad(false);
    opt.zero_grad();
    autodiff::sum(autodiff::add(autodiff::square_v(w),
                                autodiff::square_v(frozen)))
        .backward();
    opt.step();
    EXPECT_NE(w.value()(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(frozen.value()(0, 0), 1.0);
}

TEST(Optimizer, ClipGradNormScalesDown) {
    Var w(Matrix{{0.0, 0.0}}, true);
    nn::Adam opt({w}, 1.0);
    opt.zero_grad();
    // loss = 3 w0 + 4 w1 -> grad (3, 4), norm 5.
    autodiff::dot_constant(w, Matrix{{3.0, 4.0}}).backward();
    const double norm = opt.clip_grad_norm(1.0);
    EXPECT_NEAR(norm, 5.0, 1e-12);
    EXPECT_NEAR(w.grad()(0, 0), 0.6, 1e-12);
    EXPECT_NEAR(w.grad()(0, 1), 0.8, 1e-12);
}

// --- trainers ------------------------------------------------------------------

TEST(Trainer, RegressionLearnsLinearMap) {
    Engine eng(9);
    const Matrix x = rng::standard_normal_matrix(eng, 256, 2);
    Matrix y(256, 1);
    for (std::size_t r = 0; r < 256; ++r)
        y(r, 0) = 2.0 * x(r, 0) - x(r, 1) + 0.5;
    nn::MLP net({2, 16, 1}, nn::Activation::kTanh, eng);
    nn::TrainConfig cfg;
    cfg.epochs = 250;
    cfg.learning_rate = 5e-3;
    const auto hist = nn::fit_regression(net, x, y, cfg, eng);
    EXPECT_LT(hist.final_loss(), 0.02);
    EXPECT_GT(hist.epoch_loss.front(), hist.final_loss());
}

TEST(Trainer, ClassifierLearnsXor) {
    Engine eng(10);
    Matrix x(4, 2);
    Matrix labels(4, 1);
    const double pts[4][3] = {
        {-1, -1, 0}, {-1, 1, 1}, {1, -1, 1}, {1, 1, 0}};
    for (int i = 0; i < 4; ++i) {
        x(i, 0) = pts[i][0];
        x(i, 1) = pts[i][1];
        labels(i, 0) = pts[i][2];
    }
    nn::MLP net({2, 8, 8, 1}, nn::Activation::kTanh, eng);
    nn::TrainConfig cfg;
    cfg.epochs = 600;
    cfg.batch_size = 4;
    cfg.learning_rate = 1e-2;
    nn::fit_classifier(net, x, labels, cfg, eng);
    const Matrix pred = net.predict(x);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(pred(i, 0) > 0.0, labels(i, 0) > 0.5) << "point " << i;
}

}  // namespace
