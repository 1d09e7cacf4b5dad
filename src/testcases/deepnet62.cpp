#include "testcases/deepnet62.hpp"

#include <cmath>
#include <stdexcept>

#include "autodiff/ops.hpp"
#include "nn/mlp.hpp"
#include "nn/trainer.hpp"
#include "rng/normal.hpp"

namespace nofis::testcases {

namespace {

constexpr std::size_t kInput = 8;
constexpr std::size_t kHidden = 24;
constexpr std::size_t kEvalPoints = 256;
constexpr double kSoftness = 3.0;   ///< margin sharpness of the soft accuracy
constexpr double kSigma = 0.045;    ///< per-group perturbation strength
// Threshold / golden calibrated offline (tools/calibrate; EXPERIMENTS.md).
constexpr double kThreshold = 0.89;
constexpr double kGolden = 5.6e-5;
constexpr std::uint64_t kBuildSeed = 20240623;  // DAC'24 opening day

/// The deterministic synthetic task: a smooth nonlinear decision rule.
double task_label_sign(std::span<const double> f) {
    const double v = f[0] + f[1] * f[1] - f[2] + 0.8 * std::sin(2.0 * f[3]) +
                     f[4] * f[5] - 0.4 * f[6] * f[7] - 0.5;
    return v > 0.0 ? 1.0 : -1.0;
}

/// Leaky ReLU on the hidden layers; the last (logit) layer is linear.
linalg::kernels::Act layer_act(std::size_t layer, std::size_t layers) {
    return layer + 1 < layers ? linalg::kernels::Act::kLeakyRelu
                              : linalg::kernels::Act::kNone;
}

}  // namespace

DeepNet62Case::DeepNet62Case() {
    rng::Engine eng(kBuildSeed);

    // Frozen evaluation set.
    eval_x_ = rng::standard_normal_matrix(eng, kEvalPoints, kInput);
    eval_sign_ = linalg::Matrix(kEvalPoints, 1);
    for (std::size_t r = 0; r < kEvalPoints; ++r)
        eval_sign_(r, 0) = task_label_sign(eval_x_.row_span(r));

    // Train the base network once on a larger deterministic training set.
    const std::size_t n_train = 2048;
    linalg::Matrix train_x = rng::standard_normal_matrix(eng, n_train, kInput);
    linalg::Matrix train_y(n_train, 1);
    for (std::size_t r = 0; r < n_train; ++r)
        train_y(r, 0) = task_label_sign(train_x.row_span(r)) > 0.0 ? 1.0 : 0.0;

    nn::MLP net({kInput, kHidden, kHidden, kHidden, 1},
                nn::Activation::kLeakyRelu, eng);
    nn::TrainConfig tc;
    tc.epochs = 120;
    tc.batch_size = 128;
    tc.learning_rate = 3e-3;
    nn::fit_classifier(net, train_x, train_y, tc, eng);

    // Freeze the trained parameters as plain matrices.
    const auto params = net.params();  // [W1, b1, W2, b2, W3, b3, W4, b4]
    for (std::size_t i = 0; i < params.size(); i += 2) {
        weights_.push_back(params[i].value());
        biases_.push_back(params[i + 1].value());
    }

    // 62 perturbation groups: W1 rows (8) + W2 rows (24) + W3 rows (24) +
    // W4 (24x1) in 6 slices of 4.
    for (std::size_t r = 0; r < kInput; ++r)
        groups_.push_back({0, r * kHidden, (r + 1) * kHidden});
    for (std::size_t r = 0; r < kHidden; ++r)
        groups_.push_back({1, r * kHidden, (r + 1) * kHidden});
    for (std::size_t r = 0; r < kHidden; ++r)
        groups_.push_back({2, r * kHidden, (r + 1) * kHidden});
    for (std::size_t s = 0; s < 6; ++s)
        groups_.push_back({3, s * 4, (s + 1) * 4});
    if (groups_.size() != kNumGroups)
        throw std::logic_error("DeepNet62Case: group bookkeeping broke");

    threshold_ = kThreshold;
    sigma_ = kSigma;
}

std::vector<linalg::Matrix> DeepNet62Case::perturbed_weights(
    std::span<const double> x) const {
    std::vector<linalg::Matrix> w = weights_;
    for (std::size_t k = 0; k < groups_.size(); ++k) {
        const auto& grp = groups_[k];
        const double scale = 1.0 + sigma_ * x[k];
        auto flat = w[grp.layer].flat();
        for (std::size_t i = grp.begin; i < grp.end; ++i) flat[i] *= scale;
    }
    return w;
}

double DeepNet62Case::metric_from_weights(
    const std::vector<linalg::Matrix>& w) const {
    // Value-only forward pass: h = leaky(h W + b), final layer linear, one
    // fused dense kernel per layer (the tape's dense node runs the same).
    linalg::Matrix h = eval_x_;
    for (std::size_t l = 0; l < w.size(); ++l)
        h = linalg::linear_act(h, w[l], biases_[l].flat(),
                               layer_act(l, w.size()));
    // Soft accuracy: mean sigmoid(κ · sign · logit).
    double acc = 0.0;
    for (std::size_t r = 0; r < kEvalPoints; ++r)
        acc += 1.0 /
               (1.0 + std::exp(-kSoftness * eval_sign_(r, 0) * h(r, 0)));
    return acc / static_cast<double>(kEvalPoints);
}

double DeepNet62Case::nominal_metric() const {
    return metric_from_weights(weights_);
}

double DeepNet62Case::golden_pr() const noexcept { return kGolden; }

double DeepNet62Case::g(std::span<const double> x) const {
    if (x.size() != kNumGroups)
        throw std::invalid_argument("DeepNet62Case: dimension mismatch");
    return metric_from_weights(perturbed_weights(x)) - threshold_;
}

double DeepNet62Case::g_grad(std::span<const double> x,
                             std::span<double> grad_out) const {
    if (x.size() != kNumGroups || grad_out.size() != kNumGroups)
        throw std::invalid_argument("DeepNet62Case: dimension mismatch");
    using autodiff::Var;

    // Graph forward with the perturbed weights as differentiable leaves.
    const auto w_values = perturbed_weights(x);
    std::vector<Var> w_vars;
    w_vars.reserve(w_values.size());
    for (const auto& w : w_values) w_vars.emplace_back(w, true);

    Var h(eval_x_);
    for (std::size_t l = 0; l < w_vars.size(); ++l)
        h = autodiff::dense(h, w_vars[l], Var(biases_[l]),
                            layer_act(l, w_vars.size()));
    // metric = mean sigmoid(κ · sign ⊙ logits)
    Var margin = autodiff::hadamard_const(h, eval_sign_ * kSoftness);
    Var metric = autodiff::mean(autodiff::sigmoid_v(margin));
    metric.backward();

    // Chain rule onto x: W(x) = W0 ⊙ (1 + σ x_group) element-block-wise, so
    // ∂metric/∂x_k = σ Σ_{i∈group k} W0_i · (∂metric/∂W_i).
    for (std::size_t k = 0; k < groups_.size(); ++k) {
        const auto& grp = groups_[k];
        const auto base = weights_[grp.layer].flat();
        const auto grad = w_vars[grp.layer].grad().flat();
        double s = 0.0;
        for (std::size_t i = grp.begin; i < grp.end; ++i)
            s += base[i] * grad[i];
        grad_out[k] = sigma_ * s;
    }
    return metric.value()(0, 0) - threshold_;
}

NofisBudget DeepNet62Case::nofis_budget() const {
    NofisBudget b;
    // Paper: 18K total calls.
    b.levels = {0.037, 0.022, 0.012, 0.0045, 0.0};  // soft-accuracy margins
    b.epochs = 32;
    b.samples_per_epoch = 100;
    b.n_is = 2000;  // 5*32*100 + 2000 = 18,000
    b.tau = 300.0;
    return b;
}

BaselineBudget DeepNet62Case::baseline_budget() const {
    BaselineBudget b;
    b.mc_samples = 20000;
    b.sir_train_samples = 20000;
    b.sus_samples_per_level = 3300;  // ~20K over ~5 levels
    b.sus_max_levels = 8;
    b.suc_samples_per_level = 3800;  // ~23K
    b.suc_max_levels = 8;
    b.sss_total_samples = 20000;
    b.ais_iterations = 4;
    b.ais_samples_per_iteration = 3500;
    b.ais_final_samples = 6000;      // ~20K
    return b;
}

}  // namespace nofis::testcases
