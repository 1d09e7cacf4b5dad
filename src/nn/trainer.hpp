#pragma once

#include <vector>

#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "rng/engine.hpp"

namespace nofis::nn {

struct TrainConfig {
    std::size_t epochs = 200;
    std::size_t batch_size = 64;
    double learning_rate = 1e-3;
    double grad_clip = 10.0;  ///< global-norm gradient clip
};

/// Per-epoch training losses (for diagnostics / convergence tests).
struct TrainHistory {
    std::vector<double> epoch_loss;
    double final_loss() const { return epoch_loss.empty() ? 0.0 : epoch_loss.back(); }
};

/// Fits `model` to minimise MSE on (x, y) with Adam and shuffled
/// mini-batches. Backbone of the SIR (surrogate regression) baseline.
TrainHistory fit_regression(MLP& model, const linalg::Matrix& x,
                            const linalg::Matrix& y, const TrainConfig& cfg,
                            rng::Engine& eng);

/// Fits a binary classifier (logit output) with BCE loss. Labels are a
/// column of 0/1. Backbone of the SUC (subset classification) baseline.
TrainHistory fit_classifier(MLP& model, const linalg::Matrix& x,
                            const linalg::Matrix& labels,
                            const TrainConfig& cfg, rng::Engine& eng);

}  // namespace nofis::nn
