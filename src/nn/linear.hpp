#pragma once

#include <vector>

#include "autodiff/ops.hpp"
#include "autodiff/var.hpp"
#include "rng/engine.hpp"

namespace nofis::nn {

/// Fully-connected layer y = x·W + b with trainable W (in x out) and
/// b (1 x out).
class Linear {
public:
    /// Xavier-uniform initialised weights; zero bias. `gain` scales the init
    /// range (coupling-net output layers use gain = 0 so a freshly-built
    /// flow is exactly the identity map).
    Linear(std::size_t in, std::size_t out, rng::Engine& eng,
           double gain = 1.0);

    /// act(x·W + b) as one tape node (autodiff::dense).
    autodiff::Var forward(
        const autodiff::Var& x,
        linalg::kernels::Act act = linalg::kernels::Act::kNone) const;

    std::size_t in_features() const noexcept { return in_; }
    std::size_t out_features() const noexcept { return out_; }

    /// Trainable parameters (weight, bias) — shared handles, not copies.
    std::vector<autodiff::Var> params() const { return {weight_, bias_}; }

    autodiff::Var& weight() { return weight_; }
    autodiff::Var& bias() { return bias_; }
    const autodiff::Var& weight() const noexcept { return weight_; }
    const autodiff::Var& bias() const noexcept { return bias_; }

private:
    std::size_t in_;
    std::size_t out_;
    autodiff::Var weight_;
    autodiff::Var bias_;
};

}  // namespace nofis::nn
