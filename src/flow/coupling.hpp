#pragma once

#include <vector>

#include "flow/coupling_mask.hpp"
#include "flow/layer.hpp"
#include "nn/mlp.hpp"

namespace nofis::flow {

/// RealNVP affine coupling layer (Dinh et al., 2017).
///
/// Splits the D coordinates into an identity ("pass") set A and a
/// transformed set B via a binary mask. The forward map is
///     y_A = x_A
///     y_B = x_B ⊙ exp(s(x_A)) + t(x_A)
/// where [s | t] is produced by one conditioner MLP, and the log-scale is
/// bounded as s = s_cap · tanh(ŝ) for training stability. The Jacobian is
/// triangular, so log|det J| = Σ_B s — exactly the cheap term Eq. (7) of the
/// paper requires.
class AffineCoupling final : public FlowLayer {
public:
    /// Conditioner outputs per transformed coordinate: ŝ and t.
    static constexpr std::size_t kParamsPerDim = 2;

    /// `pass_first_half`: if true the first ⌈D/2⌉ coordinates pass through.
    /// Hidden layout of the conditioner is `hidden` (e.g. {32, 32}).
    /// The conditioner's output layer is zero-initialised so a fresh layer
    /// is the identity map.
    AffineCoupling(std::size_t dim, bool pass_first_half,
                   std::vector<std::size_t> hidden, rng::Engine& eng,
                   double scale_cap = 2.0);

    std::size_t dim() const noexcept override { return mask_.dim; }

    /// Differentiable forward: returns y and the per-sample log|det J|
    /// (n x 1) as graph nodes.
    ForwardVar forward(const autodiff::Var& x) const override;

    /// Value-only forward (no graph construction — used for sampling and
    /// the IS estimate). `log_det` accumulates per-row log|det J|.
    linalg::Matrix forward_values(const linalg::Matrix& x,
                                  std::vector<double>& log_det) const override;

    /// Exact inverse; `log_det` accumulates the *forward* log|det J| at the
    /// reconstructed input (so callers can form log q(x) directly).
    linalg::Matrix inverse_values(const linalg::Matrix& y,
                                  std::vector<double>& log_det) const override;

    std::vector<autodiff::Var> params() const override {
        return net_.params();
    }
    void set_trainable(bool trainable) override {
        net_.set_trainable(trainable);
    }
    void scale_cap_multiply(double factor) override { scale_cap_ *= factor; }
    double scale_cap() const noexcept override { return scale_cap_; }
    void set_scale_cap(double cap) override { scale_cap_ = cap; }

    std::span<const std::size_t> pass_indices() const noexcept {
        return mask_.pass;
    }
    std::span<const std::size_t> transform_indices() const noexcept {
        return mask_.transform;
    }

private:
    CouplingMask mask_;
    double scale_cap_;
    nn::MLP net_;
};

}  // namespace nofis::flow
