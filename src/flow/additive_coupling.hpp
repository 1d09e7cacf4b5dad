#pragma once

#include "flow/coupling_mask.hpp"
#include "flow/layer.hpp"
#include "nn/mlp.hpp"

namespace nofis::flow {

/// NICE additive coupling layer (Dinh et al., 2014):
///     y_A = x_A,    y_B = x_B + t(x_A),
/// volume-preserving (log|det J| = 0). Cheaper and more stable than the
/// affine coupling, but it cannot reshape density magnitudes — only move
/// them — which is why RealNVP is the paper's backbone; the difference is
/// measured by bench/ablation_coupling.
class AdditiveCoupling final : public FlowLayer {
public:
    /// Conditioner outputs per transformed coordinate: t.
    static constexpr std::size_t kParamsPerDim = 1;

    AdditiveCoupling(std::size_t dim, bool pass_first_half,
                     std::vector<std::size_t> hidden, rng::Engine& eng);

    std::size_t dim() const noexcept override { return mask_.dim; }

    ForwardVar forward(const autodiff::Var& x) const override;
    linalg::Matrix forward_values(const linalg::Matrix& x,
                                  std::vector<double>& log_det) const override;
    linalg::Matrix inverse_values(const linalg::Matrix& y,
                                  std::vector<double>& log_det) const override;

    std::vector<autodiff::Var> params() const override {
        return net_.params();
    }
    void set_trainable(bool trainable) override {
        net_.set_trainable(trainable);
    }

private:
    CouplingMask mask_;
    nn::MLP net_;
};

}  // namespace nofis::flow
