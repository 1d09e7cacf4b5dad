#pragma once

#include <vector>

#include "flow/coupling_mask.hpp"
#include "flow/layer.hpp"
#include "nn/mlp.hpp"

namespace nofis::flow {

/// Masked rational-quadratic spline coupling (Durkan et al., "Neural Spline
/// Flows", 2019) — the expressive third coupling family next to RealNVP
/// affine and NICE additive (DESIGN.md §14).
///
/// The mask splits coordinates exactly like AffineCoupling; the conditioner
/// MLP emits 3·num_bins+1 raw params per transformed dim, mapped to a
/// monotone spline on [-tail_bound, tail_bound]: softmax bin widths/heights
/// with a min-bin floor, softplus knot derivatives with a min-derivative
/// floor, and identity (linear) tails outside the interval. The transform
/// has an analytic inverse (stable quadratic root) and an exact log-det in
/// both directions. The conditioner's output layer is zero-initialised and
/// the parameter mapping is offset so zero raw params give uniform bins and
/// unit knot slopes — a fresh layer is the identity map, matching the other
/// couplings' init contract.
///
/// Unlike the affine coupling there is no log-scale bound: the spline's
/// range is hard-capped by construction, so the scale-cap virtuals keep
/// their no-op defaults and checkpoint snapshots record a 0 cap.
class RqsCoupling final : public FlowLayer {
public:
    /// Conditioner outputs per transformed coordinate: num_bins widths,
    /// num_bins heights and num_bins + 1 knot derivatives.
    static constexpr std::size_t params_per_dim(std::size_t num_bins) {
        return 3 * num_bins + 1;
    }

    RqsCoupling(std::size_t dim, bool pass_first_half,
                std::vector<std::size_t> hidden, rng::Engine& eng,
                std::size_t num_bins = 8, double tail_bound = 3.0);

    std::size_t dim() const noexcept override { return mask_.dim; }
    std::size_t num_bins() const noexcept { return num_bins_; }
    double tail_bound() const noexcept { return tail_bound_; }

    ForwardVar forward(const autodiff::Var& x) const override;

    linalg::Matrix forward_values(const linalg::Matrix& x,
                                  std::vector<double>& log_det) const override;

    /// Exact inverse; `log_det` accumulates the *forward* log|det J| at the
    /// reconstructed input.
    linalg::Matrix inverse_values(const linalg::Matrix& y,
                                  std::vector<double>& log_det) const override;

    std::vector<autodiff::Var> params() const override {
        return net_.params();
    }
    void set_trainable(bool trainable) override {
        net_.set_trainable(trainable);
    }

    std::span<const std::size_t> pass_indices() const noexcept {
        return mask_.pass;
    }
    std::span<const std::size_t> transform_indices() const noexcept {
        return mask_.transform;
    }

private:
    CouplingMask mask_;
    std::size_t num_bins_;
    double tail_bound_;
    nn::MLP net_;
};

}  // namespace nofis::flow
