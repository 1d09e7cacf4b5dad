#pragma once

#include <unordered_map>
#include <vector>

#include "autodiff/var.hpp"

namespace nofis::nn {

/// Portable snapshot of Adam's internal state (step counter plus the
/// per-parameter moment slots in a documented order). Exporting and
/// re-importing it into a freshly constructed optimizer over the same
/// parameter list makes the next step() bitwise identical to never having
/// torn the optimizer down — the checkpoint/resume subsystem persists this
/// for mid-stage snapshots.
struct OptimizerState {
    long step_count = 0;
    /// First moments m then second moments v (2P matrices for P params).
    std::vector<linalg::Matrix> slots;
};

/// Pre-clip gradient-norm threshold above which a training loop should
/// treat the step as divergent: the global-norm clip `limit` and the norm
/// live on the same scale, so it is simply `explode_factor * limit`.
double grad_explode_limit(double limit, double explode_factor) noexcept;

/// Adam (Kingma & Ba) — the optimizer used for all flow and surrogate
/// training in this repo, mirroring the paper's PyTorch setup. Owns handles
/// to the trainable parameters and updates their values in place from
/// accumulated gradients.
///
/// Frozen parameters (`requires_grad() == false`) are skipped by `step` —
/// this is how the NOFIS stage-m training leaves blocks 1..(m-1) untouched
/// while still letting them participate in the forward pass.
class Adam {
public:
    Adam(std::vector<autodiff::Var> params, double lr, double beta1 = 0.9,
         double beta2 = 0.999, double eps = 1e-8);

    void zero_grad();
    void step();

    /// Clips the global L2 norm of all (unfrozen) gradients to `max_norm`
    /// (direction-preserving). Returns the pre-clip norm. Call between
    /// backward() and step().
    double clip_grad_norm(double max_norm);

    double learning_rate() const noexcept { return lr_; }
    void set_learning_rate(double lr) noexcept { lr_ = lr; }

    /// State capture for checkpoint/resume; see OptimizerState.
    OptimizerState export_state() const;
    /// Restores a state exported from an optimizer over the same parameter
    /// list; throws std::runtime_error on a slot-count or shape mismatch.
    void import_state(const OptimizerState& state);

private:
    std::vector<autodiff::Var> params_;
    double lr_;
    double beta1_;
    double beta2_;
    double eps_;
    long t_ = 0;
    std::vector<linalg::Matrix> m_;
    std::vector<linalg::Matrix> v_;
};

}  // namespace nofis::nn
