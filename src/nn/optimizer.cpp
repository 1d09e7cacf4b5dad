#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/kernels/kernels.hpp"

namespace nofis::nn {

double grad_explode_limit(double limit, double explode_factor) noexcept {
    return explode_factor * limit;
}

Adam::Adam(std::vector<autodiff::Var> params, double lr, double beta1,
           double beta2, double eps)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
    m_.reserve(params_.size());
    v_.reserve(params_.size());
    for (const auto& p : params_) {
        m_.emplace_back(p.value().rows(), p.value().cols());
        v_.emplace_back(p.value().rows(), p.value().cols());
    }
}

void Adam::zero_grad() {
    for (auto& p : params_) p.zero_grad();
}

double Adam::clip_grad_norm(double max_norm) {
    double sq = 0.0;
    for (const auto& p : params_) {
        if (!p.requires_grad()) continue;
        const auto& g = p.grad();
        if (g.empty()) continue;
        for (double v : g.flat()) sq += v * v;
    }
    const double norm = std::sqrt(sq);
    if (norm > max_norm && norm > 0.0) {
        const double s = max_norm / norm;
        for (auto& p : params_) {
            if (!p.requires_grad()) continue;
            auto node = p.node();
            if (!node->grad.empty()) node->grad *= s;
        }
    }
    return norm;
}

OptimizerState Adam::export_state() const {
    OptimizerState s;
    s.step_count = t_;
    s.slots.reserve(m_.size() + v_.size());
    for (const auto& m : m_) s.slots.push_back(m);
    for (const auto& v : v_) s.slots.push_back(v);
    return s;
}

void Adam::import_state(const OptimizerState& state) {
    // The state may come from checkpoint bytes decoded from disk, so its
    // layout is checked against the live moments before anything is copied.
    if (state.slots.size() != m_.size() + v_.size())
        throw std::runtime_error("Adam: optimizer state slot count mismatch");
    for (std::size_t i = 0; i < state.slots.size(); ++i) {
        const auto& live = i < m_.size() ? m_[i] : v_[i - m_.size()];
        if (state.slots[i].rows() != live.rows() ||
            state.slots[i].cols() != live.cols())
            throw std::runtime_error("Adam: optimizer state shape mismatch");
    }
    for (std::size_t i = 0; i < m_.size(); ++i) {
        m_[i] = state.slots[i];
        v_[i] = state.slots[m_.size() + i];
    }
    t_ = state.step_count;
}

void Adam::step() {
    ++t_;
    const linalg::kernels::AdamStep c{
        beta1_,
        beta2_,
        1.0 - std::pow(beta1_, static_cast<double>(t_)),
        1.0 - std::pow(beta2_, static_cast<double>(t_)),
        lr_,
        eps_};
    for (std::size_t i = 0; i < params_.size(); ++i) {
        auto& p = params_[i];
        if (!p.requires_grad() || p.grad().empty()) continue;
        auto& value = p.mutable_value();
        linalg::kernels::adam_step(value.data(), p.grad().data(),
                                   m_[i].data(), v_[i].data(), value.size(),
                                   c);
    }
}

}  // namespace nofis::nn
