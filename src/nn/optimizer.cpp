#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

namespace nofis::nn {

namespace {

/// Copies exported slot matrices back into live storage, verifying shapes.
void restore_slots(const char* who, const std::vector<linalg::Matrix>& src,
                   std::vector<linalg::Matrix>* const* dests,
                   std::size_t dest_count) {
    std::size_t expected = 0;
    for (std::size_t j = 0; j < dest_count; ++j) expected += dests[j]->size();
    if (src.size() != expected)
        throw std::runtime_error(std::string(who) +
                                 ": optimizer state slot count mismatch");
    std::size_t i = 0;
    for (std::size_t j = 0; j < dest_count; ++j) {
        for (auto& dst : *dests[j]) {
            const auto& s = src[i++];
            if (s.rows() != dst.rows() || s.cols() != dst.cols())
                throw std::runtime_error(
                    std::string(who) + ": optimizer state shape mismatch");
            dst = s;
        }
    }
}

}  // namespace

void Optimizer::import_state(const OptimizerState& state) {
    if (state.step_count != 0 || !state.slots.empty())
        throw std::runtime_error(
            "Optimizer::import_state: stateless optimizer given a non-empty "
            "state");
}

void Optimizer::zero_grad() {
    for (auto& p : params_) p.zero_grad();
}

double Optimizer::clip_grad_norm(double max_norm) {
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

double grad_explode_limit(double limit, double explode_factor) noexcept {
    return explode_factor * limit;
}

Sgd::Sgd(std::vector<autodiff::Var> params, double lr, double momentum)
    : Optimizer(std::move(params)), lr_(lr), momentum_(momentum) {
    velocity_.reserve(params_.size());
    for (const auto& p : params_)
        velocity_.emplace_back(p.value().rows(), p.value().cols());
}

OptimizerState Sgd::export_state() const {
    OptimizerState s;
    s.step_count = 0;
    s.slots = velocity_;
    return s;
}

void Sgd::import_state(const OptimizerState& state) {
    std::vector<linalg::Matrix>* dests[] = {&velocity_};
    restore_slots("Sgd", state.slots, dests, 1);
}

void Sgd::step() {
    for (std::size_t i = 0; i < params_.size(); ++i) {
        auto& p = params_[i];
        if (!p.requires_grad() || p.grad().empty()) continue;
        if (momentum_ != 0.0) {
            velocity_[i] *= momentum_;
            velocity_[i] += p.grad();
            p.mutable_value() -= velocity_[i] * lr_;
        } else {
            p.mutable_value() -= p.grad() * lr_;
        }
    }
}

Adam::Adam(std::vector<autodiff::Var> params, double lr, double beta1,
           double beta2, double eps)
    : Optimizer(std::move(params)),
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

OptimizerState Adam::export_state() const {
    OptimizerState s;
    s.step_count = t_;
    s.slots.reserve(m_.size() + v_.size());
    for (const auto& m : m_) s.slots.push_back(m);
    for (const auto& v : v_) s.slots.push_back(v);
    return s;
}

void Adam::import_state(const OptimizerState& state) {
    std::vector<linalg::Matrix>* dests[] = {&m_, &v_};
    restore_slots("Adam", state.slots, dests, 2);
    t_ = state.step_count;
}

void Adam::step() {
    ++t_;
    const double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
    const double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
    for (std::size_t i = 0; i < params_.size(); ++i) {
        auto& p = params_[i];
        if (!p.requires_grad() || p.grad().empty()) continue;
        auto& value = p.mutable_value();
        const auto& g = p.grad();
        for (std::size_t k = 0; k < value.size(); ++k) {
            const double gk = g.flat()[k];
            double& mk = m_[i].flat()[k];
            double& vk = v_[i].flat()[k];
            mk = beta1_ * mk + (1.0 - beta1_) * gk;
            vk = beta2_ * vk + (1.0 - beta2_) * gk * gk;
            const double mhat = mk / bias1;
            const double vhat = vk / bias2;
            value.flat()[k] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
        }
    }
}

}  // namespace nofis::nn
