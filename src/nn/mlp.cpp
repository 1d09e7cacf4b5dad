#include "nn/mlp.hpp"

#include <stdexcept>

#include "linalg/kernels/kernels.hpp"
#include "parallel/thread_pool.hpp"

namespace nofis::nn {

namespace {

namespace kernels = linalg::kernels;

kernels::Act kernel_act(Activation act) {
    switch (act) {
        case Activation::kTanh:
            return kernels::Act::kTanh;
        case Activation::kRelu:
            return kernels::Act::kRelu;
        case Activation::kLeakyRelu:
            return kernels::Act::kLeakyRelu;
        case Activation::kSigmoid:
            return kernels::Act::kSigmoid;
        case Activation::kIdentity:
            return kernels::Act::kNone;
    }
    throw std::logic_error("kernel_act: unknown activation");
}

}  // namespace

MLP::MLP(std::vector<std::size_t> layer_sizes, Activation act,
         rng::Engine& eng, double out_gain)
    : act_(act) {
    if (layer_sizes.size() < 2)
        throw std::invalid_argument("MLP: need at least input and output size");
    for (std::size_t i = 0; i + 1 < layer_sizes.size(); ++i) {
        const bool last = (i + 2 == layer_sizes.size());
        layers_.emplace_back(layer_sizes[i], layer_sizes[i + 1], eng,
                             last ? out_gain : 1.0);
    }
}

autodiff::Var MLP::forward(const autodiff::Var& x) const {
    // One dense node per layer, whose forward is the kernel predict runs.
    autodiff::Var h = x;
    for (std::size_t i = 0; i < layers_.size(); ++i)
        h = layers_[i].forward(h, i + 1 < layers_.size() ? kernel_act(act_)
                                                         : kernels::Act::kNone);
    return h;
}

linalg::Matrix MLP::predict(const linalg::Matrix& x) const {
    // Fused value path: one linear_act_rows kernel per layer, no autodiff
    // tape, no separate bias/activation passes. Bitwise identical to
    // forward(Var(x)).value() under either kernel flavour. Rows are
    // independent, so large batches tile over the pool with disjoint writes
    // (§8.2) and the result is bitwise identical at any thread count.
    linalg::Matrix cur = x;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        const linalg::Matrix& w = layers_[i].weight().value();
        const linalg::Matrix& b = layers_[i].bias().value();
        if (cur.cols() != w.rows())
            throw std::invalid_argument("MLP::predict: dim mismatch");
        const kernels::Act act =
            (i + 1 < layers_.size()) ? kernel_act(act_) : kernels::Act::kNone;
        linalg::Matrix next(cur.rows(), w.cols());
        auto row_range = [&](std::size_t r0, std::size_t r1) {
            kernels::linear_act_rows(cur.data(), w.data(), b.data(),
                                     next.data(), r0, r1, w.rows(), w.cols(),
                                     act);
        };
        if (cur.rows() * w.rows() * w.cols() >= kernels::kParallelDenseMinOps)
            parallel::parallel_for(cur.rows(), row_range);
        else
            row_range(0, cur.rows());
        cur = std::move(next);
    }
    return cur;
}

std::vector<autodiff::Var> MLP::params() const {
    std::vector<autodiff::Var> out;
    for (const auto& l : layers_)
        for (auto& p : l.params()) out.push_back(p);
    return out;
}

void MLP::set_trainable(bool trainable) {
    for (auto& p : params()) p.set_requires_grad(trainable);
}

}  // namespace nofis::nn
