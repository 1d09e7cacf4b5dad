#include "flow/coupling_stack.hpp"

#include <cstdint>
#include <stdexcept>

#include "rng/normal.hpp"

namespace nofis::flow {

namespace {

std::size_t sat_add(std::size_t a, std::size_t b) {
    return a > SIZE_MAX - b ? SIZE_MAX : a + b;
}

std::size_t sat_mul(std::size_t a, std::size_t b) {
    return b != 0 && a > SIZE_MAX / b ? SIZE_MAX : a * b;
}

}  // namespace

std::string coupling_kind_name(CouplingKind kind) {
    if (kind == CouplingKind::kAdditive) return "additive";
    if (kind == CouplingKind::kRqs) return "rqs";
    return "affine";
}

std::optional<CouplingKind> parse_coupling_kind(std::string_view name) {
    for (const CouplingKind kind : {CouplingKind::kAffine,
                                    CouplingKind::kAdditive,
                                    CouplingKind::kRqs})
        if (name == coupling_kind_name(kind)) return kind;
    return std::nullopt;
}

StackTally stack_tally(const StackConfig& cfg) {
    std::size_t per_dim = AffineCoupling::kParamsPerDim;
    if (cfg.coupling == CouplingKind::kAdditive)
        per_dim = AdditiveCoupling::kParamsPerDim;
    else if (cfg.coupling == CouplingKind::kRqs)
        per_dim = RqsCoupling::params_per_dim(cfg.rqs_bins);
    const std::size_t couplings =
        sat_mul(cfg.num_blocks, cfg.layers_per_block);
    StackTally tally;
    // Couplings alternate their mask as the constructor builds them: the
    // even ones pass the first half.
    for (const bool first_half : {true, false}) {
        const std::size_t count =
            first_half ? couplings - couplings / 2 : couplings / 2;
        const std::vector<std::size_t> sizes =
            CouplingMask(cfg.dim, first_half, "stack_tally")
                .conditioner_layout(cfg.hidden, per_dim);
        // Each Linear holds an (in x out) weight and a (1 x out) bias.
        std::size_t values = 0;
        for (std::size_t l = 0; l + 1 < sizes.size(); ++l)
            values = sat_add(values,
                             sat_mul(sat_add(sizes[l], 1), sizes[l + 1]));
        tally.tensors =
            sat_add(tally.tensors, sat_mul(count, 2 * (sizes.size() - 1)));
        tally.values = sat_add(tally.values, sat_mul(count, values));
    }
    tally.layers = couplings;
    if (cfg.use_actnorm) {
        // An ActNorm in front of every coupling: a log-scale and a shift row.
        tally.layers = sat_mul(couplings, 2);
        tally.tensors = sat_add(tally.tensors, sat_mul(couplings, 2));
        tally.values =
            sat_add(tally.values, sat_mul(couplings, sat_mul(cfg.dim, 2)));
    }
    return tally;
}

CouplingStack::CouplingStack(const StackConfig& cfg, rng::Engine& eng)
    : cfg_(cfg),
      layers_per_physical_block_(cfg.layers_per_block *
                                 (cfg.use_actnorm ? 2 : 1)) {
    if (cfg.dim == 0)
        throw std::invalid_argument("CouplingStack: dim must be > 0");
    if (cfg.num_blocks == 0 || cfg.layers_per_block == 0)
        throw std::invalid_argument("CouplingStack: M and K must be positive");
    const std::size_t couplings = cfg.num_blocks * cfg.layers_per_block;
    layers_.reserve(couplings * (cfg.use_actnorm ? 2 : 1));
    for (std::size_t i = 0; i < couplings; ++i) {
        if (cfg.use_actnorm)
            layers_.push_back(std::make_unique<ActNorm>(cfg.dim));
        const bool first_half = (i % 2 == 0);
        if (cfg.coupling == CouplingKind::kAffine)
            layers_.push_back(std::make_unique<AffineCoupling>(
                cfg.dim, first_half, cfg.hidden, eng, cfg.scale_cap));
        else if (cfg.coupling == CouplingKind::kRqs)
            layers_.push_back(std::make_unique<RqsCoupling>(
                cfg.dim, first_half, cfg.hidden, eng, cfg.rqs_bins,
                cfg.rqs_tail));
        else
            layers_.push_back(std::make_unique<AdditiveCoupling>(
                cfg.dim, first_half, cfg.hidden, eng));
    }
}

CouplingStack::ForwardVar CouplingStack::forward(const autodiff::Var& z0,
                                                 std::size_t upto_block) const {
    return forward_range(z0, 0, upto_block);
}

CouplingStack::ForwardVar CouplingStack::forward_range(
    const autodiff::Var& z0, std::size_t block_begin,
    std::size_t block_end) const {
    if (block_begin >= block_end || block_end > cfg_.num_blocks)
        throw std::invalid_argument("CouplingStack::forward_range: bad range");
    using namespace autodiff;
    Var z = z0;
    Var log_det;  // lazily initialised on first layer
    for (std::size_t i = block_begin_layer(block_begin);
         i < block_begin_layer(block_end); ++i) {
        auto [y, ld] = layers_[i]->forward(z);
        z = y;
        log_det = log_det.valid() ? add(log_det, ld) : ld;
    }
    return {z, log_det};
}

CouplingStack::Samples CouplingStack::sample(rng::Engine& eng, std::size_t n,
                                             std::size_t upto_block) const {
    return transport(rng::standard_normal_matrix(eng, n, cfg_.dim),
                     upto_block);
}

CouplingStack::Samples CouplingStack::transport(const linalg::Matrix& z0,
                                                std::size_t upto_block) const {
    if (upto_block > cfg_.num_blocks)
        throw std::invalid_argument("CouplingStack::transport: bad blocks");
    Samples out;
    out.log_q.assign(z0.rows(), 0.0);
    // log q(z_mK) = log q0(z0) - Σ log|det J| (Eq. 5).
    std::vector<double> base_lp = base_log_pdf(z0);
    std::vector<double> log_det(z0.rows(), 0.0);
    linalg::Matrix z = transport_range(z0, 0, upto_block, log_det);
    for (std::size_t r = 0; r < z0.rows(); ++r)
        out.log_q[r] = base_lp[r] - log_det[r];
    out.z = std::move(z);
    return out;
}

linalg::Matrix CouplingStack::transport_range(
    const linalg::Matrix& z0, std::size_t block_begin, std::size_t block_end,
    std::vector<double>& log_det) const {
    if (block_begin > block_end || block_end > cfg_.num_blocks)
        throw std::invalid_argument("CouplingStack::transport_range: range");
    linalg::Matrix z = z0;
    for (std::size_t i = block_begin_layer(block_begin);
         i < block_begin_layer(block_end); ++i)
        z = layers_[i]->forward_values(z, log_det);
    return z;
}

std::vector<double> CouplingStack::log_prob(const linalg::Matrix& x,
                                            std::size_t upto_block) const {
    const linalg::Matrix z0 = inverse(x, upto_block);
    // Recompute the forward log-det along the reconstructed path.
    std::vector<double> log_det(x.rows(), 0.0);
    linalg::Matrix z = z0;
    const std::size_t n_layers = block_begin_layer(upto_block);
    for (std::size_t i = 0; i < n_layers; ++i)
        z = layers_[i]->forward_values(z, log_det);
    std::vector<double> out = base_log_pdf(z0);
    for (std::size_t r = 0; r < x.rows(); ++r) out[r] -= log_det[r];
    return out;
}

std::vector<double> CouplingStack::base_log_pdf(
    const linalg::Matrix& z0) const {
    if (z0.cols() != cfg_.dim)
        throw std::invalid_argument("CouplingStack: dimension mismatch");
    std::vector<double> out(z0.rows());
    for (std::size_t r = 0; r < z0.rows(); ++r)
        out[r] = rng::standard_normal_log_pdf(z0.row_span(r));
    return out;
}

linalg::Matrix CouplingStack::inverse(const linalg::Matrix& x,
                                      std::size_t upto_block) const {
    if (upto_block > cfg_.num_blocks)
        throw std::invalid_argument("CouplingStack::inverse: bad blocks");
    std::vector<double> scratch(x.rows(), 0.0);
    linalg::Matrix z = x;
    for (std::size_t i = block_begin_layer(upto_block); i-- > 0;)
        z = layers_[i]->inverse_values(z, scratch);
    return z;
}

std::vector<autodiff::Var> CouplingStack::block_params(
    std::size_t block) const {
    if (block >= cfg_.num_blocks)
        throw std::out_of_range("CouplingStack::block_params");
    std::vector<autodiff::Var> out;
    for (std::size_t i = block_begin_layer(block);
         i < block_begin_layer(block + 1); ++i)
        for (auto& p : layers_[i]->params()) out.push_back(p);
    return out;
}

std::vector<autodiff::Var> CouplingStack::params() const {
    std::vector<autodiff::Var> out;
    for (const auto& l : layers_)
        for (auto& p : l->params()) out.push_back(p);
    return out;
}

void CouplingStack::freeze_blocks_before(std::size_t upto_block) {
    for (std::size_t b = 0; b < cfg_.num_blocks; ++b) {
        const bool frozen = b < upto_block;
        for (std::size_t i = block_begin_layer(b);
             i < block_begin_layer(b + 1); ++i)
            layers_[i]->set_trainable(!frozen);
    }
}

void CouplingStack::unfreeze_all() { freeze_blocks_before(0); }

std::vector<double> CouplingStack::scale_caps() const {
    std::vector<double> caps;
    caps.reserve(layers_.size());
    for (const auto& layer : layers_) caps.push_back(layer->scale_cap());
    return caps;
}

void CouplingStack::set_scale_caps(const std::vector<double>& caps) {
    if (caps.size() != layers_.size())
        throw std::runtime_error(
            "CouplingStack::set_scale_caps: layer count mismatch");
    for (std::size_t i = 0; i < layers_.size(); ++i)
        layers_[i]->set_scale_cap(caps[i]);
}

void CouplingStack::tighten_scale_cap(std::size_t block, double factor) {
    if (block >= cfg_.num_blocks)
        throw std::out_of_range("CouplingStack::tighten_scale_cap");
    for (std::size_t i = block_begin_layer(block);
         i < block_begin_layer(block + 1); ++i)
        layers_[i]->scale_cap_multiply(factor);
}

}  // namespace nofis::flow
