#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include "autodiff/gradcheck.hpp"
#include "flow/coupling.hpp"
#include "flow/coupling_stack.hpp"
#include "linalg/kernels/kernels.hpp"
#include "linalg/lu.hpp"
#include "nn/optimizer.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/normal.hpp"

namespace {

using namespace nofis;
using autodiff::Var;
using flow::AffineCoupling;
using flow::CouplingStack;
using flow::StackConfig;
using linalg::Matrix;
using rng::Engine;

/// A coupling layer with randomised (non-identity) conditioner weights, so
/// invertibility/log-det tests exercise a non-trivial map.
AffineCoupling randomized_coupling(std::size_t dim, bool first_half,
                                   std::uint64_t seed) {
    Engine eng(seed);
    AffineCoupling layer(dim, first_half, {16, 16}, eng, 2.0);
    Engine weights(seed + 1);
    for (auto& p : layer.params())
        for (double& v : p.mutable_value().flat())
            v = 0.3 * rng::standard_normal(weights);
    return layer;
}

TEST(Coupling, FreshLayerIsIdentity) {
    Engine eng(1);
    AffineCoupling layer(4, true, {8}, eng);
    const Matrix x = rng::standard_normal_matrix(eng, 10, 4);
    std::vector<double> ld(10, 0.0);
    const Matrix y = layer.forward_values(x, ld);
    EXPECT_LT(linalg::max_abs_diff(x, y), 1e-14);
    for (double v : ld) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Coupling, MaskPartitionCoversAllCoordinates) {
    Engine eng(2);
    for (std::size_t dim : {2u, 3u, 5u, 8u}) {
        AffineCoupling layer(dim, false, {8}, eng);
        std::vector<bool> seen(dim, false);
        for (auto i : layer.pass_indices()) seen[i] = true;
        for (auto i : layer.transform_indices()) {
            EXPECT_FALSE(seen[i]);
            seen[i] = true;
        }
        for (bool s : seen) EXPECT_TRUE(s);
    }
}

TEST(Coupling, RejectsDimensionOne) {
    Engine eng(3);
    EXPECT_THROW(AffineCoupling(1, true, {8}, eng), std::invalid_argument);
}

class CouplingInvertibility
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(CouplingInvertibility, InverseUndoesForward) {
    const auto [dim, first_half] = GetParam();
    const auto layer = randomized_coupling(dim, first_half, 100 + dim);
    Engine eng(5);
    const Matrix x = rng::standard_normal_matrix(eng, 32, dim);
    std::vector<double> ld_f(32, 0.0);
    const Matrix y = layer.forward_values(x, ld_f);
    std::vector<double> ld_i(32, 0.0);
    const Matrix back = layer.inverse_values(y, ld_i);
    EXPECT_LT(linalg::max_abs_diff(x, back), 1e-10);
    // The inverse path reports the same forward log-det.
    for (std::size_t r = 0; r < 32; ++r) EXPECT_NEAR(ld_f[r], ld_i[r], 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndMasks, CouplingInvertibility,
    ::testing::Combine(::testing::Values(2, 3, 4, 7, 10),
                       ::testing::Bool()));

TEST(Coupling, LogDetMatchesNumericalJacobian) {
    const std::size_t dim = 3;
    const auto layer = randomized_coupling(dim, true, 42);
    Engine eng(6);
    const Matrix x = rng::standard_normal_matrix(eng, 1, dim);

    std::vector<double> ld(1, 0.0);
    layer.forward_values(x, ld);

    // Finite-difference Jacobian.
    const double h = 1e-6;
    Matrix jac(dim, dim);
    for (std::size_t c = 0; c < dim; ++c) {
        Matrix xp = x;
        Matrix xm = x;
        xp(0, c) += h;
        xm(0, c) -= h;
        std::vector<double> scratch(1, 0.0);
        const Matrix yp = layer.forward_values(xp, scratch);
        scratch[0] = 0.0;
        const Matrix ym = layer.forward_values(xm, scratch);
        for (std::size_t r = 0; r < dim; ++r)
            jac(r, c) = (yp(0, r) - ym(0, r)) / (2.0 * h);
    }
    const double log_det_fd =
        linalg::LuDecomposition(jac).log_abs_determinant();
    EXPECT_NEAR(ld[0], log_det_fd, 1e-5);
}

TEST(Coupling, ForwardVarMatchesForwardValues) {
    const auto layer = randomized_coupling(5, false, 7);
    Engine eng(8);
    const Matrix x = rng::standard_normal_matrix(eng, 6, 5);
    const auto graph = layer.forward(Var(x));
    std::vector<double> ld(6, 0.0);
    const Matrix y = layer.forward_values(x, ld);
    EXPECT_LT(linalg::max_abs_diff(graph.y.value(), y), 1e-13);
    for (std::size_t r = 0; r < 6; ++r)
        EXPECT_NEAR(graph.log_det.value()(r, 0), ld[r], 1e-13);
}

TEST(Coupling, GradCheckThroughForward) {
    const auto layer = randomized_coupling(4, true, 9);
    Engine eng(10);
    const Matrix x0 = rng::standard_normal_matrix(eng, 3, 4);
    const auto res = autodiff::grad_check(
        [&layer](const Var& x) {
            auto fwd = layer.forward(x);
            return autodiff::add(autodiff::sum(fwd.y),
                                 autodiff::sum(fwd.log_det));
        },
        x0, 1e-5, 1e-5);
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

// ---------------------------------------------------------------------------
// CouplingStack
// ---------------------------------------------------------------------------

StackConfig small_stack_config(std::size_t dim, std::size_t blocks,
                               std::size_t k) {
    StackConfig cfg;
    cfg.dim = dim;
    cfg.num_blocks = blocks;
    cfg.layers_per_block = k;
    cfg.hidden = {16};
    return cfg;
}

CouplingStack randomized_stack(const StackConfig& cfg, std::uint64_t seed) {
    Engine eng(seed);
    CouplingStack stack(cfg, eng);
    Engine weights(seed + 13);
    for (auto& p : stack.params())
        for (double& v : p.mutable_value().flat())
            v = 0.2 * rng::standard_normal(weights);
    return stack;
}

TEST(CouplingStack, FreshStackSamplesBaseDistribution) {
    Engine eng(11);
    CouplingStack stack(small_stack_config(3, 2, 4), eng);
    Engine eng2(12);
    const auto s = stack.sample(eng2, 2000, 2);
    // Identity flow: q == N(0, I); check log_q matches the base log-pdf.
    for (std::size_t r = 0; r < 5; ++r)
        EXPECT_NEAR(s.log_q[r],
                    rng::standard_normal_log_pdf(s.z.row_span(r)), 1e-12);
    EXPECT_NEAR(s.z.col_means()(0, 0), 0.0, 0.1);
}

TEST(CouplingStack, InverseUndoesTransport) {
    const auto stack = randomized_stack(small_stack_config(4, 3, 4), 50);
    Engine eng(13);
    const Matrix z0 = rng::standard_normal_matrix(eng, 20, 4);
    const auto s = stack.transport(z0, 3);
    const Matrix back = stack.inverse(s.z, 3);
    EXPECT_LT(linalg::max_abs_diff(z0, back), 1e-9);
}

TEST(CouplingStack, LogProbConsistentWithSamplingPath) {
    const auto stack = randomized_stack(small_stack_config(3, 2, 6), 51);
    Engine eng(14);
    const auto s = stack.sample(eng, 16, 2);
    const auto lp = stack.log_prob(s.z, 2);
    for (std::size_t r = 0; r < 16; ++r)
        EXPECT_NEAR(lp[r], s.log_q[r], 1e-9) << "row " << r;
}

TEST(CouplingStack, DensityIntegratesToOne2D) {
    // Mildly randomised weights (a strongly-kicked flow spreads mass beyond
    // any finite grid); the integral over a wide box must be ~1.
    Engine eng(52);
    CouplingStack stack(small_stack_config(2, 2, 4), eng);
    Engine weights(65);
    for (auto& p : stack.params())
        for (double& v : p.mutable_value().flat())
            v = 0.08 * rng::standard_normal(weights);
    double total = 0.0;
    const double h = 0.12;
    const double lim = 14.0;
    Matrix pt(1, 2);
    for (double a = -lim; a < lim; a += h)
        for (double b = -lim; b < lim; b += h) {
            pt(0, 0) = a;
            pt(0, 1) = b;
            total += std::exp(stack.log_prob(pt, 2)[0]) * h * h;
        }
    EXPECT_NEAR(total, 1.0, 0.02);
}

TEST(CouplingStack, AnchorNesting) {
    // Transport through m blocks then the remaining blocks equals transport
    // through all blocks at once.
    const auto stack = randomized_stack(small_stack_config(3, 3, 3), 53);
    Engine eng(15);
    const Matrix z0 = rng::standard_normal_matrix(eng, 8, 3);
    std::vector<double> ld_all(8, 0.0);
    const Matrix z_all = stack.transport_range(z0, 0, 3, ld_all);
    std::vector<double> ld_split(8, 0.0);
    const Matrix z_mid = stack.transport_range(z0, 0, 1, ld_split);
    const Matrix z_split = stack.transport_range(z_mid, 1, 3, ld_split);
    EXPECT_LT(linalg::max_abs_diff(z_all, z_split), 1e-10);
    for (std::size_t r = 0; r < 8; ++r)
        EXPECT_NEAR(ld_all[r], ld_split[r], 1e-10);
}

TEST(CouplingStack, FreezeSemantics) {
    Engine eng(16);
    CouplingStack stack(small_stack_config(2, 3, 2), eng);
    stack.freeze_blocks_before(2);
    for (std::size_t b = 0; b < 3; ++b) {
        const bool expect_trainable = b >= 2;
        for (const auto& p : stack.block_params(b))
            EXPECT_EQ(p.requires_grad(), expect_trainable) << "block " << b;
    }
    stack.unfreeze_all();
    for (const auto& p : stack.params()) EXPECT_TRUE(p.requires_grad());
}

TEST(CouplingStack, FrozenBlocksUnchangedByTraining) {
    auto stack = randomized_stack(small_stack_config(2, 2, 2), 54);
    stack.freeze_blocks_before(1);
    const Matrix w_before = stack.block_params(0).front().value();

    // One surrogate training step on block 1.
    nn::Adam opt(stack.block_params(1), 1e-2);
    Engine eng(17);
    const Matrix z0 = rng::standard_normal_matrix(eng, 32, 2);
    auto fwd = stack.forward(Var(z0), 2);
    opt.zero_grad();
    autodiff::sum(fwd.log_det).backward();
    opt.step();

    EXPECT_EQ(stack.block_params(0).front().value(), w_before);
}

TEST(CouplingStack, ValidatesArguments) {
    Engine eng(18);
    CouplingStack stack(small_stack_config(2, 2, 2), eng);
    EXPECT_THROW(stack.forward(Var(Matrix(1, 2)), 0), std::invalid_argument);
    EXPECT_THROW(stack.forward(Var(Matrix(1, 2)), 3), std::invalid_argument);
    EXPECT_THROW(stack.block_params(2), std::out_of_range);
    StackConfig bad = small_stack_config(2, 0, 2);
    EXPECT_THROW(CouplingStack(bad, eng), std::invalid_argument);
}

TEST(CouplingStack, TrainingShiftsDensityTowardTarget) {
    // Sanity: a few reverse-KL steps should move q's mean toward a shifted
    // Gaussian target N(2, I) in 1 block.
    Engine eng(19);
    StackConfig cfg = small_stack_config(2, 1, 4);
    CouplingStack stack(cfg, eng);
    nn::Adam opt(stack.params(), 2e-2);
    for (int step = 0; step < 150; ++step) {
        const Matrix z0 = rng::standard_normal_matrix(eng, 64, 2);
        auto fwd = stack.forward(Var(z0), 1);
        // loss = -E[log-det] - E[log N(z; 2, I)] (pathwise gradient via the
        // dot_constant surrogate: d/dz log N(z;2,I) = -(z - 2)).
        Matrix c(64, 2);
        for (std::size_t r = 0; r < 64; ++r)
            for (std::size_t col = 0; col < 2; ++col)
                c(r, col) = -(fwd.z.value()(r, col) - 2.0) / 64.0;
        auto loss = autodiff::add(
            autodiff::neg(autodiff::mean(fwd.log_det)),
            autodiff::neg(autodiff::dot_constant(fwd.z, c)));
        opt.zero_grad();
        loss.backward();
        opt.step();
    }
    Engine eng2(20);
    const auto s = stack.sample(eng2, 2000, 1);
    EXPECT_NEAR(s.z.col_means()(0, 0), 2.0, 0.35);
    EXPECT_NEAR(s.z.col_means()(0, 1), 2.0, 0.35);
}

// ---------------------------------------------------------------------------
// The blocked value path against the layer-by-layer loop it replaced.
// ---------------------------------------------------------------------------

/// Restores the kernel flavour and the pool size on scope exit.
class FlavourAndLanesGuard {
public:
    FlavourAndLanesGuard() : choice_(linalg::kernels::active()) {}
    ~FlavourAndLanesGuard() {
        linalg::kernels::set_choice(choice_);
        parallel::set_num_threads(0);
    }
    FlavourAndLanesGuard(const FlavourAndLanesGuard&) = delete;
    FlavourAndLanesGuard& operator=(const FlavourAndLanesGuard&) = delete;

private:
    linalg::kernels::Choice choice_;
};

bool same_bits(const Matrix& a, const Matrix& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           (a.size() == 0 ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// The value path as it ran before blocking: each layer over the whole
/// batch in turn. Its layers mirror a stack's, built in the stack
/// constructor's order, with the stack's parameters and scale caps copied
/// in.
class LayerByLayer {
public:
    explicit LayerByLayer(const CouplingStack& stack) {
        const StackConfig& cfg = stack.config();
        Engine eng(0);
        for (std::size_t i = 0; i < cfg.num_blocks * cfg.layers_per_block;
             ++i) {
            if (cfg.use_actnorm)
                layers_.push_back(std::make_unique<flow::ActNorm>(cfg.dim));
            const bool first_half = (i % 2 == 0);
            if (cfg.coupling == flow::CouplingKind::kAffine)
                layers_.push_back(std::make_unique<AffineCoupling>(
                    cfg.dim, first_half, cfg.hidden, eng, cfg.scale_cap));
            else if (cfg.coupling == flow::CouplingKind::kRqs)
                layers_.push_back(std::make_unique<flow::RqsCoupling>(
                    cfg.dim, first_half, cfg.hidden, eng, cfg.rqs_bins,
                    cfg.rqs_tail));
            else
                layers_.push_back(std::make_unique<flow::AdditiveCoupling>(
                    cfg.dim, first_half, cfg.hidden, eng));
        }
        const auto from = stack.params();
        std::size_t k = 0;
        for (const auto& layer : layers_)
            for (auto& p : layer->params()) p.mutable_value() = from[k++].value();
        EXPECT_EQ(k, from.size());
        const auto caps = stack.scale_caps();
        for (std::size_t i = 0; i < layers_.size(); ++i)
            layers_[i]->set_scale_cap(caps[i]);
        per_block_ = layers_.size() / cfg.num_blocks;
    }

    Matrix transport_range(const Matrix& z0, std::size_t block_begin,
                           std::size_t block_end,
                           std::vector<double>& log_det) const {
        Matrix z = z0;
        for (std::size_t i = block_begin * per_block_;
             i < block_end * per_block_; ++i)
            z = layers_[i]->forward_values(z, log_det);
        return z;
    }

    CouplingStack::Samples transport(const Matrix& z0,
                                     std::size_t upto_block) const {
        CouplingStack::Samples out;
        std::vector<double> log_det(z0.rows(), 0.0);
        out.z = transport_range(z0, 0, upto_block, log_det);
        for (std::size_t r = 0; r < z0.rows(); ++r)
            out.log_q.push_back(
                rng::standard_normal_log_pdf(z0.row_span(r)) - log_det[r]);
        return out;
    }

    Matrix inverse(const Matrix& x, std::size_t upto_block) const {
        std::vector<double> scratch(x.rows(), 0.0);
        Matrix z = x;
        for (std::size_t i = upto_block * per_block_; i-- > 0;)
            z = layers_[i]->inverse_values(z, scratch);
        return z;
    }

    std::vector<double> log_prob(const Matrix& x,
                                 std::size_t upto_block) const {
        const Matrix z0 = inverse(x, upto_block);
        std::vector<double> log_det(x.rows(), 0.0);
        transport_range(z0, 0, upto_block, log_det);
        std::vector<double> out;
        for (std::size_t r = 0; r < x.rows(); ++r)
            out.push_back(rng::standard_normal_log_pdf(z0.row_span(r)) -
                          log_det[r]);
        return out;
    }

private:
    std::vector<std::unique_ptr<flow::FlowLayer>> layers_;
    std::size_t per_block_ = 0;
};

TEST(FlowValuePath, BlockedMatchesLayerByLayer) {
    FlavourAndLanesGuard guard;
    for (const auto kind :
         {flow::CouplingKind::kAffine, flow::CouplingKind::kAdditive,
          flow::CouplingKind::kRqs})
        for (const bool actnorm : {false, true}) {
            StackConfig cfg = small_stack_config(5, 3, 2);
            cfg.hidden = {8, 8};
            cfg.coupling = kind;
            cfg.use_actnorm = actnorm;
            auto stack = randomized_stack(cfg, 70 + 2 * static_cast<int>(kind) +
                                                   (actnorm ? 1 : 0));
            // A stage rollback leaves per-layer caps that differ by block.
            stack.tighten_scale_cap(1, 0.7);
            const LayerByLayer ref(stack);
            const std::string name = flow::coupling_kind_name(kind) +
                                     (actnorm ? "+actnorm" : "");
            for (const std::size_t n :
                 {0ul, 1ul, 63ul, 64ul, 65ul, 128ul, 129ul, 2001ul}) {
                Engine eng(900 + n);
                const Matrix z0 = rng::standard_normal_matrix(eng, n, 5);
                Matrix x = rng::standard_normal_matrix(eng, n, 5);
                // Wide enough that some rows land in the spline tails.
                for (double& v : x.flat()) v *= 2.0;
                std::vector<double> ld_in(n);
                for (double& v : ld_in) v = rng::standard_normal(eng);

                for (const auto choice : {linalg::kernels::Choice::kScalar,
                                          linalg::kernels::Choice::kSimd}) {
                    linalg::kernels::set_choice(choice);
                    parallel::set_num_threads(1);
                    const auto want_t = ref.transport(z0, 3);
                    std::vector<double> want_ld = ld_in;
                    const Matrix want_r =
                        ref.transport_range(z0, 1, 2, want_ld);
                    const Matrix want_i = ref.inverse(x, 3);
                    const auto want_lp = ref.log_prob(x, 3);
                    for (const std::size_t lanes : {1ul, 3ul, 8ul}) {
                        parallel::set_num_threads(lanes);
                        const std::string at =
                            name + " n=" + std::to_string(n) + " " +
                            linalg::kernels::choice_name() +
                            " lanes=" + std::to_string(lanes);
                        const auto got_t = stack.transport(z0, 3);
                        EXPECT_TRUE(same_bits(want_t.z, got_t.z)) << at;
                        EXPECT_TRUE(same_bits(want_t.log_q, got_t.log_q))
                            << at;
                        std::vector<double> got_ld = ld_in;
                        EXPECT_TRUE(same_bits(
                            want_r, stack.transport_range(z0, 1, 2, got_ld)))
                            << at;
                        EXPECT_TRUE(same_bits(want_ld, got_ld)) << at;
                        EXPECT_TRUE(same_bits(want_i, stack.inverse(x, 3)))
                            << at;
                        EXPECT_TRUE(same_bits(want_lp, stack.log_prob(x, 3)))
                            << at;
                    }
                }
            }
        }
}

TEST(FlowValuePath, MismatchedShapesAreInvalidArguments) {
    const auto stack = randomized_stack(small_stack_config(3, 2, 2), 80);
    Engine eng(81);
    const Matrix wide = rng::standard_normal_matrix(eng, 70, 4);
    const Matrix z = rng::standard_normal_matrix(eng, 70, 3);
    std::vector<double> ld(70, 0.0);
    std::vector<double> short_ld(69, 0.0);
    EXPECT_THROW(stack.transport(wide, 2), std::invalid_argument);
    EXPECT_THROW(stack.transport_range(wide, 0, 2, ld), std::invalid_argument);
    EXPECT_THROW(stack.transport_range(z, 0, 2, short_ld),
                 std::invalid_argument);
    // An empty block range checks its operands too.
    EXPECT_THROW(stack.transport_range(wide, 1, 1, ld), std::invalid_argument);
    EXPECT_THROW(stack.transport_range(z, 1, 1, short_ld),
                 std::invalid_argument);
    EXPECT_THROW(stack.inverse(wide, 2), std::invalid_argument);
    EXPECT_THROW(stack.inverse(wide, 0), std::invalid_argument);
    EXPECT_THROW(stack.log_prob(wide, 2), std::invalid_argument);
    EXPECT_THROW(stack.log_prob(wide, 0), std::invalid_argument);
    // The log-det vector is left as it was.
    EXPECT_TRUE(same_bits(short_ld, std::vector<double>(69, 0.0)));
}

}  // namespace
