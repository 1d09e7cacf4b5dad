#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/nonlinear.hpp"
#include "core/levels.hpp"
#include "core/nofis.hpp"
#include "estimators/guarded_problem.hpp"
#include "flow/serialize.hpp"
#include "linalg/lu.hpp"
#include "linalg/solver_error.hpp"
#include "nn/optimizer.hpp"
#include "rng/normal.hpp"
#include "testcases/circuit_cases.hpp"
#include "testcases/fault_injector.hpp"

namespace {

using namespace nofis;
using core::LevelSchedule;
using core::NofisConfig;
using core::NofisEstimator;
using estimators::FaultKind;
using estimators::GuardConfig;
using estimators::GuardedProblem;
using testcases::FaultInjector;
using testcases::FaultInjectorConfig;

/// Same analytic problem the nofis_test suite uses: Ω = {x0 >= t},
/// P = 1 - Φ(t).
class HalfSpace2D final : public estimators::RareEventProblem {
public:
    explicit HalfSpace2D(double t) : t_(t) {}
    std::size_t dim() const noexcept override { return 2; }
    double g(std::span<const double> x) const override { return t_ - x[0]; }
    double g_grad(std::span<const double> x,
                  std::span<double> grad) const override {
        grad[0] = -1.0;
        grad[1] = 0.0;
        return t_ - x[0];
    }
    double analytic() const { return 1.0 - rng::normal_cdf(t_); }

private:
    double t_;
};

/// Always fails with a structured solver error.
class AlwaysThrows final : public estimators::RareEventProblem {
public:
    std::size_t dim() const noexcept override { return 2; }
    double g(std::span<const double>) const override {
        throw SingularMatrixError("synthetic breakdown");
    }
};

/// Faults on the first `faulty_calls` evaluations, then behaves like a
/// half-space — models a transient solver glitch a perturbed retry fixes.
class FlakyProblem final : public estimators::RareEventProblem {
public:
    explicit FlakyProblem(std::size_t faulty_calls)
        : faulty_calls_(faulty_calls) {}
    std::size_t dim() const noexcept override { return 2; }
    double g(std::span<const double> x) const override {
        if (calls_++ < faulty_calls_)
            throw NonConvergenceError("transient glitch");
        return 1.0 - x[0];
    }
    std::size_t calls() const noexcept { return calls_; }

private:
    std::size_t faulty_calls_;
    mutable std::size_t calls_ = 0;
};

NofisConfig small_config() {
    NofisConfig cfg;
    cfg.layers_per_block = 4;
    cfg.hidden = {16, 16};
    cfg.epochs = 60;
    cfg.samples_per_epoch = 40;
    cfg.learning_rate = 7e-3;
    cfg.lr_decay = 0.99;
    cfg.tau = 10.0;
    cfg.n_is = 800;
    return cfg;
}

std::vector<double> random_point(rng::Engine& eng, std::size_t d) {
    std::vector<double> x(d);
    for (double& v : x) v = rng::standard_normal(eng);
    return x;
}

// ---------------------------------------------------------------------------
// Structured solver errors (satellite: SolverError hierarchy)
// ---------------------------------------------------------------------------

TEST(SolverError, SingularLuThrowsStructuredKind) {
    linalg::Matrix zeros(2, 2);
    try {
        linalg::LuDecomposition lu(zeros);
        FAIL() << "singular matrix must throw";
    } catch (const SolverError& e) {
        EXPECT_EQ(e.kind(), SolverError::Kind::kSingularMatrix);
    }
    // The subclass stays catchable as std::runtime_error, so pre-existing
    // catch sites keep working.
    EXPECT_THROW(linalg::LuDecomposition lu(zeros), std::runtime_error);
    EXPECT_THROW(linalg::LuDecomposition lu(zeros), SingularMatrixError);
}

TEST(SolverError, NewtonFailureThrowsNonConvergence) {
    circuit::Netlist net(2);
    net.add(circuit::VoltageSource{1, 0, 5.0});
    net.add(circuit::Resistor{1, 2, 1000.0});
    circuit::NonlinearCircuit c(std::move(net));
    c.add(circuit::Diode{2, 0});

    circuit::NonlinearCircuit::SolveOptions opts;
    opts.max_iterations = 0;  // force immediate failure
    try {
        c.solve_dc(opts);
        FAIL() << "zero-iteration Newton must not converge";
    } catch (const SolverError& e) {
        EXPECT_EQ(e.kind(), SolverError::Kind::kNonConvergence);
    }
}

TEST(SolverError, NonFiniteInitialGuessIsBadInput) {
    circuit::Netlist net(2);
    net.add(circuit::VoltageSource{1, 0, 5.0});
    net.add(circuit::Resistor{1, 2, 1000.0});
    circuit::NonlinearCircuit c(std::move(net));
    c.add(circuit::Diode{2, 0});

    std::vector<double> bad(3, std::numeric_limits<double>::quiet_NaN());
    try {
        c.solve_dc(circuit::NonlinearCircuit::SolveOptions(), bad);
        FAIL() << "NaN initial guess must be rejected";
    } catch (const SolverError& e) {
        EXPECT_EQ(e.kind(), SolverError::Kind::kBadInput);
    }
}

// ---------------------------------------------------------------------------
// GuardedProblem policies
// ---------------------------------------------------------------------------

TEST(GuardedProblem, FaultFreeEvaluationsAreBitIdenticalPassthrough) {
    HalfSpace2D prob(2.0);
    GuardedProblem guard(prob);
    rng::Engine eng(11);
    std::vector<double> g1(2);
    std::vector<double> g2(2);
    for (int i = 0; i < 50; ++i) {
        const auto x = random_point(eng, 2);
        EXPECT_EQ(guard.g(x), prob.g(x));
        EXPECT_EQ(guard.g_grad(x, g1), prob.g_grad(x, g2));
        EXPECT_EQ(g1, g2);
    }
    EXPECT_EQ(guard.report().total_faults(), 0u);
    EXPECT_EQ(guard.report().retry_attempts, 0u);
}

TEST(GuardedProblem, ClampPolicyMapsThrowToFailSafeValue) {
    AlwaysThrows prob;
    GuardConfig cfg;
    cfg.policy = GuardConfig::Policy::kClampToFail;
    cfg.clamp_value = 1e9;
    GuardedProblem guard(prob, cfg);

    const std::vector<double> x = {0.1, -0.3};
    std::vector<double> grad = {7.0, 7.0};
    EXPECT_EQ(guard.g(x), 1e9);
    EXPECT_EQ(guard.g_grad(x, grad), 1e9);
    EXPECT_EQ(grad[0], 0.0);  // clamp zeroes the gradient it can't compute
    EXPECT_EQ(grad[1], 0.0);

    const auto& rep = guard.report();
    EXPECT_EQ(rep.count(FaultKind::kSingularMatrix), 2u);
    EXPECT_EQ(rep.clamped, 2u);
    EXPECT_TRUE(rep.has_first);
    EXPECT_EQ(rep.first_kind, FaultKind::kSingularMatrix);
    EXPECT_EQ(rep.first_x, x);
}

TEST(GuardedProblem, RetryPolicyRecoversFromTransientFault) {
    FlakyProblem prob(1);  // only the very first call faults
    GuardConfig cfg;
    cfg.policy = GuardConfig::Policy::kRetryPerturb;
    cfg.max_retries = 3;
    cfg.perturb_sigma = 1e-9;
    GuardedProblem guard(prob, cfg);

    const std::vector<double> x = {0.25, 0.0};
    const double v = guard.g(x);
    EXPECT_NEAR(v, 0.75, 1e-6);  // perturbed retry of g = 1 - x0
    const auto& rep = guard.report();
    EXPECT_EQ(rep.count(FaultKind::kNonConvergence), 1u);
    EXPECT_EQ(rep.retry_attempts, 1u);
    EXPECT_EQ(rep.recovered, 1u);
    EXPECT_EQ(rep.clamped, 0u);
    EXPECT_EQ(prob.calls(), 2u);  // original + one retry probe
}

TEST(GuardedProblem, RetryPolicyClampsWhenRetriesExhaust) {
    AlwaysThrows prob;
    GuardConfig cfg;
    cfg.policy = GuardConfig::Policy::kRetryPerturb;
    cfg.max_retries = 2;
    GuardedProblem guard(prob, cfg);

    EXPECT_EQ(guard.g(std::vector<double>{0.0, 0.0}), cfg.clamp_value);
    const auto& rep = guard.report();
    // Original fault + 2 faulty retry probes, each counted.
    EXPECT_EQ(rep.count(FaultKind::kSingularMatrix), 3u);
    EXPECT_EQ(rep.retry_attempts, 2u);
    EXPECT_EQ(rep.recovered, 0u);
    EXPECT_EQ(rep.clamped, 1u);
}

TEST(GuardedProblem, PropagatePolicyRethrowsOriginalExceptionType) {
    AlwaysThrows prob;
    GuardConfig cfg;
    cfg.policy = GuardConfig::Policy::kPropagate;
    GuardedProblem guard(prob, cfg);

    EXPECT_THROW(guard.g(std::vector<double>{0.0, 0.0}), SingularMatrixError);
    EXPECT_EQ(guard.report().propagated, 1u);
    EXPECT_EQ(guard.report().count(FaultKind::kSingularMatrix), 1u);
}

TEST(GuardedProblem, NonFiniteValuesAreFaultsNotExceptions) {
    class NanProblem final : public estimators::RareEventProblem {
    public:
        std::size_t dim() const noexcept override { return 1; }
        double g(std::span<const double>) const override {
            return std::numeric_limits<double>::quiet_NaN();
        }
    } prob;

    GuardConfig cfg;
    cfg.policy = GuardConfig::Policy::kPropagate;
    GuardedProblem guard(prob, cfg);
    // Propagate hands the NaN back (there is nothing to rethrow) ...
    EXPECT_TRUE(std::isnan(guard.g(std::vector<double>{0.0})));
    EXPECT_EQ(guard.report().count(FaultKind::kNonFiniteValue), 1u);

    // ... while clamp replaces it with the fail-safe value.
    cfg.policy = GuardConfig::Policy::kClampToFail;
    GuardedProblem clamped(prob, cfg);
    EXPECT_EQ(clamped.g(std::vector<double>{0.0}), cfg.clamp_value);
}

// ---------------------------------------------------------------------------
// FaultInjector determinism and exact ledgers
// ---------------------------------------------------------------------------

TEST(FaultInjector, DecisionsAreDeterministicAcrossInstances) {
    HalfSpace2D prob(1.0);
    FaultInjectorConfig cfg;
    cfg.nan_rate = 0.05;
    cfg.throw_rate = 0.05;
    cfg.inf_rate = 0.03;
    cfg.seed = 123;

    auto trace = [&](const FaultInjector& inj) {
        std::string t;
        rng::Engine eng(5);
        for (int i = 0; i < 400; ++i) {
            const auto x = random_point(eng, 2);
            try {
                const double v = inj.g(x);
                t += std::isnan(v) ? 'n' : (std::isinf(v) ? 'i' : '.');
            } catch (const SingularMatrixError&) {
                t += 's';
            } catch (const NonConvergenceError&) {
                t += 'c';
            }
        }
        return t;
    };
    const FaultInjector a(prob, cfg);
    const FaultInjector b(prob, cfg);
    EXPECT_EQ(trace(a), trace(b));
    EXPECT_GT(a.injected_total(), 0u);
    EXPECT_EQ(a.injected_total(), b.injected_total());
    EXPECT_EQ(a.injected_singular(), b.injected_singular());
    EXPECT_EQ(a.injected_nonconvergence(), b.injected_nonconvergence());
}

TEST(FaultInjector, NanBurstHitsExactCallWindow) {
    HalfSpace2D prob(1.0);
    FaultInjectorConfig cfg;
    cfg.nan_burst_begin = 3;
    cfg.nan_burst_end = 6;
    const FaultInjector inj(prob, cfg);

    const std::vector<double> x = {0.0, 0.0};
    for (int i = 0; i < 10; ++i) {
        const double v = inj.g(x);
        if (i >= 3 && i < 6)
            EXPECT_TRUE(std::isnan(v)) << "call " << i;
        else
            EXPECT_EQ(v, 1.0) << "call " << i;
    }
    EXPECT_EQ(inj.injected_nan(), 3u);
    EXPECT_EQ(inj.calls(), 10u);
}

TEST(FaultInjector, LatencyInjectionIsNotAFault) {
    HalfSpace2D prob(1.0);
    FaultInjectorConfig cfg;
    cfg.latency_rate = 1.0;
    cfg.latency_us = 1.0;
    const FaultInjector inj(prob, cfg);
    const std::vector<double> x = {0.5, 0.0};
    for (int i = 0; i < 5; ++i) EXPECT_EQ(inj.g(x), 0.5);
    EXPECT_EQ(inj.injected_latency(), 5u);
    EXPECT_EQ(inj.injected_total(), 0u);
}

TEST(FaultInjector, GuardReportMatchesInjectorLedgerExactly) {
    HalfSpace2D prob(2.0);
    FaultInjectorConfig icfg;
    icfg.nan_rate = 0.03;
    icfg.throw_rate = 0.04;
    icfg.inf_rate = 0.02;
    icfg.seed = 77;
    const FaultInjector inj(prob, icfg);

    GuardConfig gcfg;
    gcfg.policy = GuardConfig::Policy::kRetryPerturb;
    gcfg.max_retries = 2;
    GuardedProblem guard(inj, gcfg);

    rng::Engine eng(9);
    std::vector<double> grad(2);
    const std::size_t top_level = 1500;
    for (std::size_t i = 0; i < top_level; ++i) {
        const auto x = random_point(eng, 2);
        if (i % 2 == 0)
            guard.g(x);
        else
            guard.g_grad(x, grad);
    }

    const auto& rep = guard.report();
    EXPECT_GT(inj.injected_total(), 0u);
    EXPECT_GT(rep.retry_attempts, 0u);
    // Every guard attempt (top-level or retry probe) is one injector call,
    // and every injected fault is recorded by the guard — the ledgers must
    // agree count-for-count.
    EXPECT_EQ(inj.calls(), top_level + rep.retry_attempts);
    EXPECT_EQ(rep.count(FaultKind::kSingularMatrix), inj.injected_singular());
    EXPECT_EQ(rep.count(FaultKind::kNonConvergence),
              inj.injected_nonconvergence());
    EXPECT_EQ(rep.count(FaultKind::kNonFiniteValue) +
                  rep.count(FaultKind::kNonFiniteGrad),
              inj.injected_nan() + inj.injected_inf());
    EXPECT_EQ(rep.total_faults(), inj.injected_total());
}

// ---------------------------------------------------------------------------
// Global-norm gradient clipping
// ---------------------------------------------------------------------------

TEST(GradClip, GlobalNormPreservesDirection) {
    linalg::Matrix value(1, 2);
    autodiff::Var p(value, /*requires_grad=*/true);
    linalg::Matrix g(1, 2);
    g(0, 0) = 30.0;
    g(0, 1) = 40.0;  // global L2 norm 50, direction (0.6, 0.8)
    p.node()->grad = g;

    nn::Adam opt({p}, 1e-3);
    const double norm = opt.clip_grad_norm(5.0);
    EXPECT_DOUBLE_EQ(norm, 50.0);  // returns the pre-clip norm
    EXPECT_NEAR(p.grad()(0, 0), 3.0, 1e-12);
    EXPECT_NEAR(p.grad()(0, 1), 4.0, 1e-12);  // direction preserved
}

TEST(GradClip, NoScalingBelowThreshold) {
    linalg::Matrix value(1, 2);
    autodiff::Var p(value, true);
    linalg::Matrix g(1, 2);
    g(0, 0) = 0.3;
    g(0, 1) = 0.4;
    p.node()->grad = g;
    nn::Adam opt({p}, 1e-3);
    EXPECT_DOUBLE_EQ(opt.clip_grad_norm(5.0), 0.5);
    EXPECT_DOUBLE_EQ(p.grad()(0, 0), 0.3);
    EXPECT_DOUBLE_EQ(p.grad()(0, 1), 0.4);
}

TEST(GradClip, ExplodeLimitIsFactorTimesClip) {
    // Limit and norm share a scale, so the threshold is exactly
    // factor * clip — bitwise, to keep historical runs identical.
    EXPECT_EQ(nn::grad_explode_limit(0.5, 2.0), 2.0 * 0.5);
}

// ---------------------------------------------------------------------------
// Parameter snapshot / restore (rollback building block)
// ---------------------------------------------------------------------------

TEST(Snapshot, RestoreReturnsStackToCheckpointedState) {
    flow::StackConfig scfg;
    scfg.dim = 2;
    scfg.num_blocks = 2;
    scfg.layers_per_block = 2;
    scfg.hidden = {8};
    rng::Engine eng(21);
    flow::CouplingStack stack(scfg, eng);

    const flow::ParamSnapshot checkpoint = flow::snapshot_params(stack);
    ASSERT_FALSE(checkpoint.empty());

    for (auto& p : stack.params())
        for (double& v : p.mutable_value().flat()) v += 0.5;
    bool changed = false;
    {
        const auto now = flow::snapshot_params(stack);
        for (std::size_t i = 0; i < now.size(); ++i)
            for (std::size_t k = 0; k < now[i].size(); ++k)
                if (now[i].flat()[k] != checkpoint[i].flat()[k]) changed = true;
    }
    EXPECT_TRUE(changed);

    flow::restore_params(stack, checkpoint);
    const auto restored = flow::snapshot_params(stack);
    ASSERT_EQ(restored.size(), checkpoint.size());
    for (std::size_t i = 0; i < restored.size(); ++i)
        for (std::size_t k = 0; k < restored[i].size(); ++k)
            EXPECT_EQ(restored[i].flat()[k], checkpoint[i].flat()[k]);
}

TEST(Snapshot, RestoreRejectsMismatchedArchitecture) {
    flow::StackConfig a;
    a.dim = 2;
    a.num_blocks = 2;
    a.layers_per_block = 2;
    a.hidden = {8};
    flow::StackConfig b = a;
    b.hidden = {4};
    rng::Engine eng(3);
    flow::CouplingStack sa(a, eng);
    flow::CouplingStack sb(b, eng);
    EXPECT_THROW(flow::restore_params(sb, flow::snapshot_params(sa)),
                 std::runtime_error);
}

TEST(ScaleCap, TightenMultipliesBoundAndValidatesBlock) {
    rng::Engine eng(4);
    flow::AffineCoupling layer(2, true, {4}, eng, 2.0);
    EXPECT_DOUBLE_EQ(layer.scale_cap(), 2.0);
    layer.scale_cap_multiply(0.5);
    EXPECT_DOUBLE_EQ(layer.scale_cap(), 1.0);

    flow::StackConfig scfg;
    scfg.dim = 2;
    scfg.num_blocks = 2;
    scfg.layers_per_block = 2;
    scfg.hidden = {4};
    flow::CouplingStack stack(scfg, eng);
    EXPECT_NO_THROW(stack.tighten_scale_cap(1, 0.7));
    EXPECT_THROW(stack.tighten_scale_cap(2, 0.7), std::out_of_range);
}

// ---------------------------------------------------------------------------
// End-to-end: fault-tolerant NofisEstimator::run
// ---------------------------------------------------------------------------

TEST(FaultTolerantRun, CleanRunReportsHealthyStateAndExactCalls) {
    HalfSpace2D prob(2.5);
    NofisConfig cfg = small_config();
    NofisEstimator est(cfg, LevelSchedule::manual({1.5, 0.7, 0.0}));
    rng::Engine eng(3);
    const auto run = est.run(prob, eng);

    EXPECT_FALSE(run.health.degraded());
    EXPECT_EQ(run.health.faults.total_faults(), 0u);
    EXPECT_EQ(run.health.stage_retries, 0u);
    EXPECT_EQ(run.health.g_retry_calls, 0u);
    EXPECT_EQ(run.estimate.calls,
              3u * cfg.epochs * cfg.samples_per_epoch + cfg.n_is);
    EXPECT_NE(run.health.summary().find("clean"), std::string::npos);

    // All-draw proposal diagnostics are populated and consistent.
    EXPECT_EQ(run.is_diag.draws, cfg.n_is);
    EXPECT_LE(run.is_diag.hits, run.is_diag.draws);
    EXPECT_GT(run.is_diag.ess_all, 0.0);
    EXPECT_LE(run.is_diag.ess_all, static_cast<double>(cfg.n_is) + 1e-9);
    EXPECT_GE(run.is_diag.weight_cv, 0.0);
    EXPECT_DOUBLE_EQ(run.health.ess_all, run.is_diag.ess_all);
    EXPECT_DOUBLE_EQ(run.health.final_ess,
                     run.is_diag.effective_sample_size);
}

TEST(FaultTolerantRun, StageRollbackFiresOnInjectedNanLossAndRecovers) {
    HalfSpace2D prob(2.5);
    NofisConfig cfg = small_config();
    // Propagate lets the injected NaN reach the KL loss so the stage-level
    // rollback (not the per-call guard) must do the recovering.
    cfg.guard.policy = GuardConfig::Policy::kPropagate;
    cfg.stage_max_retries = 2;

    FaultInjectorConfig icfg;
    // Poison exactly the first epoch of stage 1 (samples_per_epoch g calls).
    icfg.nan_burst_begin = 0;
    icfg.nan_burst_end = cfg.samples_per_epoch;
    const FaultInjector inj(prob, icfg);

    NofisEstimator est(cfg, LevelSchedule::manual({1.5, 0.7, 0.0}));
    rng::Engine eng(3);
    const auto run = est.run(inj, eng);

    ASSERT_FALSE(run.stages.empty());
    EXPECT_GE(run.stages[0].retries, 1u);
    ASSERT_FALSE(run.stages[0].retry_reasons.empty());
    EXPECT_EQ(run.stages[0].retry_reasons[0], "non-finite KL loss");
    EXPECT_GE(run.health.stage_retries, 1u);
    EXPECT_GE(run.health.stages_rolled_back, 1u);
    EXPECT_TRUE(run.health.degraded());
    EXPECT_EQ(run.health.faults.count(FaultKind::kNonFiniteValue),
              inj.injected_nan());

    // The retried stage still trains to completion and the run converges.
    EXPECT_EQ(run.stages[0].epoch_loss.size(), cfg.epochs);
    ASSERT_FALSE(run.estimate.failed);
    EXPECT_TRUE(std::isfinite(run.estimate.p_hat));
    EXPECT_GT(run.estimate.p_hat, 0.0);
    EXPECT_LT(estimators::log_error(run.estimate.p_hat, prob.analytic()),
              1.0);
}

TEST(FaultTolerantRun, SkippedEpochsRecordNanSentinelNotFabricatedLoss) {
    HalfSpace2D prob(2.5);
    NofisConfig cfg = small_config();
    cfg.epochs = 10;
    // Propagate + zero stage retries: the poisoned first epoch lands in the
    // legacy skip path instead of triggering a rollback.
    cfg.guard.policy = GuardConfig::Policy::kPropagate;
    cfg.stage_max_retries = 0;

    FaultInjectorConfig icfg;
    icfg.nan_burst_begin = 0;
    icfg.nan_burst_end = cfg.samples_per_epoch;  // exactly epoch 0, stage 1
    const FaultInjector inj(prob, icfg);

    NofisEstimator est(cfg, LevelSchedule::manual({1.5, 0.7, 0.0}));
    rng::Engine eng(3);
    const auto run = est.run(inj, eng);

    ASSERT_FALSE(run.stages.empty());
    const auto& s0 = run.stages[0];
    ASSERT_EQ(s0.epoch_loss.size(), cfg.epochs);
    EXPECT_GE(s0.skipped_epochs, 1u);
    // The skipped epoch computed no loss; fabricating 0.0 (or replaying the
    // previous epoch's value) used to fake convergence in the curves.
    EXPECT_TRUE(std::isnan(s0.epoch_loss[0]));
    EXPECT_TRUE(std::isfinite(s0.epoch_loss.back()));
    EXPECT_TRUE(std::isfinite(s0.first_finite_loss()));
    EXPECT_EQ(s0.first_finite_loss(), s0.epoch_loss[1]);
    EXPECT_EQ(s0.last_finite_loss(), s0.epoch_loss.back());

    // The CSV consumer skips sentinel rows entirely: no "nan" cells, and no
    // row for stage 1 / epoch 0.
    const std::string csv = core::loss_curve_csv(run.stages);
    EXPECT_EQ(csv.find("nan"), std::string::npos);
    EXPECT_EQ(csv.find("\n1,1.5,0,"), std::string::npos);
    EXPECT_NE(csv.find("\n1,1.5,1,"), std::string::npos);
}

TEST(FaultTolerantRun, OpampSurvivesFivePercentFaultRate) {
    const testcases::OpampCase opamp;
    NofisConfig cfg;
    cfg.layers_per_block = 4;
    cfg.hidden = {16, 16};
    cfg.epochs = 12;
    cfg.samples_per_epoch = 50;
    cfg.learning_rate = 5e-3;
    cfg.lr_decay = 0.99;
    cfg.tau = 15.0;
    cfg.n_is = 600;
    const auto levels =
        LevelSchedule::manual(opamp.nofis_budget().levels);

    NofisEstimator est(cfg, levels);
    rng::Engine clean_eng(42);
    const auto clean = est.run(opamp, clean_eng);
    ASSERT_FALSE(clean.estimate.failed);
    const double clean_err =
        estimators::log_error(clean.estimate.p_hat, opamp.golden_pr());

    // 5% of g calls fault: half NaN returns, half structured solver throws.
    FaultInjectorConfig icfg;
    icfg.nan_rate = 0.025;
    icfg.throw_rate = 0.025;
    icfg.seed = 99;
    const FaultInjector inj(opamp, icfg);

    rng::Engine faulty_eng(42);
    const auto faulty = est.run(inj, faulty_eng);

    // The run completes, the estimate stays usable, and the health report
    // is exact against the injector's ledger.
    ASSERT_FALSE(faulty.estimate.failed);
    EXPECT_TRUE(std::isfinite(faulty.estimate.p_hat));
    EXPECT_GT(faulty.estimate.p_hat, 0.0);
    EXPECT_TRUE(faulty.health.degraded());
    EXPECT_GT(inj.injected_total(), 0u);
    EXPECT_EQ(faulty.health.faults.total_faults(), inj.injected_total());
    EXPECT_EQ(faulty.health.faults.count(FaultKind::kSingularMatrix),
              inj.injected_singular());
    EXPECT_EQ(faulty.health.faults.count(FaultKind::kNonConvergence),
              inj.injected_nonconvergence());
    EXPECT_EQ(faulty.health.g_retry_calls,
              faulty.health.faults.retry_attempts);
    // Degraded runs charge retries to the budget on top of the clean count.
    EXPECT_EQ(faulty.estimate.calls,
              clean.estimate.calls + faulty.health.g_retry_calls);

    const double faulty_err =
        estimators::log_error(faulty.estimate.p_hat, opamp.golden_pr());
    // Acceptance: within 2x of the fault-free run's relative error. The
    // small absolute floor keeps an unusually lucky clean run (err near 0)
    // from turning the 2x band into a sliver of Monte-Carlo noise.
    EXPECT_LE(faulty_err, std::max(2.0 * clean_err, 0.5));
}

TEST(RunHealth, SummaryFlagsDegradedRuns) {
    core::RunHealth h;
    EXPECT_FALSE(h.degraded());
    EXPECT_NE(h.summary().find("clean"), std::string::npos);
    h.stage_retries = 1;
    EXPECT_TRUE(h.degraded());
    EXPECT_NE(h.summary().find("DEGRADED"), std::string::npos);
}

}  // namespace
