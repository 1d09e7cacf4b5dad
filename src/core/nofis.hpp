#pragma once

#include <memory>

#include "checkpoint/checkpoint.hpp"
#include "core/diagnostics.hpp"
#include "core/levels.hpp"
#include "estimators/guarded_problem.hpp"
#include "estimators/importance.hpp"
#include "estimators/problem.hpp"
#include "evalcache/eval_cache.hpp"
#include "flow/coupling_stack.hpp"
#include "latent/latent_explore.hpp"
#include "nn/optimizer.hpp"

namespace nofis::core {

/// Hyper-parameters of Algorithm 1. Defaults follow the paper's reported
/// ranges (E in 15~20, N in 100~400, M in 4~6, τ in 10~30, K = 8).
struct NofisConfig {
    // Flow architecture.
    std::size_t layers_per_block = 8;           ///< K
    std::vector<std::size_t> hidden = {32, 32}; ///< conditioner MLP layout
    flow::CouplingKind coupling = flow::CouplingKind::kAffine;
    bool use_actnorm = false;                   ///< Glow-style ActNorm layers
    std::size_t rqs_bins = 8;  ///< spline bins per dim (coupling == kRqs)
    /// Spline half-width B (coupling == kRqs). Wider than the NSF image
    /// convention (3) because the spline is the identity outside [-B, B]
    /// and rare failure regions live at 4-6σ — a box that excludes them
    /// leaves the flow unable to move mass onto the failure set at all.
    double rqs_tail = 5.0;

    // Per-stage training (the inner loop of Algorithm 1).
    std::size_t epochs = 20;              ///< E — updates per stage
    std::size_t samples_per_epoch = 400;  ///< N — fresh base draws per epoch
    double learning_rate = 5e-3;
    /// Multiplicative per-epoch LR decay within each stage (1 = constant).
    double lr_decay = 1.0;

    // NOFIS specifics.
    double tau = 20.0;          ///< temperature of the tempered targets
    std::size_t n_is = 1000;    ///< N_IS — final importance-sampling draws
    /// Freeze blocks 1..m-1 while training block m (the paper's nominal
    /// setup; false reproduces the "NoFreeze" ablation of Figure 5).
    bool freeze_previous = true;

    /// Extension (defensive importance sampling, Hesterberg 1995): mix the
    /// learned proposal with a scaled prior N(0, s²I) for the final IS
    /// stage, q = (1-w)·q_MK + w·N(0, s²I). Bounds the weight blow-up when
    /// the flow drops failure modes in heavily multimodal problems (e.g.
    /// Powell). 0 disables (the paper's plain Eq. 2 estimator).
    double defensive_weight = 0.0;
    double defensive_sigma = 1.5;

    /// Extension (latent-space exploration, DESIGN.md §16): when enabled,
    /// the final IS budget is split — K·(S+1) g-calls run annealed
    /// Metropolis chains in the trained flow's base space to find
    /// under-covered failure lobes, and the remaining draws use the latent
    /// defensive mixture α·N(0,I) + (1−α)·refined as the proposal. Total
    /// g-budget is identical to plain final IS with n_is draws. Mutually
    /// composable with everything above; disabled keeps runs bit-identical.
    latent::LatentConfig latent;

    // --- fault-tolerant runtime (DESIGN.md, "Failure handling & recovery").
    /// Policy for faulty g / g_grad evaluations. Every call the estimator
    /// makes is routed through an estimators::GuardedProblem built from
    /// this; fault-free runs are bit-identical to the unguarded path.
    estimators::GuardConfig guard;
    /// R — rollback-retries per stage. Before each stage the flow
    /// parameters are checkpointed; when the stage diverges (non-finite KL
    /// loss / flow output or exploding gradient norm) the checkpoint is
    /// restored and the stage retrained with a smaller learning rate,
    /// gradient clip and coupling scale cap (the retry constants in
    /// core/nofis.cpp, DESIGN.md §7.3). After R failed retries the stage
    /// runs once more in the legacy skip-bad-epochs mode so the run always
    /// completes. 0 disables rollback entirely.
    std::size_t stage_max_retries = 2;

    // --- evaluation cache (DESIGN.md, "Evaluation cache").
    /// Optional shared two-tier g-evaluation cache. When set, every value
    /// evaluation the estimator makes consults the cache first — the
    /// composition is Guarded(Cached(problem)), so fault-retry probes also
    /// hit the cache and only raw simulator outputs are ever stored.
    /// Results are bitwise identical with the cache off, cold, or warm
    /// (g is pure); only the fresh-call count changes. `calls` still
    /// reports total arrivals; EstimateResult::cached_calls says how many
    /// of them the cache served.
    std::shared_ptr<evalcache::EvalCache> cache;
    /// Cache namespace for this problem (use testcases::cache_key for
    /// registry cases). Empty derives "anon#d<dim>" at run time.
    std::string cache_key;

    // --- crash safety (DESIGN.md, "Checkpoint/resume & crash safety").
    /// Durable stage/epoch snapshots and resume-from-latest. Disabled by
    /// default (empty dir). Checkpointing never touches the RNG or the
    /// math: a checkpointed run, an uncheckpointed run, and a
    /// killed-and-resumed run all produce bitwise-identical estimates.
    checkpoint::CheckpointConfig checkpoint;

    // --- parallel runtime (DESIGN.md, "Parallel runtime & determinism").
    /// Worker lanes for batched g / g_grad evaluation and the tiled matmul.
    /// 0 = leave the global pool as configured (NOFIS_THREADS env or
    /// hardware concurrency); >0 pins the pool before the run starts.
    /// Results are bitwise identical for any value.
    std::size_t threads = 0;
};

/// Normalizing-flow assisted importance sampling (the paper's contribution).
///
/// Stage m minimises the KL divergence D[q_{mK} || p_m^τ] of Eq. (8) by
/// sampling z0 ~ p, transporting through the first m blocks, and descending
///     loss = −(1/N) Σ_n Σ_j log|det J_j^n| − (1/N) Σ_n log p_m^τ(z_mK^n)
/// with Adam. Gradients of the black-box term log p_m^τ flow through an
/// externally-computed ∂/∂z (analytic, adjoint, or finite-difference — see
/// RareEventProblem::g_grad) injected into the graph via dot_constant.
/// After the last stage, P_r is estimated with Eq. (2) using q_MK as the
/// proposal.
///
/// Total g-call budget: M·E·N + N_IS (+ pilot calls if auto levels are used
/// by the caller), matching the paper's accounting. Degraded runs charge
/// every extra evaluation honestly: fault-retry g calls and the fresh
/// batches of rolled-back stages are added on top, so reported `calls`
/// never undercounts simulator work.
class NofisEstimator final : public estimators::Estimator {
public:
    NofisEstimator(NofisConfig cfg, LevelSchedule levels);

    std::string name() const override { return "NOFIS"; }

    estimators::EstimateResult estimate(
        const estimators::RareEventProblem& problem,
        rng::Engine& eng) const override;

    /// Full run with training diagnostics and (optionally) the trained flow
    /// itself — the figure benches visualise q_{mK} from it.
    struct RunResult {
        estimators::EstimateResult estimate;
        std::vector<StageDiagnostics> stages;
        estimators::IsDiagnostics is_diag;
        RunHealth health;  ///< faults, rollbacks, proposal-quality signals
        std::unique_ptr<flow::CouplingStack> flow;  ///< trained model
        /// Exploration ledger when cfg.latent.enabled (zeros otherwise).
        latent::LatentReport latent_report;
        /// True when the run stopped early at a stage boundary because
        /// checkpoint::stop_requested() (SIGINT/SIGTERM) was set. The final
        /// snapshot was written; `estimate` is marked failed and no final
        /// IS was spent. Resume with CheckpointConfig::resume to continue.
        bool interrupted = false;
    };
    RunResult run(const estimators::RareEventProblem& problem,
                  rng::Engine& eng) const;

    /// Re-estimates P_r from an already-trained flow with a fresh batch of
    /// `n_is` proposal draws (Figure 4's N_IS sweep). Counts n_is calls.
    /// When `defensive_weight` > 0 the proposal is the defensive mixture
    /// described in NofisConfig.
    static estimators::EstimateResult importance_estimate(
        const flow::CouplingStack& trained_flow,
        const estimators::RareEventProblem& problem, rng::Engine& eng,
        std::size_t n_is, estimators::IsDiagnostics* diag = nullptr,
        double defensive_weight = 0.0, double defensive_sigma = 1.5);

    const NofisConfig& config() const noexcept { return cfg_; }
    const LevelSchedule& levels() const noexcept { return levels_; }

private:
    NofisConfig cfg_;
    LevelSchedule levels_;
};

}  // namespace nofis::core
