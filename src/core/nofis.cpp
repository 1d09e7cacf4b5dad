#include "core/nofis.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "autodiff/ops.hpp"
#include "dist/diag_gaussian.hpp"
#include "evalcache/cached_problem.hpp"
#include "flow/serialize.hpp"
#include "nn/optimizer.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/normal.hpp"
#include "telemetry/telemetry.hpp"

namespace nofis::core {

namespace {

using autodiff::Var;
using estimators::EstimateResult;
using linalg::Matrix;

/// Global-norm gradient clip for flow training.
constexpr double kGradClip = 50.0;
/// A pre-clip gradient norm above kGradExplodeFactor × the clip counts as
/// stage divergence.
constexpr double kGradExplodeFactor = 100.0;
/// Per-retry factors applied after a stage rollback: each retry trains
/// with a smaller learning rate, a tighter gradient clip and a tighter
/// coupling scale cap on the rolled-back block.
constexpr double kRetryLrFactor = 0.5;
constexpr double kRetryGradClipFactor = 0.5;
constexpr double kRetryScaleCapFactor = 0.7;

/// min(τ(a - g), 0): the tempered log-weight of Eq. (6)/(9).
double tempered_log_weight(double tau, double a, double g) {
    return std::min(tau * (a - g), 0.0);
}

/// Identity of a run for checkpoint purposes: every config field that
/// shapes the training trajectory, plus the level schedule and problem
/// dimension. The training constants above sit where they were added when
/// they were still config fields, so older snapshots keep resuming.
/// Deliberately excludes `threads` and the cache wiring — both
/// are bitwise-orthogonal to results — so a snapshot taken at --threads 8
/// resumes fine at --threads 1 and vice versa.
std::uint64_t run_fingerprint(const NofisConfig& cfg,
                              const core::LevelSchedule& levels,
                              std::size_t dim) {
    checkpoint::FingerprintBuilder fp;
    fp.add(std::uint64_t{1})  // fingerprint schema version
        .add(static_cast<std::uint64_t>(dim))
        .add(static_cast<std::uint64_t>(levels.num_levels()));
    for (std::size_t i = 0; i < levels.num_levels(); ++i)
        fp.add(levels.level(i));
    fp.add(static_cast<std::uint64_t>(cfg.layers_per_block));
    fp.add(static_cast<std::uint64_t>(cfg.hidden.size()));
    for (std::size_t h : cfg.hidden) fp.add(static_cast<std::uint64_t>(h));
    // Every stack starts at StackConfig's default scale cap.
    fp.add(flow::StackConfig{}.scale_cap)
        .add(static_cast<std::uint64_t>(cfg.coupling))
        .add(static_cast<std::uint64_t>(cfg.use_actnorm));
    // Spline knobs fold in only for rqs runs so every pre-rqs fingerprint
    // (and thus every existing checkpoint) stays valid.
    if (cfg.coupling == flow::CouplingKind::kRqs)
        fp.add(static_cast<std::uint64_t>(cfg.rqs_bins)).add(cfg.rqs_tail);
    // Latent-exploration knobs likewise fold in only when the feature is
    // on, so pre-latent fingerprints (and checkpoints) stay valid.
    if (cfg.latent.enabled)
        fp.add(std::uint64_t{0x1a7e47ULL})  // "latent" feature tag
            .add(static_cast<std::uint64_t>(cfg.latent.chains))
            .add(static_cast<std::uint64_t>(cfg.latent.steps))
            .add(cfg.latent.alpha)
            .add(static_cast<std::uint64_t>(cfg.latent.anneal))
            .add(latent::kRwSigma)
            .add(latent::kSigmaFloor)
            .add(static_cast<std::uint64_t>(latent::kEmIters));
    fp.add(static_cast<std::uint64_t>(cfg.epochs))
        .add(static_cast<std::uint64_t>(cfg.samples_per_epoch))
        .add(cfg.learning_rate)
        .add(cfg.lr_decay)
        .add(kGradClip)
        .add(cfg.tau)
        .add(static_cast<std::uint64_t>(cfg.n_is))
        .add(static_cast<std::uint64_t>(cfg.freeze_previous))
        .add(cfg.defensive_weight)
        .add(cfg.defensive_sigma)
        .add(static_cast<std::uint64_t>(cfg.guard.policy))
        .add(static_cast<std::uint64_t>(cfg.guard.max_retries))
        .add(cfg.guard.perturb_sigma)
        .add(cfg.guard.clamp_value)
        .add(estimators::kGuardJitterSeed)
        .add(static_cast<std::uint64_t>(cfg.stage_max_retries))
        .add(kRetryLrFactor)
        .add(kRetryGradClipFactor)
        .add(kRetryScaleCapFactor)
        .add(0.0)  // retired inside-fraction threshold: never fired
        .add(kGradExplodeFactor)
        .add(std::uint64_t{0})  // retired grad-clip mode: always global norm
        .add(cfg.checkpoint.salt);
    return fp.value();
}

}  // namespace

NofisEstimator::NofisEstimator(NofisConfig cfg, LevelSchedule levels)
    : cfg_(std::move(cfg)), levels_(std::move(levels)) {}

EstimateResult NofisEstimator::estimate(
    const estimators::RareEventProblem& problem, rng::Engine& eng) const {
    return run(problem, eng).estimate;
}

NofisEstimator::RunResult NofisEstimator::run(
    const estimators::RareEventProblem& problem, rng::Engine& eng) const {
    // End-to-end span; "train"/"stage_m"/phases and "final_is" nest inside.
    const telemetry::ScopedSpan run_span("nofis_run");
    const std::size_t d = problem.dim();
    const std::size_t num_stages = levels_.num_levels();
    if (cfg_.threads > 0) parallel::set_num_threads(cfg_.threads);
    // Optional memoization tier: the cache sits closest to the expensive g,
    // so the guard's retry probes consult it too and only raw simulator
    // outputs are ever stored (Guarded(Cached(problem)) composition).
    std::optional<evalcache::CachedProblem> cached;
    if (cfg_.cache) {
        const std::string key = cfg_.cache_key.empty()
                                    ? "anon#d" + std::to_string(d)
                                    : cfg_.cache_key;
        cached.emplace(problem, cfg_.cache, key);
    }
    const estimators::RareEventProblem& eval_problem =
        cached ? static_cast<const estimators::RareEventProblem&>(*cached)
               : problem;
    // Every g / g_grad evaluation goes through the fault guard; faults are
    // resolved per cfg_.guard and tallied for RunHealth. A fault-free run
    // is bit-identical to the unguarded path.
    estimators::GuardedProblem guarded(eval_problem, cfg_.guard);

    flow::StackConfig scfg;
    scfg.dim = d;
    scfg.num_blocks = num_stages;
    scfg.layers_per_block = cfg_.layers_per_block;
    scfg.hidden = cfg_.hidden;
    scfg.coupling = cfg_.coupling;
    scfg.use_actnorm = cfg_.use_actnorm;
    scfg.rqs_bins = cfg_.rqs_bins;
    scfg.rqs_tail = cfg_.rqs_tail;
    rng::Engine init_eng = eng.split();
    auto stack = std::make_unique<flow::CouplingStack>(scfg, init_eng);

    RunResult result;
    result.stages.reserve(num_stages);

    const std::size_t n = cfg_.samples_per_epoch;
    // Training-phase g budget, tallied per batch (the guard's own counter
    // also covers retry probes, which are charged separately below).
    std::size_t train_g_calls = 0;
    std::size_t g_grad_calls = 0;

    // --- checkpoint/resume (DESIGN.md §12) -------------------------------
    const checkpoint::CheckpointConfig& ck = cfg_.checkpoint;
    std::optional<checkpoint::CheckpointDir> ckdir;
    std::optional<checkpoint::TrainSnapshot> resumed;
    // Evalcache hits accumulated by *earlier* incarnations of this run;
    // this process's decorator counts from zero, so the cumulative hit
    // tally is baseline + cached->hits().
    std::size_t cached_hits_baseline = 0;
    std::size_t start_stage = 1;
    if (ck.enabled()) {
        ckdir.emplace(ck.dir, ck.keep);
        if (ck.resume) {
            const std::uint64_t fp = run_fingerprint(cfg_, levels_, d);
            resumed = ckdir->load_latest(fp);
        }
        if (resumed) {
            // Restore every piece of run state the snapshot captured; from
            // here on the process is indistinguishable from one that never
            // stopped. The two telemetry counts re-seed this process's
            // fresh RunTrace with the pre-snapshot tallies so end-of-run
            // counters match an uninterrupted run.
            flow::restore_params(*stack, resumed->params);
            stack->set_scale_caps(resumed->scale_caps);
            eng.set_state(resumed->rng_state);
            guarded.import_state(
                {resumed->guard_call_index, resumed->guard_report});
            train_g_calls = resumed->train_g_calls;
            g_grad_calls = resumed->g_grad_calls;
            cached_hits_baseline = resumed->cached_hits;
            if (train_g_calls > 0)
                telemetry::count("g_calls.train", train_g_calls);
            if (g_grad_calls > 0)
                telemetry::count("g_grad_calls", g_grad_calls);
            result.stages = resumed->stages;
            start_stage = resumed->next_stage;
        }
    }

    // Snapshot of everything needed to continue from "about to run stage
    // `next_stage`" (or, with the partial extras filled in by the epoch
    // hook, from inside it).
    auto snapshot_base = [&](std::uint64_t next_stage) {
        checkpoint::TrainSnapshot s;
        s.fingerprint = run_fingerprint(cfg_, levels_, d);
        s.next_stage = next_stage;
        s.params = flow::snapshot_params(*stack);
        s.scale_caps = stack->scale_caps();
        s.rng_state = eng.state();
        const auto gs = guarded.export_state();
        s.guard_call_index = gs.call_index;
        s.guard_report = gs.report;
        s.train_g_calls = train_g_calls;
        s.g_grad_calls = g_grad_calls;
        s.cached_hits =
            cached ? cached_hits_baseline + cached->hits() : std::size_t{0};
        s.stages = result.stages;
        return s;
    };
    auto persist = [&](const checkpoint::TrainSnapshot& s) {
        ckdir->write(s);
        if (ck.crash_after_snapshots > 0 &&
            ckdir->writes() >= ck.crash_after_snapshots)
            throw checkpoint::SimulatedCrash(
                "simulated crash after snapshot " +
                std::to_string(ckdir->writes()));
    };

    // One training pass over stage m at (lr0, clip). In abort mode the pass
    // stops at the first divergence signal so the caller can roll back; in
    // legacy mode (retry budget exhausted) divergent epochs are skipped and
    // the pass always completes.
    struct StageOutcome {
        bool diverged = false;
        const char* reason = "";
    };
    // Mid-stage resume context for one train_stage call: enter the epoch
    // loop at `start_epoch` with the snapshot's decayed LR and optimizer
    // moments instead of fresh ones. `anchor` is the stage's rollback
    // checkpoint, persisted by epoch snapshots so a resumed attempt can
    // still roll back to the true stage start.
    struct StageResume {
        std::size_t start_epoch = 0;
        double stage_lr = 0.0;
        const nn::OptimizerState* opt = nullptr;
    };
    auto train_stage = [&](std::size_t m, double lr0, double clip,
                           bool abort_on_divergence, StageDiagnostics& diag,
                           std::size_t attempt,
                           const flow::ParamSnapshot& anchor,
                           const StageResume& resume) -> StageOutcome {
        const double a_m = levels_.level(m - 1);
        const std::size_t block = m - 1;

        std::vector<autodiff::Var> train_params;
        if (cfg_.freeze_previous) {
            stack->freeze_blocks_before(block);
            train_params = stack->block_params(block);
        } else {
            stack->unfreeze_all();
            for (std::size_t b = 0; b < m; ++b)
                for (auto& p : stack->block_params(b))
                    train_params.push_back(p);
        }
        nn::Adam opt(train_params, lr0);
        double stage_lr = lr0;
        if (resume.opt != nullptr) {
            opt.import_state(*resume.opt);
            stage_lr = resume.stage_lr;
        }

        const double explode_limit =
            nn::grad_explode_limit(clip, kGradExplodeFactor);

        if (resume.start_epoch == 0) {
            diag.epoch_loss.clear();
            diag.inside_fraction = 0.0;
        }

        for (std::size_t epoch = resume.start_epoch; epoch < cfg_.epochs;
             ++epoch) {
            // Optional epoch snapshot, taken at the top of the loop before
            // any RNG draw so a resumed process replays the epoch
            // bit-for-bit. `epoch > start_epoch` skips both epoch 0 (the
            // stage-boundary snapshot already covers it) and an immediate
            // rewrite of the snapshot just resumed from.
            if (ckdir && ck.every_epochs > 0 && epoch > resume.start_epoch &&
                epoch % ck.every_epochs == 0) {
                checkpoint::TrainSnapshot s = snapshot_base(m);
                s.has_partial = true;
                s.next_epoch = epoch;
                s.attempt = attempt;
                s.attempt_lr = lr0;
                s.attempt_clip = clip;
                s.stage_lr = stage_lr;
                s.opt_state = opt.export_state();
                s.stage_start_params = anchor;
                s.partial = diag;
                persist(s);
            }
            // Per-phase wall-clock spans. The spans accumulate across the
            // stage's epochs (count = epochs timed); none of them touches
            // the RNG or the math, so estimates are bitwise identical with
            // telemetry on or off.
            std::optional<telemetry::ScopedSpan> phase;
            phase.emplace("sample_forward");
            const Matrix z0 = rng::standard_normal_matrix(eng, n, d);

            // Frozen prefix on the cheap value path; graph only for the
            // trainable tail. With NoFreeze everything is in the graph.
            Matrix z_in = z0;
            std::vector<double> frozen_log_det(n, 0.0);
            std::size_t graph_begin = 0;
            if (cfg_.freeze_previous && block > 0) {
                z_in = stack->transport_range(z0, 0, block, frozen_log_det);
                graph_begin = block;
            }
            auto fwd = stack->forward_range(Var(z_in), graph_begin, m);
            const Matrix& z = fwd.z.value();
            phase.reset();

            if (!z.all_finite()) {
                if (abort_on_divergence)
                    return {true, "non-finite flow output"};
                // Flow blew up this epoch; skip the update rather than
                // poisoning Adam's moments with NaNs. The sentinel keeps
                // the curve honest: no loss was computed this epoch.
                ++diag.skipped_epochs;
                diag.epoch_loss.push_back(
                    std::numeric_limits<double>::quiet_NaN());
                continue;
            }

            // Black-box target term: value for the loss report, gradient
            // injected via dot_constant. ∂T/∂z_n = (1/N)(−τ·∇g·1[g>a] − z_n).
            //
            // Pass 1 — batched g over all rows (parallel, per-row call
            // indices in row order). The reductions below run serially in
            // row order, so the loss is bitwise identical at any thread
            // count.
            phase.emplace("g_eval");
            train_g_calls += n;
            telemetry::count("g_calls.train", n);
            const std::vector<double> g_vals = guarded.g_rows(z);
            phase.reset();

            Matrix target_grad(n, d);
            double target_value = 0.0;
            double inside = 0.0;
            std::vector<std::size_t> grad_rows;
            for (std::size_t r = 0; r < n; ++r) {
                const auto zr = z.row_span(r);
                const double gv = g_vals[r];
                if (!std::isfinite(gv)) {
                    // A non-finite g slipped through the guard (propagate
                    // policy): the tempered target is undefined, so poison
                    // the loss instead of silently zeroing the weight.
                    target_value = std::numeric_limits<double>::quiet_NaN();
                }
                if (gv <= a_m) inside += 1.0;
                target_value += tempered_log_weight(cfg_.tau, a_m, gv) +
                                rng::standard_normal_log_pdf(zr);
                if (gv > a_m) grad_rows.push_back(r);
            }

            // Pass 2 — batched ∇g for the rows that need it. Backward
            // through the same simulation point is free under the paper's
            // autograd accounting (see RareEventProblem::g_grad). Each row
            // writes only its own target_grad row, so this fans out on the
            // pool with one reserved call index per row.
            {
                phase.emplace("g_grad");
                g_grad_calls += grad_rows.size();
                telemetry::count("g_grad_calls", grad_rows.size());
                const std::size_t gbase = guarded.reserve_calls(
                    grad_rows.size());
                parallel::for_each_index(grad_rows.size(), [&](std::size_t i) {
                    const std::size_t r = grad_rows[i];
                    const auto grad = target_grad.row_span(r);
                    guarded.g_grad_indexed(gbase + i, z.row_span(r), grad);
                    for (double& gc : grad) gc = -cfg_.tau * gc;
                });
                phase.reset();
            }
            for (std::size_t r = 0; r < n; ++r) {
                const auto zr = z.row_span(r);
                for (std::size_t c = 0; c < d; ++c) target_grad(r, c) -= zr[c];
            }
            const double inv_n = 1.0 / static_cast<double>(n);
            target_value *= inv_n;
            target_grad *= inv_n;
            inside *= inv_n;

            // loss = −mean(log-det) − T. The dot_constant surrogate carries
            // exactly ∂T/∂z into the graph.
            Var graph_loss =
                autodiff::add(autodiff::neg(autodiff::mean(fwd.log_det)),
                              autodiff::neg(autodiff::dot_constant(
                                  fwd.z, target_grad)));

            double mean_log_det = fwd.log_det.value().mean();
            for (double v : frozen_log_det) mean_log_det += v * inv_n;
            const double true_loss = -mean_log_det - target_value;

            if (!std::isfinite(true_loss) || !target_grad.all_finite()) {
                if (abort_on_divergence) return {true, "non-finite KL loss"};
                ++diag.skipped_epochs;
                diag.epoch_loss.push_back(
                    std::numeric_limits<double>::quiet_NaN());
                continue;
            }

            phase.emplace("backward");
            opt.zero_grad();
            graph_loss.backward();
            const double grad_norm = opt.clip_grad_norm(clip);
            phase.reset();
            if (abort_on_divergence &&
                (!std::isfinite(grad_norm) || grad_norm > explode_limit))
                return {true, "exploding gradient norm"};
            phase.emplace("optimizer");
            opt.set_learning_rate(stage_lr);
            opt.step();
            stage_lr *= cfg_.lr_decay;
            phase.reset();

            diag.epoch_loss.push_back(true_loss);
            diag.inside_fraction = inside;
        }
        return {};
    };

    {
        const telemetry::ScopedSpan train_span("train");
        for (std::size_t m = start_stage; m <= num_stages; ++m) {
            // Retries re-enter the same stage span, so its wall-clock covers
            // every attempt and its phase counts expose the extra epochs.
            const telemetry::ScopedSpan stage_span("stage_" +
                                                   std::to_string(m));
            StageDiagnostics diag;
            diag.stage = m;
            diag.level = levels_.level(m - 1);

            // Rollback anchor taken before the stage touches any parameter;
            // rolled-back retries restart training from exactly this state.
            flow::ParamSnapshot anchor;
            double lr = cfg_.learning_rate;
            double clip = kGradClip;
            std::size_t first_attempt = 0;
            StageResume stage_resume;
            if (resumed && resumed->has_partial && m == start_stage) {
                // Mid-stage snapshot: re-enter the in-flight attempt at the
                // recorded epoch, with its shrunk LR/clip and the anchor it
                // would roll back to.
                anchor = resumed->stage_start_params;
                first_attempt = resumed->attempt;
                lr = resumed->attempt_lr;
                clip = resumed->attempt_clip;
                stage_resume.start_epoch = resumed->next_epoch;
                stage_resume.stage_lr = resumed->stage_lr;
                stage_resume.opt = &resumed->opt_state;
                diag = resumed->partial;
            } else {
                anchor = flow::snapshot_params(*stack);
            }

            for (std::size_t attempt = first_attempt;; ++attempt) {
                const bool last_attempt = attempt >= cfg_.stage_max_retries;
                const StageOutcome out =
                    train_stage(m, lr, clip, !last_attempt, diag, attempt,
                                anchor, stage_resume);
                stage_resume = StageResume{};  // only the first pass resumes
                if (!out.diverged || last_attempt) break;

                flow::restore_params(*stack, anchor);
                stack->tighten_scale_cap(m - 1, kRetryScaleCapFactor);
                lr *= kRetryLrFactor;
                clip *= kRetryGradClipFactor;
                ++diag.retries;
                diag.retry_reasons.emplace_back(out.reason);
            }
            result.stages.push_back(std::move(diag));

            // Stage boundary: durably snapshot "about to run stage m+1"
            // (m+1 = num_stages+1 means training is done and only the
            // final IS remains). Honour a pending SIGINT/SIGTERM here —
            // the in-flight stage finished, the snapshot is on disk, so
            // stopping now loses no work.
            if (ckdir) persist(snapshot_base(m + 1));
            if (checkpoint::stop_requested()) {
                result.interrupted = true;
                break;
            }
        }
    }

    // Final importance-sampling estimate with q_MK (Eq. 2), still guarded.
    estimators::IsDiagnostics is_diag;
    EstimateResult est;
    if (result.interrupted) {
        // No final IS was spent; report the g-budget consumed so far and
        // mark the estimate unusable. A --resume run picks up from the
        // snapshot written above and spends the final IS exactly once.
        est.failed = true;
        est.detail = "interrupted by stop request; resume to continue";
    } else {
        est = final_estimate(*stack, guarded, eng, cfg_, levels_.level(0),
                             &is_diag, &result.latent_report);
    }
    // Honest budget: training calls + fault-retry evaluations on top of the
    // N_IS already counted by final_estimate. (g_grad rides on the
    // value evaluation under the paper's autograd accounting, so only the
    // value batches count.)
    est.calls += train_g_calls + guarded.report().retry_attempts;
    // Every value arrival at the cache is one of the calls counted above,
    // so the cumulative hit tally (pre-snapshot baseline + this process's
    // decorator instance) IS the cached share of `calls` (min guards the
    // invariant against future drift). Restored counters keep the
    // accounting honest across restarts: fresh calls spent before a crash
    // are never re-counted as fresh, and fresh + cached == total holds.
    est.cached_calls =
        cached ? std::min(cached_hits_baseline + cached->hits(), est.calls)
               : std::size_t{0};

    RunHealth health;
    health.faults = guarded.report();
    health.g_retry_calls = guarded.report().retry_attempts;
    for (const auto& s : result.stages) {
        health.stage_retries += s.retries;
        if (s.retries > 0) ++health.stages_rolled_back;
        health.skipped_epochs += s.skipped_epochs;
    }
    health.final_ess = is_diag.effective_sample_size;
    health.ess_all = is_diag.ess_all;
    health.max_weight = is_diag.max_weight;
    health.weight_cv = is_diag.weight_cv;
    if (health.degraded() && est.detail.empty())
        est.detail = health.faults.summary();

    // Fold the run's health ledger and proposal-quality numbers into the
    // active telemetry record (counters accumulate across repeated runs;
    // metrics hold the last run's values).
    evalcache::report_call_split(est.calls, est.cached_calls);
    if (telemetry::RunTrace* tr = telemetry::active()) {
        tr->add_counter("calls", est.calls);
        tr->add_counter("g_retry_calls", health.g_retry_calls);
        tr->add_counter("stage_retries", health.stage_retries);
        tr->add_counter("stages_rolled_back", health.stages_rolled_back);
        tr->add_counter("skipped_epochs", health.skipped_epochs);
        tr->add_counter("faults.total", health.faults.total_faults());
        using estimators::FaultKind;
        for (std::size_t k = 0;
             k < static_cast<std::size_t>(FaultKind::kCount); ++k) {
            const auto kind = static_cast<FaultKind>(k);
            if (health.faults.count(kind) > 0)
                tr->add_counter(std::string("faults.") +
                                    estimators::fault_kind_name(kind),
                                health.faults.count(kind));
        }
    }
    estimators::record_is_metrics(est.p_hat, is_diag);

    result.estimate = est;
    result.is_diag = is_diag;
    result.health = std::move(health);
    result.flow = std::move(stack);
    return result;
}

EstimateResult NofisEstimator::final_estimate(
    const flow::CouplingStack& trained_flow,
    const estimators::RareEventProblem& problem, rng::Engine& eng,
    const NofisConfig& cfg, double a_start, estimators::IsDiagnostics* diag,
    latent::LatentReport* report) {
    // Latent-space exploration (DESIGN.md §16): the chain budget is carved
    // out of n_is, so the total g-spend matches plain final IS.
    if (cfg.latent.enabled)
        return latent::explore_and_estimate(trained_flow, problem, eng,
                                            cfg.n_is, cfg.tau, a_start,
                                            cfg.latent, diag, report);
    return importance_estimate(trained_flow, problem, eng, cfg.n_is, diag,
                               cfg.defensive_weight, cfg.defensive_sigma);
}

EstimateResult NofisEstimator::importance_estimate(
    const flow::CouplingStack& trained_flow,
    const estimators::RareEventProblem& problem, rng::Engine& eng,
    std::size_t n_is, estimators::IsDiagnostics* diag,
    double defensive_weight, double defensive_sigma) {
    // The final Eq. (2) estimate — one span whether reached from run() (it
    // nests under the run's trace) or standalone (reuse, serve, benches).
    // Its children are "sample" here, then "g_eval" and "reduce".
    const telemetry::ScopedSpan is_span("final_is");
    std::optional<telemetry::ScopedSpan> phase(std::in_place, "sample");
    const std::size_t d_dim = trained_flow.dim();
    const std::size_t blocks = trained_flow.num_blocks();

    // Draw from the (possibly defensive-mixture) proposal and record exact
    // mixture log-densities.
    linalg::Matrix z(n_is, d_dim);
    std::vector<double> log_q(n_is);
    if (defensive_weight <= 0.0) {
        auto samples = trained_flow.sample(eng, n_is, blocks);
        z = std::move(samples.z);
        log_q = std::move(samples.log_q);
    } else {
        const double lw_wide = std::log(defensive_weight);
        const double lw_flow = std::log1p(-defensive_weight);
        const dist::DiagGaussian wide =
            dist::DiagGaussian::isotropic(d_dim, defensive_sigma);
        // Component choice per sample; batch the flow draws.
        std::vector<bool> from_wide(n_is);
        std::size_t n_wide = 0;
        for (std::size_t r = 0; r < n_is; ++r) {
            from_wide[r] = eng.uniform() < defensive_weight;
            if (from_wide[r]) ++n_wide;
        }
        const linalg::Matrix zw = wide.sample(eng, n_wide);
        auto zf = trained_flow.sample(eng, n_is - n_wide, blocks);
        // Cross densities: flow density at wide points needs the inverse
        // path; wide density anywhere is closed-form.
        const std::vector<double> flow_at_wide =
            n_wide > 0 ? trained_flow.log_prob(zw, blocks)
                       : std::vector<double>{};
        std::size_t iw = 0;
        std::size_t jf = 0;
        for (std::size_t r = 0; r < n_is; ++r) {
            const auto row =
                from_wide[r] ? zw.row_span(iw) : zf.z.row_span(jf);
            std::copy(row.begin(), row.end(), z.row_span(r).begin());
            const double lq_flow =
                from_wide[r] ? flow_at_wide[iw++] : zf.log_q[jf++];
            log_q[r] = estimators::log_add_exp(lw_flow + lq_flow,
                                               lw_wide + wide.log_pdf(row));
        }
    }
    phase.reset();

    return estimators::evaluate_and_reduce(problem, z, log_q, diag);
}

}  // namespace nofis::core
