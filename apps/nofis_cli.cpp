// nofis_cli — command-line front end for the library.
//
//   nofis_cli list
//       Show the registered test cases with golden probabilities and
//       per-case budgets.
//   nofis_cli estimate --case Leaf [--method NOFIS] [--repeats 3] [--seed 1]
//            [--coupling affine|additive|rqs]
//       Run one estimator at its Table-1 budget and report
//       estimate / calls / log-error per repeat. --coupling overrides the
//       NOFIS proposal's coupling family (ignored by baselines).
//   nofis_cli levels --case Opamp [--num 5] [--pilot 500] [--seed 1]
//       Print an automatically selected nested-subset schedule.
//   nofis_cli train --case Leaf --save leaf.nofisflow [--seed 1]
//            [--coupling affine|additive|rqs] [--rqs-bins 8] [--rqs-tail 5]
//            [--inject-nan 0.05] [--inject-throw 0.01] [--policy retry]
//            [--checkpoint-dir D] [--checkpoint-every K] [--resume]
//            [--checkpoint-keep 3]
//       Train the NOFIS proposal at the case budget and serialise it,
//       printing the run-health summary (faults, rollbacks, proposal
//       quality). The --inject-* flags wrap the case in the deterministic
//       fault injector to exercise the guardrails; --policy selects the
//       guard response (retry | clamp | propagate). `run` is an alias.
//       With --checkpoint-dir a durable snapshot is written at every stage
//       boundary (and every --checkpoint-every epochs inside a stage);
//       SIGINT/SIGTERM finish the in-flight stage, write a final snapshot,
//       and exit cleanly. --resume restarts from the latest valid snapshot
//       and produces stdout, metrics and a saved model byte-identical to an
//       uninterrupted run (DESIGN.md §12).
//   nofis_cli reuse --case Leaf --load leaf.nofisflow [--nis 5000] [--seed 2]
//       Reload a trained proposal and draw a fresh importance-sampling
//       estimate without retraining.
//
// estimate, train and reuse accept the latent-space exploration flags
// (DESIGN.md §16): --latent-explore splits the final-IS budget between
// K annealed Metropolis chains in the trained flow's base space
// (--latent-chains K, --latent-steps S, --latent-anneal linear|geom|none)
// and a defensive-mixture final estimate over α·flow + (1−α)·refined
// (--latent-alpha A). Total g-budget is identical to plain final IS;
// results stay bitwise identical across --threads, --kernels, and cache
// off/cold/warm. `estimate --method NOFIS-LE` runs the same split at the
// case budget.
//   nofis_cli info FILE.nofisflow
//       Print a saved stack's metadata (dim, blocks, coupling kind,
//       parameter count) without running anything.
//   nofis_cli serve --models DIR [--port 0] [--max-batch-rows N]
//            [--max-wait-us 200] [--max-queue 1024] [--workers N]
//       Serve every .nofisflow in DIR over a loopback TCP socket speaking
//       the line-delimited JSON protocol of DESIGN.md §10. Prints
//       "nofis-serve: ready port=P" once listening; stops cleanly on a
//       `shutdown` request or SIGINT/SIGTERM. Responses are bitwise
//       identical regardless of batching, queue order, --threads or
//       --workers. --workers N runs N scheduler shards in this one process
//       (DESIGN.md §15): each model's requests go to one shard, chosen by
//       a stable hash of its name, and every shard has its own thread,
//       queue and evaluation cache (--cache-mem-mb is per shard; a shared
//       --cache-dir is safe, the eval logs lock on disk). The shards share
//       the one --threads pool and write one --metrics-out record.
//   nofis_cli query --port P [--host 127.0.0.1] --op OP [--model NAME]
//            [--seed S] [--n N] [--case NAME] [--x "0.1,0.2;..."]
//            [--timeout-us T] [--id K] | --file requests.jsonl
//       Issue one request (or pipeline every line of --file) against a
//       running server and print the raw response line(s). Exits 0 when
//       every response is ok, 1 otherwise.
//
// Every command accepts --threads N to size the parallel evaluation pool
// (0 / absent = NOFIS_THREADS env or hardware concurrency) and
// --kernels auto|scalar|simd to pick the numeric kernel flavour (absent =
// NOFIS_KERNELS env, then auto = simd). Output is bitwise identical for any
// thread count and either kernel flavour; both flags only change wall-clock
// time.
//
//   nofis_cli cache-info --cache-dir DIR
//       Describe every evaluation log (*.evc) in DIR: case key, dim,
//       record count, file/valid bytes, and whether a torn tail was
//       detected. Read-only.
//   nofis_cli cache-compact --cache-dir DIR
//       Rewrite each evaluation log keeping the last record per input row
//       and dropping any torn tail (atomic temp-file + rename).
//
// estimate, train and reuse additionally accept --cache-mem-mb N and
// --cache-dir DIR to memoize g-evaluations (serve takes the same flags for
// a cache shared across requests). The cache never changes results — output
// is bitwise identical with it off, cold, or warm; only the
// g_calls.fresh/g_calls.cached split in --metrics-out moves.
//
// Every command also accepts --metrics-out FILE.json: the run is executed
// with the telemetry layer active and a machine-readable record (per-stage
// and per-phase wall-clock spans, g-call / fault / rollback counters,
// ESS and weight diagnostics, thread-pool utilisation) is written to FILE
// as a single JSON object. Telemetry never perturbs results: estimates are
// bitwise identical with or without the flag.

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>

#include "../bench/bench_common.hpp"
#include "core/levels.hpp"
#include "flow/serialize.hpp"
#include "flow/stack_info.hpp"
#include "serve/server.hpp"
#include "serve/tcp_client.hpp"
#include "testcases/fault_injector.hpp"

namespace {

using namespace nofis;
using namespace nofis::bench;

int cmd_list() {
    std::printf("%-12s %-5s %-12s %-14s %-10s\n", "case", "dim", "golden",
                "nofis calls", "levels");
    for (const auto& name : testcases::all_case_names()) {
        const auto tc = testcases::make_case(name);
        const auto b = tc->nofis_budget();
        std::printf("%-12s %-5zu %-12.3e %-14zu %zu\n", name.c_str(),
                    tc->dim(), tc->golden_pr(), b.total_calls(),
                    b.levels.size());
    }
    return 0;
}

int cmd_estimate(int argc, char** argv) {
    const std::string case_name = arg_value(argc, argv, "--case", "Leaf");
    const std::string method = arg_value(argc, argv, "--method", "NOFIS");
    const auto repeats = size_flag(argc, argv, "--repeats", "3");
    const auto seed = u64_flag(argc, argv, "--seed", "1");
    const std::string coupling = arg_value(argc, argv, "--coupling", "");

    const auto cache = cache_from_flags(argc, argv);
    const auto tc = testcases::make_case(case_name);
    const auto latent_cfg = latent_config_from_flags(argc, argv);
    const auto est = make_estimator(method, *tc, cache, coupling, &latent_cfg);
    // NOFIS consults the cache through its config; the baselines evaluate
    // through an external wrapper. Estimates (and this command's stdout)
    // are bitwise identical with the cache off, cold, or warm — the
    // fresh/cached split lands in --metrics-out only.
    std::optional<evalcache::CachedProblem> cached;
    const estimators::RareEventProblem* problem = tc.get();
    if (cache && !nofis_family(method)) {
        cached.emplace(*tc, cache, testcases::cache_key(*tc));
        problem = &*cached;
    }
    std::printf("%s on %s (golden %.3e), %zu repeat(s)\n", method.c_str(),
                case_name.c_str(), tc->golden_pr(), repeats);
    double mean_err = 0.0;
    for (std::size_t r = 0; r < repeats; ++r) {
        const telemetry::ScopedSpan repeat_span("repeat");
        const std::size_t hits_before = cached ? cached->hits() : 0;
        rng::Engine eng(seed + 7919 * r);
        const auto res = est->estimate(*problem, eng);
        const double err = estimators::log_error(res.p_hat, tc->golden_pr());
        mean_err += err;
        // Non-NOFIS methods don't instrument their internals; record the
        // estimate-level numbers here so every method yields a usable
        // metrics record. (NOFIS runs count their own calls/diagnostics
        // and fresh-vs-cached split.)
        telemetry::count("estimate.runs");
        if (!nofis_family(method)) {
            telemetry::count("calls", res.calls);
            evalcache::report_call_split(
                res.calls,
                cached ? std::min(cached->hits() - hits_before, res.calls)
                       : std::size_t{0});
        }
        telemetry::metric("p_hat", res.p_hat);
        std::printf("  run %zu: p = %.4e  calls = %zu  log-err = %.3f%s\n",
                    r, res.p_hat, res.calls, err,
                    res.failed ? "  [FAILED]" : "");
    }
    const double mean = mean_err / static_cast<double>(repeats);
    telemetry::metric("mean_log_error", mean);
    std::printf("mean log-error: %.3f\n", mean);
    return 0;
}

int cmd_levels(int argc, char** argv) {
    const std::string case_name = arg_value(argc, argv, "--case", "Leaf");
    const auto num = size_flag(argc, argv, "--num", "5");
    const auto pilot = size_flag(argc, argv, "--pilot", "500");
    const auto seed = u64_flag(argc, argv, "--seed", "1");

    const auto tc = testcases::make_case(case_name);
    estimators::CountedProblem counted(*tc);
    rng::Engine eng(seed);
    core::AutoLevelConfig cfg;
    cfg.num_levels = num;
    cfg.pilot_samples = pilot;
    const auto levels = core::auto_levels(counted, eng, cfg);
    std::printf("auto levels for %s (%zu pilot calls):\n", case_name.c_str(),
                counted.calls());
    for (double a : levels.levels()) std::printf("  %.6g\n", a);
    const auto manual = tc->nofis_budget().levels;
    std::printf("hand-tuned schedule for comparison:\n");
    for (double a : manual) std::printf("  %.6g\n", a);
    return 0;
}

estimators::GuardConfig::Policy parse_policy(const std::string& name) {
    using Policy = estimators::GuardConfig::Policy;
    if (name == "retry") return Policy::kRetryPerturb;
    if (name == "clamp") return Policy::kClampToFail;
    if (name == "propagate") return Policy::kPropagate;
    throw std::invalid_argument("unknown policy '" + name +
                                "' (expected retry|clamp|propagate)");
}

int cmd_train(int argc, char** argv) {
    const std::string case_name = arg_value(argc, argv, "--case", "Leaf");
    const std::string path =
        arg_value(argc, argv, "--save", case_name + ".nofisflow");
    const auto seed = u64_flag(argc, argv, "--seed", "1");
    const double nan_rate = double_flag(argc, argv, "--inject-nan", "0");
    const double throw_rate = double_flag(argc, argv, "--inject-throw", "0");

    const auto tc = testcases::make_case(case_name);
    const auto budget = tc->nofis_budget();
    auto cfg = nofis_config_from_budget(budget);
    // Coupling family for the proposal flow: affine (default) | additive |
    // rqs. The spline knobs only matter under --coupling rqs and are
    // ignored (not even fingerprinted) otherwise.
    const std::string coupling = arg_value(argc, argv, "--coupling", "");
    if (!coupling.empty()) cfg.coupling = parse_coupling(coupling);
    cfg.rqs_bins = size_flag(argc, argv, "--rqs-bins", "8");
    cfg.rqs_tail = double_flag(argc, argv, "--rqs-tail", "5");
    cfg.guard.policy =
        parse_policy(arg_value(argc, argv, "--policy", "retry"));
    // Latent-space exploration (DESIGN.md §16): splits n_is between the
    // annealed chains and the defensive-mixture final IS.
    cfg.latent = latent_config_from_flags(argc, argv);
    // Routed through the config (rather than only the global pool) so the
    // NofisConfig knob is exercised end-to-end.
    cfg.threads = size_flag(argc, argv, "--threads", "0");
    // Optional memoization of g; under fault injection the guard sits above
    // the cache, so only true (finite, successfully evaluated) values are
    // ever stored — the namespace stays safe to share with clean runs.
    cfg.cache = cache_from_flags(argc, argv);
    cfg.cache_key = testcases::cache_key(case_name, tc->dim());

    // Crash-safe training (DESIGN.md §12): durable snapshots at every stage
    // boundary (plus every --checkpoint-every epochs), resumed bitwise with
    // --resume. The run identity folds in everything that shapes the
    // trajectory — including the seed and injected-fault rates via the salt
    // below — so snapshots from a different run can never be resumed.
    cfg.checkpoint.dir = arg_value(argc, argv, "--checkpoint-dir", "");
    cfg.checkpoint.every_epochs =
        size_flag(argc, argv, "--checkpoint-every", "0");
    cfg.checkpoint.resume = flag_present(argc, argv, "--resume");
    cfg.checkpoint.keep = size_flag(argc, argv, "--checkpoint-keep", "3");
    {
        checkpoint::FingerprintBuilder salt;
        salt.add(seed).add(nan_rate).add(throw_rate).add(case_name);
        cfg.checkpoint.salt = salt.value();
    }
    if (cfg.checkpoint.enabled()) checkpoint::install_stop_handlers();

    core::NofisEstimator est(cfg,
                             core::LevelSchedule::manual(budget.levels));

    // Optional deterministic fault injection, for exercising the guardrails
    // against a known fault load.
    testcases::FaultInjectorConfig icfg;
    icfg.nan_rate = nan_rate;
    icfg.throw_rate = throw_rate;
    icfg.seed = seed;
    const testcases::FaultInjector injected(*tc, icfg);
    const estimators::RareEventProblem& problem =
        (nan_rate > 0.0 || throw_rate > 0.0)
            ? static_cast<const estimators::RareEventProblem&>(injected)
            : *tc;

    rng::Engine eng(seed);
    if (cfg.checkpoint.resume)
        std::fprintf(stderr, "resuming from checkpoints in %s (if any)\n",
                     cfg.checkpoint.dir.c_str());
    auto run = est.run(problem, eng);
    if (run.interrupted) {
        // Keep every resume/interrupt notice on stderr: a resumed run's
        // stdout must be byte-identical to an uninterrupted run's.
        std::fprintf(stderr,
                     "interrupted: checkpoint written to %s; rerun with "
                     "--resume to continue\n",
                     cfg.checkpoint.dir.c_str());
        return 0;
    }
    std::printf("trained %s: p = %.4e (calls %zu, log-err %.3f)\n",
                case_name.c_str(), run.estimate.p_hat, run.estimate.calls,
                estimators::log_error(run.estimate.p_hat, tc->golden_pr()));
    if (cfg.latent.enabled) {
        const auto& lr = run.latent_report;
        std::printf("latent: chains = %zu  steps = %zu  alpha = %.2f  "
                    "anneal = %s  explore-calls = %zu  final-is = %zu  "
                    "accept = %.3f  components = %zu\n",
                    cfg.latent.chains, cfg.latent.steps, cfg.latent.alpha,
                    latent::anneal_name(cfg.latent.anneal), lr.explore_calls,
                    lr.final_is_draws, lr.acceptance_rate, lr.components);
    }
    std::printf("%s\n", run.health.summary().c_str());
    if (nan_rate > 0.0 || throw_rate > 0.0) {
        // The ledger counts THIS process's arrivals, so a resumed run's
        // numbers legitimately differ from an uninterrupted run's. Under
        // checkpointing the line moves to stderr to keep stdout bitwise
        // comparable across kill/resume.
        std::FILE* out = cfg.checkpoint.enabled() ? stderr : stdout;
        std::fprintf(out, "injector: %zu fault(s) injected over %zu call(s)\n",
                     injected.injected_total(), injected.calls());
    }
    flow::save_stack(*run.flow, path);
    std::printf("proposal saved to %s\n", path.c_str());
    return 0;
}

int cmd_reuse(int argc, char** argv) {
    const std::string case_name = arg_value(argc, argv, "--case", "Leaf");
    const std::string path =
        arg_value(argc, argv, "--load", case_name + ".nofisflow");
    const auto nis = size_flag(argc, argv, "--nis", "5000");
    const auto seed = u64_flag(argc, argv, "--seed", "2");

    const auto tc = testcases::make_case(case_name);
    const auto stack = flow::load_stack(path);
    if (stack.dim() != tc->dim()) {
        std::fprintf(stderr, "error: flow dim %zu != case dim %zu\n",
                     stack.dim(), tc->dim());
        return 1;
    }
    const auto cache = cache_from_flags(argc, argv);
    std::optional<evalcache::CachedProblem> cached;
    const estimators::RareEventProblem* problem = tc.get();
    if (cache) {
        cached.emplace(*tc, cache, testcases::cache_key(*tc));
        problem = &*cached;
    }
    rng::Engine eng(seed);
    estimators::IsDiagnostics diag;
    // Latent-space exploration on a reloaded stack (DESIGN.md §16): the
    // chains need the tempered-target shape, which comes from the case's
    // own budget (τ and the first, easiest level of its schedule).
    const auto latent_cfg = latent_config_from_flags(argc, argv);
    estimators::EstimateResult res;
    std::size_t final_is_draws = nis;
    latent::LatentReport lrep;
    if (latent_cfg.enabled) {
        // Same composition as a training run: Guarded(Cached(problem)), so
        // chain evaluations replay/cache like every other consumer.
        const estimators::GuardedProblem guarded(*problem);
        const auto budget = tc->nofis_budget();
        res = latent::explore_and_estimate(stack, guarded, eng, nis,
                                           budget.tau, budget.levels.front(),
                                           latent_cfg, &diag, &lrep);
        final_is_draws = lrep.final_is_draws;
    } else {
        res = core::NofisEstimator::importance_estimate(stack, *problem, eng,
                                                        nis, &diag);
    }
    telemetry::count("calls", res.calls);
    evalcache::report_call_split(
        res.calls,
        cached ? std::min(cached->hits(), res.calls) : std::size_t{0});
    telemetry::metric("p_hat", res.p_hat);
    telemetry::metric("ess_hits", diag.effective_sample_size);
    telemetry::metric("ess_all", diag.ess_all);
    telemetry::metric("max_weight", diag.max_weight);
    telemetry::metric("weight_cv", diag.weight_cv);
    std::printf("reused proposal from %s on %s:\n", path.c_str(),
                case_name.c_str());
    // Stats line is append-only (existing CI diffs parse the prefix): the
    // estimator strategy and the final-IS draw count ride at the end.
    std::printf("  p = %.4e  calls = %zu  log-err = %.3f  hits = %zu  "
                "ESS = %.1f  ESS(all) = %.1f  weight-CV = %.2f  "
                "strategy = %s  final-is = %zu\n",
                res.p_hat, res.calls,
                estimators::log_error(res.p_hat, tc->golden_pr()), diag.hits,
                diag.effective_sample_size, diag.ess_all, diag.weight_cv,
                latent_cfg.enabled ? "latent-explore" : "final-is",
                final_is_draws);
    if (latent_cfg.enabled)
        std::printf("  latent: chains = %zu  steps = %zu  alpha = %.2f  "
                    "anneal = %s  explore-calls = %zu  accept = %.3f  "
                    "components = %zu\n",
                    latent_cfg.chains, latent_cfg.steps, latent_cfg.alpha,
                    latent::anneal_name(latent_cfg.anneal), lrep.explore_calls,
                    lrep.acceptance_rate, lrep.components);
    return 0;
}

int cmd_info(int argc, char** argv) {
    if (argc < 3 || argv[2][0] == '-') {
        std::fprintf(stderr, "usage: nofis_cli info FILE.nofisflow\n");
        return 2;
    }
    const std::string path = argv[2];
    const auto info = flow::stack_info(path);
    std::printf("file: %s\n", path.c_str());
    std::printf("dim: %zu\n", info.dim);
    std::printf("blocks: %zu (M)\n", info.num_blocks);
    std::printf("layers_per_block: %zu (K)\n", info.layers_per_block);
    std::printf("coupling: %s\n",
                flow::coupling_kind_name(info.coupling).c_str());
    if (info.coupling == flow::CouplingKind::kRqs) {
        std::printf("rqs_bins: %zu\n", info.rqs_bins);
        std::printf("rqs_tail: %g\n", info.rqs_tail);
    }
    std::printf("actnorm: %s\n", info.use_actnorm ? "on" : "off");
    std::printf("hidden:");
    for (std::size_t h : info.hidden) std::printf(" %zu", h);
    std::printf("\n");
    std::printf("scale_cap: %g\n", info.scale_cap);
    std::printf("params: %zu tensors, %zu values\n", info.param_tensors,
                info.param_values);
    return 0;
}

std::vector<std::filesystem::path> cache_logs_in(const std::string& dir) {
    namespace fs = std::filesystem;
    std::vector<fs::path> logs;
    for (const auto& entry : fs::directory_iterator(dir))
        if (entry.is_regular_file() && entry.path().extension() == ".evc")
            logs.push_back(entry.path());
    std::sort(logs.begin(), logs.end());
    return logs;
}

int cmd_cache_info(int argc, char** argv) {
    const std::string dir = arg_value(argc, argv, "--cache-dir", "");
    if (dir.empty() || !std::filesystem::is_directory(dir)) {
        std::fprintf(stderr, "usage: nofis_cli cache-info --cache-dir DIR\n");
        return 2;
    }
    std::printf("%-20s %-5s %-9s %-11s %-11s %s\n", "case", "dim", "records",
                "bytes", "valid", "tail");
    for (const auto& path : cache_logs_in(dir)) {
        const auto info = evalcache::DiskLog::inspect(path.string());
        if (!info) {
            std::printf("%-20s (not a NOFIS eval log)\n",
                        path.filename().string().c_str());
            continue;
        }
        std::printf("%-20s %-5zu %-9zu %-11llu %-11llu %s\n",
                    info->case_key.c_str(), info->dim, info->records,
                    static_cast<unsigned long long>(info->file_bytes),
                    static_cast<unsigned long long>(info->valid_bytes),
                    info->tail_truncated ? "TRUNCATED" : "clean");
    }
    return 0;
}

int cmd_cache_compact(int argc, char** argv) {
    const std::string dir = arg_value(argc, argv, "--cache-dir", "");
    if (dir.empty() || !std::filesystem::is_directory(dir)) {
        std::fprintf(stderr,
                     "usage: nofis_cli cache-compact --cache-dir DIR\n");
        return 2;
    }
    for (const auto& path : cache_logs_in(dir)) {
        try {
            const auto r = evalcache::DiskLog::compact(path.string());
            std::printf("%s: %zu -> %zu record(s), %llu -> %llu byte(s)\n",
                        path.filename().string().c_str(), r.records_before,
                        r.records_after,
                        static_cast<unsigned long long>(r.bytes_before),
                        static_cast<unsigned long long>(r.bytes_after));
        } catch (const std::exception& e) {
            std::fprintf(stderr, "%s: skipped (%s)\n",
                         path.filename().string().c_str(), e.what());
        }
    }
    return 0;
}

std::atomic<bool> g_signal_stop{false};

void on_signal(int) { g_signal_stop.store(true, std::memory_order_relaxed); }

int cmd_serve(int argc, char** argv) {
    serve::ServerConfig cfg;
    cfg.model_dir = arg_value(argc, argv, "--models", ".");
    const auto port = size_flag(argc, argv, "--port", "0");
    if (port > 65535) {
        std::fprintf(stderr, "error: invalid port %zu\n", port);
        return 2;
    }
    cfg.port = static_cast<std::uint16_t>(port);
    cfg.workers = size_flag(argc, argv, "--workers", "1");
    cfg.scheduler.max_batch_rows =
        size_flag(argc, argv, "--max-batch-rows", "0");
    cfg.scheduler.max_wait_us = u64_flag(argc, argv, "--max-wait-us", "200");
    cfg.scheduler.max_queue = size_flag(argc, argv, "--max-queue", "1024");
    cfg.scheduler.cache_mem_mb = size_flag(argc, argv, "--cache-mem-mb", "0");
    cfg.scheduler.cache_dir = arg_value(argc, argv, "--cache-dir", "");

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    serve::Server server(cfg);
    std::printf("serving models from %s on %s:%u\n", cfg.model_dir.c_str(),
                cfg.host.c_str(), static_cast<unsigned>(server.port()));
    std::printf("nofis-serve: ready port=%u\n",
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);
    server.wait(&g_signal_stop);
    server.shutdown();
    std::printf("nofis-serve: stopped\n");
    return 0;
}

std::vector<std::string> split_on(const std::string& s, char sep) {
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const std::size_t next = s.find(sep, pos);
        if (next == std::string::npos) {
            out.push_back(s.substr(pos));
            break;
        }
        out.push_back(s.substr(pos, next - pos));
        pos = next + 1;
    }
    return out;
}

/// "0.1,0.2;0.3,0.4" → 2x2 matrix (rows split on ';', cells on ',').
linalg::Matrix parse_points(const std::string& text) {
    const auto rows = split_on(text, ';');
    if (rows.empty()) throw std::runtime_error("--x: no rows");
    std::vector<std::vector<double>> parsed;
    for (const auto& row : rows) {
        std::vector<double> cells;
        for (const auto& cell : split_csv(row)) {
            const auto v = util::parse_double(cell);
            if (!v)
                throw std::runtime_error("--x: malformed number '" + cell +
                                         "'");
            cells.push_back(*v);
        }
        if (!parsed.empty() && cells.size() != parsed.front().size())
            throw std::runtime_error("--x: ragged rows");
        parsed.push_back(std::move(cells));
    }
    linalg::Matrix x(parsed.size(), parsed.front().size());
    for (std::size_t r = 0; r < parsed.size(); ++r)
        for (std::size_t c = 0; c < parsed[r].size(); ++c)
            x(r, c) = parsed[r][c];
    return x;
}

int cmd_query(int argc, char** argv) {
    const std::string host = arg_value(argc, argv, "--host", "127.0.0.1");
    const auto port = size_flag(argc, argv, "--port", "0");
    if (port == 0 || port > 65535) {
        std::fprintf(stderr, "error: query requires --port P\n");
        return 2;
    }
    serve::TcpClient client(host, static_cast<std::uint16_t>(port));

    const std::string file = arg_value(argc, argv, "--file", "");
    std::vector<std::string> request_lines;
    if (!file.empty()) {
        std::ifstream is(file);
        if (!is) {
            std::fprintf(stderr, "error: cannot open '%s'\n", file.c_str());
            return 2;
        }
        std::string line;
        while (std::getline(is, line))
            if (!line.empty()) request_lines.push_back(line);
    } else {
        serve::Request req;
        const std::string op = arg_value(argc, argv, "--op", "ping");
        bool known = false;
        for (serve::Op candidate :
             {serve::Op::kSample, serve::Op::kLogProb, serve::Op::kEstimate,
              serve::Op::kInfo, serve::Op::kListModels, serve::Op::kReload,
              serve::Op::kEvict, serve::Op::kPing, serve::Op::kShutdown}) {
            if (serve::op_name(candidate) == op) {
                req.op = candidate;
                known = true;
            }
        }
        if (!known) {
            std::fprintf(stderr, "error: unknown --op '%s'\n", op.c_str());
            return 2;
        }
        req.id = u64_flag(argc, argv, "--id", "1");
        req.model = arg_value(argc, argv, "--model", "");
        req.seed = u64_flag(argc, argv, "--seed", "0");
        req.n = size_flag(argc, argv, "--n",
                          arg_value(argc, argv, "--nis", "1000"));
        req.case_name = arg_value(argc, argv, "--case", "");
        req.timeout_us = u64_flag(argc, argv, "--timeout-us", "0");
        const std::string points = arg_value(argc, argv, "--x", "");
        if (!points.empty()) req.x = parse_points(points);
        request_lines.push_back(req.encode());
    }

    const auto responses = client.pipeline_raw(request_lines);
    bool all_ok = true;
    for (const auto& line : responses) {
        std::printf("%s\n", line.c_str());
        const auto res = serve::Response::decode(line);
        all_ok = all_ok && res.ok;
    }
    return all_ok ? 0 : 1;
}

void usage() {
    std::fprintf(
        stderr,
        "usage: nofis_cli <list|estimate|levels|train|run|reuse|info|serve"
        "|query|cache-info|cache-compact>"
        " [options] [--threads N] [--kernels auto|scalar|simd]"
        " [--metrics-out FILE.json]\n"
        "(see the header of apps/nofis_cli.cpp)\n");
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        usage();
        return 1;
    }
    apply_threads_flag(argc, argv);
    apply_kernels_flag(argc, argv);
    MetricsSession metrics(argc, argv);
    const std::string cmd = argv[1];
    int rc = -1;
    try {
        if (cmd == "list") rc = cmd_list();
        if (cmd == "estimate") rc = cmd_estimate(argc, argv);
        if (cmd == "levels") rc = cmd_levels(argc, argv);
        // `run` is the checkpoint-era alias for `train` (ISSUE 6's
        // "nofis_cli run --checkpoint-dir D --resume" spelling); both
        // accept the same flags.
        if (cmd == "train" || cmd == "run") rc = cmd_train(argc, argv);
        if (cmd == "reuse") rc = cmd_reuse(argc, argv);
        if (cmd == "info") rc = cmd_info(argc, argv);
        if (cmd == "serve") rc = cmd_serve(argc, argv);
        if (cmd == "query") rc = cmd_query(argc, argv);
        if (cmd == "cache-info") rc = cmd_cache_info(argc, argv);
        if (cmd == "cache-compact") rc = cmd_cache_compact(argc, argv);
    } catch (const std::exception& e) {
        // Uniform failure contract with the strict flag parsing: any
        // diagnosed error (missing .nofisflow file, malformed model,
        // unreachable server, ...) prints its message and exits 2 instead
        // of escaping as an uncaught exception.
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
    if (rc < 0) {
        usage();
        return 1;
    }
    if (!metrics.finish() && rc == 0) rc = 1;
    return rc;
}
