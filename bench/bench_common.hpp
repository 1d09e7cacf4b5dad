#pragma once

// Shared glue for the experiment harnesses in bench/: builds each method's
// estimator from a test case's per-case budgets, runs repeated estimates,
// and aggregates the Table-1 metrics (mean calls, mean |log error|).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/nofis.hpp"
#include "estimators/latent_explore_is.hpp"
#include "evalcache/cached_problem.hpp"
#include "evalcache/eval_cache.hpp"
#include "linalg/kernels/kernels.hpp"
#include "parallel/thread_pool.hpp"
#include "telemetry/telemetry.hpp"
#include "util/atomic_file.hpp"
#include "util/parse.hpp"
#include "estimators/adaptive_is.hpp"
#include "estimators/monte_carlo.hpp"
#include "estimators/sir.hpp"
#include "estimators/sss.hpp"
#include "estimators/suc.hpp"
#include "estimators/sus.hpp"
#include "testcases/case_factory.hpp"
#include "testcases/registry.hpp"

namespace nofis::bench {

using testcases::nofis_config_from_budget;

inline std::vector<std::string> all_method_names() {
    return {"MC", "SIR", "SUC", "SUS", "SSS", "Adapt-IS", "NOFIS"};
}

/// True for the NOFIS-family methods ("NOFIS", "NOFIS-LE", ...) that wire
/// the evaluation cache through their own config instead of an external
/// CachedProblem wrapper.
inline bool nofis_family(const std::string& method) {
    return method.rfind("NOFIS", 0) == 0;
}

/// Parses a --coupling flag value; throws (CLI exit 2) on anything else.
inline flow::CouplingKind parse_coupling(const std::string& name) {
    if (name == "affine") return flow::CouplingKind::kAffine;
    if (name == "additive") return flow::CouplingKind::kAdditive;
    if (name == "rqs") return flow::CouplingKind::kRqs;
    throw std::invalid_argument("unknown coupling '" + name +
                                "' (expected affine|additive|rqs)");
}

/// Builds the estimator for `method` sized by the case's budgets. A non-null
/// `cache` is wired into NOFIS's config (the estimator composes
/// Guarded(Cached(g)) internally); the baselines take it at the call site —
/// see run_cell — because their problem is wrapped externally.
/// `coupling_override`: non-empty forces the NOFIS flow's coupling family
/// ("affine" | "additive" | "rqs"); ignored by the baseline methods.
/// `latent`: non-null tunes the latent-exploration knobs of "NOFIS" /
/// "NOFIS-LE" (the latter always explores; for plain "NOFIS" the config's
/// own `enabled` decides). Ignored by the baselines.
inline std::unique_ptr<estimators::Estimator> make_estimator(
    const std::string& method, const testcases::TestCase& tc,
    std::shared_ptr<evalcache::EvalCache> cache = nullptr,
    const std::string& coupling_override = "",
    const latent::LatentConfig* latent = nullptr) {
    const auto bb = tc.baseline_budget();
    if (method == "MC")
        return std::make_unique<estimators::MonteCarloEstimator>(
            estimators::MonteCarloEstimator::Config{bb.mc_samples, 8192});
    if (method == "SIR") {
        estimators::SirEstimator::Config cfg;
        cfg.train_samples = bb.sir_train_samples;
        cfg.surrogate_evals = bb.sir_surrogate_evals;
        return std::make_unique<estimators::SirEstimator>(cfg);
    }
    if (method == "SUC") {
        estimators::SubsetClassificationEstimator::Config cfg;
        cfg.samples_per_level = bb.suc_samples_per_level;
        cfg.max_levels = bb.suc_max_levels;
        return std::make_unique<estimators::SubsetClassificationEstimator>(cfg);
    }
    if (method == "SUS") {
        estimators::SubsetSimulationEstimator::Config cfg;
        cfg.samples_per_level = bb.sus_samples_per_level;
        cfg.max_levels = bb.sus_max_levels;
        return std::make_unique<estimators::SubsetSimulationEstimator>(cfg);
    }
    if (method == "SSS") {
        estimators::ScaledSigmaEstimator::Config cfg;
        cfg.total_samples = bb.sss_total_samples;
        return std::make_unique<estimators::ScaledSigmaEstimator>(cfg);
    }
    if (method == "Adapt-IS") {
        estimators::AdaptiveIsEstimator::Config cfg;
        cfg.iterations = bb.ais_iterations;
        cfg.samples_per_iteration = bb.ais_samples_per_iteration;
        cfg.final_samples = bb.ais_final_samples;
        return std::make_unique<estimators::AdaptiveIsEstimator>(cfg);
    }
    if (nofis_family(method)) {
        const auto nb = tc.nofis_budget();
        auto cfg = nofis_config_from_budget(nb);
        if (!coupling_override.empty())
            cfg.coupling = parse_coupling(coupling_override);
        if (latent != nullptr) cfg.latent = *latent;
        if (cache) {
            cfg.cache = std::move(cache);
            cfg.cache_key = testcases::cache_key(tc);
        }
        if (method == "NOFIS-LE")
            return std::make_unique<estimators::LatentExploreIs>(
                std::move(cfg), core::LevelSchedule::manual(nb.levels));
        if (method == "NOFIS")
            return std::make_unique<core::NofisEstimator>(
                std::move(cfg), core::LevelSchedule::manual(nb.levels));
    }
    throw std::invalid_argument("make_estimator: unknown method " + method);
}

struct CellResult {
    double mean_calls = 0.0;
    /// Mean g-calls served from the evaluation cache (0 without a cache).
    /// Fresh simulator work per run is mean_calls - mean_cached_calls.
    double mean_cached_calls = 0.0;
    double mean_log_error = 0.0;
    std::size_t failures = 0;  ///< runs flagged failed ("—" when all fail)
    std::size_t repeats = 0;
};

/// Runs `repeats` independent estimates of `method` on `tc`. A non-null
/// `cache` memoizes g across the repeats (and across cells sharing the
/// cache): NOFIS consults it through its config, the baselines through an
/// external CachedProblem wrapper. Estimates are bitwise identical with the
/// cache off, cold, or warm — only the fresh/cached split moves.
inline CellResult run_cell(const std::string& method,
                           const testcases::TestCase& tc, std::size_t repeats,
                           std::uint64_t seed,
                           std::shared_ptr<evalcache::EvalCache> cache =
                               nullptr) {
    const auto est = make_estimator(method, tc, cache);
    std::unique_ptr<evalcache::CachedProblem> cached;
    const estimators::RareEventProblem* problem = &tc;
    if (cache && !nofis_family(method)) {
        cached = std::make_unique<evalcache::CachedProblem>(
            tc, cache, testcases::cache_key(tc));
        problem = cached.get();
    }
    CellResult cell;
    cell.repeats = repeats;
    for (std::size_t r = 0; r < repeats; ++r) {
        const std::size_t hits_before = cached ? cached->hits() : 0;
        rng::Engine eng(seed + 7919 * r);
        const auto res = est->estimate(*problem, eng);
        // NOFIS accounts its own cached share (and telemetry split) inside
        // run(); the wrapper's hit delta is the baselines' share.
        const std::size_t run_cached =
            cached ? std::min(cached->hits() - hits_before, res.calls)
                   : res.cached_calls;
        if (!nofis_family(method))
            evalcache::report_call_split(res.calls, run_cached);
        if (res.failed) ++cell.failures;
        cell.mean_calls += static_cast<double>(res.calls);
        cell.mean_cached_calls += static_cast<double>(run_cached);
        cell.mean_log_error += estimators::log_error(res.p_hat, tc.golden_pr());
    }
    cell.mean_calls /= static_cast<double>(repeats);
    cell.mean_cached_calls /= static_cast<double>(repeats);
    cell.mean_log_error /= static_cast<double>(repeats);
    return cell;
}

/// "12.3K" style formatting used by the paper's Table 1.
inline std::string format_calls(double calls) {
    char buf[32];
    if (calls >= 1000.0)
        std::snprintf(buf, sizeof(buf), "%.1fK", calls / 1000.0);
    else
        std::snprintf(buf, sizeof(buf), "%.0f", calls);
    return buf;
}

/// Parses "a,b,c" lists from CLI flags.
inline std::vector<std::string> split_csv(const std::string& s) {
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos) {
            out.push_back(s.substr(pos));
            break;
        }
        out.push_back(s.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

/// Minimal flag reader: returns the value following "--name", or fallback.
inline std::string arg_value(int argc, char** argv, const char* name,
                             const std::string& fallback) {
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
    return fallback;
}

/// True when the boolean flag "--name" appears anywhere in argv.
inline bool flag_present(int argc, char** argv, const char* name) {
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], name) == 0) return true;
    return false;
}

/// Strict numeric flag readers. A malformed value ("--repeats abc", "12x",
/// "-3" for a count) is a hard error with a diagnostic and exit code 2 —
/// never a silent 0 that makes the run "succeed" doing nothing.
[[noreturn]] inline void flag_error(const char* name,
                                    const std::string& value) {
    std::fprintf(stderr,
                 "error: invalid value '%s' for %s (expected a number)\n",
                 value.c_str(), name);
    std::exit(2);
}

inline std::size_t size_flag(int argc, char** argv, const char* name,
                             const std::string& fallback) {
    const std::string raw = arg_value(argc, argv, name, fallback);
    const auto parsed = util::parse_u64(raw);
    if (!parsed) flag_error(name, raw);
    return static_cast<std::size_t>(*parsed);
}

inline std::uint64_t u64_flag(int argc, char** argv, const char* name,
                              const std::string& fallback) {
    const std::string raw = arg_value(argc, argv, name, fallback);
    const auto parsed = util::parse_u64(raw);
    if (!parsed) flag_error(name, raw);
    return *parsed;
}

inline double double_flag(int argc, char** argv, const char* name,
                          const std::string& fallback) {
    const std::string raw = arg_value(argc, argv, name, fallback);
    const auto parsed = util::parse_double(raw);
    if (!parsed) flag_error(name, raw);
    return *parsed;
}

/// Reads the --latent-* flags of the latent-space exploration estimator
/// (DESIGN.md §16): `--latent-explore` turns the feature on;
/// `--latent-chains K`, `--latent-steps S`, `--latent-alpha A` and
/// `--latent-anneal linear|geom|none` tune it (all honoured even when the
/// feature is off, for callers that enable it programmatically).
inline latent::LatentConfig latent_config_from_flags(int argc, char** argv) {
    latent::LatentConfig lc;
    lc.enabled = flag_present(argc, argv, "--latent-explore");
    lc.chains = size_flag(argc, argv, "--latent-chains", "8");
    lc.steps = size_flag(argc, argv, "--latent-steps", "40");
    lc.alpha = double_flag(argc, argv, "--latent-alpha", "0.8");
    lc.anneal =
        latent::parse_anneal(arg_value(argc, argv, "--latent-anneal", "linear"));
    return lc;
}

/// Applies a "--threads N" flag (0 / absent = NOFIS_THREADS env or hardware
/// concurrency) to the global evaluation pool. Results are bitwise
/// identical for any value; the flag only changes wall-clock time.
inline void apply_threads_flag(int argc, char** argv) {
    const auto threads = size_flag(argc, argv, "--threads", "0");
    if (threads > 0) parallel::set_num_threads(threads);
}

/// Applies a "--kernels auto|scalar|simd" flag (absent = NOFIS_KERNELS env,
/// then auto). Like --threads the choice never changes results — scalar and
/// simd kernels are bitwise identical (DESIGN.md §13) — only wall-clock.
/// A malformed value is a hard error with exit code 2.
inline void apply_kernels_flag(int argc, char** argv) {
    const std::string raw = arg_value(argc, argv, "--kernels", "");
    if (raw.empty()) return;
    const auto choice = linalg::kernels::parse_choice(raw);
    if (!choice) {
        std::fprintf(
            stderr,
            "error: invalid value '%s' for --kernels (expected auto, scalar "
            "or simd)\n",
            raw.c_str());
        std::exit(2);
    }
    linalg::kernels::set_choice(*choice);
}

/// Builds the shared g-evaluation cache from `--cache-mem-mb N` (in-memory
/// budget, MiB) and `--cache-dir DIR` (optional persistent tier). Returns
/// null when neither flag is given — the zero-cost no-cache path. Like
/// --threads and --metrics-out, the flags never change results: estimates
/// are bitwise identical with the cache off, cold, or warm.
inline std::shared_ptr<evalcache::EvalCache> cache_from_flags(int argc,
                                                              char** argv) {
    const auto mem_mb = size_flag(argc, argv, "--cache-mem-mb", "0");
    const std::string dir = arg_value(argc, argv, "--cache-dir", "");
    if (mem_mb == 0 && dir.empty()) return nullptr;
    evalcache::CacheConfig cfg;
    if (mem_mb > 0) cfg.mem_bytes = mem_mb << 20;
    cfg.dir = dir;
    return std::make_shared<evalcache::EvalCache>(cfg);
}

/// Run telemetry for a whole binary invocation: construct one of these
/// early in main(); when the user passed `--metrics-out FILE.json` it
/// activates a process-global telemetry::RunTrace that the instrumented
/// library code (NofisEstimator::run, GuardedProblem, the thread pool, the
/// tiled matmul) reports into, and finish() — called by the destructor at
/// the latest — appends the pool stats and writes the record as JSON.
/// Without the flag everything stays in the zero-cost off mode.
class MetricsSession {
public:
    MetricsSession(int argc, char** argv)
        : path_(arg_value(argc, argv, "--metrics-out", "")) {
        if (enabled()) telemetry::set_active(&trace_);
    }
    ~MetricsSession() { finish(); }
    MetricsSession(const MetricsSession&) = delete;
    MetricsSession& operator=(const MetricsSession&) = delete;

    bool enabled() const noexcept { return !path_.empty(); }
    telemetry::RunTrace& trace() noexcept { return trace_; }
    const std::string& path() const noexcept { return path_; }

    /// Writes the JSON record (idempotent). Returns false when the file
    /// could not be written; callers that care propagate a nonzero exit.
    /// The write is atomic (temp + fsync + rename), so a crash or injected
    /// I/O fault mid-write never leaves a truncated JSON file where a
    /// previous good one was.
    bool finish() {
        if (!enabled() || finished_) return ok_;
        finished_ = true;
        parallel::export_pool_stats(trace_);
        telemetry::set_active(nullptr);
        try {
            util::AtomicFile file(path_);
            file.stream() << trace_.to_json() << '\n';
            file.commit();
            ok_ = true;
        } catch (const std::exception& e) {
            ok_ = false;
            std::fprintf(stderr, "error: cannot write metrics to '%s': %s\n",
                         path_.c_str(), e.what());
        }
        return ok_;
    }

private:
    std::string path_;
    telemetry::RunTrace trace_;
    bool finished_ = false;
    bool ok_ = true;
};

}  // namespace nofis::bench
