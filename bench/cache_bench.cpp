// Evaluation-cache micro-benchmark: runs each (method, case) cell twice
// against one shared evalcache::EvalCache — a cold pass that populates it
// and a warm pass that replays the identical seeds — and reports the warm
// hit rate and wall-clock speedup next to an uncached reference pass.
//
//   ./bench/cache_bench [--methods MC,SUS] [--cases Leaf,Rosen]
//       [--repeats 2] [--seed 1] [--cache-mem-mb 64] [--cache-dir DIR]
//       [--threads N] [--metrics-out cache_metrics.json]
//
// The bench doubles as a regression check: estimates must be bitwise
// identical across the uncached, cold and warm passes (g is pure), and the
// warm pass of a sufficiently large cache must serve every arrival. Any
// violation exits nonzero so run_benches.sh flags it.
//
// With --metrics-out the headline numbers land in the telemetry record as
// cache.hit_rate / cache.warm_speedup metrics alongside the cache's own
// hit/miss/eviction counters.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace nofis;
using namespace nofis::bench;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
    apply_threads_flag(argc, argv);
    apply_kernels_flag(argc, argv);
    MetricsSession metrics(argc, argv);

    const auto methods =
        split_csv(arg_value(argc, argv, "--methods", "MC,SUS"));
    const auto cases = split_csv(arg_value(argc, argv, "--cases", "Leaf"));
    const auto repeats = size_flag(argc, argv, "--repeats", "2", 1);
    const auto seed = u64_flag(argc, argv, "--seed", "1");
    const auto mem_mb = size_flag(argc, argv, "--cache-mem-mb", "256");
    const std::string dir = arg_value(argc, argv, "--cache-dir", "");

    evalcache::CacheConfig ccfg;
    ccfg.mem_bytes = mem_mb << 20;
    ccfg.dir = dir;
    const auto cache = std::make_shared<evalcache::EvalCache>(ccfg);

    std::printf("%-8s %-10s %10s %10s %10s %9s %9s\n", "method", "case",
                "nocache_s", "cold_s", "warm_s", "speedup", "hit_rate");

    bool ok = true;
    double worst_hit_rate = 1.0;
    double total_nocache = 0.0, total_warm = 0.0;
    for (const auto& method : methods) {
        for (const auto& case_name : cases) {
            const auto& tc = testcases::CaseFactory::global().get(case_name);

            const auto t0 = Clock::now();
            const auto plain = run_cell(method, tc, repeats, seed);
            const double nocache_s = seconds_since(t0);

            const auto t1 = Clock::now();
            const auto cold = run_cell(method, tc, repeats, seed, cache);
            const double cold_s = seconds_since(t1);

            const auto t2 = Clock::now();
            const auto warm = run_cell(method, tc, repeats, seed, cache);
            const double warm_s = seconds_since(t2);

            // Estimates are a pure function of (method, case, seed): the
            // cache may only change where values come from, never what
            // they are.
            if (plain.mean_log_error != cold.mean_log_error ||
                plain.mean_log_error != warm.mean_log_error ||
                plain.mean_calls != warm.mean_calls) {
                std::fprintf(stderr,
                             "FAIL: %s/%s results differ across cache "
                             "states\n",
                             method.c_str(), case_name.c_str());
                ok = false;
            }
            const double hit_rate =
                warm.mean_calls > 0.0 ? warm.mean_cached_calls / warm.mean_calls
                                      : 0.0;
            if (hit_rate < worst_hit_rate) worst_hit_rate = hit_rate;
            total_nocache += nocache_s;
            total_warm += warm_s;

            std::printf("%-8s %-10s %10.3f %10.3f %10.3f %8.2fx %8.1f%%\n",
                        method.c_str(), case_name.c_str(), nocache_s, cold_s,
                        warm_s, warm_s > 0.0 ? nocache_s / warm_s : 0.0,
                        100.0 * hit_rate);
        }
    }

    const double speedup = total_warm > 0.0 ? total_nocache / total_warm : 0.0;
    std::printf("overall: %.2fx warm speedup, worst hit rate %.1f%%\n",
                speedup, 100.0 * worst_hit_rate);
    std::printf(
        "(closed-form synthetic g costs less than a cache probe, so a "
        "speedup < 1x here is\n expected — the cache pays off when g is a "
        "real simulation; hit rate is the signal.)\n");
    telemetry::metric("cache.hit_rate", worst_hit_rate);
    telemetry::metric("cache.warm_speedup", speedup);

    // The synthetic cases replay their exact seeds, so a warm pass under an
    // adequate memory budget must be all hits.
    if (worst_hit_rate < 1.0) {
        std::fprintf(stderr,
                     "FAIL: warm pass was not fully served from the cache "
                     "(worst hit rate %.3f)\n",
                     worst_hit_rate);
        ok = false;
    }
    if (!metrics.finish()) ok = false;
    return ok ? 0 : 1;
}
