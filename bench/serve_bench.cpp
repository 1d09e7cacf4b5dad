// Throughput harness for the serving stack, in two modes.
//
// In-process (default): drives a BatchScheduler to saturation through the
// serve::Client (no sockets, so the number measured is the scheduler + flow
// math, not loopback TCP) and reports requests/sec plus request-latency
// percentiles. With --metrics-out the figures land in the telemetry record
// as serve.throughput_rps / serve.latency_p{50,95,99}_ms alongside the
// scheduler's own batch counters.
//
//   ./bench/serve_bench --clients 8 --requests 500 --n 8 --max-batch-rows 0
//       --threads 0 --metrics-out serve_metrics.json
//
// Worker sweep (--workers "1,2,4"): for each worker count W starts an
// in-process serve::Server with W scheduler shards (DESIGN.md §15) and
// drives it over loopback TCP with a fixed, deterministic request schedule
// across eight models chosen so every sweep keeps the shards evenly loaded
// (the model names' routing residues balance for W in {1,2,4}). The shared
// pool gets max(1, hw_threads / W) lanes. The run FAILs (exit 1) when
//   * any request fails,
//   * any served byte differs from the first sweep's (the 1-worker
//     reference) — W shards must serve exactly a single scheduler's bytes,
//   * on a host with >= 8 hardware threads, the 4-worker sweep moves fewer
//     than 3x the rows/s of the 1-worker sweep.
//
// Each client issues `--requests` sample requests with a sliding window of
// outstanding futures. The scheduler batches whatever queued while its
// previous batch ran (up to --max-batch-rows, 0 = its default cap), so the
// window sets how much there is to coalesce; it stays below the bounded
// queue.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "flow/serialize.hpp"
#include "rng/engine.hpp"
#include "serve/model_registry.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "serve/tcp_client.hpp"

namespace {

using namespace nofis;
using Clock = std::chrono::steady_clock;

/// Writes a freshly initialised stack into `dir` under each `name` when the
/// user did not point --models at real trained proposals. All names share
/// one architecture and seed: the sweep compares bytes across worker
/// counts, not across models.
void write_default_models(const std::string& dir, std::size_t dim,
                          const std::vector<std::string>& names) {
    std::filesystem::create_directories(dir);
    flow::StackConfig cfg;
    cfg.dim = dim;
    cfg.num_blocks = 4;
    cfg.layers_per_block = 4;
    cfg.hidden = {32, 32};
    rng::Engine eng(2024);
    const flow::CouplingStack stack(cfg, eng);
    for (const auto& name : names)
        flow::save_stack(stack, dir + "/" + name + ".nofisflow");
}

double percentile(std::vector<double>& sorted_ms, double q) {
    if (sorted_ms.empty()) return 0.0;
    const std::size_t idx = std::min(
        sorted_ms.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(sorted_ms.size())));
    return sorted_ms[idx];
}

struct ClientStats {
    std::size_t ok = 0;
    std::size_t failed = 0;
    std::vector<double> latency_ms;       ///< one per completed request
    std::vector<std::string> responses;   ///< raw lines, request order
};

ClientStats run_client(serve::BatchScheduler& scheduler, std::size_t requests,
                       std::size_t rows, std::uint64_t seed_base,
                       std::size_t window) {
    serve::Client client(scheduler);
    ClientStats stats;
    stats.latency_ms.reserve(requests);
    std::vector<std::future<serve::Response>> outstanding;
    std::deque<Clock::time_point> submitted;
    outstanding.reserve(window);
    const auto drain_one = [&] {
        const serve::Response res = outstanding.front().get();
        outstanding.erase(outstanding.begin());
        // Latency as a windowed client sees it: submit -> response in hand
        // (responses drain in request order, like the wire protocol).
        stats.latency_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      submitted.front())
                .count());
        submitted.pop_front();
        if (res.ok)
            ++stats.ok;
        else
            ++stats.failed;
    };
    for (std::size_t i = 0; i < requests; ++i) {
        serve::Request req;
        req.id = i + 1;
        req.op = serve::Op::kSample;
        req.model = "bench";
        req.seed = seed_base + i;
        req.n = rows;
        submitted.push_back(Clock::now());
        outstanding.push_back(client.async(std::move(req)));
        if (outstanding.size() >= window) drain_one();
    }
    while (!outstanding.empty()) drain_one();
    return stats;
}

// ---------------------------------------------------------------------------
// Worker sweep
// ---------------------------------------------------------------------------

/// Model names whose FNV-1a routing residues are balanced for 1, 2 and 4
/// workers: m0..m7 hit residues {0,3,2,1,0,3,2,1} mod 4 and alternate
/// perfectly mod 2, so every sweep loads each shard equally.
std::vector<std::string> sweep_models() {
    std::vector<std::string> names;
    for (int i = 0; i < 8; ++i) names.push_back("m" + std::to_string(i));
    return names;
}

/// One TCP client: `requests` pipelined sample requests against `model`
/// with a deterministic id/seed schedule (identical across sweeps, so the
/// response bytes must be identical too).
ClientStats run_tcp_client(std::uint16_t port, const std::string& model,
                           std::size_t requests, std::size_t rows,
                           std::uint64_t seed_base, std::size_t window) {
    serve::TcpClient client("127.0.0.1", port);
    ClientStats stats;
    stats.latency_ms.reserve(requests);
    stats.responses.reserve(requests);
    std::deque<Clock::time_point> sent;
    const auto recv_one = [&] {
        const std::string line = client.recv_line();
        stats.latency_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      sent.front())
                .count());
        sent.pop_front();
        if (serve::Response::decode(line).ok)
            ++stats.ok;
        else
            ++stats.failed;
        stats.responses.push_back(line);
    };
    for (std::size_t i = 0; i < requests; ++i) {
        serve::Request req;
        req.id = i + 1;
        req.op = serve::Op::kSample;
        req.model = model;
        req.seed = seed_base + i;
        req.n = rows;
        client.send_line(req.encode());
        sent.push_back(Clock::now());
        if (sent.size() >= window) recv_one();
    }
    while (!sent.empty()) recv_one();
    return stats;
}

struct SweepResult {
    std::size_t workers = 0;
    double seconds = 0.0;
    double rows_per_sec = 0.0;
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;
    std::size_t ok = 0, failed = 0;
    std::vector<std::vector<std::string>> responses;  ///< per client
};

SweepResult run_sweep(const std::string& model_dir, std::size_t workers,
                      std::size_t clients, std::size_t requests,
                      std::size_t rows, std::uint64_t seed,
                      std::size_t window) {
    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    // Split the host's threads across the shards so every sweep uses the
    // same hardware budget; the speedup measured is the sharding's, not an
    // artifact of oversubscription.
    parallel::set_num_threads(std::max<std::size_t>(1, hw / workers));
    serve::ServerConfig cfg;
    cfg.model_dir = model_dir;
    cfg.workers = workers;
    serve::Server server(cfg);

    const std::vector<std::string> models = sweep_models();
    {
        // Warm the registry (model load is lazy) outside the timed region.
        serve::TcpClient warm("127.0.0.1", server.port());
        for (const auto& m : models) {
            serve::Request req;
            req.id = 1;
            req.op = serve::Op::kSample;
            req.model = m;
            req.seed = seed;
            req.n = 1;
            warm.call_raw(req.encode());
        }
    }

    SweepResult result;
    result.workers = workers;
    const auto start = Clock::now();
    std::vector<std::future<ClientStats>> futures;
    futures.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c)
        futures.push_back(std::async(std::launch::async, [&, c] {
            return run_tcp_client(server.port(), models[c % models.size()],
                                  requests, rows, seed + 1'000'000 * (c + 1),
                                  window);
        }));
    std::vector<double> latencies;
    for (auto& f : futures) {
        ClientStats s = f.get();
        result.ok += s.ok;
        result.failed += s.failed;
        latencies.insert(latencies.end(), s.latency_ms.begin(),
                         s.latency_ms.end());
        result.responses.push_back(std::move(s.responses));
    }
    result.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    server.shutdown();

    const double issued = static_cast<double>(clients * requests);
    result.rows_per_sec = result.seconds > 0.0
                              ? issued * static_cast<double>(rows) /
                                    result.seconds
                              : 0.0;
    std::sort(latencies.begin(), latencies.end());
    result.p50 = percentile(latencies, 0.50);
    result.p95 = percentile(latencies, 0.95);
    result.p99 = percentile(latencies, 0.99);
    return result;
}

int run_sweep_mode(int argc, char** argv, const std::string& workers_csv,
                   bench::MetricsSession& metrics) {
    using bench::size_flag;
    using bench::u64_flag;

    std::vector<std::size_t> worker_counts;
    for (const auto& tok : bench::split_csv(workers_csv)) {
        const auto parsed = util::parse_u64(tok);
        if (!parsed || *parsed == 0) {
            std::fprintf(stderr,
                         "error: invalid value '%s' for --workers "
                         "(expected e.g. \"1,2,4\")\n",
                         workers_csv.c_str());
            return 2;
        }
        worker_counts.push_back(static_cast<std::size_t>(*parsed));
    }

    const std::size_t clients = size_flag(argc, argv, "--clients", "8");
    const std::size_t requests = size_flag(argc, argv, "--requests", "100");
    const std::size_t rows = size_flag(argc, argv, "--n", "8");
    const std::size_t window = size_flag(argc, argv, "--window", "32");
    const std::size_t dim = size_flag(argc, argv, "--dim", "6");
    const std::uint64_t seed = u64_flag(argc, argv, "--seed", "17");

    const std::string model_dir =
        (std::filesystem::temp_directory_path() /
         ("nofis_serve_bench_" + std::to_string(::getpid())))
            .string();
    write_default_models(model_dir, dim, sweep_models());

    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    std::printf("serve_bench: worker sweep workers={%s} clients=%zu "
                "requests=%zu rows=%zu hw_threads=%zu\n",
                workers_csv.c_str(), clients, requests, rows, hw);

    std::vector<SweepResult> results;
    for (const std::size_t w : worker_counts) {
        results.push_back(
            run_sweep(model_dir, w, clients, requests, rows, seed, window));
        const SweepResult& r = results.back();
        std::printf("serve_bench: workers=%zu ok=%zu failed=%zu wall=%.3fs "
                    "rows/s=%.0f p50=%.2fms p95=%.2fms p99=%.2fms\n",
                    r.workers, r.ok, r.failed, r.seconds, r.rows_per_sec,
                    r.p50, r.p95, r.p99);
        const std::string prefix =
            "serve.w" + std::to_string(r.workers) + ".";
        telemetry::metric(prefix + "rows_per_sec", r.rows_per_sec);
        telemetry::metric(prefix + "latency_p50_ms", r.p50);
        telemetry::metric(prefix + "latency_p95_ms", r.p95);
        telemetry::metric(prefix + "latency_p99_ms", r.p99);
    }

    bool failed = false;
    for (const auto& r : results)
        if (r.failed > 0) {
            std::printf("serve_bench: FAIL: %zu request(s) failed at "
                        "workers=%zu\n",
                        r.failed, r.workers);
            failed = true;
        }

    // Byte identity across worker counts: every sweep must serve exactly
    // the bytes of the first (the 1-worker reference when the sweep list
    // starts at 1).
    for (std::size_t s = 1; s < results.size(); ++s) {
        if (results[s].responses != results[0].responses) {
            std::printf("serve_bench: FAIL: served bytes at workers=%zu "
                        "differ from the workers=%zu reference\n",
                        results[s].workers, results[0].workers);
            failed = true;
        }
    }
    if (results.size() > 1 && !failed)
        std::printf("serve_bench: served bytes identical across worker "
                    "counts\n");

    // Throughput criterion: 4 workers must move >= 3x the rows/s of 1
    // worker — on hardware that can actually host 4 busy workers.
    const auto find = [&](std::size_t w) -> const SweepResult* {
        for (const auto& r : results)
            if (r.workers == w) return &r;
        return nullptr;
    };
    const SweepResult* one = find(1);
    const SweepResult* four = find(4);
    if (one != nullptr && four != nullptr) {
        const double speedup = one->rows_per_sec > 0.0
                                   ? four->rows_per_sec / one->rows_per_sec
                                   : 0.0;
        telemetry::metric("serve.speedup_w4_over_w1", speedup);
        if (hw >= 8) {
            std::printf("serve_bench: speedup(4 workers / 1 worker) = "
                        "%.2fx (require >= 3x)\n",
                        speedup);
            if (speedup < 3.0) {
                std::printf("serve_bench: FAIL: 4-worker throughput below "
                            "3x single-worker\n");
                failed = true;
            }
        } else {
            std::printf("serve_bench: speedup(4/1) = %.2fx (3x check "
                        "skipped: %zu hw thread(s) < 8)\n",
                        speedup, hw);
        }
    }

    std::error_code ec;
    std::filesystem::remove_all(model_dir, ec);
    if (!metrics.finish()) return 1;
    return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace nofis;
    using bench::size_flag;
    using bench::u64_flag;

    bench::MetricsSession metrics(argc, argv);
    bench::apply_threads_flag(argc, argv);
    bench::apply_kernels_flag(argc, argv);

    const std::string workers_csv =
        bench::arg_value(argc, argv, "--workers", "");
    if (!workers_csv.empty())
        return run_sweep_mode(argc, argv, workers_csv, metrics);

    const std::size_t clients = size_flag(argc, argv, "--clients", "8");
    const std::size_t requests = size_flag(argc, argv, "--requests", "500");
    const std::size_t rows = size_flag(argc, argv, "--n", "8");
    const std::size_t window = size_flag(argc, argv, "--window", "64");
    const std::size_t dim = size_flag(argc, argv, "--dim", "6");
    const std::uint64_t seed = u64_flag(argc, argv, "--seed", "17");

    std::string model_dir = bench::arg_value(argc, argv, "--models", "");
    if (model_dir.empty()) {
        model_dir = std::filesystem::temp_directory_path() /
                    ("nofis_serve_bench_" + std::to_string(::getpid()));
        write_default_models(model_dir, dim, {"bench"});
    }

    serve::SchedulerConfig cfg;
    cfg.max_batch_rows = size_flag(argc, argv, "--max-batch-rows", "0");
    cfg.max_queue = size_flag(argc, argv, "--max-queue", "4096");

    serve::ModelRegistry registry(model_dir);
    try {
        registry.get("bench");  // load outside the timed region
    } catch (const std::exception& e) {
        std::fprintf(stderr, "serve_bench: cannot load model 'bench' from %s: %s\n",
                     model_dir.c_str(), e.what());
        return 1;
    }
    serve::BatchScheduler scheduler(registry, cfg);

    const auto start = Clock::now();
    std::vector<std::future<ClientStats>> workers;
    workers.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c)
        workers.push_back(std::async(std::launch::async, [&, c] {
            return run_client(scheduler, requests, rows,
                              seed + 1'000'000 * (c + 1), window);
        }));
    ClientStats total;
    std::vector<double> latencies;
    for (auto& w : workers) {
        ClientStats s = w.get();
        total.ok += s.ok;
        total.failed += s.failed;
        latencies.insert(latencies.end(), s.latency_ms.begin(),
                         s.latency_ms.end());
    }
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    scheduler.stop();

    const double issued = static_cast<double>(clients * requests);
    const double rps = seconds > 0.0 ? issued / seconds : 0.0;
    const double rows_per_sec = rps * static_cast<double>(rows);
    std::sort(latencies.begin(), latencies.end());
    const double p50 = percentile(latencies, 0.50);
    const double p95 = percentile(latencies, 0.95);
    const double p99 = percentile(latencies, 0.99);
    std::printf(
        "serve_bench: clients=%zu requests=%zu rows=%zu window=%zu "
        "max_batch_rows=%zu threads=%zu kernels=%s backend=%s\n",
        clients, requests, rows, window, scheduler.config().max_batch_rows,
        parallel::num_threads(), linalg::kernels::choice_name(),
        linalg::kernels::simd_backend());
    std::printf("serve_bench: ok=%zu failed=%zu wall=%.3fs\n", total.ok,
                total.failed, seconds);
    std::printf("serve_bench: throughput=%.0f req/s (%.0f rows/s)\n", rps,
                rows_per_sec);
    std::printf("serve_bench: latency p50=%.2fms p95=%.2fms p99=%.2fms\n",
                p50, p95, p99);

    telemetry::metric("serve.throughput_rps", rps);
    telemetry::metric("serve.throughput_rows_per_sec", rows_per_sec);
    telemetry::metric("serve.bench_wall_seconds", seconds);
    telemetry::metric("serve.latency_p50_ms", p50);
    telemetry::metric("serve.latency_p95_ms", p95);
    telemetry::metric("serve.latency_p99_ms", p99);
    telemetry::count("serve.bench_requests_ok", total.ok);
    if (!metrics.finish()) return 1;
    return total.failed == 0 ? 0 : 1;
}
