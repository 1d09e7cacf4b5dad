#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace nofis::parallel {

namespace {

/// True while the current thread is executing inside a parallel region;
/// nested parallel_for calls fall back to inline execution.
thread_local bool t_in_parallel_region = false;

/// ThreadPool::run's contract with every lane on the calling thread: each
/// body runs once, in lane order, and the lowest lane's exception is
/// rethrown after all of them ran.
void run_lanes_inline(std::size_t lanes,
                      const std::function<void(std::size_t)>& body) {
    std::exception_ptr first;
    const bool was_inside = t_in_parallel_region;
    t_in_parallel_region = true;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
        try {
            body(lane);
        } catch (...) {
            if (!first) first = std::current_exception();
        }
    }
    t_in_parallel_region = was_inside;
    if (first) std::rethrow_exception(first);
}

}  // namespace

std::size_t hardware_threads() noexcept {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<std::size_t>(n);
}

struct ThreadPool::Impl {
    std::mutex run_mutex;  ///< held by the caller whose job owns the workers
    std::mutex m;
    std::condition_variable cv_work;
    std::condition_variable cv_done;
    const std::function<void(std::size_t)>* body = nullptr;
    std::uint64_t generation = 0;
    std::size_t pending = 0;
    bool shutdown = false;
    std::vector<std::exception_ptr> lane_error;
    std::vector<std::thread> workers;

    // Utilisation telemetry. Counters are relaxed (snapshot-consistent is
    // enough for a metrics record); busy-time clock reads happen only while
    // a trace is active, keeping the off mode free of timing syscalls.
    std::atomic<std::uint64_t> jobs{0};
    std::atomic<std::uint64_t> tasks{0};
    std::vector<std::atomic<std::uint64_t>> lane_busy_ns;

    /// Runs one lane body, tallying task count and (if telemetry is on)
    /// the lane's busy wall-clock. Never lets an exception escape past the
    /// lane_error slot.
    void run_lane(const std::function<void(std::size_t)>& job,
                  std::size_t lane) {
        const bool timed = telemetry::active() != nullptr;
        const auto t0 = timed ? std::chrono::steady_clock::now()
                              : std::chrono::steady_clock::time_point{};
        tasks.fetch_add(1, std::memory_order_relaxed);
        try {
            job(lane);
        } catch (...) {
            lane_error[lane] = std::current_exception();
        }
        if (timed) {
            const auto dt = std::chrono::steady_clock::now() - t0;
            lane_busy_ns[lane].fetch_add(
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                        .count()),
                std::memory_order_relaxed);
        }
    }

    void worker_loop(std::size_t lane) {
        std::uint64_t seen = 0;
        for (;;) {
            const std::function<void(std::size_t)>* job = nullptr;
            {
                std::unique_lock lock(m);
                cv_work.wait(lock, [&] {
                    return shutdown || generation != seen;
                });
                if (shutdown) return;
                seen = generation;
                job = body;
            }
            t_in_parallel_region = true;
            run_lane(*job, lane);
            t_in_parallel_region = false;
            {
                std::lock_guard lock(m);
                if (--pending == 0) cv_done.notify_one();
            }
        }
    }
};

ThreadPool::ThreadPool(std::size_t lanes)
    : lanes_(lanes == 0 ? 1 : lanes), impl_(std::make_unique<Impl>()) {
    impl_->lane_error.resize(lanes_);
    impl_->lane_busy_ns = std::vector<std::atomic<std::uint64_t>>(lanes_);
    impl_->workers.reserve(lanes_ - 1);
    for (std::size_t lane = 1; lane < lanes_; ++lane)
        impl_->workers.emplace_back([this, lane] { impl_->worker_loop(lane); });
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard lock(impl_->m);
        impl_->shutdown = true;
    }
    impl_->cv_work.notify_all();
    for (auto& w : impl_->workers) w.join();
}

void ThreadPool::run(const std::function<void(std::size_t)>& body) {
    std::unique_lock run_lock(impl_->run_mutex, std::try_to_lock);
    if (!run_lock.owns_lock()) {
        // Another caller's job holds the workers: run every lane here
        // instead of waiting for them. Same per-lane bodies, so the same
        // results (§8.2), and no caller ever blocks on another.
        run_lanes_inline(lanes_, body);
        return;
    }
    impl_->jobs.fetch_add(1, std::memory_order_relaxed);
    for (auto& e : impl_->lane_error) e = nullptr;
    if (lanes_ > 1) {
        std::lock_guard lock(impl_->m);
        impl_->body = &body;
        impl_->pending = lanes_ - 1;
        ++impl_->generation;
        impl_->cv_work.notify_all();
    }
    const bool was_inside = t_in_parallel_region;
    t_in_parallel_region = true;
    impl_->run_lane(body, 0);
    t_in_parallel_region = was_inside;
    if (lanes_ > 1) {
        std::unique_lock lock(impl_->m);
        impl_->cv_done.wait(lock, [&] { return impl_->pending == 0; });
        impl_->body = nullptr;
    }
    for (const auto& e : impl_->lane_error)
        if (e) std::rethrow_exception(e);
}

namespace {

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;

std::size_t default_lanes() {
    if (const char* env = std::getenv("NOFIS_THREADS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v > 0) return static_cast<std::size_t>(v);
    }
    return hardware_threads();
}

/// The global pool, created on first use.
ThreadPool& global_pool() {
    std::lock_guard lock(g_pool_mutex);
    if (!g_pool) g_pool = std::make_unique<ThreadPool>(default_lanes());
    return *g_pool;
}

}  // namespace

std::size_t num_threads() { return global_pool().lanes(); }

void set_num_threads(std::size_t lanes) {
    const std::size_t want = lanes == 0 ? default_lanes() : lanes;
    std::lock_guard lock(g_pool_mutex);
    if (g_pool && g_pool->lanes() == want) return;
    g_pool = std::make_unique<ThreadPool>(want);
}

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& body) {
    if (n == 0) return;
    if (t_in_parallel_region) {  // nested: degrade to inline
        body(0, n);
        return;
    }
    ThreadPool& pool = global_pool();
    const std::size_t lanes = std::min(pool.lanes(), n);
    if (lanes <= 1) {
        body(0, n);
        return;
    }
    pool.run([&](std::size_t lane) {
        if (lane >= lanes) return;
        const std::size_t begin = lane * n / lanes;
        const std::size_t end = (lane + 1) * n / lanes;
        if (begin < end) body(begin, end);
    });
}

void rethrow_first(std::span<const std::exception_ptr> errors) {
    for (const auto& e : errors)
        if (e) std::rethrow_exception(e);
}

PoolStats ThreadPool::stats() const {
    PoolStats s;
    s.lanes = lanes_;
    s.jobs = impl_->jobs.load(std::memory_order_relaxed);
    s.tasks = impl_->tasks.load(std::memory_order_relaxed);
    s.lane_busy_ms.reserve(lanes_);
    for (const auto& ns : impl_->lane_busy_ns)
        s.lane_busy_ms.push_back(
            static_cast<double>(ns.load(std::memory_order_relaxed)) / 1e6);
    return s;
}

PoolStats pool_stats() { return global_pool().stats(); }

void export_pool_stats(telemetry::RunTrace& trace) {
    const PoolStats s = pool_stats();
    trace.add_counter("pool.jobs", s.jobs);
    trace.add_counter("pool.tasks", s.tasks);
    trace.set_metric("pool.lanes", static_cast<double>(s.lanes));
    double total_ms = 0.0;
    for (std::size_t lane = 0; lane < s.lane_busy_ms.size(); ++lane) {
        trace.set_metric("pool.lane" + std::to_string(lane) + ".busy_ms",
                         s.lane_busy_ms[lane]);
        total_ms += s.lane_busy_ms[lane];
    }
    trace.set_metric("pool.busy_ms", total_ms);
}

}  // namespace nofis::parallel
