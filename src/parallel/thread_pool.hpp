#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <vector>

namespace nofis::telemetry {
class RunTrace;
}

namespace nofis::parallel {

/// Utilisation snapshot of one pool: fork-join jobs dispatched, lane bodies
/// executed, and cumulative per-lane busy wall-clock. Busy time is sampled
/// only while a telemetry trace is active (two steady_clock reads per lane
/// per job); with telemetry off the pool does no timing at all. The job and
/// task tallies are plain relaxed counters and always on.
struct PoolStats {
    std::size_t lanes = 0;
    std::uint64_t jobs = 0;   ///< ThreadPool::run invocations
    std::uint64_t tasks = 0;  ///< lane bodies executed across all jobs
    std::vector<double> lane_busy_ms;  ///< cumulative busy time per lane
};

/// Number of hardware threads, never less than 1.
std::size_t hardware_threads() noexcept;

/// Fixed-size pool of worker threads executing fork-join jobs.
///
/// A pool of L "lanes" owns L-1 persistent workers; lane 0 always runs on
/// the calling thread, so a 1-lane pool spawns no threads at all. `run`
/// blocks until every lane finished its body. Jobs are not reentrant — a
/// body must not call back into the same pool (parallel_for detects this
/// and degrades to inline execution instead).
class ThreadPool {
public:
    explicit ThreadPool(std::size_t lanes);
    ~ThreadPool();
    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    std::size_t lanes() const noexcept { return lanes_; }

    /// Runs body(lane) once per lane in [0, lanes()); lane 0 executes on
    /// the caller. While another thread's job holds the workers, every lane
    /// runs on the caller instead, one after another, so concurrent callers
    /// never wait for each other. If bodies throw, the exception of the
    /// lowest lane is rethrown after every lane completed.
    void run(const std::function<void(std::size_t)>& body);

    /// Cumulative utilisation of this pool since construction.
    PoolStats stats() const;

private:
    struct Impl;
    std::size_t lanes_;
    std::unique_ptr<Impl> impl_;
};

/// Lanes of the process-global pool (see set_num_threads).
std::size_t num_threads();

/// Resizes the process-global pool. 0 restores the default (the
/// NOFIS_THREADS environment variable if set, else hardware_threads()).
/// Not safe to call concurrently with parallel work in flight.
void set_num_threads(std::size_t lanes);

/// Fork-join loop over [0, n): splits the range into one contiguous,
/// deterministic chunk per lane ([lane*n/L, (lane+1)*n/L)) and runs
/// body(begin, end) for each non-empty chunk on the global pool.
///
/// Determinism contract: chunk boundaries depend on the lane count, so a
/// caller that needs bitwise-identical results across thread counts must
/// (a) write only to disjoint per-index locations inside the body and
/// (b) perform every reduction serially, in index order, after the call
/// returns. All batch evaluation in this repo follows that discipline.
///
/// Nested calls (from inside a body) and calls while another thread holds
/// the pool run inline on the caller — same results, no deadlock.
void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// Rethrows the first (lowest-index) non-null exception, if any.
void rethrow_first(std::span<const std::exception_ptr> errors);

/// The batch-evaluation loop: runs fn(i) for every i in [0, n) on
/// parallel_for's chunks. Every index runs even after another one threw;
/// once all have finished, the exception of the lowest failing index is
/// rethrown, so the surfaced error does not depend on thread count or
/// scheduling. fn must write only to per-index locations.
template <class Fn>
void for_each_index(std::size_t n, Fn&& fn) {
    std::vector<std::exception_ptr> errors(n);
    parallel_for(n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    });
    rethrow_first(errors);
}

/// Utilisation of the process-global pool (created on first use).
PoolStats pool_stats();

/// Dumps pool_stats() into `trace` as counters (pool.jobs, pool.tasks) and
/// metrics (pool.lanes, pool.lane<i>.busy_ms, pool.busy_ms). Called by the
/// metrics exporters right before serialising a run record.
void export_pool_stats(telemetry::RunTrace& trace);

}  // namespace nofis::parallel
