#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "evalcache/eval_cache.hpp"
#include "serve/model_registry.hpp"
#include "serve/protocol.hpp"
#include "testcases/case_factory.hpp"
#include "testcases/testcase.hpp"

namespace nofis::serve {

/// Serving knobs. The default row cap sizes batches to the thread pool so
/// the flow's matmuls run at tile width instead of per-request row counts.
struct SchedulerConfig {
    /// Row cap of one micro-batch (sample draws / log_prob points /
    /// estimate draws). 0 = 2 * max(64, 16 * pool lanes), resolved when
    /// the scheduler is constructed.
    std::size_t max_batch_rows = 0;
    /// Bounded request queue: submissions beyond this complete immediately
    /// with a kQueueFull error (backpressure, never unbounded memory).
    std::size_t max_queue = 1024;

    /// In-memory budget (MiB) of the g-evaluation cache shared by every
    /// estimate request of one scheduler (each Server shard has its own).
    /// 0 together with an empty cache_dir disables the
    /// cache; 0 with a cache_dir set uses the evalcache default budget.
    /// Responses are bitwise identical either way — only the
    /// calls_fresh/calls_cached split in the estimate result changes.
    std::size_t cache_mem_mb = 0;
    /// Optional persistent tier: directory of per-case append-only logs
    /// (see evalcache::DiskLog). Empty = memory-only.
    std::string cache_dir;
};

/// Executes serving requests in micro-batches on one scheduler thread (the
/// heavy math inside fans out on the global parallel::ThreadPool). A batch
/// is whatever queued while the previous batch ran, up to max_batch_rows;
/// queued work is never held back to wait for more.
///
/// Determinism contract — the serving extension of DESIGN.md §8.2: every
/// request derives all randomness from its own `seed`, batched rows are
/// computed row-independently (disjoint writes, per-row serial reductions),
/// and per-request rows are laid out in request order. A response is
/// therefore bitwise identical whether its request ran alone or coalesced
/// with any other requests, in any arrival order, at any thread count.
///
/// Telemetry (active trace only): serve.requests / serve.batches /
/// serve.batch_rows counters, a batch-size histogram
/// (serve.batch_size.le_{1,4,16,64} / gt_64), serve.queue_peak metric, and
/// per-batch spans (serve_batch → execute) recorded on the scheduler thread
/// via telemetry::adopt_span_tree().
class BatchScheduler {
public:
    /// `owns_span_tree`: the scheduler thread adopts the active trace's
    /// span tree. The tree has one owner thread, so a Server with several
    /// schedulers passes true for the first only; the others' spans no-op
    /// while their counters still land in the same trace.
    BatchScheduler(ModelRegistry& registry, SchedulerConfig cfg,
                   bool owns_span_tree = true);
    ~BatchScheduler();
    BatchScheduler(const BatchScheduler&) = delete;
    BatchScheduler& operator=(const BatchScheduler&) = delete;

    /// Enqueues one request. The future always completes: with the op's
    /// response, or with a structured error response (queue_full /
    /// deadline_exceeded / shutting_down / per-request failures). Never
    /// throws.
    std::future<Response> submit(Request req);

    /// Drains every queued request, then stops the scheduler thread.
    /// submit() after stop() completes immediately with kShuttingDown.
    void stop();

    /// Test/operations hook: hold the scheduler loop before it assembles
    /// the next batch (queued requests accumulate; deadlines keep running).
    void pause();
    void resume();

    /// Installed by the server; invoked (once) after a shutdown request was
    /// answered. May be empty.
    void set_shutdown_handler(std::function<void()> handler);

    const SchedulerConfig& config() const noexcept { return cfg_; }

private:
    struct Pending {
        Request req;
        std::promise<Response> promise;
        std::chrono::steady_clock::time_point enqueued;
    };

    void loop();
    std::vector<Pending> assemble_locked();
    void execute(std::vector<Pending>& batch);
    static std::size_t request_rows(const Request& req) noexcept;

    void run_sample_group(const std::shared_ptr<const Model>& model,
                          std::vector<Pending*>& group);
    void run_log_prob_group(const std::shared_ptr<const Model>& model,
                            std::vector<Pending*>& group);
    void run_estimate(const std::shared_ptr<const Model>& model, Pending& p);
    Response run_admin(Pending& p);
    const testcases::TestCase& case_for(const std::string& name,
                                        std::size_t model_dim);

    ModelRegistry& registry_;
    SchedulerConfig cfg_;
    bool owns_span_tree_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<Pending> queue_;
    bool stopping_ = false;
    bool paused_ = false;
    std::size_t queue_peak_ = 0;

    /// One canonical TestCase instance per name, shared by every request
    /// (and usable as an evalcache key source). Replaces the scheduler's
    /// former private case map.
    testcases::CaseFactory case_factory_;
    /// Shared across all estimate requests; null when disabled.
    std::shared_ptr<evalcache::EvalCache> eval_cache_;

    std::function<void()> shutdown_handler_;
    std::mutex handler_mutex_;

    std::mutex stop_mutex_;  ///< serialises stop() callers around the join
    std::thread worker_;  ///< last member: joins before the rest tears down
};

/// In-process client: submits straight into a scheduler, no sockets. The
/// unit tests and the throughput bench drive the serving stack through
/// this; call() blocks, async() pipelines.
class Client {
public:
    explicit Client(BatchScheduler& scheduler) : scheduler_(&scheduler) {}

    Response call(Request req) { return async(std::move(req)).get(); }
    std::future<Response> async(Request req) {
        return scheduler_->submit(std::move(req));
    }

private:
    BatchScheduler* scheduler_;
};

}  // namespace nofis::serve
