#include "serve/scheduler.hpp"

#include <algorithm>
#include <optional>

#include "core/nofis.hpp"
#include "evalcache/cached_problem.hpp"
#include "linalg/kernels/kernels.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/normal.hpp"
#include "telemetry/telemetry.hpp"
#include "testcases/registry.hpp"

namespace nofis::serve {

namespace {

/// Histogram bucket counter for one batch's request count.
void count_batch_size(std::size_t requests) {
    if (requests <= 1) telemetry::count("serve.batch_size.le_1");
    else if (requests <= 4) telemetry::count("serve.batch_size.le_4");
    else if (requests <= 16) telemetry::count("serve.batch_size.le_16");
    else if (requests <= 64) telemetry::count("serve.batch_size.le_64");
    else telemetry::count("serve.batch_size.gt_64");
}

Json matrix_rows_json(const linalg::Matrix& m, std::size_t row_begin,
                      std::size_t row_end) {
    Json rows = Json::array();
    for (std::size_t r = row_begin; r < row_end; ++r) {
        Json row = Json::array();
        for (double v : m.row_span(r)) row.push_back(Json::number(v));
        rows.push_back(std::move(row));
    }
    return rows;
}

Json vector_json(const std::vector<double>& v, std::size_t begin,
                 std::size_t end) {
    Json arr = Json::array();
    for (std::size_t i = begin; i < end; ++i)
        arr.push_back(Json::number(v[i]));
    return arr;
}

/// Derived micro-batch row budget. The fused kernels have a low per-row
/// cost, so coalescing twice the pool's preferred rows per dispatch keeps
/// it saturated; responses are unaffected — §10.4 guarantees byte-equal
/// results at any batch size, so this only moves wall-clock.
std::size_t derived_batch_rows(const SchedulerConfig& cfg) {
    if (cfg.max_batch_rows > 0) return cfg.max_batch_rows;
    return 2 * parallel::preferred_batch_rows();
}

}  // namespace

BatchScheduler::BatchScheduler(ModelRegistry& registry, SchedulerConfig cfg,
                               bool owns_span_tree)
    : registry_(registry),
      cfg_(std::move(cfg)),
      owns_span_tree_(owns_span_tree) {
    if (cfg_.cache_mem_mb > 0 || !cfg_.cache_dir.empty()) {
        evalcache::CacheConfig ccfg;
        if (cfg_.cache_mem_mb > 0) ccfg.mem_bytes = cfg_.cache_mem_mb << 20;
        ccfg.dir = cfg_.cache_dir;
        eval_cache_ = std::make_shared<evalcache::EvalCache>(ccfg);
    }
    worker_ = std::thread([this] { loop(); });
}

BatchScheduler::~BatchScheduler() { stop(); }

std::size_t BatchScheduler::request_rows(const Request& req) noexcept {
    switch (req.op) {
        case Op::kSample: return req.n;
        case Op::kLogProb: return req.x.rows();
        case Op::kEstimate: return req.n;
        default: return 1;
    }
}

std::future<Response> BatchScheduler::submit(Request req) {
    std::promise<Response> promise;
    std::future<Response> future = promise.get_future();
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (stopping_) {
            lock.unlock();
            promise.set_value(Response::failure(
                req, ErrorCode::kShuttingDown, "scheduler is stopping"));
            return future;
        }
        if (queue_.size() >= cfg_.max_queue) {
            lock.unlock();
            telemetry::count("serve.rejected.queue_full");
            promise.set_value(Response::failure(
                req, ErrorCode::kQueueFull,
                "request queue at capacity (" +
                    std::to_string(cfg_.max_queue) + ")"));
            return future;
        }
        queue_.push_back(Pending{std::move(req), std::move(promise),
                                 std::chrono::steady_clock::now()});
        queue_peak_ = std::max(queue_peak_, queue_.size());
    }
    cv_.notify_all();
    return future;
}

void BatchScheduler::stop() {
    const std::lock_guard<std::mutex> stop_lock(stop_mutex_);
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    if (worker_.joinable()) worker_.join();
}

void BatchScheduler::pause() {
    const std::lock_guard<std::mutex> lock(mutex_);
    paused_ = true;
}

void BatchScheduler::resume() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        paused_ = false;
    }
    cv_.notify_all();
}

void BatchScheduler::set_shutdown_handler(std::function<void()> handler) {
    const std::lock_guard<std::mutex> lock(handler_mutex_);
    shutdown_handler_ = std::move(handler);
}

std::vector<BatchScheduler::Pending> BatchScheduler::assemble_locked(
    std::unique_lock<std::mutex>& lock) {
    (void)lock;  // caller holds mutex_
    const std::size_t target = derived_batch_rows(cfg_);
    std::vector<Pending> batch;
    std::size_t rows = 0;
    while (!queue_.empty()) {
        const std::size_t next = request_rows(queue_.front().req);
        // The first request always dispatches, even if it alone exceeds the
        // row budget; later ones only join while the budget holds.
        if (!batch.empty() && rows + next > target) break;
        rows += next;
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
        if (rows >= target) break;
    }
    return batch;
}

void BatchScheduler::loop() {
    for (;;) {
        // The scheduler thread owns the span tree while serving (the
        // activating thread is parked in Server::wait by then).
        if (owns_span_tree_) telemetry::adopt_span_tree();
        std::vector<Pending> batch;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [&] {
                return stopping_ || (!queue_.empty() && !paused_);
            });
            if (queue_.empty()) {
                if (stopping_) return;
                continue;
            }
            if (!stopping_) {
                // Coalescing window: wait up to max_wait_us for more rows.
                const std::size_t target = derived_batch_rows(cfg_);
                const auto window_end =
                    std::chrono::steady_clock::now() +
                    std::chrono::microseconds(cfg_.max_wait_us);
                auto queued_rows = [&] {
                    std::size_t rows = 0;
                    for (const Pending& p : queue_)
                        rows += request_rows(p.req);
                    return rows;
                };
                while (!stopping_ && !paused_ && queued_rows() < target) {
                    if (cv_.wait_until(lock, window_end) ==
                        std::cv_status::timeout)
                        break;
                }
                if (paused_ && !stopping_) continue;
            }
            batch = assemble_locked(lock);
            telemetry::metric("serve.queue_peak",
                              static_cast<double>(queue_peak_));
        }
        if (!batch.empty()) execute(batch);
    }
}

void BatchScheduler::execute(std::vector<Pending>& batch) {
    const telemetry::ScopedSpan batch_span("serve_batch");
    telemetry::count("serve.batches");
    telemetry::count("serve.requests", batch.size());
    count_batch_size(batch.size());

    // Expire overdue requests first; expired entries never execute.
    const auto now = std::chrono::steady_clock::now();
    std::vector<Pending*> live;
    live.reserve(batch.size());
    std::size_t rows = 0;
    for (Pending& p : batch) {
        if (p.req.timeout_us > 0 &&
            now > p.enqueued + std::chrono::microseconds(p.req.timeout_us)) {
            telemetry::count("serve.rejected.deadline");
            p.promise.set_value(Response::failure(
                p.req, ErrorCode::kDeadlineExceeded,
                "deadline of " + std::to_string(p.req.timeout_us) +
                    "us expired before execution"));
            continue;
        }
        rows += request_rows(p.req);
        live.push_back(&p);
    }
    telemetry::count("serve.batch_rows", rows);

    const telemetry::ScopedSpan exec_span("execute");

    // Group sample / log_prob requests by model (first-appearance order) so
    // each group runs the flow once over the concatenated rows; everything
    // else executes individually in queue order.
    std::vector<std::pair<std::string, std::vector<Pending*>>> sample_groups;
    std::vector<std::pair<std::string, std::vector<Pending*>>> logp_groups;
    auto group_into =
        [](std::vector<std::pair<std::string, std::vector<Pending*>>>& groups,
           Pending* p) {
            for (auto& [name, members] : groups) {
                if (name == p->req.model) {
                    members.push_back(p);
                    return;
                }
            }
            groups.push_back({p->req.model, {p}});
        };

    for (Pending* p : live) {
        if (p->req.op == Op::kSample) group_into(sample_groups, p);
        else if (p->req.op == Op::kLogProb) group_into(logp_groups, p);
    }

    auto resolve_model =
        [&](const std::string& name,
            std::vector<Pending*>& members) -> std::shared_ptr<const Model> {
        try {
            return registry_.get(name);
        } catch (const ServeError& e) {
            for (Pending* p : members)
                p->promise.set_value(Response::failure(p->req, e));
        } catch (const std::exception& e) {
            for (Pending* p : members)
                p->promise.set_value(Response::failure(
                    p->req, ErrorCode::kInternal, e.what()));
        }
        return nullptr;
    };

    for (auto& [name, members] : sample_groups)
        if (auto model = resolve_model(name, members))
            run_sample_group(model, members);
    for (auto& [name, members] : logp_groups)
        if (auto model = resolve_model(name, members))
            run_log_prob_group(model, members);

    std::function<void()> shutdown_after;
    for (Pending* p : live) {
        if (p->req.op == Op::kSample || p->req.op == Op::kLogProb) continue;
        if (p->req.op == Op::kEstimate) {
            std::vector<Pending*> self{p};
            if (auto model = resolve_model(p->req.model, self))
                run_estimate(model, *p);
            continue;
        }
        p->promise.set_value(run_admin(*p));
        if (p->req.op == Op::kShutdown) {
            const std::lock_guard<std::mutex> lock(handler_mutex_);
            shutdown_after = shutdown_handler_;
        }
    }
    // Fire the shutdown signal only after every response of this batch is
    // fulfilled; the handler must not join the scheduler thread (the
    // server's just flags its wait loop).
    if (shutdown_after) shutdown_after();
}

void BatchScheduler::run_sample_group(
    const std::shared_ptr<const Model>& model, std::vector<Pending*>& group) {
    const std::size_t dim = model->info.dim;
    std::size_t total = 0;
    for (Pending* p : group) total += p->req.n;

    // Request-order row layout; each request's base draws come from its own
    // seed, exactly as CouplingStack::sample would draw them stand-alone.
    linalg::Matrix z0(total, dim);
    std::size_t offset = 0;
    for (Pending* p : group) {
        rng::Engine eng(p->req.seed);
        const linalg::Matrix zi =
            rng::standard_normal_matrix(eng, p->req.n, dim);
        std::copy(zi.flat().begin(), zi.flat().end(),
                  z0.row_span(offset).begin());
        offset += p->req.n;
    }

    try {
        const auto samples = model->stack.transport(z0, model->info.num_blocks);
        offset = 0;
        for (Pending* p : group) {
            Json result = Json::object();
            result.set("n", Json::number_u64(p->req.n));
            result.set("z",
                       matrix_rows_json(samples.z, offset, offset + p->req.n));
            result.set("log_q",
                       vector_json(samples.log_q, offset, offset + p->req.n));
            offset += p->req.n;
            p->promise.set_value(Response::success(p->req, std::move(result)));
        }
    } catch (const std::exception& e) {
        for (Pending* p : group)
            p->promise.set_value(
                Response::failure(p->req, ErrorCode::kInternal, e.what()));
    }
}

void BatchScheduler::run_log_prob_group(
    const std::shared_ptr<const Model>& model, std::vector<Pending*>& group) {
    const std::size_t dim = model->info.dim;
    std::vector<Pending*> valid;
    std::size_t total = 0;
    for (Pending* p : group) {
        if (p->req.x.cols() != dim) {
            p->promise.set_value(Response::failure(
                p->req, ErrorCode::kDimMismatch,
                "points have dim " + std::to_string(p->req.x.cols()) +
                    ", model '" + model->name + "' has dim " +
                    std::to_string(dim)));
            continue;
        }
        total += p->req.x.rows();
        valid.push_back(p);
    }
    if (valid.empty()) return;

    linalg::Matrix x(total, dim);
    std::size_t offset = 0;
    for (Pending* p : valid) {
        std::copy(p->req.x.flat().begin(), p->req.x.flat().end(),
                  x.row_span(offset).begin());
        offset += p->req.x.rows();
    }

    try {
        const std::vector<double> lp =
            model->stack.log_prob(x, model->info.num_blocks);
        offset = 0;
        for (Pending* p : valid) {
            Json result = Json::object();
            result.set("log_prob",
                       vector_json(lp, offset, offset + p->req.x.rows()));
            offset += p->req.x.rows();
            p->promise.set_value(Response::success(p->req, std::move(result)));
        }
    } catch (const std::exception& e) {
        for (Pending* p : valid)
            p->promise.set_value(
                Response::failure(p->req, ErrorCode::kInternal, e.what()));
    }
}

const testcases::TestCase& BatchScheduler::case_for(const std::string& name,
                                                    std::size_t model_dim) {
    const testcases::TestCase* tc = nullptr;
    try {
        tc = &case_factory_.get(name);
    } catch (const std::invalid_argument& e) {
        throw ServeError(ErrorCode::kUnknownCase, e.what());
    }
    if (tc->dim() != model_dim)
        throw ServeError(ErrorCode::kDimMismatch,
                         "case '" + name + "' has dim " +
                             std::to_string(tc->dim()) + ", model has dim " +
                             std::to_string(model_dim));
    return *tc;
}

void BatchScheduler::run_estimate(const std::shared_ptr<const Model>& model,
                                  Pending& p) {
    try {
        const testcases::TestCase& tc =
            case_for(p.req.case_name, model->info.dim);
        // Optional shared memoization tier: estimates execute one at a time
        // in queue order on this thread, so the per-request hit count is
        // deterministic for a given request sequence. p_hat is bitwise
        // identical with the cache off, cold, or warm (g is pure).
        std::optional<evalcache::CachedProblem> cached;
        const estimators::RareEventProblem* problem = &tc;
        if (eval_cache_) {
            cached.emplace(tc, eval_cache_, testcases::cache_key(tc));
            problem = &*cached;
        }
        rng::Engine eng(p.req.seed);
        estimators::IsDiagnostics diag;
        const auto res = core::NofisEstimator::importance_estimate(
            model->stack, *problem, eng, p.req.n, &diag);
        const std::size_t calls_cached =
            cached ? std::min(cached->hits(), res.calls) : std::size_t{0};
        evalcache::report_call_split(res.calls, calls_cached);
        Json result = Json::object();
        result.set("p_hat", Json::number(res.p_hat));
        result.set("calls", Json::number_u64(res.calls));
        result.set("calls_cached", Json::number_u64(calls_cached));
        result.set("calls_fresh", Json::number_u64(res.calls - calls_cached));
        result.set("hits", Json::number_u64(diag.hits));
        result.set("ess", Json::number(diag.effective_sample_size));
        result.set("ess_all", Json::number(diag.ess_all));
        result.set("weight_cv", Json::number(diag.weight_cv));
        result.set("max_weight", Json::number(diag.max_weight));
        p.promise.set_value(Response::success(p.req, std::move(result)));
    } catch (const ServeError& e) {
        p.promise.set_value(Response::failure(p.req, e));
    } catch (const std::exception& e) {
        p.promise.set_value(
            Response::failure(p.req, ErrorCode::kInternal, e.what()));
    }
}

Response BatchScheduler::run_admin(Pending& p) {
    try {
        switch (p.req.op) {
            case Op::kPing: {
                Json result = Json::object();
                result.set("pong", Json::boolean(true));
                // Runtime surface for the kernel flavour: ops tooling can
                // confirm which numeric path a server is on without logs.
                result.set("kernels",
                           Json::string(linalg::kernels::choice_name()));
                result.set("simd_backend",
                           Json::string(linalg::kernels::simd_backend()));
                return Response::success(p.req, std::move(result));
            }
            case Op::kInfo: {
                const auto model = registry_.get(p.req.model);
                const flow::StackInfo& info = model->info;
                Json result = Json::object();
                result.set("name", Json::string(model->name));
                result.set("dim", Json::number_u64(info.dim));
                result.set("blocks", Json::number_u64(info.num_blocks));
                result.set("layers_per_block",
                           Json::number_u64(info.layers_per_block));
                result.set("coupling", Json::string(flow::coupling_kind_name(
                                           info.coupling)));
                // Spline knobs only exist for rqs stacks; keeping them out
                // of affine/additive responses leaves those byte-identical
                // to pre-rqs servers.
                if (info.coupling == flow::CouplingKind::kRqs) {
                    result.set("rqs_bins", Json::number_u64(info.rqs_bins));
                    result.set("rqs_tail", Json::number(info.rqs_tail));
                }
                result.set("actnorm", Json::boolean(info.use_actnorm));
                Json hidden = Json::array();
                for (std::size_t h : info.hidden)
                    hidden.push_back(Json::number_u64(h));
                result.set("hidden", std::move(hidden));
                result.set("scale_cap", Json::number(info.scale_cap));
                result.set("param_tensors",
                           Json::number_u64(info.param_tensors));
                result.set("param_values",
                           Json::number_u64(info.param_values));
                return Response::success(p.req, std::move(result));
            }
            case Op::kListModels: {
                Json result = Json::object();
                result.set("dir", Json::string(registry_.dir()));
                Json avail = Json::array();
                for (const auto& n : registry_.available())
                    avail.push_back(Json::string(n));
                result.set("available", std::move(avail));
                Json res_names = Json::array();
                for (const auto& n : registry_.resident())
                    res_names.push_back(Json::string(n));
                result.set("resident", std::move(res_names));
                return Response::success(p.req, std::move(result));
            }
            case Op::kReload: {
                const auto model = registry_.reload(p.req.model);
                Json result = Json::object();
                result.set("reloaded", Json::string(model->name));
                result.set("param_values",
                           Json::number_u64(model->info.param_values));
                return Response::success(p.req, std::move(result));
            }
            case Op::kEvict: {
                Json result = Json::object();
                result.set("evicted",
                           Json::boolean(registry_.evict(p.req.model)));
                return Response::success(p.req, std::move(result));
            }
            case Op::kShutdown: {
                Json result = Json::object();
                result.set("stopping", Json::boolean(true));
                return Response::success(p.req, std::move(result));
            }
            default:
                return Response::failure(p.req, ErrorCode::kBadRequest,
                                         "unhandled op");
        }
    } catch (const ServeError& e) {
        return Response::failure(p.req, e);
    } catch (const std::exception& e) {
        return Response::failure(p.req, ErrorCode::kInternal, e.what());
    }
}

}  // namespace nofis::serve
