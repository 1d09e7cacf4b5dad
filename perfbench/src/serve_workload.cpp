// serve-flow / serve-estimate: two client connections against an
// in-process serve::Server on loopback, timed in fixed-size passes.
#include <algorithm>
#include <cmath>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>

#include "evalcache/disk_log.hpp"
#include "evalcache/eval_cache.hpp"
#include "flow/serialize.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/normal.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "serve/tcp_client.hpp"
#include "sim_probe.hpp"
#include "testcases/case_factory.hpp"
#include "testcases/registry.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace nofis;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kConnections = 2;
constexpr std::size_t kSetups = 9;
/// Requests per connection of the first pass whose response bytes are
/// checked against an in-process replay, and whose wire lines feed the
/// protocol replay.
constexpr std::size_t kCapture = 24;

// Substreams of the workload seed.
constexpr std::uint64_t kModelStream = 10;    // + model index
constexpr std::uint64_t kFlowStream = 100;    // + connection
constexpr std::uint64_t kSeedStream = 200;    // + connection
constexpr std::uint64_t kWarmStream = 300;    // + connection
constexpr std::uint64_t kReplayStream = 400;

// ---------------------------------------------------------------------------
// Traffic: the per-connection request schedule of each workload.
// ---------------------------------------------------------------------------

/// Request `i` of one connection's schedule. next() is called in index
/// order. A schedule may depend on responses already received; with a fixed
/// window that set is itself fixed (request i is sent right after response
/// i - window arrived), so the schedule is a pure function of its seed.
class Traffic {
public:
    virtual ~Traffic() = default;
    virtual serve::Request next(std::size_t i) = 0;
    /// Records response `i`; false when the op failed (error response or
    /// unusable result).
    virtual bool on_response(std::size_t i, const serve::Response& res) = 0;
    virtual std::size_t rows(std::size_t i) const = 0;
};

/// serve-flow: 8-row sample requests and log_prob requests scoring rows
/// sampled earlier, 3:1, spread evenly over four models. Every block of
/// 4 x models requests holds each (model, op) pair the same number of times
/// in a seed-drawn order, so every seed asks for the same mix of work.
class FlowTraffic final : public Traffic {
public:
    static constexpr std::size_t kRows = 8;

    FlowTraffic(std::uint64_t seed, std::size_t conn,
                std::vector<std::string> models, std::size_t dim)
        : draws_(rng::substream(seed, kFlowStream + conn)),
          models_(std::move(models)),
          dim_(dim) {}

    serve::Request next(std::size_t i) override {
        if (block_.empty()) {
            // Slot k: model k % models, log_prob for one slot in four.
            for (std::size_t k = 0; k < 4 * models_.size(); ++k)
                block_.push_back(k);
            for (std::size_t k = block_.size(); k > 1; --k)
                std::swap(block_[k - 1], block_[draws_.uniform_index(k)]);
        }
        const std::size_t slot = block_.back();
        block_.pop_back();
        const std::uint64_t u = draws_();
        serve::Request req;
        req.id = i + 1;
        req.model = models_[slot % models_.size()];
        if (slot / models_.size() == 0) {
            req.op = serve::Op::kLogProb;
            const auto it = last_z_.find(req.model);
            if (it != last_z_.end()) {
                req.x = it->second;
            } else {
                rng::Engine eng(u);
                req.x = rng::standard_normal_matrix(eng, kRows, dim_);
            }
        } else {
            req.op = serve::Op::kSample;
            req.seed = u;
            req.n = kRows;
        }
        sent_.push_back({req.op, req.model});
        return req;
    }

    bool on_response(std::size_t i, const serve::Response& res) override {
        if (!res.ok) return false;
        if (sent_[i].first != serve::Op::kSample) return true;
        const serve::Json* z = res.result.find("z");
        if (z == nullptr || z->size() != kRows) return false;
        linalg::Matrix m(kRows, dim_);
        for (std::size_t r = 0; r < kRows; ++r)
            for (std::size_t c = 0; c < dim_; ++c)
                m(r, c) = z->at(r).at(c).as_double();
        last_z_[sent_[i].second] = std::move(m);
        return true;
    }

    std::size_t rows(std::size_t) const override { return kRows; }

private:
    rng::Engine draws_;
    std::vector<std::size_t> block_;  ///< slots left in the current block
    std::vector<std::string> models_;
    std::size_t dim_;
    std::map<std::string, linalg::Matrix> last_z_;
    std::vector<std::pair<serve::Op, std::string>> sent_;
};

/// serve-estimate: Eq. (2) estimates against YBranch; every third request
/// repeats the seed of the request two places earlier on the same
/// connection, whose response has always arrived by then (window <= 2), so
/// its rows are served by the evaluation cache deterministically.
class EstimateTraffic final : public Traffic {
public:
    static constexpr std::size_t kDraws = 500;

    EstimateTraffic(std::uint64_t seed, std::size_t conn)
        : draws_(rng::substream(seed, kSeedStream + conn)) {}

    static bool repeats(std::size_t i) { return i % 3 == 2; }

    std::uint64_t seed_of(std::size_t i) {
        while (seeds_.size() <= i) {
            const std::size_t k = seeds_.size();
            seeds_.push_back(repeats(k) ? seeds_[k - 2] : draws_());
        }
        return seeds_[i];
    }

    serve::Request next(std::size_t i) override {
        serve::Request req;
        req.id = i + 1;
        req.op = serve::Op::kEstimate;
        req.model = "ybranch";
        req.case_name = "YBranch";
        req.n = kDraws;
        req.seed = seed_of(i);
        return req;
    }

    bool on_response(std::size_t i, const serve::Response& res) override {
        Outcome o;
        o.ok = res.ok;
        if (res.ok) {
            const auto num = [&](const char* key) {
                const serve::Json* v = res.result.find(key);
                return v != nullptr && v->is_number() ? v->as_double()
                                                      : std::nan("");
            };
            o.p_hat = num("p_hat");
            o.calls = num("calls");
            o.calls_cached = num("calls_cached");
            o.calls_fresh = num("calls_fresh");
            o.ess_all = num("ess_all");
            o.ok = std::isfinite(o.p_hat);
        }
        if (outcomes_.size() <= i) outcomes_.resize(i + 1);
        outcomes_[i] = o;
        return o.ok;
    }

    std::size_t rows(std::size_t) const override { return kDraws; }

    struct Outcome {
        bool ok = false;
        double p_hat = 0.0, calls = 0.0, calls_cached = 0.0, calls_fresh = 0.0,
               ess_all = 0.0;
    };
    const std::vector<Outcome>& outcomes() const { return outcomes_; }

private:
    rng::Engine draws_;
    std::vector<std::uint64_t> seeds_;
    std::vector<Outcome> outcomes_;
};

// ---------------------------------------------------------------------------
// Transports and the request loops.
// ---------------------------------------------------------------------------

class Transport {
public:
    virtual ~Transport() = default;
    virtual void send(const std::string& line, serve::Request req) = 0;
    /// Next response in request order; its wire line goes to `line` when
    /// non-null.
    virtual serve::Response recv(std::string* line) = 0;
};

class TcpTransport final : public Transport {
public:
    explicit TcpTransport(serve::TcpClient& client) : client_(&client) {}
    void send(const std::string& line, serve::Request) override {
        client_->send_line(line);
    }
    serve::Response recv(std::string* line) override {
        std::string raw = client_->recv_line();
        serve::Response res = serve::Response::decode(raw);
        if (line != nullptr) *line = std::move(raw);
        return res;
    }

private:
    serve::TcpClient* client_;
};

class InprocTransport final : public Transport {
public:
    explicit InprocTransport(serve::BatchScheduler& scheduler)
        : client_(scheduler) {}
    void send(const std::string&, serve::Request req) override {
        pending_.push_back(client_.async(std::move(req)));
    }
    serve::Response recv(std::string* line) override {
        serve::Response res = pending_.front().get();
        pending_.pop_front();
        if (line != nullptr) *line = res.encode();
        return res;
    }

private:
    serve::Client client_;
    std::deque<std::future<serve::Response>> pending_;
};

using Transports = std::vector<std::unique_ptr<Transport>>;

struct Captured {
    std::string request;
    std::string response;
};

struct LoopStats {
    std::vector<double> latency_ms;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double rows = 0.0;
    double wall_s = 0.0;
    std::vector<Captured> captured;
};

/// Sends requests [first, first + count) of `traffic`, keeping `window` in
/// flight, and waits for every response. With `capture`, requests below
/// kCapture are kept with their response lines.
LoopStats drive(Traffic& traffic, Transport& transport, std::size_t first,
                std::size_t count, std::size_t window, bool capture) {
    LoopStats s;
    std::deque<Clock::time_point> sent;
    std::size_t next = first;
    std::size_t done = first;
    const std::size_t end = first + count;
    const auto start = Clock::now();
    while (done < end) {
        if (next < end && sent.size() < window) {
            serve::Request req = traffic.next(next);
            std::string line = req.encode();
            if (capture && next < kCapture) s.captured.push_back({line, {}});
            sent.push_back(Clock::now());
            transport.send(line, std::move(req));
            ++next;
            continue;
        }
        const bool keep = capture && done < kCapture;
        std::string line;
        const serve::Response res = transport.recv(keep ? &line : nullptr);
        s.latency_ms.push_back(ms_since(sent.front()));
        sent.pop_front();
        ++s.attempted;
        if (!traffic.on_response(done, res)) ++s.failed;
        s.rows += static_cast<double>(traffic.rows(done));
        if (keep) s.captured[done - first].response = std::move(line);
        ++done;
    }
    s.wall_s = ms_since(start) / 1e3;
    return s;
}

/// One drive() per connection, each on its own thread: connection 0 sends
/// requests [first0, first0 + count), the others [0, count). Returns the
/// per-connection stats and the phase's wall time.
std::vector<LoopStats> drive_all(std::vector<std::unique_ptr<Traffic>>& traffic,
                                 Transports& transports, std::size_t first0,
                                 std::size_t count, std::size_t window,
                                 bool capture, double& wall_s) {
    std::vector<LoopStats> per_conn(traffic.size());
    std::vector<std::exception_ptr> errors(traffic.size());
    const auto start = Clock::now();
    {
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < traffic.size(); ++c)
            threads.emplace_back([&, c] {
                try {
                    per_conn[c] = drive(*traffic[c], *transports[c],
                                        c == 0 ? first0 : 0, count, window,
                                        capture);
                } catch (...) {
                    errors[c] = std::current_exception();
                }
            });
        for (auto& t : threads) t.join();
    }
    wall_s = ms_since(start) / 1e3;
    parallel::rethrow_first(errors);
    return per_conn;
}

// ---------------------------------------------------------------------------
// Passes.
// ---------------------------------------------------------------------------

struct WorkloadShape {
    std::string dir;                  ///< model directory
    std::vector<std::string> models;  ///< names served
    serve::SchedulerConfig scheduler;
    /// Requests per pass sent one at a time on connection 0: the latency
    /// phase, which gives op_p50/p90/p99 free of queueing behind the
    /// workload's own requests.
    std::size_t latency_ops = 0;
    /// Requests per connection per pass with `window` in flight on every
    /// connection: the throughput phase, which gives ops_per_s and
    /// rows_per_s.
    std::size_t throughput_ops = 0;
    std::size_t window = 1;
    bool estimate = false;
};

std::vector<std::unique_ptr<Traffic>> make_traffic(const WorkloadShape& shape,
                                                   std::uint64_t seed) {
    std::vector<std::unique_ptr<Traffic>> t;
    for (std::size_t c = 0; c < kConnections; ++c) {
        if (shape.estimate)
            t.push_back(std::make_unique<EstimateTraffic>(seed, c));
        else
            t.push_back(std::make_unique<FlowTraffic>(seed, c, shape.models, 6));
    }
    return t;
}

/// Seed of pass `pass`'s traffic. serve-flow repeats one schedule, so every
/// pass does the same work; serve-estimate draws new seeds each pass, since
/// repeated seeds would turn every later pass into cache hits.
std::uint64_t pass_seed(const Options& opt, const WorkloadShape& shape,
                        std::size_t pass) {
    return shape.estimate ? rng::substream(opt.seed, pass)() : opt.seed;
}

struct Passes {
    /// Latency phase: request i's fastest latency across the passes. Request
    /// i does the same work in every pass (serve-estimate's seeds change,
    /// but i is a cache hit or a miss in every pass alike).
    std::vector<double> best_ms;
    /// Throughput phase, one value per pass.
    std::vector<double> ops_per_s, rows_per_s;
    /// Every throughput-phase latency of every pass.
    std::vector<double> batched_ms;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::vector<Captured>> captured;  ///< pass 0, per connection
    std::vector<std::unique_ptr<Traffic>> first;  ///< pass 0's traffic
};

/// Whole passes until `seconds` have passed, each on fresh traffic: the
/// latency phase on connection 0, then the throughput phase on all.
Passes run_passes(const Options& opt, const WorkloadShape& shape,
                  Transports& transports, double seconds) {
    Passes p;
    const auto start = Clock::now();
    for (std::size_t pass = 0; pass == 0 || ms_since(start) < seconds * 1e3;
         ++pass) {
        auto traffic = make_traffic(shape, pass_seed(opt, shape, pass));
        const bool capture = pass == 0;
        const LoopStats lat = drive(*traffic[0], *transports[0], 0,
                                    shape.latency_ops, 1, capture);
        double wall_s = 0.0;
        std::vector<LoopStats> tp =
            drive_all(traffic, transports, shape.latency_ops,
                      shape.throughput_ops, shape.window, capture, wall_s);

        p.best_ms.resize(lat.latency_ms.size(),
                         std::numeric_limits<double>::infinity());
        for (std::size_t i = 0; i < lat.latency_ms.size(); ++i)
            p.best_ms[i] = std::min(p.best_ms[i], lat.latency_ms[i]);
        double ops = 0.0, rows = 0.0;
        p.attempted += lat.attempted;
        p.failed += lat.failed;
        for (const auto& s : tp) {
            ops += static_cast<double>(s.attempted);
            rows += s.rows;
            p.attempted += s.attempted;
            p.failed += s.failed;
            p.batched_ms.insert(p.batched_ms.end(), s.latency_ms.begin(),
                                s.latency_ms.end());
        }
        p.ops_per_s.push_back(ops / wall_s);
        p.rows_per_s.push_back(rows / wall_s);
        if (capture) {
            p.captured.resize(kConnections);
            p.captured[0] = lat.captured;
            for (std::size_t c = 0; c < kConnections; ++c)
                p.captured[c].insert(p.captured[c].end(), tp[c].captured.begin(),
                                     tp[c].captured.end());
            p.first = std::move(traffic);
        }
    }
    return p;
}

/// Rate of the fastest pass. Every pass does the same amount of work, so the
/// fastest is the one least slowed by other load on the host; passes are
/// short, so a run holds hundreds of them and some always fall in a quiet
/// moment.
double fast_rate(const std::vector<double>& per_pass) {
    return *std::max_element(per_pass.begin(), per_pass.end());
}

// ---------------------------------------------------------------------------
// Rig: one server plus its client connections.
// ---------------------------------------------------------------------------

struct Rig {
    std::unique_ptr<serve::Server> server;  // declared first: outlives clients
    std::vector<std::unique_ptr<serve::TcpClient>> clients;
    double load_ms = 0.0;
};

Rig start_rig(const WorkloadShape& shape) {
    Rig rig;
    serve::ServerConfig cfg;
    cfg.model_dir = shape.dir;
    cfg.scheduler = shape.scheduler;
    rig.server = std::make_unique<serve::Server>(cfg);
    const auto t0 = Clock::now();
    for (const auto& name : shape.models) rig.server->registry().get(name);
    rig.load_ms = ms_since(t0);
    for (std::size_t c = 0; c < kConnections; ++c)
        rig.clients.push_back(
            std::make_unique<serve::TcpClient>("127.0.0.1", rig.server->port()));
    return rig;
}

Transports tcp_transports(Rig& rig) {
    Transports t;
    for (auto& c : rig.clients) t.push_back(std::make_unique<TcpTransport>(*c));
    return t;
}

/// Off-schedule requests (their own seed substream) so lazy set-up — the
/// case constructed on the first estimate, first-touch allocations — is
/// paid before timing.
void warm_up(Rig& rig, const WorkloadShape& shape, std::uint64_t seed) {
    for (std::size_t c = 0; c < rig.clients.size(); ++c) {
        rng::Engine seeds = rng::substream(seed, kWarmStream + c);
        for (const auto& model : shape.models) {
            serve::Request req;
            req.id = 1;
            req.model = model;
            req.seed = seeds();
            if (shape.estimate) {
                req.op = serve::Op::kEstimate;
                req.case_name = "YBranch";
                req.n = 50;
            } else {
                req.op = serve::Op::kSample;
                req.n = FlowTraffic::kRows;
            }
            const serve::Response res = rig.clients[c]->call(req);
            if (!res.ok)
                throw std::runtime_error("warm-up request failed: " +
                                         res.error_message);
        }
    }
}

// ---------------------------------------------------------------------------
// Checks and replays.
// ---------------------------------------------------------------------------

/// Replays the captured request lines, connection by connection, through
/// serve::Client on a fresh in-process scheduler (fresh evaluation cache)
/// and compares every response byte with what came over TCP.
void check_bytes(const WorkloadShape& shape, const Passes& p, Result& r) {
    serve::ModelRegistry registry(shape.dir);
    serve::BatchScheduler scheduler(registry, shape.scheduler);
    serve::Client client(scheduler);
    std::size_t compared = 0;
    std::size_t mismatched = 0;
    for (const auto& conn : p.captured) {
        for (const auto& cap : conn) {
            const std::string replay =
                client.call(serve::Request::decode(cap.request)).encode();
            ++compared;
            if (replay != cap.response) ++mismatched;
        }
    }
    scheduler.stop();
    if (compared == 0) r.fail_check("byte check: no responses captured");
    if (mismatched > 0)
        r.fail_check("byte check: " + std::to_string(mismatched) + " of " +
                     std::to_string(compared) +
                     " TCP responses differ from the in-process replay");
}

/// Times Request/Response encode and decode over the captured wire lines.
void protocol_replay(const Passes& p, Result& r) {
    std::vector<const Captured*> lines;
    for (const auto& conn : p.captured)
        for (const auto& cap : conn) lines.push_back(&cap);
    if (lines.empty()) return;
    double enc_ns = 0.0, dec_ns = 0.0;
    std::size_t pairs = 0;
    const auto ns = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double, std::nano>(b - a).count();
    };
    std::size_t sink = 0;
    const auto start = Clock::now();
    while (pairs < 2000 || ms_since(start) < 200.0) {
        for (const Captured* cap : lines) {
            const auto t0 = Clock::now();
            const serve::Request req = serve::Request::decode(cap->request);
            const auto t1 = Clock::now();
            const std::string req_line = req.encode();
            const auto t2 = Clock::now();
            const serve::Response res = serve::Response::decode(cap->response);
            const auto t3 = Clock::now();
            const std::string res_line = res.encode();
            const auto t4 = Clock::now();
            dec_ns += ns(t0, t1) + ns(t2, t3);
            enc_ns += ns(t1, t2) + ns(t3, t4);
            sink += req_line.size() + res_line.size();
            ++pairs;
        }
    }
    if (sink == 0) r.fail_check("protocol replay produced empty lines");
    r.set("protocol.encode_us", enc_ns / 1e3 / static_cast<double>(pairs), "us");
    r.set("protocol.decode_us", dec_ns / 1e3 / static_cast<double>(pairs), "us");
}

/// Direct CouplingStack sample / log_prob calls at `batch_rows` rows per
/// call, rotating over the served models.
void flow_replay(const WorkloadShape& shape, std::size_t batch_rows,
                 std::uint64_t seed, Result& r) {
    std::vector<flow::CouplingStack> stacks;
    for (const auto& name : shape.models)
        stacks.push_back(flow::load_stack(shape.dir + "/" + name + ".nofisflow"));
    rng::Engine eng = rng::substream(seed, kReplayStream);
    double sample_ms = 0.0, logp_ms = 0.0, rows = 0.0;
    const auto start = Clock::now();
    for (std::size_t k = 0; rows < 20000.0 || ms_since(start) < 300.0; ++k) {
        const flow::CouplingStack& st = stacks[k % stacks.size()];
        auto t0 = Clock::now();
        const auto s = st.sample(eng, batch_rows, st.num_blocks());
        sample_ms += ms_since(t0);
        t0 = Clock::now();
        const auto lp = st.log_prob(s.z, st.num_blocks());
        logp_ms += ms_since(t0);
        if (lp.size() != batch_rows) r.fail_check("flow replay: row count");
        rows += static_cast<double>(batch_rows);
    }
    r.set("flow.sample_us_per_row", sample_ms * 1e3 / rows, "us");
    r.set("flow.log_prob_us_per_row", logp_ms * 1e3 / rows, "us");
}

// ---------------------------------------------------------------------------
// Model set-up.
// ---------------------------------------------------------------------------

/// Writes a served model file through save_stack's stream overload. The path
/// overload replaces the file atomically with an fsync of the file and its
/// directory, and on a shared disk that sync latency would swamp set-up
/// time; serving reads the same bytes either way.
void write_model(const flow::CouplingStack& stack, const std::string& path) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    flow::save_stack(stack, out);
    out.close();
    if (!out) throw std::runtime_error("cannot write " + path);
}

/// Four freshly initialised 6-d stacks: two affine, two rqs.
void write_flow_models(const WorkloadShape& shape, std::uint64_t seed) {
    for (std::size_t m = 0; m < shape.models.size(); ++m) {
        flow::StackConfig cfg;
        cfg.dim = 6;
        cfg.num_blocks = 4;
        cfg.layers_per_block = 4;
        cfg.hidden = {32, 32};
        if (m >= 2) {
            cfg.coupling = flow::CouplingKind::kRqs;
            cfg.rqs_tail = 5.0;
        }
        rng::Engine eng = rng::substream(seed, kModelStream + m);
        const flow::CouplingStack stack(cfg, eng);
        write_model(stack, shape.dir + "/" + shape.models[m] + ".nofisflow");
    }
}

/// Trains the served YBranch proposal with a reduced-budget NOFIS run at a
/// fixed seed and saves it; returns the FNV-1a hash of the saved file.
std::uint64_t train_ybranch_proposal(const WorkloadShape& shape) {
    const auto tc = testcases::make_case("YBranch");
    core::NofisConfig cfg = cut_config(*tc, 2, 30, 200);
    cfg.threads = 1;
    const core::NofisEstimator est(
        cfg, core::LevelSchedule::manual(tc->nofis_budget().levels));
    rng::Engine eng(2024);
    const auto run = est.run(*tc, eng);
    const std::string path = shape.dir + "/ybranch.nofisflow";
    write_model(*run.flow, path);
    const std::string bytes = read_file(path);
    return evalcache::fnv1a64(bytes.data(), bytes.size());
}

/// Set-up times and proposal hashes of every set-up in a run.
struct SetupLog {
    std::vector<double> setup_s;
    std::vector<double> load_ms;
    std::vector<std::uint64_t> hashes;
};

/// One set-up: models written (or the proposal trained), server started,
/// models loaded, clients connected, warm-up requests answered.
Rig set_up(const Options& opt, const WorkloadShape& shape, SetupLog& log) {
    const auto t0 = Clock::now();
    if (shape.estimate)
        log.hashes.push_back(train_ybranch_proposal(shape));
    else
        write_flow_models(shape, opt.seed);
    Rig rig = start_rig(shape);
    warm_up(rig, shape, opt.seed);
    log.setup_s.push_back(ms_since(t0) / 1e3);
    log.load_ms.push_back(rig.load_ms);
    return rig;
}

void report_setups(const SetupLog& log, Result& r) {
    r.set("setup_s", median(log.setup_s), "s");
    r.set("registry.load_ms", median(log.load_ms), "ms");
    if (log.hashes.empty()) return;
    if (std::any_of(log.hashes.begin(), log.hashes.end(),
                    [&](std::uint64_t h) { return h != log.hashes.front(); }))
        r.fail_check("trained proposal hash differs between set-ups");
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(log.hashes.front()));
    r.notes["proposal_fnv1a"] = buf;
}

/// Latency and rate figures of a pass loop, from its fast end.
void report_passes(const Passes& p, Result& r) {
    r.set("op_p50_ms", percentile(p.best_ms, 0.50), "ms");
    r.set("op_p90_ms", percentile(p.best_ms, 0.90), "ms");
    r.set("op_p99_ms", percentile(p.best_ms, 0.99), "ms");
    r.set("op_samples", static_cast<double>(p.attempted), "count");
    r.set("ops_per_s", fast_rate(p.ops_per_s), "1/s");
    r.set("rows_per_s", fast_rate(p.rows_per_s), "1/s");
}

/// Deterministic figures of serve-estimate over the first pass's requests.
void report_estimates(const Passes& p, Result& r) {
    const auto tc = testcases::make_case("YBranch");
    double fresh = 0.0, calls = 0.0, cached = 0.0, log_err = 0.0, ess = 0.0;
    std::size_t n = 0;
    for (const auto& t : p.first) {
        for (const auto& o : static_cast<const EstimateTraffic&>(*t).outcomes()) {
            if (!o.ok) continue;
            fresh += o.calls_fresh;
            calls += o.calls;
            cached += o.calls_cached;
            ess += o.ess_all / static_cast<double>(EstimateTraffic::kDraws);
            log_err += estimators::log_error(o.p_hat, tc->golden_pr());
            ++n;
        }
    }
    if (n == 0) {
        r.fail_check("no successful estimate responses");
        return;
    }
    const double nd = static_cast<double>(n);
    r.set("g_calls_per_op", fresh / nd, "count");
    r.set("log_err", log_err / nd, "1");
    r.set("cache.hit_frac", cached / calls, "1");
    r.set("core.is_ess_frac", ess / nd, "1");
}

/// The same passes through serve::Client on a fresh in-process scheduler:
/// the serving path without sockets.
Passes inproc_passes(const Options& opt, const WorkloadShape& shape) {
    serve::ModelRegistry registry(shape.dir);
    for (const auto& name : shape.models) registry.get(name);
    serve::BatchScheduler scheduler(registry, shape.scheduler);
    Transports inproc;
    for (std::size_t c = 0; c < kConnections; ++c)
        inproc.push_back(std::make_unique<InprocTransport>(scheduler));
    Passes p = run_passes(opt, shape, inproc, opt.seconds / 2.0);
    scheduler.stop();
    return p;
}

/// The same passes over TCP on a fresh server with a RunTrace active; fills
/// the per-layer metrics read from the library's spans and counters.
void traced_window(const Options& opt, const WorkloadShape& shape,
                   double untraced_p50_ms, double inproc_mean_ms, Result& r) {
    telemetry::RunTrace trace;
    const parallel::PoolStats pool0 = parallel::pool_stats();
    telemetry::set_active(&trace);
    Passes pt;
    {
        Rig traced = start_rig(shape);
        Transports tcp = tcp_transports(traced);
        pt = run_passes(opt, shape, tcp, opt.seconds / 2.0);
    }  // server shut down: the scheduler thread's spans are closed
    telemetry::set_active(nullptr);
    const parallel::PoolStats pool1 = parallel::pool_stats();

    const double reqs = static_cast<double>(pt.attempted);
    const double batches = static_cast<double>(trace.counter("serve.batches"));
    const double rows = static_cast<double>(trace.counter("serve.batch_rows"));
    r.set("serve.batch_rows_mean", batches > 0.0 ? rows / batches : 0.0,
          "count");
    const auto* exec = find_span(trace, "serve_batch/execute");
    const double exec_ms =
        exec != nullptr && exec->count > 0
            ? exec->wall_ms / static_cast<double>(exec->count)
            : 0.0;
    r.set("serve.execute_ms", exec_ms, "ms");
    // Mean in-process latency with the workload's window in flight minus the
    // execution of a batch: time spent queued, coalescing, or behind other
    // batches.
    r.set("serve.queue_wait_ms", inproc_mean_ms - exec_ms, "ms");
    const auto* fis = find_span(trace, "serve_batch/execute/final_is");
    r.set("core.final_is_ms", fis != nullptr ? fis->wall_ms / reqs : 0.0, "ms");
    r.set("cache.evictions",
          static_cast<double>(trace.counter("cache.evictions")), "count");
    r.set("cache.bytes", trace.metric("cache.bytes"), "B");
    const double madds = static_cast<double>(trace.counter("matmul.tiled_madds"));
    const double mm_us =
        static_cast<double>(trace.counter("matmul.tiled_busy_us"));
    r.set("linalg.matmul_madds_per_op", madds / reqs, "count");
    r.set("linalg.matmul_madds_per_s", mm_us > 0.0 ? madds / mm_us * 1e6 : 0.0,
          "1/s");
    r.set("pool.jobs_per_op",
          static_cast<double>(pool1.jobs - pool0.jobs) / reqs, "count");
    r.set("pool.tasks_per_op",
          static_cast<double>(pool1.tasks - pool0.tasks) / reqs, "count");
    r.set("trace.overhead_frac",
          percentile(pt.best_ms, 0.5) / untraced_p50_ms - 1.0, "1");
}

/// Simulator and cache layers of serve-estimate, replayed outside the
/// server on connection 0's requests of the first pass.
void sim_and_cache_replay(const Options& opt, const WorkloadShape& shape,
                          Result& r) {
    const auto tc = testcases::make_case("YBranch");
    const SimProbe probe(*tc, true);
    const flow::CouplingStack stack =
        flow::load_stack(shape.dir + "/ybranch.nofisflow");
    EstimateTraffic sched(pass_seed(opt, shape, 0), 0);
    evalcache::CacheConfig ccfg;
    ccfg.mem_bytes = shape.scheduler.cache_mem_mb << 20;
    evalcache::EvalCache cache(ccfg);
    const auto ns = cache.open_namespace(testcases::cache_key(*tc), tc->dim());
    const auto ns_since = [](Clock::time_point t0) {
        return std::chrono::duration<double, std::nano>(Clock::now() - t0)
            .count();
    };
    constexpr std::size_t kSimReplays = 6;
    double lookup_ns = 0.0, insert_ns = 0.0, sim_ms = 0.0;
    std::size_t lookups = 0, inserts = 0, replayed = 0;
    for (std::size_t i = 0; i < shape.latency_ops + shape.throughput_ops; ++i) {
        const std::uint64_t seed = sched.seed_of(i);
        if (!EstimateTraffic::repeats(i) && replayed < kSimReplays) {
            rng::Engine eng(seed);
            const std::uint64_t before = probe.totals().g_calls;
            const auto t0 = Clock::now();
            const auto res = core::NofisEstimator::importance_estimate(
                stack, probe, eng, EstimateTraffic::kDraws);
            sim_ms += ms_since(t0);
            if (probe.totals().g_calls - before != res.calls)
                r.fail_check("ledger: probe value calls != calls (replay)");
            ++replayed;
        }
        // The rows importance_estimate draws for this seed.
        rng::Engine eng(seed);
        const auto rows =
            stack.sample(eng, EstimateTraffic::kDraws, stack.num_blocks());
        for (std::size_t row = 0; row < rows.z.rows(); ++row) {
            const auto x = rows.z.row_span(row);
            double v = 0.0;
            auto t0 = Clock::now();
            const bool hit = cache.lookup(ns, x, v);
            lookup_ns += ns_since(t0);
            ++lookups;
            if (!hit) {
                t0 = Clock::now();
                cache.insert(ns, x, x[0]);
                insert_ns += ns_since(t0);
                ++inserts;
            }
        }
    }
    const SimProbe::Totals st = probe.totals();
    r.set("sim.g_calls",
          static_cast<double>(st.g_calls) / static_cast<double>(replayed),
          "count");
    r.set("sim.g_us_per_call",
          static_cast<double>(st.g_ns) / 1e3 / static_cast<double>(st.g_calls),
          "us");
    r.set("sim.g_grad_calls", 0.0, "count");
    r.set("sim.g_grad_us_per_call", 0.0, "us");
    r.set("sim.busy_frac", static_cast<double>(st.g_ns) / 1e6 / sim_ms, "1");
    r.set("cache.lookup_us", lookup_ns / 1e3 / static_cast<double>(lookups),
          "us");
    r.set("cache.insert_us",
          inserts > 0 ? insert_ns / 1e3 / static_cast<double>(inserts) : 0.0,
          "us");
}

Result run_serve(const Options& opt, const WorkloadShape& shape) {
    Result r;
    parallel::set_num_threads(1);
    fs::create_directories(shape.dir);
    // The first set-up's server is the one timed; the others only time
    // set-up. Starting no server before it keeps earlier threads' allocator
    // arenas out of the timed server's peak RSS.
    SetupLog setups;
    Rig rig = set_up(opt, shape, setups);
    Passes p;
    {
        Transports tcp = tcp_transports(rig);
        p = run_passes(opt, shape, tcp, opt.seconds);
    }
    rig = Rig{};
    r.set("peak_rss_mb", peak_rss_mb(), "MiB");
    for (std::size_t k = 1; k < kSetups; ++k) set_up(opt, shape, setups);
    report_setups(setups, r);

    r.attempted = p.attempted;
    r.failed = p.failed;
    report_passes(p, r);
    r.set("failed_frac",
          static_cast<double>(p.failed) / static_cast<double>(p.attempted),
          "1");
    if (p.failed > 0)
        r.fail_check(std::to_string(p.failed) +
                     " request(s) got an error response or a non-finite p_hat");
    check_bytes(shape, p, r);
    if (shape.estimate) report_estimates(p, r);
    if (!opt.trace) return r;

    const double untraced_p50 = percentile(p.best_ms, 0.5);
    const Passes pi = inproc_passes(opt, shape);
    const double inproc_p50 = percentile(pi.best_ms, 0.5);
    r.set("serve.inproc_p50_ms", inproc_p50, "ms");
    r.set("serve.transport_ms", untraced_p50 - inproc_p50, "ms");
    traced_window(opt, shape, untraced_p50, mean(pi.batched_ms), r);
    protocol_replay(p, r);
    // Rows per flow call: the scheduler's mean batch split over the models
    // it groups by (one 500-row IS draw per estimate).
    const std::size_t per_call =
        shape.estimate
            ? EstimateTraffic::kDraws
            : std::max<std::size_t>(
                  FlowTraffic::kRows,
                  static_cast<std::size_t>(std::lround(
                      r.metrics["serve.batch_rows_mean"].first /
                      static_cast<double>(shape.models.size()))));
    flow_replay(shape, per_call, opt.seed, r);
    if (shape.estimate) sim_and_cache_replay(opt, shape, r);
    return r;
}

}  // namespace

Result run_serve_flow(const Options& opt) {
    WorkloadShape shape;
    shape.dir = opt.work_dir + "/serve-flow-models";
    shape.models = {"affine0", "affine1", "rqs0", "rqs1"};
    shape.latency_ops = 32;
    shape.throughput_ops = 32;
    shape.window = 16;
    Result r = run_serve(opt, shape);
    r.notes["pool_lanes"] = "1";
    return r;
}

Result run_serve_estimate(const Options& opt) {
    WorkloadShape shape;
    shape.dir = opt.work_dir + "/serve-estimate-models";
    shape.models = {"ybranch"};
    // Multiples of 3, so every pass repeats exactly one seed in three.
    shape.latency_ops = 6;
    shape.throughput_ops = 3;
    shape.window = 2;
    shape.estimate = true;
    // Memory tier only: the disk tier's fsyncs would dominate the timings.
    shape.scheduler.cache_mem_mb = 16;
    Result r = run_serve(opt, shape);
    r.notes["pool_lanes"] = "1";
    return r;
}

}  // namespace perfbench
