// Tests for the batched inference-serving subsystem (src/serve) and the
// flow::stack_info introspection it is built on.
//
// The load-bearing case is ServeDeterminism.BitwiseAcrossBatchQueueAndThreads:
// for a fixed per-request seed, sample / log_prob / estimate responses must
// be byte-identical across micro-batch row budgets {1, 7, 64}, submission
// orders, and thread counts {1, 8} — the serving extension of the repo's
// training determinism contract (DESIGN.md §8.2, §10).

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>
#include <vector>

#include "flow/serialize.hpp"
#include "flow/stack_info.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/engine.hpp"
#include "serve/model_registry.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "serve/tcp_client.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace nofis;
using serve::ErrorCode;
using serve::Op;
using serve::Request;
using serve::Response;

flow::StackConfig small_config(std::size_t dim) {
    flow::StackConfig cfg;
    cfg.dim = dim;
    cfg.num_blocks = 2;
    cfg.layers_per_block = 2;
    cfg.hidden = {8};
    return cfg;
}

flow::CouplingStack make_stack(std::size_t dim, std::uint64_t seed) {
    rng::Engine eng(seed);
    return flow::CouplingStack(small_config(dim), eng);
}

/// A stack whose transforms are NOT the identity. Fresh inits zero the
/// coupling nets' output layers, so two stacks from different seeds still
/// sample identical bytes — a test that must observe a weight swap in the
/// served output needs genuinely different transforms.
flow::CouplingStack make_perturbed_stack(std::size_t dim,
                                         std::uint64_t seed) {
    auto stack = make_stack(dim, seed);
    auto snap = flow::snapshot_params(stack);
    for (std::size_t i = 0; i < snap.size(); ++i)
        for (std::size_t r = 0; r < snap[i].rows(); ++r)
            for (std::size_t c = 0; c < snap[i].cols(); ++c)
                snap[i](r, c) += 0.01 * static_cast<double>(
                                            (i + r + c + seed % 13) % 7 + 1);
    flow::restore_params(stack, snap);
    return stack;
}

Request sample_req(std::uint64_t id, const std::string& model,
                   std::uint64_t seed, std::size_t n) {
    Request req;
    req.id = id;
    req.op = Op::kSample;
    req.model = model;
    req.seed = seed;
    req.n = n;
    return req;
}

/// Restores the default pool size when a test tweaks --threads.
struct PoolGuard {
    ~PoolGuard() { parallel::set_num_threads(0); }
};

/// Temp model directory with two saved stacks: "toy3" (dim 3) and "toy2"
/// (dim 2 — matches the Leaf test case for estimate requests).
class ServeFixture : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = ::testing::TempDir() + "nofis_serve_" +
               std::to_string(::getpid()) + "_" +
               ::testing::UnitTest::GetInstance()->current_test_info()->name();
        std::filesystem::create_directories(dir_);
        flow::save_stack(make_stack(3, 101), dir_ + "/toy3.nofisflow");
        flow::save_stack(make_stack(2, 202), dir_ + "/toy2.nofisflow");
    }
    void TearDown() override {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    std::string dir_;
};

// ---------------------------------------------------------------------------
// flow::stack_info
// ---------------------------------------------------------------------------

TEST(StackInfo, MatchesConfigAndParameterTally) {
    const auto stack = make_stack(3, 7);
    const auto info = flow::stack_info(stack);
    EXPECT_EQ(info.dim, 3u);
    EXPECT_EQ(info.num_blocks, 2u);
    EXPECT_EQ(info.layers_per_block, 2u);
    EXPECT_EQ(info.coupling, flow::CouplingKind::kAffine);
    EXPECT_FALSE(info.use_actnorm);
    EXPECT_EQ(info.hidden, std::vector<std::size_t>{8});

    std::size_t tensors = 0;
    std::size_t values = 0;
    for (const auto& p : stack.params()) {
        ++tensors;
        values += p.value().rows() * p.value().cols();
    }
    EXPECT_EQ(info.param_tensors, tensors);
    EXPECT_EQ(info.param_values, values);
    EXPECT_GT(info.param_values, 0u);
    EXPECT_EQ(flow::coupling_kind_name(info.coupling), "affine");
}

TEST_F(ServeFixture, StackInfoFromFileMatchesInMemory) {
    const auto from_file = flow::stack_info(dir_ + "/toy3.nofisflow");
    const auto in_memory = flow::stack_info(make_stack(3, 101));
    EXPECT_EQ(from_file.dim, in_memory.dim);
    EXPECT_EQ(from_file.param_tensors, in_memory.param_tensors);
    EXPECT_EQ(from_file.param_values, in_memory.param_values);
}

TEST(StackInfo, MissingFileThrows) {
    EXPECT_THROW(flow::stack_info("/nonexistent/nope.nofisflow"),
                 std::runtime_error);
}

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

TEST(ServeProtocol, JsonRoundTripsSeedsExactly) {
    const std::uint64_t big = 0xfedcba9876543210ULL;
    serve::Json doc = serve::Json::object();
    doc.set("seed", serve::Json::number_u64(big));
    doc.set("x", serve::Json::number(0.1));
    const auto parsed = serve::Json::parse(doc.encode());
    EXPECT_EQ(parsed.find("seed")->as_u64(), big);
    EXPECT_EQ(parsed.find("x")->as_double(), 0.1);
}

TEST(ServeProtocol, JsonNestingIsBounded) {
    const std::size_t max = serve::Json::kMaxDepth;
    const auto nested = [](std::size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_NO_THROW(serve::Json::parse(nested(max)));
    EXPECT_THROW(serve::Json::parse(nested(max + 1)), std::runtime_error);
    // Deep enough to overflow the stack of a parser that recurses without
    // a bound: both forms must come back as parse errors.
    EXPECT_THROW(serve::Json::parse(std::string(100000, '[')),
                 std::runtime_error);
    std::string objects;
    for (int i = 0; i < 100000; ++i) objects += R"({"a":)";
    EXPECT_THROW(serve::Json::parse(objects + "1"), std::runtime_error);
}

TEST(ServeProtocol, JsonObjectsParseInLinearTime) {
    std::string text = "{";
    for (int i = 0; i < 100000; ++i)
        text += (i ? ",\"k" : "\"k") + std::to_string(i) + "\":" +
                std::to_string(i);
    text += "}";
    const auto start = std::chrono::steady_clock::now();
    const serve::Json doc = serve::Json::parse(text);
    // Linear parsing takes well under a second even sanitized; a per-key
    // scan of the earlier keys takes tens of seconds at this size.
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(5));
    ASSERT_NE(doc.find("k99999"), nullptr);
    EXPECT_EQ(doc.find("k99999")->as_u64(), 99999u);
    EXPECT_EQ(doc.encode(), text);
}

TEST(ServeProtocol, JsonDuplicateKeysAreRejected) {
    EXPECT_THROW(serve::Json::parse(R"({"a":1,"a":2})"), std::runtime_error);
    EXPECT_THROW(serve::Json::parse(R"({"a":1,"b":2,"c":3,"b":4})"),
                 std::runtime_error);
    EXPECT_THROW(serve::Json::parse(R"([{"x":{"y":0,"y":0}}])"),
                 std::runtime_error);
    EXPECT_NO_THROW(serve::Json::parse(R"({"a":{"a":1},"b":[{"a":2}]})"));
    try {
        Request::decode(R"({"op":"sample","model":"toy3","op":"ping"})");
        FAIL() << "duplicate key decoded";
    } catch (const serve::ServeError& e) {
        EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
    }
}

TEST(ServeProtocol, RequestDecodeValidates) {
    const auto req = Request::decode(
        R"({"id":9,"op":"sample","model":"toy3","seed":42,"n":5})");
    EXPECT_EQ(req.id, 9u);
    EXPECT_EQ(req.op, Op::kSample);
    EXPECT_EQ(req.model, "toy3");
    EXPECT_EQ(req.seed, 42u);
    EXPECT_EQ(req.n, 5u);

    const auto expect_bad = [](const std::string& line) {
        try {
            Request::decode(line);
            FAIL() << "expected ServeError for: " << line;
        } catch (const serve::ServeError& e) {
            EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
        }
    };
    expect_bad("not json");
    expect_bad(R"({"op":"no_such_op"})");
    expect_bad(R"({"op":"sample"})");                      // missing model
    expect_bad(R"({"op":"sample","model":"m","n":0})");    // zero rows
    expect_bad(R"({"op":"estimate","model":"m"})");        // missing case
    expect_bad(R"({"op":"log_prob","model":"m","x":[[1],[1,2]]})");  // ragged

    // Row counts are bounded before anything is allocated.
    const std::string over = std::to_string(serve::kMaxRequestRows + 1);
    EXPECT_EQ(Request::decode(R"({"op":"sample","model":"m","n":)" +
                              std::to_string(serve::kMaxRequestRows) + "}")
                  .n,
              serve::kMaxRequestRows);
    expect_bad(R"({"op":"sample","model":"m","n":)" + over + "}");
    expect_bad(R"({"op":"estimate","model":"m","case":"C","n":)" + over + "}");
    expect_bad(R"({"op":"sample","model":"m","n":99999999999})");
}

TEST(ServeProtocol, RequestEncodeDecodeRoundTrip) {
    Request req;
    req.id = 3;
    req.op = Op::kLogProb;
    req.model = "toy3";
    req.x = linalg::Matrix(2, 3);
    req.x(0, 0) = 0.25;
    req.x(1, 2) = -1.5;
    const auto back = Request::decode(req.encode());
    EXPECT_EQ(back.op, Op::kLogProb);
    EXPECT_EQ(back.x.rows(), 2u);
    EXPECT_EQ(back.x.cols(), 3u);
    EXPECT_EQ(back.x(0, 0), 0.25);
    EXPECT_EQ(back.x(1, 2), -1.5);
}

// ---------------------------------------------------------------------------
// ModelRegistry
// ---------------------------------------------------------------------------

TEST_F(ServeFixture, RegistrySharesOneInstancePerName) {
    serve::ModelRegistry registry(dir_);
    const auto a = registry.get("toy3");
    const auto b = registry.get("toy3");
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(a->info.dim, 3u);
    EXPECT_EQ(registry.resident(), std::vector<std::string>{"toy3"});
    const auto avail = registry.available();
    EXPECT_EQ(avail, (std::vector<std::string>{"toy2", "toy3"}));
}

TEST_F(ServeFixture, RegistryRejectsUnknownAndTraversalNames) {
    serve::ModelRegistry registry(dir_);
    try {
        registry.get("no_such_model");
        FAIL() << "expected kUnknownModel";
    } catch (const serve::ServeError& e) {
        EXPECT_EQ(e.code(), ErrorCode::kUnknownModel);
    }
    // A NUL would end the path the filesystem sees at "<dir>/secret", a
    // plain file; control bytes are rejected before any file is opened.
    std::ofstream(dir_ + "/secret") << "not a flow";
    for (const std::string& evil :
         {std::string("../toy3"), std::string("a/b"), std::string(),
          std::string(".hidden"), std::string("secret\0", 7),
          std::string("toy3\n"), std::string("to\x1fy3")}) {
        try {
            registry.get(evil);
            FAIL() << "expected kBadRequest for '" << evil << "'";
        } catch (const serve::ServeError& e) {
            EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
        }
    }
    // The same name off the wire: \u0000 decodes to a NUL byte.
    serve::BatchScheduler scheduler(registry, serve::SchedulerConfig{});
    const Response info = serve::Client(scheduler).call(
        Request::decode(R"({"op":"info","model":"secret\u0000"})"));
    EXPECT_FALSE(info.ok);
    EXPECT_EQ(info.error_code, ErrorCode::kBadRequest);
}

TEST_F(ServeFixture, RegistryReloadSwapsEvictDrops) {
    serve::ModelRegistry registry(dir_);
    const auto original = registry.get("toy3");
    // Overwrite the file with a differently-initialised stack: get() keeps
    // serving the resident instance until an explicit reload.
    flow::save_stack(make_stack(3, 999), dir_ + "/toy3.nofisflow");
    EXPECT_EQ(registry.get("toy3").get(), original.get());

    const auto reloaded = registry.reload("toy3");
    EXPECT_NE(reloaded.get(), original.get());
    const auto before = flow::snapshot_params(original->stack);
    const auto after = flow::snapshot_params(reloaded->stack);
    ASSERT_EQ(before.size(), after.size());
    bool any_differs = false;
    for (std::size_t i = 0; i < before.size(); ++i)
        for (std::size_t j = 0; j < before[i].flat().size(); ++j)
            any_differs |= before[i].flat()[j] != after[i].flat()[j];
    EXPECT_TRUE(any_differs);
    // The old shared instance stays alive and intact for in-flight holders.
    EXPECT_EQ(original->info.dim, 3u);

    EXPECT_TRUE(registry.evict("toy3"));
    EXPECT_FALSE(registry.evict("toy3"));
    EXPECT_TRUE(registry.resident().empty());
}

TEST_F(ServeFixture, ReloadAndEvictKeepHeldInstancesBitwiseIntact) {
    serve::ModelRegistry registry(dir_);
    const auto held = registry.get("toy3");
    const auto sample_with = [](const serve::Model& m) {
        rng::Engine eng(42);
        return m.stack.sample(eng, 3, m.stack.num_blocks());
    };
    const auto before = sample_with(*held);

    // Swap the on-disk weights and reload, then evict: the held pre-reload
    // instance — the one an in-flight batch would have captured — must keep
    // producing its original bytes.
    flow::save_stack(make_perturbed_stack(3, 999), dir_ + "/toy3.nofisflow");
    const auto swapped = registry.reload("toy3");
    ASSERT_NE(swapped.get(), held.get());
    EXPECT_TRUE(registry.evict("toy3"));

    const auto after = sample_with(*held);
    ASSERT_EQ(after.z.rows(), before.z.rows());
    for (std::size_t r = 0; r < before.z.rows(); ++r) {
        for (std::size_t c = 0; c < before.z.cols(); ++c)
            EXPECT_EQ(after.z(r, c), before.z(r, c));
        EXPECT_EQ(after.log_q[r], before.log_q[r]);
    }

    // And the post-reload instance really is different weights.
    const auto other = sample_with(*swapped);
    bool any_differs = false;
    for (std::size_t r = 0; r < before.z.rows(); ++r)
        for (std::size_t c = 0; c < before.z.cols(); ++c)
            any_differs |= other.z(r, c) != before.z(r, c);
    EXPECT_TRUE(any_differs);
}

TEST_F(ServeFixture, ReloadEvictChurnUnderTrafficStaysStructured) {
    serve::ModelRegistry registry(dir_);
    serve::BatchScheduler scheduler(registry, serve::SchedulerConfig{});

    // Clients hammer samples while the main thread swaps weights under
    // them: every response must stay ok — in-flight batches ride their held
    // shared_ptr, new batches pick up whatever generation is resident.
    std::atomic<bool> stop{false};
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < 3; ++t)
        clients.emplace_back([&, t] {
            serve::Client client(scheduler);
            std::uint64_t seed = 100 * (t + 1);
            while (!stop.load(std::memory_order_relaxed)) {
                Request req;
                req.op = Op::kSample;
                req.model = "toy3";
                req.seed = seed++;
                req.n = 2;
                const Response res = client.call(req);
                EXPECT_TRUE(res.ok) << res.error_message;
            }
        });
    for (int iter = 0; iter < 20; ++iter) {
        flow::save_stack(make_stack(3, 1000 + iter),
                         dir_ + "/toy3.nofisflow");
        registry.reload("toy3");
        if (iter % 5 == 4) registry.evict("toy3");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto& th : clients) th.join();
}

// ---------------------------------------------------------------------------
// Scheduler: determinism (the acceptance criterion)
// ---------------------------------------------------------------------------

std::vector<Request> determinism_workload() {
    std::vector<Request> reqs;
    std::uint64_t id = 1;
    for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
        Request r;
        r.id = id++;
        r.op = Op::kSample;
        r.model = "toy3";
        r.seed = seed;
        r.n = 1 + static_cast<std::size_t>(seed % 5);
        reqs.push_back(std::move(r));
    }
    for (std::uint64_t seed : {55u, 66u}) {
        Request r;
        r.id = id++;
        r.op = Op::kSample;
        r.model = "toy2";
        r.seed = seed;
        r.n = 3;
        reqs.push_back(std::move(r));
    }
    for (double shift : {0.0, 0.5, -1.25}) {
        Request r;
        r.id = id++;
        r.op = Op::kLogProb;
        r.model = "toy3";
        r.x = linalg::Matrix(2, 3);
        for (std::size_t c = 0; c < 3; ++c) {
            r.x(0, c) = 0.3 * static_cast<double>(c) + shift;
            r.x(1, c) = -0.2 + shift;
        }
        reqs.push_back(std::move(r));
    }
    for (std::uint64_t seed : {7u, 8u}) {
        Request r;
        r.id = id++;
        r.op = Op::kEstimate;
        r.model = "toy2";
        r.case_name = "Leaf";
        r.seed = seed;
        r.n = 500;
        reqs.push_back(std::move(r));
    }
    return reqs;
}

/// Runs the workload in `order` through a fresh scheduler and returns
/// encoded responses keyed by request id. Pausing first guarantees the
/// whole submission lands in the queue before any batch is assembled, so
/// the row budget alone dictates the batching.
std::map<std::uint64_t, std::string> run_workload(
    const std::string& dir, std::size_t max_batch_rows, std::size_t threads,
    const std::vector<std::size_t>& order) {
    parallel::set_num_threads(threads);
    serve::ModelRegistry registry(dir);
    serve::SchedulerConfig cfg;
    cfg.max_batch_rows = max_batch_rows;
    serve::BatchScheduler scheduler(registry, cfg);
    serve::Client client(scheduler);

    const auto reqs = determinism_workload();
    scheduler.pause();
    std::vector<std::future<Response>> futures(reqs.size());
    for (const std::size_t i : order) futures[i] = client.async(reqs[i]);
    scheduler.resume();

    std::map<std::uint64_t, std::string> encoded;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const Response res = futures[i].get();
        EXPECT_TRUE(res.ok) << "id " << reqs[i].id << ": "
                            << res.error_message;
        encoded[reqs[i].id] = res.encode();
    }
    return encoded;
}

TEST_F(ServeFixture, DeterminismBitwiseAcrossBatchQueueAndThreads) {
    const PoolGuard guard;
    const std::size_t n = determinism_workload().size();
    std::vector<std::size_t> natural(n);
    for (std::size_t i = 0; i < n; ++i) natural[i] = i;
    std::vector<std::size_t> reversed(natural.rbegin(), natural.rend());
    std::vector<std::size_t> interleaved;
    for (std::size_t i = 0; i < n; ++i)
        interleaved.push_back(i % 2 == 0 ? i / 2 : n - 1 - i / 2);

    const auto baseline = run_workload(dir_, 1, 1, natural);
    ASSERT_EQ(baseline.size(), n);

    for (const std::size_t batch_rows : {1u, 7u, 64u}) {
        for (const std::size_t threads : {1u, 8u}) {
            for (const auto* order : {&natural, &reversed, &interleaved}) {
                const auto got =
                    run_workload(dir_, batch_rows, threads, *order);
                EXPECT_EQ(got, baseline)
                    << "batch_rows=" << batch_rows << " threads=" << threads;
            }
        }
    }
}

TEST_F(ServeFixture, BatchedSampleMatchesStandaloneStackSample) {
    const PoolGuard guard;
    serve::ModelRegistry registry(dir_);
    serve::SchedulerConfig cfg;
    cfg.max_batch_rows = 64;
    serve::BatchScheduler scheduler(registry, cfg);
    serve::Client client(scheduler);

    // Reference: the exact draw CouplingStack::sample produces stand-alone.
    const auto stack = flow::load_stack(dir_ + "/toy3.nofisflow");
    rng::Engine eng(42);
    const auto expected = stack.sample(eng, 4, stack.num_blocks());

    Request req;
    req.id = 1;
    req.op = Op::kSample;
    req.model = "toy3";
    req.seed = 42;
    req.n = 4;
    const Response res = client.call(req);
    ASSERT_TRUE(res.ok) << res.error_message;
    const serve::Json* z = res.result.find("z");
    const serve::Json* log_q = res.result.find("log_q");
    ASSERT_NE(z, nullptr);
    ASSERT_NE(log_q, nullptr);
    ASSERT_EQ(z->size(), 4u);
    for (std::size_t r = 0; r < 4; ++r) {
        for (std::size_t c = 0; c < 3; ++c)
            EXPECT_EQ(z->at(r).at(c).as_double(), expected.z(r, c));
        EXPECT_EQ(log_q->at(r).as_double(), expected.log_q[r]);
    }
}

TEST_F(ServeFixture, QueuedRequestsCoalesceUpToTheRowCap) {
    // A batch is what queued while the scheduler was busy, capped at
    // max_batch_rows: ten 8-row samples at a 32-row cap run as 32 + 32 + 16
    // rows.
    serve::ModelRegistry registry(dir_);
    serve::SchedulerConfig cfg;
    cfg.max_batch_rows = 32;
    telemetry::RunTrace trace;
    telemetry::set_active(&trace);
    {
        serve::BatchScheduler scheduler(registry, cfg);
        serve::Client client(scheduler);
        scheduler.pause();
        std::vector<std::future<Response>> futures;
        for (std::uint64_t id = 1; id <= 10; ++id)
            futures.push_back(client.async(sample_req(id, "toy3", id, 8)));
        scheduler.resume();
        for (auto& f : futures) {
            const Response res = f.get();
            EXPECT_TRUE(res.ok) << res.error_message;
        }
    }
    telemetry::set_active(nullptr);
    EXPECT_EQ(trace.counter("serve.batches"), 3u);
    EXPECT_EQ(trace.counter("serve.batch_rows"), 80u);
}

// ---------------------------------------------------------------------------
// Scheduler: backpressure, deadlines, structured errors, shutdown
// ---------------------------------------------------------------------------

TEST_F(ServeFixture, BoundedQueueRejectsWithQueueFull) {
    serve::ModelRegistry registry(dir_);
    serve::SchedulerConfig cfg;
    cfg.max_queue = 2;
    serve::BatchScheduler scheduler(registry, cfg);
    serve::Client client(scheduler);

    scheduler.pause();
    Request ping;
    ping.op = Op::kPing;
    ping.id = 1;
    auto f1 = client.async(ping);
    ping.id = 2;
    auto f2 = client.async(ping);
    ping.id = 3;
    auto f3 = client.async(ping);  // over capacity: rejected immediately
    const Response rejected = f3.get();
    EXPECT_FALSE(rejected.ok);
    EXPECT_EQ(rejected.error_code, ErrorCode::kQueueFull);
    scheduler.resume();
    EXPECT_TRUE(f1.get().ok);
    EXPECT_TRUE(f2.get().ok);
}

TEST_F(ServeFixture, ExpiredDeadlineSurfacesStructuredError) {
    serve::ModelRegistry registry(dir_);
    serve::BatchScheduler scheduler(registry, serve::SchedulerConfig{});
    serve::Client client(scheduler);

    scheduler.pause();
    Request req;
    req.op = Op::kSample;
    req.model = "toy3";
    req.seed = 1;
    req.n = 1;
    req.id = 1;
    req.timeout_us = 1000;  // 1 ms, guaranteed to expire while paused
    auto expired = client.async(req);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    req.id = 2;
    req.timeout_us = 60'000'000;  // 60 s, cannot expire
    auto alive = client.async(req);
    scheduler.resume();

    const Response r1 = expired.get();
    EXPECT_FALSE(r1.ok);
    EXPECT_EQ(r1.error_code, ErrorCode::kDeadlineExceeded);
    EXPECT_TRUE(alive.get().ok);
}

TEST_F(ServeFixture, PerRequestErrorsAreStructured) {
    serve::ModelRegistry registry(dir_);
    serve::BatchScheduler scheduler(registry, serve::SchedulerConfig{});
    serve::Client client(scheduler);

    Request req;
    req.op = Op::kSample;
    req.model = "ghost";
    req.n = 1;
    EXPECT_EQ(client.call(req).error_code, ErrorCode::kUnknownModel);

    req = Request{};
    req.op = Op::kLogProb;
    req.model = "toy3";
    req.x = linalg::Matrix(1, 2);  // model dim is 3
    EXPECT_EQ(client.call(req).error_code, ErrorCode::kDimMismatch);

    req = Request{};
    req.op = Op::kEstimate;
    req.model = "toy2";
    req.case_name = "NoSuchCase";
    req.n = 10;
    EXPECT_EQ(client.call(req).error_code, ErrorCode::kUnknownCase);

    req.case_name = "Cube";  // dim 6 != model dim 2
    EXPECT_EQ(client.call(req).error_code, ErrorCode::kDimMismatch);
}

TEST_F(ServeFixture, StoppedSchedulerRejectsNewWork) {
    serve::ModelRegistry registry(dir_);
    serve::BatchScheduler scheduler(registry, serve::SchedulerConfig{});
    serve::Client client(scheduler);
    Request ping;
    ping.op = Op::kPing;
    EXPECT_TRUE(client.call(ping).ok);
    scheduler.stop();
    const Response res = client.call(ping);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.error_code, ErrorCode::kShuttingDown);
}

// ---------------------------------------------------------------------------
// Concurrent serialization (TSan-covered satellite)
// ---------------------------------------------------------------------------

TEST_F(ServeFixture, ServeRaceParallelLoadStackIsRaceFreeAndIdentical) {
    const std::string path = dir_ + "/toy3.nofisflow";
    constexpr std::size_t kThreads = 8;
    std::vector<flow::ParamSnapshot> snapshots(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            snapshots[t] = flow::snapshot_params(flow::load_stack(path));
        });
    for (auto& th : threads) th.join();
    for (std::size_t t = 1; t < kThreads; ++t) {
        ASSERT_EQ(snapshots[t].size(), snapshots[0].size());
        for (std::size_t i = 0; i < snapshots[0].size(); ++i) {
            const auto a = snapshots[0][i].flat();
            const auto b = snapshots[t][i].flat();
            ASSERT_EQ(a.size(), b.size());
            for (std::size_t j = 0; j < a.size(); ++j)
                ASSERT_EQ(a[j], b[j]) << "thread " << t << " tensor " << i;
        }
    }
}

TEST_F(ServeFixture, ServeRaceSaveLoadRoundTripUnderActiveServer) {
    serve::ModelRegistry registry(dir_);
    serve::BatchScheduler scheduler(registry, serve::SchedulerConfig{});

    std::atomic<bool> stop{false};
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < 4; ++t)
        clients.emplace_back([&, t] {
            serve::Client client(scheduler);
            std::uint64_t seed = 1000 * (t + 1);
            while (!stop.load(std::memory_order_relaxed)) {
                Request req;
                req.op = Op::kSample;
                req.model = "toy3";
                req.seed = seed++;
                req.n = 4;
                const Response res = client.call(req);
                ASSERT_TRUE(res.ok) << res.error_message;
            }
        });

    // Save/load round-trips on a *different* file while the server batches
    // sample traffic on the shared pool.
    const auto original = make_stack(5, 314);
    const auto expected = flow::snapshot_params(original);
    const std::string path = dir_ + "/roundtrip.nofisflow";
    for (int iter = 0; iter < 10; ++iter) {
        flow::save_stack(original, path);
        const auto loaded = flow::load_stack(path);
        const auto got = flow::snapshot_params(loaded);
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            const auto a = expected[i].flat();
            const auto b = got[i].flat();
            for (std::size_t j = 0; j < a.size(); ++j)
                ASSERT_EQ(a[j], b[j]);
        }
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto& th : clients) th.join();
}

// ---------------------------------------------------------------------------
// TCP server / client
// ---------------------------------------------------------------------------

TEST_F(ServeFixture, ServeTcpEndToEndPipelinedAndCleanShutdown) {
    serve::ServerConfig cfg;
    cfg.model_dir = dir_;
    cfg.port = 0;  // ephemeral
    serve::Server server(cfg);
    ASSERT_GT(server.port(), 0);

    serve::TcpClient client("127.0.0.1", server.port());
    Request ping;
    ping.op = Op::kPing;
    ping.id = 7;
    const Response pong = client.call(ping);
    EXPECT_TRUE(pong.ok);
    EXPECT_EQ(pong.id, 7u);

    // Pipelined lines come back in order with matching ids.
    std::vector<std::string> lines;
    for (std::uint64_t id = 1; id <= 5; ++id) {
        Request req;
        req.id = id;
        req.op = Op::kSample;
        req.model = "toy3";
        req.seed = id;
        req.n = 2;
        lines.push_back(req.encode());
    }
    const auto responses = client.pipeline_raw(lines);
    ASSERT_EQ(responses.size(), 5u);
    for (std::uint64_t id = 1; id <= 5; ++id) {
        const Response res = Response::decode(responses[id - 1]);
        EXPECT_TRUE(res.ok);
        EXPECT_EQ(res.id, id);
    }

    // A malformed line yields a structured bad_request, not a dropped
    // connection.
    const Response bad = Response::decode(client.call_raw("this is not json"));
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.error_code, ErrorCode::kBadRequest);

    Request down;
    down.op = Op::kShutdown;
    const Response ack = client.call(down);
    EXPECT_TRUE(ack.ok);
    server.wait();  // returns because the shutdown op signalled it
    server.shutdown();
}

TEST_F(ServeFixture, ServerSurvivesClientDisconnectMidRequest) {
    serve::ServerConfig cfg;
    cfg.model_dir = dir_;
    cfg.port = 0;
    serve::Server server(cfg);
    ASSERT_GT(server.port(), 0);

    // Clients that send a request and vanish without reading the response:
    // the connection teardown must not take the server (or other
    // connections) with it.
    for (int i = 0; i < 3; ++i) {
        serve::TcpClient client("127.0.0.1", server.port());
        Request req;
        req.id = 1;
        req.op = Op::kSample;
        req.model = "toy3";
        req.seed = static_cast<std::uint64_t>(i);
        req.n = 32;
        client.send_line(req.encode());
        // scope exit closes the socket with the response undelivered
    }

    serve::TcpClient fresh("127.0.0.1", server.port());
    Request ping;
    ping.op = Op::kPing;
    ping.id = 9;
    const Response pong = fresh.call(ping);
    EXPECT_TRUE(pong.ok);
    EXPECT_EQ(pong.id, 9u);
    server.shutdown();
}

TEST_F(ServeFixture, OverlongLineIsABadRequestAndTheServerKeepsServing) {
    serve::ServerConfig cfg;
    cfg.model_dir = dir_;
    serve::Server server(cfg);
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    const timeval timeout{20, 0};  // a server that never answers fails
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    // One byte past the bound and no newline: the server answers once and
    // stops reading this connection instead of buffering without end.
    const std::string flood(serve::kMaxLineBytes + 1, 'x');
    for (std::size_t sent = 0; sent < flood.size();) {
        const ssize_t n = ::send(fd, flood.data() + sent, flood.size() - sent,
                                 MSG_NOSIGNAL);
        ASSERT_GT(n, 0);
        sent += static_cast<std::size_t>(n);
    }
    std::string reply;
    char c = 0;
    while (::recv(fd, &c, 1, 0) == 1 && c != '\n') reply += c;
    ::close(fd);
    ASSERT_FALSE(reply.empty()) << "no response to an overlong line";
    const Response res = Response::decode(reply);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.error_code, ErrorCode::kBadRequest);

    serve::TcpClient fresh("127.0.0.1", server.port());
    Request ping;
    ping.op = Op::kPing;
    ping.id = 5;
    EXPECT_TRUE(fresh.call(ping).ok);
    server.shutdown();
}

TEST_F(ServeFixture, DeeplyNestedLineIsABadRequestAndTheServerKeepsServing) {
    serve::ServerConfig cfg;
    cfg.model_dir = dir_;
    serve::Server server(cfg);
    {
        serve::TcpClient client("127.0.0.1", server.port());
        const Response res =
            Response::decode(client.call_raw(std::string(100000, '[')));
        EXPECT_FALSE(res.ok);
        EXPECT_EQ(res.error_code, ErrorCode::kBadRequest);
    }
    serve::TcpClient fresh("127.0.0.1", server.port());
    Request ping;
    ping.op = Op::kPing;
    ping.id = 6;
    EXPECT_TRUE(fresh.call(ping).ok);
    server.shutdown();
}

/// Open descriptors of this process.
std::size_t open_fds() {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator("/proc/self/fd"))
        ++n;
    return n;
}

TEST_F(ServeFixture, ClosedConnectionsReleaseTheirDescriptors) {
    serve::ServerConfig cfg;
    cfg.model_dir = dir_;
    serve::Server server(cfg);
    const auto ping_once = [&server] {
        serve::TcpClient client("127.0.0.1", server.port());
        Request ping;
        ping.op = Op::kPing;
        EXPECT_TRUE(client.call(ping).ok);
    };
    const std::size_t start = open_fds();
    for (int i = 0; i < 64; ++i) ping_once();
    // A connection is released when a later one is accepted after its
    // writer finished, so the last few may still be open: a few more
    // connections must bring the count back near the start.
    const std::size_t slack = 4;
    for (int i = 0; i < 50 && open_fds() > start + slack; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        ping_once();
    }
    EXPECT_LE(open_fds(), start + slack);
    server.shutdown();
}

TEST_F(ServeFixture, ShutdownAckReachesTheClient) {
    // One lane and one-row batches: the configuration in which the ack is
    // most often still unsent when teardown starts.
    const PoolGuard guard;
    parallel::set_num_threads(1);
    serve::ServerConfig cfg;
    cfg.model_dir = dir_;
    cfg.scheduler.max_batch_rows = 1;
    int lost = 0;
    for (int i = 0; i < 100; ++i) {
        serve::Server server(cfg);
        // The CLI's serve loop: park until the op arrives, then tear down.
        std::thread serve_loop([&server] {
            server.wait();
            server.shutdown();
        });
        try {
            serve::TcpClient client("127.0.0.1", server.port());
            Request down;
            down.op = Op::kShutdown;
            down.id = static_cast<std::uint64_t>(i);
            if (!client.call(down).ok) ++lost;
        } catch (const std::exception&) {
            ++lost;  // connection closed before the ack arrived
        }
        server.request_shutdown();  // frees serve_loop if the call failed
        serve_loop.join();
    }
    EXPECT_EQ(lost, 0);
}

TEST_F(ServeFixture, ShutdownStaysBoundedWhenAPeerStopsReading) {
    serve::ServerConfig cfg;
    cfg.model_dir = dir_;
    serve::Server server(cfg);
    // A peer with a tiny receive window that pipelines megabytes of sample
    // responses and never reads them: the connection's writer blocks in
    // send() while teardown waits to flush.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    const int small = 4096;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    Request req;
    req.op = Op::kSample;
    req.model = "toy3";
    req.n = 2048;
    std::string lines;
    for (std::uint64_t id = 1; id <= 32; ++id) {
        req.id = id;
        req.seed = id;
        lines += req.encode() + "\n";
    }
    ASSERT_EQ(::send(fd, lines.data(), lines.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(lines.size()));
    // The one scheduler answers this ping after the samples queued ahead.
    serve::TcpClient other("127.0.0.1", server.port());
    Request ping;
    ping.op = Op::kPing;
    EXPECT_TRUE(other.call(ping).ok);

    const auto start = std::chrono::steady_clock::now();
    server.shutdown();
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(20));
    ::close(fd);
}

// ---------------------------------------------------------------------------
// Sharded server (--workers N)
// ---------------------------------------------------------------------------

TEST(ServeRouting, StableBalancedAndPinned) {
    for (const char* name : {"toy3", "toy2", "a", "", "some/model"}) {
        EXPECT_EQ(serve::route_worker(name, 1), 0u);
        for (const std::size_t w : {2u, 3u, 4u, 7u}) {
            const std::size_t first = serve::route_worker(name, w);
            EXPECT_LT(first, w);
            EXPECT_EQ(serve::route_worker(name, w), first) << "unstable hash";
        }
    }
    // Pin the fixture models to distinct shards at N=2. Changing the hash
    // function silently re-shards every deployment's disk caches — if this
    // fails, that is a breaking change to call out, not a test to update.
    EXPECT_EQ(serve::route_worker("toy3", 2), 0u);
    EXPECT_EQ(serve::route_worker("toy2", 2), 1u);
}

/// A sharded server on an ephemeral port over the fixture's models.
std::unique_ptr<serve::Server> start_server(const std::string& dir,
                                            std::size_t workers) {
    serve::ServerConfig cfg;
    cfg.model_dir = dir;
    cfg.workers = workers;
    return std::make_unique<serve::Server>(cfg);
}

TEST_F(ServeFixture, TwoSchedulersServeSingleSchedulerBytes) {
    // toy3 routes to shard 0 and toy2 to shard 1; model-less requests hash
    // the empty name.
    std::vector<std::string> lines;
    std::uint64_t id = 1;
    for (std::uint64_t seed : {11u, 22u, 33u})
        lines.push_back(sample_req(id++, "toy3", seed, 2).encode());
    for (std::uint64_t seed : {44u, 55u})
        lines.push_back(sample_req(id++, "toy2", seed, 3).encode());
    Request logp;
    logp.id = id++;
    logp.op = Op::kLogProb;
    logp.model = "toy3";
    logp.x = linalg::Matrix(2, 3);
    logp.x(0, 1) = 0.5;
    logp.x(1, 2) = -1.25;
    lines.push_back(logp.encode());
    Request est;
    est.id = id++;
    est.op = Op::kEstimate;
    est.model = "toy2";
    est.case_name = "Leaf";
    est.seed = 7;
    est.n = 500;
    lines.push_back(est.encode());
    for (const char* model : {"toy3", "toy2"}) {
        Request info;
        info.id = id++;
        info.op = Op::kInfo;
        info.model = model;
        lines.push_back(info.encode());
    }
    Request ping;
    ping.id = id++;
    ping.op = Op::kPing;
    lines.push_back(ping.encode());
    Request list;
    list.id = id++;
    list.op = Op::kListModels;
    lines.push_back(list.encode());

    std::vector<std::vector<std::string>> served;
    for (const std::size_t workers : {1u, 2u}) {
        auto server = start_server(dir_, workers);
        serve::TcpClient client("127.0.0.1", server->port());
        std::vector<std::string> responses;
        for (const auto& line : lines) {
            responses.push_back(client.call_raw(line));
            EXPECT_TRUE(Response::decode(responses.back()).ok)
                << responses.back();
        }
        served.push_back(std::move(responses));
        server->shutdown();
    }
    EXPECT_EQ(served[0], served[1]);
}

TEST_F(ServeFixture, ShardedReloadLosesNoRequests) {
    auto server = start_server(dir_, 2);
    serve::TcpClient client("127.0.0.1", server->port());
    const std::string line = sample_req(1, "toy3", 7, 2).encode();
    const std::string before = client.call_raw(line);
    ASSERT_TRUE(Response::decode(before).ok);

    // Traffic on both shards while toy3's weights swap under it.
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> failed{0};
    std::vector<std::thread> traffic;
    for (const char* model : {"toy3", "toy2"})
        traffic.emplace_back([&, model] {
            serve::TcpClient conn("127.0.0.1", server->port());
            for (std::uint64_t seed = 1;
                 !stop.load(std::memory_order_relaxed); ++seed)
                if (!conn.call(sample_req(seed, model, seed, 2)).ok)
                    failed.fetch_add(1);
        });
    flow::save_stack(make_perturbed_stack(3, 999), dir_ + "/toy3.nofisflow");
    Request reload;
    reload.op = Op::kReload;
    reload.model = "toy3";
    reload.id = 2;
    const Response ack = client.call(reload);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stop.store(true, std::memory_order_relaxed);
    for (auto& th : traffic) th.join();
    ASSERT_TRUE(ack.ok) << ack.error_message;
    EXPECT_EQ(failed.load(), 0u);

    const std::string after = client.call_raw(line);
    ASSERT_TRUE(Response::decode(after).ok);
    EXPECT_NE(before, after) << "reload did not swap to the new weights";
    server->shutdown();
}

TEST_F(ServeFixture, ShutdownOpStopsAShardedServer) {
    auto server = start_server(dir_, 2);
    serve::TcpClient client("127.0.0.1", server->port());
    Request down;
    down.op = Op::kShutdown;
    down.id = 1;
    EXPECT_TRUE(client.call(down).ok);
    server->wait();  // returns because the shutdown op signalled it
    server->shutdown();
}

TEST_F(ServeFixture, OneTraceCountsEveryScheduler) {
    telemetry::RunTrace trace;
    telemetry::set_active(&trace);
    {
        auto server = start_server(dir_, 2);
        serve::TcpClient client("127.0.0.1", server->port());
        for (std::uint64_t id = 1; id <= 4; ++id) {
            const std::string model = id % 2 == 0 ? "toy2" : "toy3";
            EXPECT_TRUE(client.call(sample_req(id, model, id, 1)).ok);
        }
        server->shutdown();
    }
    telemetry::set_active(nullptr);
    // Both shards' requests land in the one trace; only shard 0 records
    // spans.
    EXPECT_EQ(trace.counter("serve.requests"), 4u);
    EXPECT_NE(trace.root().find("serve_batch"), nullptr);
}

}  // namespace
