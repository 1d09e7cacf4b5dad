// Tests for the telemetry/observability layer (src/telemetry) and the
// correctness fixes that rode along with it: span nesting and counter
// accumulation, JSON well-formedness of the exported record, the
// zero-perturbation contract (estimates bitwise identical with telemetry on
// or off), RAII stream-state guarding in the serializer and diagnostics,
// strict CLI numeric parsing, and corrupt-flow-file rejection.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/nofis.hpp"
#include "flow/serialize.hpp"
#include "linalg/matrix.hpp"
#include "parallel/thread_pool.hpp"
#include "telemetry/telemetry.hpp"
#include "testcases/synthetic.hpp"
#include "util/ios_guard.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"

namespace {

using namespace nofis;

/// Deactivates the global trace on scope exit so tests cannot leak an
/// active sink into each other.
struct TraceGuard {
    ~TraceGuard() { telemetry::set_active(nullptr); }
};

// ---------------------------------------------------------------------------
// Span tree & counters
// ---------------------------------------------------------------------------

TEST(Telemetry, ScopedSpansNestAndAccumulate) {
    TraceGuard guard;
    telemetry::RunTrace trace;
    telemetry::set_active(&trace);

    for (int i = 0; i < 3; ++i) {
        telemetry::ScopedSpan outer("outer");
        {
            telemetry::ScopedSpan inner("inner");
        }
        {
            telemetry::ScopedSpan inner("inner");
        }
    }
    telemetry::set_active(nullptr);

    const telemetry::SpanNode* outer = trace.root().find("outer");
    ASSERT_NE(outer, nullptr);
    EXPECT_EQ(outer->count, 3u);
    EXPECT_GE(outer->wall_ms, 0.0);
    // "inner" nested under "outer", re-entered twice per outer pass — one
    // accumulated node, not six siblings.
    ASSERT_EQ(outer->children.size(), 1u);
    const telemetry::SpanNode* inner = outer->find("inner");
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(inner->count, 6u);
    EXPECT_LE(inner->wall_ms, outer->wall_ms + 1e-9);
    // Nothing at root level besides "outer".
    EXPECT_EQ(trace.root().find("inner"), nullptr);
}

TEST(Telemetry, SpansAreNoOpsWhenInactive) {
    telemetry::RunTrace trace;
    {
        telemetry::ScopedSpan span("orphan");
    }
    EXPECT_TRUE(trace.root().children.empty());
    EXPECT_EQ(telemetry::active(), nullptr);
}

TEST(Telemetry, SpansFromNonOwnerThreadsAreIgnored) {
    TraceGuard guard;
    telemetry::RunTrace trace;
    telemetry::set_active(&trace);
    std::thread worker([] {
        telemetry::ScopedSpan span("worker_span");  // must not touch the tree
        telemetry::count("worker_counter", 2);      // counters are allowed
    });
    worker.join();
    telemetry::set_active(nullptr);
    EXPECT_EQ(trace.root().find("worker_span"), nullptr);
    EXPECT_EQ(trace.counter("worker_counter"), 2u);
}

TEST(Telemetry, CountersAccumulateAcrossThreads) {
    TraceGuard guard;
    telemetry::RunTrace trace;
    telemetry::set_active(&trace);
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t)
        workers.emplace_back([] {
            for (int i = 0; i < 1000; ++i) telemetry::count("hits");
        });
    for (auto& w : workers) w.join();
    telemetry::count("hits", 5);
    telemetry::set_active(nullptr);
    EXPECT_EQ(trace.counter("hits"), 4005u);
    EXPECT_EQ(trace.counter("never_written"), 0u);
}

TEST(Telemetry, MetricsLastWriteWins) {
    telemetry::RunTrace trace;
    trace.set_metric("ess", 1.5);
    trace.set_metric("ess", 2.5);
    EXPECT_EQ(trace.metric("ess"), 2.5);
    EXPECT_FALSE(trace.has_metric("missing"));
    EXPECT_EQ(trace.metric("missing", -1.0), -1.0);
}

// ---------------------------------------------------------------------------
// JSON export
// ---------------------------------------------------------------------------

TEST(TelemetryJson, RecordIsWellFormed) {
    TraceGuard guard;
    telemetry::RunTrace trace;
    telemetry::set_active(&trace);
    {
        telemetry::ScopedSpan run("nofis_run");
        telemetry::ScopedSpan stage("stage_1");
        telemetry::ScopedSpan phase("g_eval");
    }
    trace.add_counter("calls", 123);
    trace.set_metric("ess_all", 45.5);
    // Hostile inputs: names needing escapes, non-finite metric values.
    trace.add_counter("weird \"name\"\n\t\\", 1);
    trace.set_metric("bad_metric", std::nan(""));
    trace.set_metric("big_metric", INFINITY);
    telemetry::set_active(nullptr);

    const std::string json = trace.to_json();
    EXPECT_NO_THROW(util::Json::parse(json)) << json;
    EXPECT_NE(json.find("\"schema\":\"nofis-metrics-v1\""), std::string::npos);
    EXPECT_NE(json.find("\"wall_ms\""), std::string::npos);
    EXPECT_NE(json.find("\"ess_all\""), std::string::npos);
    EXPECT_NE(json.find("\"calls\""), std::string::npos);
    // Non-finite numbers must be emitted as null, never as nan/inf tokens.
    EXPECT_NE(json.find("\"bad_metric\":null"), std::string::npos);
    EXPECT_NE(json.find("\"big_metric\":null"), std::string::npos);
    EXPECT_EQ(json.find("nan"), std::string::npos);
    EXPECT_EQ(json.find("inf"), std::string::npos);
}

// Pins the exported record byte for byte: nested spans in first-seen
// order, counters and metrics in name order, "%.17g" numbers, null for
// non-finite values, and \u00xx escapes for control characters.
TEST(TelemetryJson, GoldenRecordBytes) {
    telemetry::RunTrace trace;
    telemetry::SpanNode& run = trace.root().find_or_add("nofis_run");
    run.wall_ms = 12.5;
    run.count = 1;
    telemetry::SpanNode& train = run.find_or_add("train");
    train.wall_ms = 0.1;
    train.count = 3;
    train.find_or_add("stage_1\x1f").wall_ms = 1e-7;
    telemetry::SpanNode& final_is = run.find_or_add("final_is");
    final_is.wall_ms = 2.0;
    final_is.count = 1;
    trace.add_counter("g_calls.train", 1200);
    trace.add_counter("g_calls.final_is", 18446744073709551615ull);
    trace.add_counter("ctl\x01\"q\"\\\t", 7);
    trace.set_metric("p_hat", 4.74e-06);
    trace.set_metric("nan_metric", std::nan(""));
    trace.set_metric("neg_inf", -INFINITY);
    trace.set_metric("weight_cv", -0.0);
    EXPECT_EQ(
        trace.to_json(),
        R"({"schema":"nofis-metrics-v1","spans":{"name":"run","wall_ms":0,)"
        R"("count":0,"children":[{"name":"nofis_run","wall_ms":12.5,)"
        R"("count":1,"children":[{"name":"train",)"
        R"("wall_ms":0.10000000000000001,"count":3,"children":[)"
        R"({"name":"stage_1\u001f","wall_ms":9.9999999999999995e-08,)"
        R"("count":0}]},{"name":"final_is","wall_ms":2,"count":1}]}]},)"
        R"("counters":{"ctl\u0001\"q\"\\\t":7,)"
        R"("g_calls.final_is":18446744073709551615,"g_calls.train":1200},)"
        R"("metrics":{"nan_metric":null,"neg_inf":null,)"
        R"("p_hat":4.7400000000000004e-06,"weight_cv":-0}})");
}

TEST(TelemetryJson, EmptyTraceStillParses) {
    const telemetry::RunTrace trace;
    EXPECT_NO_THROW(util::Json::parse(trace.to_json())) << trace.to_json();
}

// ---------------------------------------------------------------------------
// The zero-perturbation contract: telemetry on vs. off is bitwise invisible
// in every number the estimator produces.
// ---------------------------------------------------------------------------

struct RunFingerprint {
    double p_hat = 0.0;
    std::size_t calls = 0;
    std::vector<double> losses;
};

RunFingerprint run_leaf(bool with_telemetry, telemetry::RunTrace* trace) {
    const testcases::LeafCase leaf;
    core::NofisConfig cfg;
    cfg.epochs = 6;
    cfg.samples_per_epoch = 30;
    cfg.n_is = 200;
    cfg.hidden = {16, 16};
    cfg.layers_per_block = 4;
    core::NofisEstimator est(cfg,
                             core::LevelSchedule::manual({8.0, 3.0, 0.0}));
    if (with_telemetry) telemetry::set_active(trace);
    rng::Engine eng(41);
    const auto run = est.run(leaf, eng);
    telemetry::set_active(nullptr);

    RunFingerprint fp;
    fp.p_hat = run.estimate.p_hat;
    fp.calls = run.estimate.calls;
    for (const auto& s : run.stages)
        for (double v : s.epoch_loss) fp.losses.push_back(v);
    return fp;
}

TEST(TelemetryDeterminism, EstimateBitwiseIdenticalOnAndOff) {
    TraceGuard guard;
    const RunFingerprint off = run_leaf(false, nullptr);
    telemetry::RunTrace trace;
    const RunFingerprint on = run_leaf(true, &trace);

    EXPECT_TRUE(std::isfinite(off.p_hat));
    EXPECT_EQ(off.p_hat, on.p_hat);  // bitwise: no tolerance
    EXPECT_EQ(off.calls, on.calls);
    ASSERT_EQ(off.losses.size(), on.losses.size());
    for (std::size_t i = 0; i < off.losses.size(); ++i)
        EXPECT_EQ(off.losses[i], on.losses[i]) << "epoch " << i;

    // And the instrumented run actually recorded the expected record: the
    // stage/phase spans, honest g-call counters, and proposal metrics.
    const telemetry::SpanNode* run_span = trace.root().find("nofis_run");
    ASSERT_NE(run_span, nullptr);
    const telemetry::SpanNode* train = run_span->find("train");
    ASSERT_NE(train, nullptr);
    ASSERT_EQ(train->children.size(), 3u);  // one span per stage
    const telemetry::SpanNode* stage1 = train->find("stage_1");
    ASSERT_NE(stage1, nullptr);
    for (const char* phase : {"sample_forward", "g_eval", "backward"}) {
        const telemetry::SpanNode* p = stage1->find(phase);
        ASSERT_NE(p, nullptr) << phase;
        EXPECT_EQ(p->count, 6u) << phase;  // one entry per epoch
    }
    EXPECT_NE(run_span->find("final_is"), nullptr);
    EXPECT_EQ(trace.counter("g_calls.train"), 3u * 6u * 30u);
    EXPECT_EQ(trace.counter("g_calls.final_is"), 200u);
    EXPECT_EQ(trace.counter("calls"), on.calls);
    EXPECT_TRUE(trace.has_metric("ess_all"));
    EXPECT_TRUE(trace.has_metric("weight_cv"));
    EXPECT_EQ(trace.metric("p_hat"), on.p_hat);
}

TEST(TelemetryDeterminism, PoolStatsExportPopulatesLaneMetrics) {
    TraceGuard guard;
    parallel::set_num_threads(3);
    telemetry::RunTrace trace;
    telemetry::set_active(&trace);
    linalg::Matrix a(64, 64, 1.0);
    linalg::Matrix b(64, 64, 0.5);
    const linalg::Matrix c = a.matmul(b);  // above the tiled threshold
    EXPECT_EQ(c(0, 0), 32.0);
    telemetry::set_active(nullptr);
    parallel::export_pool_stats(trace);
    parallel::set_num_threads(0);

    EXPECT_GE(trace.counter("matmul.tiled_calls"), 1u);
    EXPECT_GE(trace.counter("matmul.tiled_madds"), 64u * 64u * 64u);
    EXPECT_EQ(trace.metric("pool.lanes"), 3.0);
    EXPECT_TRUE(trace.has_metric("pool.lane0.busy_ms"));
    EXPECT_TRUE(trace.has_metric("pool.lane2.busy_ms"));
    EXPECT_GE(trace.counter("pool.jobs"), 1u);
}

// ---------------------------------------------------------------------------
// Satellite bugfix regressions
// ---------------------------------------------------------------------------

// save_stack used to leave setprecision(17) on the caller's stream; the
// RunHealth summary similarly pinned setprecision(4). Both now restore the
// caller's format state.
TEST(StreamStateGuard, SaveStackLeavesCallerPrecisionUntouched) {
    flow::StackConfig scfg;
    scfg.dim = 2;
    scfg.num_blocks = 1;
    scfg.layers_per_block = 2;
    scfg.hidden = {4};
    rng::Engine eng(3);
    const flow::CouplingStack stack(scfg, eng);

    std::ostringstream os;
    os << std::setprecision(3) << std::fixed;
    const auto flags_before = os.flags();
    flow::save_stack(stack, os);
    EXPECT_EQ(os.precision(), 3);
    EXPECT_EQ(os.flags(), flags_before);
    // The stream still formats the caller's way after the call.
    os.str("");
    os << 1.23456789;
    EXPECT_EQ(os.str(), "1.235");
}

TEST(StreamStateGuard, SavedStackStillRoundTripsAtFullPrecision) {
    flow::StackConfig scfg;
    scfg.dim = 3;
    scfg.num_blocks = 2;
    scfg.layers_per_block = 2;
    scfg.hidden = {4};
    rng::Engine eng(11);
    const flow::CouplingStack stack(scfg, eng);

    std::stringstream ss;
    ss << std::setprecision(2);  // must not degrade the saved doubles
    flow::save_stack(stack, ss);
    const flow::CouplingStack loaded = flow::load_stack(ss);
    const auto orig = stack.params();
    const auto got = loaded.params();
    ASSERT_EQ(orig.size(), got.size());
    for (std::size_t i = 0; i < orig.size(); ++i)
        EXPECT_EQ(linalg::max_abs_diff(orig[i].value(), got[i].value()), 0.0);
}

TEST(StreamStateGuard, IosStateGuardRestoresOnScopeExit) {
    std::ostringstream os;
    os << std::setprecision(5);
    {
        util::IosStateGuard guard(os);
        os << std::setprecision(17) << std::scientific << std::setw(30);
    }
    EXPECT_EQ(os.precision(), 5);
    EXPECT_EQ(os.width(), 0);
    EXPECT_FALSE(os.flags() & std::ios_base::scientific);
}

TEST(StrictParse, RejectsMalformedNumbers) {
    using util::parse_double;
    using util::parse_u64;

    // The exact failure the CLI used to hide: "--repeats abc" -> 0.
    EXPECT_FALSE(parse_u64("abc").has_value());
    EXPECT_FALSE(parse_u64("").has_value());
    EXPECT_FALSE(parse_u64("12x").has_value());
    EXPECT_FALSE(parse_u64("-3").has_value());
    EXPECT_FALSE(parse_u64("+3").has_value());
    EXPECT_FALSE(parse_u64(" 3").has_value());
    EXPECT_FALSE(parse_u64("3 ").has_value());
    EXPECT_FALSE(parse_u64("1.5").has_value());
    EXPECT_FALSE(parse_u64("99999999999999999999999").has_value());  // ERANGE

    EXPECT_FALSE(parse_double("abc").has_value());
    EXPECT_FALSE(parse_double("").has_value());
    EXPECT_FALSE(parse_double("0.5x").has_value());
    EXPECT_FALSE(parse_double(" 0.5").has_value());
    EXPECT_FALSE(parse_double("1e999").has_value());  // overflow
    EXPECT_FALSE(parse_double("nan").has_value());
    EXPECT_FALSE(parse_double("inf").has_value());
}

TEST(StrictParse, AcceptsExactNumbers) {
    using util::parse_double;
    using util::parse_u64;

    EXPECT_EQ(parse_u64("0").value(), 0u);
    EXPECT_EQ(parse_u64("42").value(), 42u);
    EXPECT_EQ(parse_u64("18446744073709551615").value(), UINT64_MAX);
    EXPECT_EQ(parse_double("0.5").value(), 0.5);
    EXPECT_EQ(parse_double("-2.5e-3").value(), -2.5e-3);
    EXPECT_EQ(parse_double("7").value(), 7.0);
}

TEST(CorruptFlowFile, AbsurdHeaderSizesAreRejectedBeforeAllocation) {
    // A corrupt dim field would otherwise size matrices at ~10^12 entries.
    {
        std::istringstream is(
            "nofisflow-v1\n999999999999 1 2 2.0 affine 0\n1 4\n");
        EXPECT_THROW(flow::load_stack(is), std::runtime_error);
    }
    {
        std::istringstream is(
            "nofisflow-v1\n2 999999999 2 2.0 affine 0\n1 4\n");
        EXPECT_THROW(flow::load_stack(is), std::runtime_error);
    }
    {
        // Hidden-layer count from a truncated/garbage stream.
        std::istringstream is(
            "nofisflow-v1\n2 1 2 2.0 affine 0\n888888888\n");
        EXPECT_THROW(flow::load_stack(is), std::runtime_error);
    }
    {
        // Unknown coupling kind used to silently map to additive.
        std::istringstream is(
            "nofisflow-v1\n2 1 2 2.0 banana 0\n1 4\n");
        EXPECT_THROW(flow::load_stack(is), std::runtime_error);
    }
    {
        // Zero dim / zero blocks are as corrupt as absurdly large ones.
        std::istringstream is("nofisflow-v1\n0 1 2 2.0 affine 0\n1 4\n");
        EXPECT_THROW(flow::load_stack(is), std::runtime_error);
    }
}

TEST(CorruptFlowFile, TruncatedHeaderAndBadMagicStillFail) {
    {
        std::istringstream is("not-a-flow-file\n");
        EXPECT_THROW(flow::load_stack(is), std::runtime_error);
    }
    {
        std::istringstream is("nofisflow-v1\n2 1");
        EXPECT_THROW(flow::load_stack(is), std::runtime_error);
    }
}

TEST(CorruptFlowFile, ErrorsCarryTheStructuredPrefix) {
    std::istringstream is(
        "nofisflow-v1\n999999999999 1 2 2.0 affine 0\n1 4\n");
    try {
        flow::load_stack(is);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("flow serialisation:"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("implausible"),
                  std::string::npos);
    }
}

}  // namespace
