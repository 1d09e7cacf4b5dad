// Tests for the parallel execution layer (src/parallel) and its central
// promise: results are bitwise identical under any thread count. Covers the
// ThreadPool fork-join primitive, parallel_for chunking, the parallel
// matmul kernel, batched guarded evaluation, and a full NOFIS run replayed
// at several pool sizes (with and without fault injection).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/nofis.hpp"
#include "estimators/guarded_problem.hpp"
#include "linalg/matrix.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/normal.hpp"
#include "testcases/fault_injector.hpp"
#include "testcases/synthetic.hpp"

namespace {

using namespace nofis;

/// Restores the global pool size on scope exit so tests don't leak their
/// thread-count choice into each other.
struct PoolGuard {
    ~PoolGuard() { parallel::set_num_threads(0); }
};

TEST(ThreadPool, RunsEveryLaneExactlyOnce) {
    parallel::ThreadPool pool(4);
    EXPECT_EQ(pool.lanes(), 4u);
    std::vector<int> hits(4, 0);
    pool.run([&](std::size_t lane) { ++hits[lane]; });
    for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, SingleLanePoolRunsInline) {
    parallel::ThreadPool pool(1);
    EXPECT_EQ(pool.lanes(), 1u);
    int count = 0;
    pool.run([&](std::size_t lane) {
        EXPECT_EQ(lane, 0u);
        ++count;
    });
    EXPECT_EQ(count, 1);
}

TEST(ThreadPool, RethrowsLowestLaneException) {
    parallel::ThreadPool pool(4);
    std::atomic<int> completed{0};
    try {
        pool.run([&](std::size_t lane) {
            if (lane == 3) throw std::runtime_error("lane three");
            if (lane == 1) throw std::runtime_error("lane one");
            ++completed;
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "lane one");
    }
    // Non-throwing lanes still ran to completion.
    EXPECT_EQ(completed.load(), 2);
}

TEST(ThreadPool, ReusableAcrossJobs) {
    parallel::ThreadPool pool(3);
    for (int round = 0; round < 50; ++round) {
        std::atomic<int> sum{0};
        pool.run([&](std::size_t lane) {
            sum += static_cast<int>(lane) + 1;
        });
        EXPECT_EQ(sum.load(), 6);
    }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
    PoolGuard guard;
    for (std::size_t threads : {1u, 2u, 4u, 7u}) {
        parallel::set_num_threads(threads);
        const std::size_t n = 103;  // deliberately not a lane multiple
        std::vector<int> hits(n, 0);
        parallel::parallel_for(n, [&](std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i) ++hits[i];
        });
        EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
                  static_cast<int>(n))
            << "threads=" << threads;
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i], 1) << "index " << i << " threads " << threads;
    }
}

TEST(ParallelFor, ZeroAndTinyRangesWork) {
    PoolGuard guard;
    parallel::set_num_threads(8);
    int calls = 0;
    parallel::parallel_for(0, [&](std::size_t, std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);

    // n < lanes: every index still visited exactly once.
    std::vector<int> hits(3, 0);
    parallel::parallel_for(3, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) ++hits[i];
    });
    for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, NestedCallDegradesToInlineWithoutDeadlock) {
    PoolGuard guard;
    parallel::set_num_threads(4);
    std::vector<std::atomic<int>> hits(64);
    parallel::parallel_for(8, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
            parallel::parallel_for(8, [&](std::size_t b2, std::size_t e2) {
                for (std::size_t j = b2; j < e2; ++j) ++hits[i * 8 + j];
            });
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SecondCallerCompletesWhileAnotherHoldsThePool) {
    PoolGuard guard;
    parallel::set_num_threads(2);
    std::promise<void> release;
    const std::shared_future<void> released = release.get_future().share();
    std::atomic<int> entered{0};
    std::thread holder([&] {
        parallel::parallel_for(2, [&](std::size_t, std::size_t) {
            entered.fetch_add(1);
            released.wait();
        });
    });
    while (entered.load() < 2) std::this_thread::yield();  // both lanes held

    auto second = std::async(std::launch::async, [] {
        std::vector<int> hits(64, 0);
        parallel::parallel_for(hits.size(), [&](std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i) ++hits[i];
        });
        return std::count(hits.begin(), hits.end(), 1);
    });
    const bool completed = second.wait_for(std::chrono::seconds(5)) ==
                           std::future_status::ready;
    release.set_value();  // frees the holder either way, so failure cannot hang
    holder.join();
    EXPECT_TRUE(completed) << "parallel_for waited for another caller's job";
    EXPECT_EQ(second.get(), 64);
}

TEST(ParallelFor, SetNumThreadsRoundTrips) {
    PoolGuard guard;
    parallel::set_num_threads(3);
    EXPECT_EQ(parallel::num_threads(), 3u);
    parallel::set_num_threads(0);
    EXPECT_GE(parallel::num_threads(), 1u);
}

TEST(RethrowFirst, PicksLowestIndexAndIgnoresEmpty) {
    std::vector<std::exception_ptr> none(5);
    EXPECT_NO_THROW(parallel::rethrow_first(none));

    std::vector<std::exception_ptr> errors(5);
    errors[4] = std::make_exception_ptr(std::runtime_error("late"));
    errors[2] = std::make_exception_ptr(std::runtime_error("early"));
    try {
        parallel::rethrow_first(errors);
        FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "early");
    }
}

TEST(ParallelFor, ForEachIndexRunsEveryIndexAndRethrowsLowestFailure) {
    PoolGuard guard;
    constexpr std::size_t kN = 97;
    for (const std::size_t lanes : {1, 4}) {
        parallel::set_num_threads(lanes);
        std::vector<int> ran(kN, 0);
        std::vector<double> out(kN, 0.0);
        try {
            parallel::for_each_index(kN, [&](std::size_t i) {
                ++ran[i];
                if (i % 10 == 7)
                    throw std::runtime_error("index " + std::to_string(i));
                out[i] = std::sqrt(static_cast<double>(i)) * 0.1;
            });
            FAIL() << "expected an exception at " << lanes << " lanes";
        } catch (const std::runtime_error& e) {
            // Index 7 fails first in index order, whichever lane ran it.
            EXPECT_STREQ(e.what(), "index 7") << lanes << " lanes";
        }
        for (std::size_t i = 0; i < kN; ++i) {
            EXPECT_EQ(ran[i], 1) << "index " << i << " at " << lanes;
            const double expect =
                i % 10 == 7 ? 0.0 : std::sqrt(static_cast<double>(i)) * 0.1;
            EXPECT_EQ(out[i], expect) << "index " << i << " at " << lanes;
        }
    }
    // No failures: nothing is thrown, empty ranges are fine.
    parallel::set_num_threads(4);
    EXPECT_NO_THROW(parallel::for_each_index(0, [](std::size_t) {}));
    std::vector<std::size_t> seen(50, 0);
    EXPECT_NO_THROW(
        parallel::for_each_index(50, [&](std::size_t i) { seen[i] = i; }));
    for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(seen[i], i);
}

TEST(ParallelMatmul, BitwiseIdenticalAcrossThreadCounts) {
    PoolGuard guard;
    rng::Engine eng(17);
    // 96x96x96 = ~885k multiply-adds: well above the parallel threshold.
    const auto a = rng::standard_normal_matrix(eng, 96, 96);
    const auto b = rng::standard_normal_matrix(eng, 96, 96);

    parallel::set_num_threads(1);
    const auto serial = a.matmul(b);
    for (std::size_t threads : {2u, 3u, 8u}) {
        parallel::set_num_threads(threads);
        const auto parallel_out = a.matmul(b);
        ASSERT_EQ(parallel_out.rows(), serial.rows());
        ASSERT_EQ(parallel_out.cols(), serial.cols());
        for (std::size_t i = 0; i < serial.size(); ++i)
            ASSERT_EQ(parallel_out.flat()[i], serial.flat()[i])
                << "element " << i << " differs at threads=" << threads;
    }
}

TEST(ParallelGRows, BatchMatchesSerialCallsOnCleanProblem) {
    PoolGuard guard;
    const testcases::LeafCase leaf;
    rng::Engine eng(5);
    const auto x = rng::standard_normal_matrix(eng, 77, leaf.dim());

    std::vector<double> serial(x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r)
        serial[r] = leaf.g(x.row_span(r));

    for (std::size_t threads : {1u, 4u}) {
        parallel::set_num_threads(threads);
        const auto batch = leaf.g_rows(x);
        ASSERT_EQ(batch.size(), serial.size());
        for (std::size_t r = 0; r < serial.size(); ++r)
            ASSERT_EQ(batch[r], serial[r]) << "row " << r;
    }
}

void expect_reports_equal(const estimators::FaultReport& a,
                          const estimators::FaultReport& b,
                          const char* context) {
    for (std::size_t i = 0; i < a.counts.size(); ++i)
        EXPECT_EQ(a.counts[i], b.counts[i]) << context << " counts[" << i
                                            << "]";
    EXPECT_EQ(a.retry_attempts, b.retry_attempts) << context;
    EXPECT_EQ(a.recovered, b.recovered) << context;
    EXPECT_EQ(a.clamped, b.clamped) << context;
    EXPECT_EQ(a.propagated, b.propagated) << context;
    EXPECT_EQ(a.has_first, b.has_first) << context;
    EXPECT_EQ(a.first_kind, b.first_kind) << context;
    EXPECT_EQ(a.first_call_index, b.first_call_index) << context;
    EXPECT_EQ(a.first_message, b.first_message) << context;
    EXPECT_EQ(a.first_x, b.first_x) << context;
}

TEST(ParallelGRows, GuardedBatchReplaysFaultsIdenticallyAcrossThreadCounts) {
    PoolGuard guard;
    const testcases::LeafCase leaf;
    testcases::FaultInjectorConfig icfg;
    icfg.nan_rate = 0.15;
    icfg.throw_rate = 0.05;
    icfg.seed = 1234;

    rng::Engine eng(11);
    const auto x = rng::standard_normal_matrix(eng, 64, leaf.dim());

    std::vector<double> baseline;
    estimators::FaultReport baseline_report;
    for (std::size_t threads : {1u, 2u, 8u}) {
        parallel::set_num_threads(threads);
        const testcases::FaultInjector injector(leaf, icfg);
        estimators::GuardConfig gcfg;
        gcfg.policy = estimators::GuardConfig::Policy::kRetryPerturb;
        const estimators::GuardedProblem guarded(injector, gcfg);
        const auto values = guarded.g_rows(x);
        if (threads == 1u) {
            baseline = values;
            baseline_report = guarded.report();
            EXPECT_GT(baseline_report.total_faults(), 0u)
                << "test needs a fault load to be meaningful";
            continue;
        }
        ASSERT_EQ(values.size(), baseline.size());
        for (std::size_t r = 0; r < baseline.size(); ++r)
            ASSERT_EQ(values[r], baseline[r])
                << "row " << r << " differs at threads=" << threads;
        expect_reports_equal(guarded.report(), baseline_report, "g_rows");
    }
}

struct RunFingerprint {
    double p_hat = 0.0;
    std::size_t calls = 0;
    estimators::FaultReport report;
    std::vector<double> stage_losses;
};

RunFingerprint run_nofis(std::size_t threads, bool inject) {
    const testcases::LeafCase leaf;
    testcases::FaultInjectorConfig icfg;
    icfg.nan_rate = 0.01;
    icfg.throw_rate = 0.005;
    icfg.seed = 99;
    const testcases::FaultInjector injector(leaf, icfg);
    const estimators::RareEventProblem& problem =
        inject ? static_cast<const estimators::RareEventProblem&>(injector)
               : leaf;

    core::NofisConfig cfg;
    cfg.epochs = 8;
    cfg.samples_per_epoch = 40;
    cfg.n_is = 300;
    cfg.tau = 20.0;
    cfg.hidden = {16, 16};
    cfg.layers_per_block = 4;
    cfg.threads = threads;
    core::NofisEstimator est(cfg, core::LevelSchedule::manual({8.0, 3.0, 0.0}));

    rng::Engine eng(7);
    const auto run = est.run(problem, eng);

    RunFingerprint fp;
    fp.p_hat = run.estimate.p_hat;
    fp.calls = run.estimate.calls;
    fp.report = run.health.faults;
    for (const auto& s : run.stages)
        for (double v : s.epoch_loss) fp.stage_losses.push_back(v);
    return fp;
}

// The seed-determinism property the whole layer is built around: a NOFIS
// run is a pure function of (seed, config) — the thread count changes only
// wall-clock time, never a single bit of the estimate, the call budget, the
// loss curves, or the fault ledger.
TEST(Determinism, NofisRunBitwiseIdenticalAcrossThreadCounts) {
    PoolGuard guard;
    const RunFingerprint base = run_nofis(1, /*inject=*/false);
    EXPECT_TRUE(std::isfinite(base.p_hat));
    for (std::size_t threads : {2u, 8u}) {
        const RunFingerprint fp = run_nofis(threads, /*inject=*/false);
        EXPECT_EQ(fp.p_hat, base.p_hat) << "threads=" << threads;
        EXPECT_EQ(fp.calls, base.calls) << "threads=" << threads;
        ASSERT_EQ(fp.stage_losses.size(), base.stage_losses.size());
        for (std::size_t i = 0; i < base.stage_losses.size(); ++i)
            ASSERT_EQ(fp.stage_losses[i], base.stage_losses[i])
                << "loss " << i << " threads=" << threads;
        expect_reports_equal(fp.report, base.report, "clean run");
    }
}

TEST(Determinism, FaultInjectedNofisRunReplaysIdenticallyAcrossThreadCounts) {
    PoolGuard guard;
    const RunFingerprint base = run_nofis(1, /*inject=*/true);
    EXPECT_GT(base.report.total_faults(), 0u)
        << "test needs a fault load to be meaningful";
    for (std::size_t threads : {2u, 8u}) {
        const RunFingerprint fp = run_nofis(threads, /*inject=*/true);
        EXPECT_EQ(fp.p_hat, base.p_hat) << "threads=" << threads;
        EXPECT_EQ(fp.calls, base.calls) << "threads=" << threads;
        ASSERT_EQ(fp.stage_losses.size(), base.stage_losses.size());
        for (std::size_t i = 0; i < base.stage_losses.size(); ++i) {
            // NaN sentinels (skipped epochs) compare unequal to themselves;
            // treat NaN==NaN as a match, anything else must be bitwise
            // equal.
            const double x = fp.stage_losses[i];
            const double y = base.stage_losses[i];
            if (std::isnan(x) && std::isnan(y)) continue;
            ASSERT_EQ(x, y) << "loss " << i << " threads=" << threads;
        }
        expect_reports_equal(fp.report, base.report, "fault-injected run");
    }
}

}  // namespace
