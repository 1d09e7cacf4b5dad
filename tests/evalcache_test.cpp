#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/levels.hpp"
#include "core/nofis.hpp"
#include "estimators/guarded_problem.hpp"
#include "evalcache/cached_problem.hpp"
#include "evalcache/disk_log.hpp"
#include "evalcache/eval_cache.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/normal.hpp"
#include "telemetry/telemetry.hpp"
#include "testcases/case_factory.hpp"
#include "testcases/fault_injector.hpp"
#include "util/hash.hpp"

namespace {

using namespace nofis;
using core::LevelSchedule;
using core::NofisConfig;
using core::NofisEstimator;
using evalcache::CacheConfig;
using evalcache::CachedProblem;
using evalcache::DiskLog;
using evalcache::EvalCache;

namespace fs = std::filesystem;

/// Ω = {x0 >= t}, P = 1 - Φ(t); cheap and analytic so every test below is
/// about the cache, not the model.
class HalfSpace2D final : public estimators::RareEventProblem {
public:
    explicit HalfSpace2D(double t) : t_(t) {}
    std::size_t dim() const noexcept override { return 2; }
    double g(std::span<const double> x) const override { return t_ - x[0]; }
    double g_grad(std::span<const double> x,
                  std::span<double> grad) const override {
        grad[0] = -1.0;
        grad[1] = 0.0;
        return t_ - x[0];
    }

private:
    double t_;
};

struct PoolGuard {
    ~PoolGuard() { parallel::set_num_threads(0); }
};

/// Unique temp directory per test, removed on teardown.
class TempDirFixture : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = ::testing::TempDir() + "nofis_evc_" +
               ::testing::UnitTest::GetInstance()->current_test_info()->name();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    std::string dir_;
};

NofisConfig tiny_config() {
    NofisConfig cfg;
    cfg.layers_per_block = 4;
    cfg.hidden = {8, 8};
    cfg.epochs = 20;
    cfg.samples_per_epoch = 30;
    cfg.learning_rate = 7e-3;
    cfg.tau = 10.0;
    cfg.n_is = 400;
    return cfg;
}

std::vector<double> random_point(rng::Engine& eng, std::size_t d) {
    std::vector<double> x(d);
    for (double& v : x) v = rng::standard_normal(eng);
    return x;
}

// ---------------------------------------------------------------------------
// Tier 1: exact keys, LRU eviction
// ---------------------------------------------------------------------------

// With every key hashed to the same bucket, distinct rows must still
// resolve to their own values: correctness may never depend on the hash.
TEST(EvalCacheMem, ExactKeyNoHashCollisions) {
    CacheConfig cfg;
    cfg.test_constant_hash = true;  // adversarial: all keys collide
    cfg.shards = 1;
    EvalCache cache(cfg);
    const auto ns = cache.open_namespace("collide#d2", 2);

    const std::vector<std::vector<double>> rows = {
        {0.0, 0.0}, {-0.0, 0.0}, {1.0, 2.0}, {2.0, 1.0}, {1e-300, -1e300}};
    for (std::size_t i = 0; i < rows.size(); ++i)
        cache.insert(ns, rows[i], static_cast<double>(i) + 0.5);

    // 0.0 and -0.0 differ bitwise, so they are distinct cache keys.
    for (std::size_t i = 0; i < rows.size(); ++i) {
        double v = 0.0;
        ASSERT_TRUE(cache.lookup(ns, rows[i], v)) << "row " << i;
        EXPECT_EQ(v, static_cast<double>(i) + 0.5) << "row " << i;
    }
    const std::vector<double> unseen = {3.0, 3.0};
    double v = 0.0;
    EXPECT_FALSE(cache.lookup(ns, unseen, v));

    // The same row under a different namespace is a different key.
    const auto other = cache.open_namespace("other#d2", 2);
    EXPECT_FALSE(cache.lookup(other, rows[2], v));
}

TEST(EvalCacheMem, NamespaceDimMismatchThrows) {
    EvalCache cache(CacheConfig{});
    cache.open_namespace("case#d2", 2);
    EXPECT_THROW(cache.open_namespace("case#d2", 3), std::runtime_error);
}

TEST(EvalCacheMem, NonFiniteValuesAreNeverStored) {
    EvalCache cache(CacheConfig{});
    const auto ns = cache.open_namespace("nan#d1", 1);
    const std::vector<double> x = {1.0};
    cache.insert(ns, x, std::numeric_limits<double>::quiet_NaN());
    cache.insert(ns, x, std::numeric_limits<double>::infinity());
    double v = 0.0;
    EXPECT_FALSE(cache.lookup(ns, x, v));
    EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(EvalCacheMem, LruEvictionAtByteCap) {
    CacheConfig cfg;
    cfg.shards = 1;
    // Room for two dim-2 entries, not three.
    cfg.mem_bytes = 2 * EvalCache::entry_bytes(2) + 8;
    EvalCache cache(cfg);
    const auto ns = cache.open_namespace("lru#d2", 2);

    const std::vector<double> a = {1.0, 0.0}, b = {2.0, 0.0}, c = {3.0, 0.0};
    cache.insert(ns, a, 1.0);
    cache.insert(ns, b, 2.0);
    cache.insert(ns, c, 3.0);  // evicts a (least recently used)

    double v = 0.0;
    EXPECT_FALSE(cache.lookup(ns, a, v)) << "oldest entry must be evicted";
    ASSERT_TRUE(cache.lookup(ns, b, v));
    EXPECT_EQ(v, 2.0);
    ASSERT_TRUE(cache.lookup(ns, c, v));
    EXPECT_EQ(v, 3.0);

    const auto stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_LE(stats.bytes, cfg.mem_bytes);

    // A lookup refreshes recency: touch b, insert d, expect c evicted.
    ASSERT_TRUE(cache.lookup(ns, b, v));
    const std::vector<double> d = {4.0, 0.0};
    cache.insert(ns, d, 4.0);
    EXPECT_TRUE(cache.lookup(ns, b, v));
    EXPECT_FALSE(cache.lookup(ns, c, v));
}

// ---------------------------------------------------------------------------
// Tier 2: append-only log, crash recovery, compaction
// ---------------------------------------------------------------------------

TEST_F(TempDirFixture, DiskLogTruncatedTailRecovery) {
    const std::string path = dir_ + "/case.evc";
    std::uint64_t full_size = 0;
    {
        DiskLog log(path, "case#d2", 2);
        log.append(std::vector<double>{1.0, 2.0}, 10.0);
        log.append(std::vector<double>{3.0, 4.0}, 20.0);
        log.append(std::vector<double>{5.0, 6.0}, 30.0);
        EXPECT_EQ(log.records(), 3u);
        full_size = log.valid_bytes();
    }
    // Simulate a crash mid-append: drop 5 bytes of the last record.
    fs::resize_file(path, full_size - 5);

    {
        DiskLog log(path, "case#d2", 2);
        EXPECT_EQ(log.records(), 2u) << "torn tail record must be dropped";
        EXPECT_TRUE(log.tail_was_truncated());
        std::vector<std::pair<std::vector<double>, double>> seen;
        log.scan([&](std::uint64_t, std::span<const double> x, double v) {
            seen.emplace_back(std::vector<double>(x.begin(), x.end()), v);
        });
        ASSERT_EQ(seen.size(), 2u);
        EXPECT_EQ(seen[0].second, 10.0);
        EXPECT_EQ(seen[1].second, 20.0);

        // Appends continue cleanly from the recovered tail.
        log.append(std::vector<double>{7.0, 8.0}, 40.0);
        EXPECT_EQ(log.records(), 3u);
    }
    {
        DiskLog log(path, "case#d2", 2);
        EXPECT_EQ(log.records(), 3u);
        EXPECT_FALSE(log.tail_was_truncated());
    }
}

TEST(EvalCacheHash, Fnv1aOfFixedBytesIsPinned) {
    // The checksum of every log record and the evalcache key hash.
    const std::string s = "NOFIS: normalizing flow";
    EXPECT_EQ(evalcache::fnv1a64(s.data(), s.size()), 0xb81720a65e4cfeceULL);
    // Hashing in two pieces continues the same stream.
    const std::uint64_t head = evalcache::fnv1a64(s.data(), 6);
    EXPECT_EQ(util::fnv1a64(s.data() + 6, s.size() - 6, head),
              0xb81720a65e4cfeceULL);
}

TEST_F(TempDirFixture, DiskLogBytesArePinned) {
    // Pins header layout, record layout and per-record checksum at once: a
    // round trip cannot catch a checksum that moves on both write and read.
    const std::string path = dir_ + "/log.evc";
    {
        DiskLog log(path, "pin#d2", 2);
        log.append(std::vector<double>{0.5, -1.25}, 1.5);
        log.append(std::vector<double>{2.0, 0.125}, -0.75);
        log.append(std::vector<double>{-3.5, 4.0}, 1e-3);
    }
    std::ifstream in(path, std::ios::binary);
    const std::string blob((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_EQ(blob.size(), 146u);
    EXPECT_EQ(util::fnv1a64(blob.data(), blob.size()), 0x4eb40b6196403e0cULL);
}

TEST_F(TempDirFixture, DiskLogHeaderMismatchThrows) {
    const std::string path = dir_ + "/case.evc";
    { DiskLog log(path, "case#d2", 2); }
    EXPECT_THROW(DiskLog(path, "case#d2", 3), std::runtime_error);
    EXPECT_THROW(DiskLog(path, "other#d2", 2), std::runtime_error);
    // Not a log at all.
    const std::string junk = dir_ + "/junk.evc";
    std::ofstream(junk) << "not a nofis eval log";
    EXPECT_FALSE(DiskLog::inspect(junk).has_value());
}

TEST_F(TempDirFixture, DiskLogCompactionDropsDuplicatesAndTornTail) {
    const std::string path = dir_ + "/case.evc";
    std::uint64_t full_size = 0;
    {
        DiskLog log(path, "case#d1", 1);
        log.append(std::vector<double>{1.0}, 10.0);
        log.append(std::vector<double>{2.0}, 20.0);
        log.append(std::vector<double>{1.0}, 11.0);  // duplicate key
        log.append(std::vector<double>{3.0}, 30.0);
        full_size = log.valid_bytes();
    }
    fs::resize_file(path, full_size - 3);  // tear the last record

    const auto result = DiskLog::compact(path);
    EXPECT_EQ(result.records_before, 3u);  // torn record already excluded
    EXPECT_EQ(result.records_after, 2u);   // {1.0} deduped, {3.0} torn away
    EXPECT_LT(result.bytes_after, result.bytes_before);

    DiskLog log(path, "case#d1", 1);
    EXPECT_EQ(log.records(), 2u);
    EXPECT_FALSE(log.tail_was_truncated());
    std::map<double, double> seen;
    log.scan([&](std::uint64_t, std::span<const double> x, double v) {
        seen[x[0]] = v;
    });
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen.at(1.0), 11.0) << "last write wins";
    EXPECT_EQ(seen.at(2.0), 20.0);
}

TEST_F(TempDirFixture, DiskTierPersistsAcrossCacheInstances) {
    CacheConfig cfg;
    cfg.dir = dir_;
    const std::vector<double> x = {0.25, -0.75};
    {
        EvalCache cache(cfg);
        const auto ns = cache.open_namespace("persist#d2", 2);
        cache.insert(ns, x, 42.0);
    }
    EvalCache cache(cfg);  // fresh memory tier, same directory
    const auto ns = cache.open_namespace("persist#d2", 2);
    double v = 0.0;
    ASSERT_TRUE(cache.lookup(ns, x, v));
    EXPECT_EQ(v, 42.0);
    EXPECT_EQ(cache.stats().disk_hits, 1u);
    // The hit was promoted to tier 1: a second lookup stays in memory.
    ASSERT_TRUE(cache.lookup(ns, x, v));
    EXPECT_EQ(cache.stats().disk_hits, 1u);
}

// ---------------------------------------------------------------------------
// Decorator: fault-retry non-poisoning
// ---------------------------------------------------------------------------

// Guarded(Cached(FaultInjector(problem))): whatever the injector does, a
// value that lands in the cache must be the true g — clamped or faulted
// evaluations are never stored.
TEST(CachedProblemFaults, RetryNeverPoisonsTheCache) {
    HalfSpace2D truth(2.0);
    testcases::FaultInjectorConfig icfg;
    icfg.nan_rate = 0.25;
    icfg.throw_rate = 0.1;
    icfg.seed = 77;
    const testcases::FaultInjector injected(truth, icfg);

    auto cache = std::make_shared<EvalCache>(CacheConfig{});
    const CachedProblem cached(injected, cache, "half#d2");
    estimators::GuardConfig gcfg;
    gcfg.policy = estimators::GuardConfig::Policy::kRetryPerturb;
    const estimators::GuardedProblem guarded(cached, gcfg);

    rng::Engine eng(5);
    std::vector<std::vector<double>> rows;
    for (int i = 0; i < 300; ++i) {
        rows.push_back(random_point(eng, 2));
        const double g = guarded.g(rows.back());
        EXPECT_TRUE(std::isfinite(g));
    }
    ASSERT_GT(injected.injected_total(), 0u) << "test exercised no faults";

    const auto ns = cache->open_namespace("half#d2", 2);
    std::size_t present = 0;
    for (const auto& row : rows) {
        double v = 0.0;
        if (!cache->lookup(ns, row, v)) continue;  // faulted-at-x rows may
        ++present;                                 // only exist perturbed
        EXPECT_EQ(v, truth.g(row)) << "cached value differs from true g";
    }
    EXPECT_GT(present, 0u);
}

TEST(CachedProblemFaults, ClampedValuesAreNeverStored) {
    HalfSpace2D truth(2.0);
    testcases::FaultInjectorConfig icfg;
    icfg.nan_burst_begin = 0;
    icfg.nan_burst_end = 5;  // first five calls fault deterministically
    const testcases::FaultInjector injected(truth, icfg);

    auto cache = std::make_shared<EvalCache>(CacheConfig{});
    const CachedProblem cached(injected, cache, "half#d2");
    estimators::GuardConfig gcfg;
    gcfg.policy = estimators::GuardConfig::Policy::kClampToFail;
    const estimators::GuardedProblem guarded(cached, gcfg);

    rng::Engine eng(9);
    std::vector<std::vector<double>> faulted, clean;
    for (int i = 0; i < 5; ++i) {
        faulted.push_back(random_point(eng, 2));
        EXPECT_EQ(guarded.g(faulted.back()), gcfg.clamp_value);
    }
    for (int i = 0; i < 5; ++i) {
        clean.push_back(random_point(eng, 2));
        EXPECT_EQ(guarded.g(clean.back()), truth.g(clean.back()));
    }

    const auto ns = cache->open_namespace("half#d2", 2);
    double v = 0.0;
    for (const auto& row : faulted)
        EXPECT_FALSE(cache->lookup(ns, row, v))
            << "a clamped/faulted row must not be cached";
    for (const auto& row : clean) {
        ASSERT_TRUE(cache->lookup(ns, row, v));
        EXPECT_EQ(v, truth.g(row));
    }
}

TEST(CachedProblemFaults, ThrowsPropagateWithoutStoring) {
    HalfSpace2D truth(1.0);
    testcases::FaultInjectorConfig icfg;
    icfg.throw_rate = 1.0;
    const testcases::FaultInjector injected(truth, icfg);
    auto cache = std::make_shared<EvalCache>(CacheConfig{});
    const CachedProblem cached(injected, cache, "half#d2");

    const std::vector<double> x = {0.5, 0.5};
    EXPECT_THROW(cached.g(x), std::exception);
    double v = 0.0;
    EXPECT_FALSE(cache->lookup(cache->open_namespace("half#d2", 2), x, v));
    EXPECT_EQ(cached.misses(), 1u) << "a throwing arrival still counts";
}

// ---------------------------------------------------------------------------
// Case factory
// ---------------------------------------------------------------------------

TEST(CaseFactory, MemoizesAndValidates) {
    testcases::CaseFactory factory;
    const auto& a = factory.get("Leaf");
    const auto& b = factory.get("Leaf");
    EXPECT_EQ(&a, &b) << "same name must yield the same instance";
    EXPECT_THROW(factory.get("NoSuchCase"), std::invalid_argument);
    EXPECT_EQ(testcases::cache_key(a), "Leaf#d" + std::to_string(a.dim()));
    EXPECT_EQ(testcases::cache_key("X", 7), "X#d7");
}

// ---------------------------------------------------------------------------
// End-to-end: bitwise identity off/cold/warm across thread counts, honest
// accounting
// ---------------------------------------------------------------------------

TEST_F(TempDirFixture, NofisBitwiseIdenticalOffColdWarmAcrossThreads) {
    const PoolGuard pool_guard;
    HalfSpace2D prob(2.0);
    const LevelSchedule levels = LevelSchedule::manual({1.0, 0.0});

    const auto run_with =
        [&](std::shared_ptr<EvalCache> cache,
            std::size_t threads) -> estimators::EstimateResult {
        NofisConfig cfg = tiny_config();
        cfg.threads = threads;
        cfg.cache = std::move(cache);
        cfg.cache_key = "half#d2";
        NofisEstimator est(cfg, levels);
        rng::Engine eng(17);
        return est.run(prob, eng).estimate;
    };

    CacheConfig ccfg;
    ccfg.dir = dir_;

    const auto off = run_with(nullptr, 1);
    const auto cold = run_with(std::make_shared<EvalCache>(ccfg), 1);
    // Fresh memory tier over the same directory: a disk-warm run.
    const auto warm = run_with(std::make_shared<EvalCache>(ccfg), 1);

    EXPECT_EQ(off.p_hat, cold.p_hat) << "cold cache changed the estimate";
    EXPECT_EQ(off.p_hat, warm.p_hat) << "warm cache changed the estimate";
    EXPECT_EQ(off.calls, cold.calls);
    EXPECT_EQ(off.calls, warm.calls) << "totals must not depend on the cache";

    EXPECT_EQ(off.cached_calls, 0u);
    EXPECT_EQ(cold.cached_calls, 0u)
        << "a cold cache cannot serve anything on continuous draws";
    EXPECT_EQ(warm.cached_calls, warm.calls)
        << "a fully warm cache must serve every arrival";

    // Thread count changes neither the estimate nor the cache behaviour:
    // one shared cache, same results at 1 and 8 lanes.
    const auto shared = std::make_shared<EvalCache>(ccfg);
    const auto warm1 = run_with(shared, 1);
    const auto warm8 = run_with(shared, 8);
    EXPECT_EQ(warm1.p_hat, off.p_hat);
    EXPECT_EQ(warm8.p_hat, off.p_hat);
    EXPECT_EQ(warm8.cached_calls, warm8.calls);
}

TEST_F(TempDirFixture, MetricsSplitSumsToTotal) {
    const PoolGuard pool_guard;
    telemetry::RunTrace trace;
    telemetry::set_active(&trace);

    HalfSpace2D prob(2.0);
    NofisConfig cfg = tiny_config();
    CacheConfig ccfg;
    ccfg.dir = dir_;
    cfg.cache = std::make_shared<EvalCache>(ccfg);
    cfg.cache_key = "half#d2";
    NofisEstimator est(cfg, LevelSchedule::manual({1.0, 0.0}));

    rng::Engine eng(21);
    const auto first = est.run(prob, eng).estimate;
    rng::Engine eng2(21);
    const auto second = est.run(prob, eng2).estimate;  // warm replay
    telemetry::set_active(nullptr);

    EXPECT_EQ(trace.counter("g_calls.total"),
              trace.counter("g_calls.fresh") + trace.counter("g_calls.cached"))
        << "the honest-accounting invariant";
    EXPECT_EQ(trace.counter("g_calls.total"), first.calls + second.calls);
    EXPECT_EQ(trace.counter("g_calls.cached"), second.calls)
        << "the warm replay must be served entirely from the cache";
    EXPECT_GT(trace.counter("cache.hits"), 0u);
    EXPECT_EQ(first.p_hat, second.p_hat);
}

}  // namespace
