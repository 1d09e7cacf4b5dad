#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "autodiff/ops.hpp"
#include "autodiff/var.hpp"
#include "checkpoint/checkpoint.hpp"
#include "core/levels.hpp"
#include "core/nofis.hpp"
#include "estimators/guarded_problem.hpp"
#include "evalcache/eval_cache.hpp"
#include "nn/optimizer.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/engine.hpp"
#include "testcases/fault_injector.hpp"
#include "util/atomic_file.hpp"
#include "util/hash.hpp"
#include "util/io_fault.hpp"

namespace {

using namespace nofis;
using core::LevelSchedule;
using core::NofisConfig;
using core::NofisEstimator;

namespace fs = std::filesystem;

/// Ω = {x0 >= t}; cheap and analytic so every test below is about the
/// checkpoint machinery, not the model.
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

/// The stop flag is process-global; never leak it into a later test.
struct StopGuard {
    ~StopGuard() { checkpoint::reset_stop_request(); }
};

/// Unique temp directory per test, removed on teardown.
class TempDirFixture : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = ::testing::TempDir() + "nofis_ckpt_" +
               ::testing::UnitTest::GetInstance()->current_test_info()->name();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    std::string dir_;
};

using CheckpointTest = TempDirFixture;
using CheckpointResumeTest = TempDirFixture;

NofisConfig tiny_config() {
    NofisConfig cfg;
    cfg.layers_per_block = 4;
    cfg.hidden = {8, 8};
    cfg.epochs = 6;
    cfg.samples_per_epoch = 24;
    cfg.learning_rate = 7e-3;
    cfg.tau = 10.0;
    cfg.n_is = 200;
    return cfg;
}

LevelSchedule tiny_levels() {
    return LevelSchedule::manual({1.2, 0.5, 0.0});
}

std::uint64_t bits(double v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

/// Bitwise equality on every externally observable piece of a RunResult:
/// the estimate, the per-stage diagnostics (NaN sentinels included), the
/// IS diagnostics, and the health ledger. This is the acceptance bar for
/// "resumed == uninterrupted".
void expect_same_run(const NofisEstimator::RunResult& a,
                     const NofisEstimator::RunResult& b) {
    EXPECT_EQ(bits(a.estimate.p_hat), bits(b.estimate.p_hat));
    EXPECT_EQ(a.estimate.calls, b.estimate.calls);
    EXPECT_EQ(a.estimate.cached_calls, b.estimate.cached_calls);
    EXPECT_EQ(a.estimate.failed, b.estimate.failed);

    ASSERT_EQ(a.stages.size(), b.stages.size());
    for (std::size_t i = 0; i < a.stages.size(); ++i) {
        const auto& sa = a.stages[i];
        const auto& sb = b.stages[i];
        EXPECT_EQ(sa.stage, sb.stage);
        EXPECT_EQ(bits(sa.level), bits(sb.level));
        ASSERT_EQ(sa.epoch_loss.size(), sb.epoch_loss.size()) << "stage " << i;
        for (std::size_t e = 0; e < sa.epoch_loss.size(); ++e)
            EXPECT_EQ(bits(sa.epoch_loss[e]), bits(sb.epoch_loss[e]))
                << "stage " << i << " epoch " << e;
        EXPECT_EQ(bits(sa.inside_fraction), bits(sb.inside_fraction));
        EXPECT_EQ(sa.retries, sb.retries);
        EXPECT_EQ(sa.retry_reasons, sb.retry_reasons);
        EXPECT_EQ(sa.skipped_epochs, sb.skipped_epochs);
    }

    EXPECT_EQ(bits(a.is_diag.max_weight), bits(b.is_diag.max_weight));
    EXPECT_EQ(bits(a.is_diag.effective_sample_size),
              bits(b.is_diag.effective_sample_size));
    EXPECT_EQ(a.is_diag.hits, b.is_diag.hits);
    EXPECT_EQ(a.is_diag.draws, b.is_diag.draws);
    EXPECT_EQ(bits(a.is_diag.ess_all), bits(b.is_diag.ess_all));
    EXPECT_EQ(bits(a.is_diag.weight_cv), bits(b.is_diag.weight_cv));

    EXPECT_EQ(a.health.faults.counts, b.health.faults.counts);
    EXPECT_EQ(a.health.faults.retry_attempts, b.health.faults.retry_attempts);
    EXPECT_EQ(a.health.faults.recovered, b.health.faults.recovered);
    EXPECT_EQ(a.health.faults.clamped, b.health.faults.clamped);
    EXPECT_EQ(a.health.faults.propagated, b.health.faults.propagated);
    EXPECT_EQ(a.health.g_retry_calls, b.health.g_retry_calls);
    EXPECT_EQ(a.health.stage_retries, b.health.stage_retries);
    EXPECT_EQ(a.health.stages_rolled_back, b.health.stages_rolled_back);
    EXPECT_EQ(a.health.skipped_epochs, b.health.skipped_epochs);
}

std::vector<fs::path> snapshot_files(const std::string& dir) {
    std::vector<fs::path> out;
    for (const auto& entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".nofisckpt")
            out.push_back(entry.path());
    std::sort(out.begin(), out.end());
    return out;
}

void flip_one_bit(const fs::path& path, std::size_t byte_offset) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::size_t>(f.tellg());
    ASSERT_LT(byte_offset, size);
    f.seekg(static_cast<std::streamoff>(byte_offset));
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x10);
    f.seekp(static_cast<std::streamoff>(byte_offset));
    f.write(&c, 1);
}

// ---------------------------------------------------------------------------
// AtomicFile durability contract
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, AtomicFileReplacesWholeFileOrNothing) {
    const std::string path = dir_ + "/target.txt";
    util::atomic_write_file(path, "old contents");

    // An injected ENOSPC on commit must leave the old file byte-identical
    // and no temp residue behind.
    util::IoFaultConfig io;
    io.enospc_rate = 1.0;
    util::IoFaultInjector inj(io);
    {
        util::ScopedIoFaultInjector install(&inj);
        util::AtomicFile file(path);
        file.stream() << "new contents that must never land";
        EXPECT_THROW(file.commit(), std::runtime_error);
    }
    EXPECT_GE(inj.injected_enospc(), 1u);

    std::ifstream in(path, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(contents, "old contents");
    EXPECT_EQ(snapshot_files(dir_).size(), 0u);  // no stray .nofisckpt
    std::size_t files = 0;
    for (const auto& entry : fs::directory_iterator(dir_)) {
        (void)entry;
        ++files;
    }
    EXPECT_EQ(files, 1u) << "temp file leaked next to " << path;

    // With the injector gone the same replacement succeeds.
    util::atomic_write_file(path, "new contents");
    std::ifstream in2(path, std::ios::binary);
    std::string contents2((std::istreambuf_iterator<char>(in2)),
                          std::istreambuf_iterator<char>());
    EXPECT_EQ(contents2, "new contents");
}

TEST(IoFaultInjector, DecisionSequenceIsPinned) {
    // Write and read decisions are pure hashes of (seed, op index, stream
    // tag): these sequences are the bits every injected-I/O test replays.
    util::IoFaultConfig io;
    io.enospc_rate = 0.1;
    io.torn_write_rate = 0.1;
    io.corrupt_rate = 0.1;
    io.short_read_rate = 0.2;
    const util::IoFaultInjector inj(io);
    auto code = [](util::IoFault f) {
        switch (f) {
            case util::IoFault::kNone: return '.';
            case util::IoFault::kEnospc: return 'e';
            case util::IoFault::kTornWrite: return 't';
            case util::IoFault::kCorruptBit: return 'c';
            case util::IoFault::kShortRead: return 's';
        }
        return '?';
    };
    std::string writes;
    std::string reads;
    for (int i = 0; i < 40; ++i) writes += code(inj.next_write_fault());
    for (int i = 0; i < 40; ++i) reads += code(inj.next_read_fault());
    EXPECT_EQ(writes, ".ee....c.e....e...cc...c..c......c.e....");
    EXPECT_EQ(reads, "..ss......s.s...c.s....s......s.s....s.s");
}

// ---------------------------------------------------------------------------
// State capture primitives
// ---------------------------------------------------------------------------

TEST(CheckpointState, EngineStateRoundTripResumesStream) {
    rng::Engine eng(12345);
    for (int i = 0; i < 17; ++i) (void)eng();

    const rng::Engine::State mid = eng.state();
    std::vector<std::uint64_t> tail;
    for (int i = 0; i < 32; ++i) tail.push_back(eng());

    rng::Engine other(999);  // different seed; state restore overrides it
    other.set_state(mid);
    for (int i = 0; i < 32; ++i) EXPECT_EQ(other(), tail[i]);
}

TEST(CheckpointState, AdamExportImportContinuesBitwise) {
    // Two little parameter matrices trained on a quadratic; tearing the
    // optimizer down mid-run and importing its state must continue exactly.
    auto make_params = [] {
        linalg::Matrix a(2, 2);
        a(0, 0) = 0.5;
        a(0, 1) = -1.25;
        a(1, 0) = 2.0;
        a(1, 1) = 0.125;
        linalg::Matrix b(1, 2);
        b(0, 0) = -0.75;
        b(0, 1) = 1.5;
        return std::vector<autodiff::Var>{autodiff::Var(a, true),
                                          autodiff::Var(b, true)};
    };
    auto step_once = [](nn::Adam& opt, std::vector<autodiff::Var>& params) {
        opt.zero_grad();
        autodiff::Var loss = autodiff::add(
            autodiff::sum(autodiff::square_v(params[0])),
            autodiff::sum(autodiff::square_v(params[1])));
        loss.backward();
        opt.step();
    };

    // Reference: 7 uninterrupted steps.
    auto ref_params = make_params();
    nn::Adam ref(ref_params, 3e-2);
    for (int i = 0; i < 7; ++i) step_once(ref, ref_params);

    // Resumed: 4 steps, export, fresh optimizer over the live params,
    // import, 3 more steps.
    auto params = make_params();
    nn::OptimizerState state;
    {
        nn::Adam opt(params, 3e-2);
        for (int i = 0; i < 4; ++i) step_once(opt, params);
        state = opt.export_state();
    }
    nn::Adam resumed(params, 3e-2);
    resumed.import_state(state);
    for (int i = 0; i < 3; ++i) step_once(resumed, params);

    for (std::size_t p = 0; p < params.size(); ++p) {
        const auto& got = params[p].value();
        const auto& want = ref_params[p].value();
        for (std::size_t i = 0; i < got.flat().size(); ++i)
            EXPECT_EQ(bits(got.flat()[i]), bits(want.flat()[i]))
                << "param " << p << " element " << i;
    }
}

TEST(CheckpointState, AdamImportRejectsMismatchedLayout) {
    // Checkpoint bytes come from disk: a state whose slot count or slot
    // shapes do not match the live parameters must be refused, not copied.
    std::vector<autodiff::Var> params{autodiff::Var(linalg::Matrix(2, 3), true),
                                      autodiff::Var(linalg::Matrix(1, 3), true)};
    nn::Adam opt(params, 1e-2);
    const nn::OptimizerState good = opt.export_state();
    ASSERT_EQ(good.slots.size(), 4u);
    EXPECT_NO_THROW(opt.import_state(good));

    nn::OptimizerState short_state = good;
    short_state.slots.pop_back();
    EXPECT_THROW(opt.import_state(short_state), std::runtime_error);

    nn::OptimizerState reshaped = good;
    reshaped.slots[3] = linalg::Matrix(3, 1);
    EXPECT_THROW(opt.import_state(reshaped), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Snapshot encoding
// ---------------------------------------------------------------------------

checkpoint::TrainSnapshot sample_snapshot() {
    checkpoint::TrainSnapshot s;
    s.fingerprint = 0xfeedfacecafebeefULL;
    s.next_stage = 3;
    linalg::Matrix w(2, 3);
    for (std::size_t i = 0; i < 6; ++i) w.flat()[i] = 0.25 * (i + 1);
    s.params = {w, linalg::Matrix(1, 2, -0.5)};
    s.scale_caps = {2.0, 1.4};
    s.rng_state = {1, 2, 3, 0xffffffffffffffffULL};
    s.guard_call_index = 4242;
    s.guard_report.counts[0] = 3;
    s.guard_report.retry_attempts = 5;
    s.guard_report.recovered = 2;
    s.guard_report.clamped = 1;
    s.guard_report.has_first = true;
    s.guard_report.first_kind = estimators::FaultKind::kNonFiniteValue;
    s.guard_report.first_message = "injected NaN";
    s.guard_report.first_x = {0.5, -0.5};
    s.guard_report.first_call_index = 17;
    s.train_g_calls = 720;
    s.g_grad_calls = 360;
    s.cached_hits = 9;
    checkpoint::StageDiagnostics rec;
    rec.stage = 1;
    rec.level = 1.2;
    rec.epoch_loss = {2.5, std::numeric_limits<double>::quiet_NaN(), 1.75};
    rec.inside_fraction = 0.875;
    rec.retries = 1;
    rec.retry_reasons = {"non-finite KL loss"};
    rec.skipped_epochs = 2;
    s.stages = {rec};
    s.has_partial = true;
    s.next_epoch = 4;
    s.attempt = 1;
    s.attempt_lr = 3.5e-3;
    s.attempt_clip = 25.0;
    s.stage_lr = 3.1e-3;
    s.opt_state.step_count = 88;
    s.opt_state.slots = {linalg::Matrix(2, 3, 0.01), linalg::Matrix(2, 3, 0.02)};
    s.stage_start_params = {linalg::Matrix(2, 3, 1.0)};
    s.partial = rec;
    s.partial.stage = 2;
    return s;
}

TEST(CheckpointCodec, SnapshotRoundTripsBitExact) {
    const checkpoint::TrainSnapshot s = sample_snapshot();
    const std::string blob = checkpoint::encode_snapshot(s);
    const auto d = checkpoint::decode_snapshot(blob);
    ASSERT_TRUE(d.has_value());

    EXPECT_EQ(d->fingerprint, s.fingerprint);
    EXPECT_EQ(d->next_stage, s.next_stage);
    ASSERT_EQ(d->params.size(), s.params.size());
    for (std::size_t p = 0; p < s.params.size(); ++p) {
        ASSERT_EQ(d->params[p].rows(), s.params[p].rows());
        ASSERT_EQ(d->params[p].cols(), s.params[p].cols());
        for (std::size_t i = 0; i < s.params[p].flat().size(); ++i)
            EXPECT_EQ(bits(d->params[p].flat()[i]),
                      bits(s.params[p].flat()[i]));
    }
    EXPECT_EQ(d->scale_caps, s.scale_caps);
    EXPECT_EQ(d->rng_state, s.rng_state);
    EXPECT_EQ(d->guard_call_index, s.guard_call_index);
    EXPECT_EQ(d->guard_report.counts, s.guard_report.counts);
    EXPECT_EQ(d->guard_report.retry_attempts, s.guard_report.retry_attempts);
    EXPECT_EQ(d->guard_report.has_first, true);
    EXPECT_EQ(d->guard_report.first_kind, s.guard_report.first_kind);
    EXPECT_EQ(d->guard_report.first_message, s.guard_report.first_message);
    EXPECT_EQ(d->guard_report.first_x, s.guard_report.first_x);
    EXPECT_EQ(d->guard_report.first_call_index,
              s.guard_report.first_call_index);
    EXPECT_EQ(d->train_g_calls, s.train_g_calls);
    EXPECT_EQ(d->g_grad_calls, s.g_grad_calls);
    EXPECT_EQ(d->cached_hits, s.cached_hits);

    ASSERT_EQ(d->stages.size(), 1u);
    ASSERT_EQ(d->stages[0].epoch_loss.size(), 3u);
    // The NaN sentinel must survive with its exact bit pattern.
    EXPECT_EQ(bits(d->stages[0].epoch_loss[1]),
              bits(s.stages[0].epoch_loss[1]));
    EXPECT_EQ(d->stages[0].retry_reasons, s.stages[0].retry_reasons);

    EXPECT_TRUE(d->has_partial);
    EXPECT_EQ(d->next_epoch, s.next_epoch);
    EXPECT_EQ(d->attempt, s.attempt);
    EXPECT_EQ(bits(d->attempt_lr), bits(s.attempt_lr));
    EXPECT_EQ(bits(d->attempt_clip), bits(s.attempt_clip));
    EXPECT_EQ(bits(d->stage_lr), bits(s.stage_lr));
    EXPECT_EQ(d->opt_state.step_count, s.opt_state.step_count);
    ASSERT_EQ(d->opt_state.slots.size(), 2u);
    EXPECT_EQ(d->opt_state.slots[1](1, 2), 0.02);
    ASSERT_EQ(d->stage_start_params.size(), 1u);
    EXPECT_EQ(d->partial.stage, 2u);
}

TEST(CheckpointCodec, DecodeRejectsAnyDamage) {
    const std::string blob = checkpoint::encode_snapshot(sample_snapshot());

    // Every single-bit flip must be caught by the checksum.
    for (std::size_t i = 0; i < blob.size(); i += 13) {
        std::string damaged = blob;
        damaged[i] = static_cast<char>(damaged[i] ^ 0x40);
        EXPECT_FALSE(checkpoint::decode_snapshot(damaged).has_value())
            << "bit flip at byte " << i << " went undetected";
    }
    // Every truncation (torn write) must be caught too.
    for (std::size_t len = 0; len < blob.size(); len += 97)
        EXPECT_FALSE(checkpoint::decode_snapshot(blob.substr(0, len)))
            << "truncation to " << len << " bytes went undetected";
    // Trailing garbage is damage, not slack.
    EXPECT_FALSE(checkpoint::decode_snapshot(blob + "x").has_value());
    EXPECT_TRUE(checkpoint::decode_snapshot(blob).has_value());
}

TEST(CheckpointCodec, EncodedBytesArePinned) {
    // A round trip cannot see a layout or checksum change made on both the
    // write and the read side; snapshots from earlier builds can. The
    // sample carries two stage records (one completed, one in flight).
    const std::string blob = checkpoint::encode_snapshot(sample_snapshot());
    EXPECT_EQ(blob.size(), 854u);
    EXPECT_EQ(util::fnv1a64(blob.data(), blob.size()), 0x05b30d194296c93bULL);
}

// ---------------------------------------------------------------------------
// CheckpointDir: pruning, fallback, fingerprint safety
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, DirPrunesToKeepAndLoadsNewest) {
    checkpoint::CheckpointDir ckdir(dir_, 3);
    checkpoint::TrainSnapshot s = sample_snapshot();
    s.has_partial = false;
    for (std::uint64_t stage = 1; stage <= 5; ++stage) {
        s.next_stage = stage;
        ckdir.write(s);
    }
    EXPECT_EQ(ckdir.writes(), 5u);
    EXPECT_EQ(snapshot_files(dir_).size(), 3u);

    const auto latest = ckdir.load_latest(s.fingerprint);
    ASSERT_TRUE(latest.has_value());
    EXPECT_EQ(latest->next_stage, 5u);
}

TEST_F(CheckpointTest, CorruptNewestFallsBackToPreviousValid) {
    checkpoint::CheckpointDir ckdir(dir_, 3);
    checkpoint::TrainSnapshot s = sample_snapshot();
    s.has_partial = false;
    s.next_stage = 7;
    ckdir.write(s);
    s.next_stage = 8;
    ckdir.write(s);

    auto files = snapshot_files(dir_);
    ASSERT_EQ(files.size(), 2u);
    flip_one_bit(files.back(), fs::file_size(files.back()) / 2);

    const auto loaded = ckdir.load_latest(s.fingerprint);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->next_stage, 7u);
}

TEST_F(CheckpointTest, FingerprintMismatchThrowsInsteadOfResuming) {
    checkpoint::CheckpointDir ckdir(dir_, 3);
    checkpoint::TrainSnapshot s = sample_snapshot();
    ckdir.write(s);
    EXPECT_THROW((void)ckdir.load_latest(s.fingerprint + 1),
                 std::runtime_error);
    EXPECT_TRUE(ckdir.load_latest(s.fingerprint).has_value());
}

// ---------------------------------------------------------------------------
// End-to-end kill/resume: bitwise-identical continuation
// ---------------------------------------------------------------------------

TEST_F(CheckpointResumeTest, CheckpointedRunMatchesUncheckpointed) {
    HalfSpace2D problem(2.5);
    rng::Engine eng_a(7);
    const auto plain =
        NofisEstimator(tiny_config(), tiny_levels()).run(problem, eng_a);

    NofisConfig cfg = tiny_config();
    cfg.checkpoint.dir = dir_;
    cfg.checkpoint.every_epochs = 2;
    rng::Engine eng_b(7);
    const auto checkpointed =
        NofisEstimator(cfg, tiny_levels()).run(problem, eng_b);

    expect_same_run(plain, checkpointed);
    EXPECT_FALSE(checkpointed.interrupted);
    EXPECT_GT(snapshot_files(dir_).size(), 0u);
}

TEST_F(CheckpointResumeTest, KillAtStageBoundaryResumesBitwise) {
    HalfSpace2D problem(2.5);
    rng::Engine eng_ref(7);
    const auto reference =
        NofisEstimator(tiny_config(), tiny_levels()).run(problem, eng_ref);

    // Crash immediately after the second stage-boundary snapshot.
    NofisConfig cfg = tiny_config();
    cfg.checkpoint.dir = dir_;
    cfg.checkpoint.crash_after_snapshots = 2;
    {
        rng::Engine eng(7);
        EXPECT_THROW(NofisEstimator(cfg, tiny_levels()).run(problem, eng),
                     checkpoint::SimulatedCrash);
    }
    EXPECT_EQ(snapshot_files(dir_).size(), 2u);

    cfg.checkpoint.crash_after_snapshots = 0;
    cfg.checkpoint.resume = true;
    rng::Engine eng2(99);  // seed is irrelevant: the snapshot carries the state
    const auto resumed = NofisEstimator(cfg, tiny_levels()).run(problem, eng2);
    EXPECT_FALSE(resumed.interrupted);
    expect_same_run(reference, resumed);
}

TEST_F(CheckpointResumeTest, KillMidStageResumesBitwiseAcrossThreadCounts) {
    PoolGuard pool_guard;
    HalfSpace2D problem(2.5);

    NofisConfig ref_cfg = tiny_config();
    ref_cfg.threads = 1;
    rng::Engine eng_ref(7);
    const auto reference =
        NofisEstimator(ref_cfg, tiny_levels()).run(problem, eng_ref);

    // Epoch snapshots at epochs 2 and 4 plus one per stage boundary; the
    // fifth write of the run is stage 2, epoch 4 — a mid-attempt kill with
    // live Adam moments. Crash at --threads 8.
    NofisConfig cfg = tiny_config();
    cfg.checkpoint.dir = dir_;
    cfg.checkpoint.every_epochs = 2;
    cfg.checkpoint.crash_after_snapshots = 5;
    cfg.threads = 8;
    {
        rng::Engine eng(7);
        EXPECT_THROW(NofisEstimator(cfg, tiny_levels()).run(problem, eng),
                     checkpoint::SimulatedCrash);
    }

    // The latest snapshot really is mid-stage.
    {
        checkpoint::CheckpointDir ckdir(dir_, 3);
        // Fingerprint is whatever the run used; peek with the raw decoder.
        auto files = snapshot_files(dir_);
        ASSERT_FALSE(files.empty());
        std::ifstream in(files.back(), std::ios::binary);
        std::string blob((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        const auto peek = checkpoint::decode_snapshot(blob);
        ASSERT_TRUE(peek.has_value());
        EXPECT_TRUE(peek->has_partial);
        EXPECT_EQ(peek->next_stage, 2u);
        EXPECT_EQ(peek->next_epoch, 4u);
    }

    // Resume at --threads 1: thread count is outside the fingerprint and
    // outside the math.
    cfg.checkpoint.crash_after_snapshots = 0;
    cfg.checkpoint.resume = true;
    cfg.threads = 1;
    rng::Engine eng2(31337);
    const auto resumed = NofisEstimator(cfg, tiny_levels()).run(problem, eng2);
    expect_same_run(reference, resumed);
}

TEST_F(CheckpointResumeTest, CorruptLatestSnapshotResumesFromPrevious) {
    HalfSpace2D problem(2.5);
    rng::Engine eng_ref(7);
    const auto reference =
        NofisEstimator(tiny_config(), tiny_levels()).run(problem, eng_ref);

    NofisConfig cfg = tiny_config();
    cfg.checkpoint.dir = dir_;
    cfg.checkpoint.crash_after_snapshots = 2;
    {
        rng::Engine eng(7);
        EXPECT_THROW(NofisEstimator(cfg, tiny_levels()).run(problem, eng),
                     checkpoint::SimulatedCrash);
    }

    // Simulate a torn final write: damage the newest snapshot. Resume must
    // fall back to the stage-1 snapshot and still land on the same bits.
    auto files = snapshot_files(dir_);
    ASSERT_EQ(files.size(), 2u);
    flip_one_bit(files.back(), fs::file_size(files.back()) - 3);

    cfg.checkpoint.crash_after_snapshots = 0;
    cfg.checkpoint.resume = true;
    rng::Engine eng2(7);
    const auto resumed = NofisEstimator(cfg, tiny_levels()).run(problem, eng2);
    expect_same_run(reference, resumed);
}

/// Run identity stored in the stage-1 snapshot of a run of `cfg` (0 when
/// no decodable stage-1 snapshot was written).
std::uint64_t stage1_fingerprint(NofisConfig cfg, const std::string& dir) {
    HalfSpace2D problem(2.5);
    cfg.checkpoint.dir = dir;
    cfg.checkpoint.crash_after_snapshots = 1;  // stop after stage 1
    rng::Engine eng(7);
    EXPECT_THROW(NofisEstimator(cfg, tiny_levels()).run(problem, eng),
                 checkpoint::SimulatedCrash);
    const auto files = snapshot_files(dir);
    EXPECT_EQ(files.size(), 1u);
    if (files.size() != 1) return 0;
    std::ifstream in(files.front(), std::ios::binary);
    const std::string blob((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const auto snap = checkpoint::decode_snapshot(blob);
    EXPECT_TRUE(snap.has_value());
    if (!snap) return 0;
    EXPECT_EQ(snap->next_stage, 2u);
    return snap->fingerprint;
}

TEST_F(CheckpointResumeTest, DefaultConfigFingerprintIsPinned) {
    // Snapshots written by earlier builds must keep resuming: the run
    // identity of a default-config run may not move when config fields are
    // renamed, reordered or replaced by constants.
    EXPECT_EQ(stage1_fingerprint(NofisConfig{}, dir_), 0x913df4259d4ebc2dULL);
}

TEST_F(CheckpointResumeTest, LatentConfigFingerprintIsPinned) {
    // The latent knobs fold into the run identity only when exploration is
    // on, so the default-config pin above never sees them.
    NofisConfig cfg;
    cfg.latent.enabled = true;
    EXPECT_EQ(stage1_fingerprint(cfg, dir_), 0x60ff51637c7d40b8ULL);
}

TEST_F(CheckpointResumeTest, ChangedConfigRefusesToResume) {
    HalfSpace2D problem(2.5);
    NofisConfig cfg = tiny_config();
    cfg.checkpoint.dir = dir_;
    {
        rng::Engine eng(7);
        (void)NofisEstimator(cfg, tiny_levels()).run(problem, eng);
    }
    cfg.checkpoint.resume = true;
    cfg.tau = 30.0;  // different run identity: resuming would diverge
    rng::Engine eng2(7);
    EXPECT_THROW(NofisEstimator(cfg, tiny_levels()).run(problem, eng2),
                 std::runtime_error);
}

TEST_F(CheckpointResumeTest, StopRequestInterruptsThenResumesBitwise) {
    StopGuard stop_guard;
    HalfSpace2D problem(2.5);
    rng::Engine eng_ref(7);
    const auto reference =
        NofisEstimator(tiny_config(), tiny_levels()).run(problem, eng_ref);

    NofisConfig cfg = tiny_config();
    cfg.checkpoint.dir = dir_;
    checkpoint::request_stop();
    rng::Engine eng(7);
    const auto stopped = NofisEstimator(cfg, tiny_levels()).run(problem, eng);
    EXPECT_TRUE(stopped.interrupted);
    EXPECT_TRUE(stopped.estimate.failed);
    EXPECT_EQ(stopped.stages.size(), 1u);  // finished the in-flight stage
    EXPECT_GE(snapshot_files(dir_).size(), 1u);

    checkpoint::reset_stop_request();
    cfg.checkpoint.resume = true;
    rng::Engine eng2(7);
    const auto resumed = NofisEstimator(cfg, tiny_levels()).run(problem, eng2);
    EXPECT_FALSE(resumed.interrupted);
    expect_same_run(reference, resumed);
}

// ---------------------------------------------------------------------------
// Resume × faults × cache: the full Guarded(Cached(FaultInjector)) stack
// ---------------------------------------------------------------------------

TEST_F(CheckpointResumeTest, FaultyCachedRunSurvivesKillWithHonestLedgers) {
    HalfSpace2D inner(2.5);
    testcases::FaultInjectorConfig fault_cfg;
    fault_cfg.nan_rate = 0.01;
    fault_cfg.throw_rate = 0.01;
    fault_cfg.seed = 0xabcdULL;

    const std::string ckpt_dir = dir_ + "/ckpt";
    const std::string cache_ref = dir_ + "/cache_ref";
    const std::string cache_kill = dir_ + "/cache_kill";

    NofisConfig cfg = tiny_config();
    cfg.cache_key = "ckptfault#d2";

    // Reference: uninterrupted faulted run against its own cold disk cache.
    NofisEstimator::RunResult reference;
    {
        testcases::FaultInjector faulty(inner, fault_cfg);
        evalcache::CacheConfig cc;
        cc.dir = cache_ref;
        cfg.cache = std::make_shared<evalcache::EvalCache>(cc);
        rng::Engine eng(7);
        reference = NofisEstimator(cfg, tiny_levels()).run(faulty, eng);
        cfg.cache.reset();
    }
    ASSERT_FALSE(reference.estimate.failed);
    // The rates are seeded, so this run deterministically saw faults; a
    // fault-free run would make the ledger assertions below vacuous.
    EXPECT_GT(reference.health.faults.total_faults(), 0u);
    EXPECT_GT(reference.health.g_retry_calls, 0u);

    // Kill: same faults, cold cache of its own, crash after the second
    // snapshot.
    cfg.checkpoint.dir = ckpt_dir;
    cfg.checkpoint.crash_after_snapshots = 2;
    {
        testcases::FaultInjector faulty(inner, fault_cfg);
        evalcache::CacheConfig cc;
        cc.dir = cache_kill;
        cfg.cache = std::make_shared<evalcache::EvalCache>(cc);
        rng::Engine eng(7);
        EXPECT_THROW(NofisEstimator(cfg, tiny_levels()).run(faulty, eng),
                     checkpoint::SimulatedCrash);
        cfg.cache.reset();  // "process death": drop the in-memory tier
    }

    // Resume: a fresh process re-opens the same disk cache and the same
    // checkpoint dir. A fresh FaultInjector replays the same faults because
    // the guard's call index was restored from the snapshot.
    cfg.checkpoint.crash_after_snapshots = 0;
    cfg.checkpoint.resume = true;
    NofisEstimator::RunResult resumed;
    {
        testcases::FaultInjector faulty(inner, fault_cfg);
        evalcache::CacheConfig cc;
        cc.dir = cache_kill;
        cfg.cache = std::make_shared<evalcache::EvalCache>(cc);
        rng::Engine eng(50);
        resumed = NofisEstimator(cfg, tiny_levels()).run(faulty, eng);
        cfg.cache.reset();
    }

    // Estimate, fault ledger, rollback telemetry, and the fresh/cached
    // g-call split must all match the uninterrupted run exactly.
    expect_same_run(reference, resumed);
    EXPECT_LE(resumed.estimate.cached_calls, resumed.estimate.calls);
    const std::size_t fresh =
        resumed.estimate.calls - resumed.estimate.cached_calls;
    EXPECT_EQ(fresh + resumed.estimate.cached_calls, resumed.estimate.calls);
    EXPECT_EQ(resumed.estimate.cached_calls, reference.estimate.cached_calls);
}

TEST_F(CheckpointResumeTest, InjectedEnospcOnCacheLogNeverChangesEstimate) {
    HalfSpace2D inner(2.5);
    rng::Engine eng_ref(7);
    const auto reference =
        NofisEstimator(tiny_config(), tiny_levels()).run(inner, eng_ref);

    // Every durable cache append fails with ENOSPC; the run must shrug —
    // identical bits, only the durability counter moves.
    testcases::FaultInjectorConfig fault_cfg;
    fault_cfg.io_enospc_rate = 1.0;
    fault_cfg.seed = 0x10ULL;
    testcases::FaultInjector faulty(inner, fault_cfg);

    NofisConfig cfg = tiny_config();
    evalcache::CacheConfig cc;
    cc.dir = dir_ + "/cache";
    cfg.cache = std::make_shared<evalcache::EvalCache>(cc);
    cfg.cache_key = "enospc#d2";
    rng::Engine eng(7);
    const auto degraded = NofisEstimator(cfg, tiny_levels()).run(faulty, eng);

    EXPECT_EQ(bits(degraded.estimate.p_hat), bits(reference.estimate.p_hat));
    EXPECT_EQ(degraded.estimate.calls, reference.estimate.calls);
    EXPECT_GT(cfg.cache->stats().disk_errors, 0u);
    ASSERT_NE(faulty.io_injector(), nullptr);
    EXPECT_GT(faulty.io_injector()->injected_enospc(), 0u);
}

}  // namespace
