#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "estimators/guarded_problem.hpp"
#include "linalg/matrix.hpp"
#include "nn/optimizer.hpp"
#include "util/hash.hpp"

namespace nofis::checkpoint {

/// Durable checkpoint/resume settings for NofisEstimator::run
/// (DESIGN.md §12). Orthogonal to results by construction: a checkpointed
/// run, an uncheckpointed run, and a killed-and-resumed run all produce
/// bitwise-identical estimates.
struct CheckpointConfig {
    /// Snapshot directory; empty disables checkpointing entirely.
    std::string dir;
    /// Additionally snapshot every K epochs inside a stage (0 = stage
    /// boundaries only). Epoch snapshots carry the optimizer moments and
    /// the stage's rollback anchor so resume can re-enter mid-attempt.
    std::size_t every_epochs = 0;
    /// Restart from the latest valid snapshot in `dir` (corrupt or torn
    /// snapshots are skipped back to the previous valid one; a fingerprint
    /// mismatch is an error). Off = start fresh, appending new snapshots.
    bool resume = false;
    /// Valid snapshots retained after each write (older ones are pruned).
    std::size_t keep = 3;
    /// Caller-supplied entropy folded into the run fingerprint (the CLI
    /// mixes its seed and fault-injection rates in, so checkpoints from a
    /// different seed can never be resumed by accident).
    std::uint64_t salt = 0;
    /// Test hook: throw SimulatedCrash immediately after the Nth snapshot
    /// write of this process (0 = never). Lets tests kill a run at an exact
    /// checkpoint boundary without racing a real signal.
    std::size_t crash_after_snapshots = 0;

    bool enabled() const noexcept { return !dir.empty(); }
};

/// Thrown by the crash_after_snapshots test hook. Derives from
/// std::runtime_error so harnesses that treat it as a generic failure still
/// work, but tests can catch it precisely.
struct SimulatedCrash : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/// Per-stage training record (Figure 3(e) of the paper plots exactly this:
/// the KL loss of every stage against the epoch index). Defined here, below
/// nofis_core, because snapshots persist it verbatim; core re-exports it as
/// core::StageDiagnostics.
struct StageDiagnostics {
    std::size_t stage = 0;          ///< m (1-based)
    double level = 0.0;             ///< a_m
    /// True KL-loss value per epoch. Epochs whose update was skipped (flow
    /// blow-up / non-finite loss in legacy skip mode) hold a quiet NaN
    /// sentinel — no loss was computed, and fabricating one would fake
    /// convergence. Consumers must skip non-finite entries; see
    /// first_finite_loss / last_finite_loss. Snapshots keep the sentinels
    /// bit-exact.
    std::vector<double> epoch_loss;
    /// Fraction of the stage's final-epoch samples inside Ω_{a_m} — a cheap
    /// health indicator (should climb toward ~1 as the proposal locks on).
    double inside_fraction = 0.0;

    /// First / last finite entry of epoch_loss (skipped-epoch NaN sentinels
    /// excluded); NaN when the stage never computed a loss.
    double first_finite_loss() const noexcept;
    double last_finite_loss() const noexcept;

    // --- rollback-retry telemetry -------------------------------------------
    /// Times this stage was rolled back to its checkpoint and retrained
    /// (each retry restores parameters, shrinks the LR, and tightens the
    /// grad-clip / scale-cap).
    std::size_t retries = 0;
    /// Human-readable trigger per retry ("non-finite KL loss", ...).
    std::vector<std::string> retry_reasons;
    /// Epochs whose update was skipped because divergence persisted after
    /// the retry budget was exhausted (legacy skip-and-continue behaviour).
    std::size_t skipped_epochs = 0;
};

/// Everything needed to continue a NofisEstimator::run bitwise-identically
/// from a stage boundary (or, with has_partial, from an epoch boundary
/// inside a stage): flow parameters and retry-tightened scale caps, the
/// RNG stream position, the fault guard's call index and ledger, g-call
/// accounting, completed stage diagnostics, and — for mid-stage snapshots —
/// the Adam moments, decayed learning rate, attempt counters, and the
/// stage's rollback anchor.
struct TrainSnapshot {
    std::uint64_t fingerprint = 0;  ///< run identity (config + levels + salt)
    std::uint64_t next_stage = 1;   ///< 1-based; num_stages+1 = training done
    std::vector<linalg::Matrix> params;
    std::vector<double> scale_caps;
    std::array<std::uint64_t, 4> rng_state{};
    std::uint64_t guard_call_index = 0;
    estimators::FaultReport guard_report;
    std::uint64_t train_g_calls = 0;
    std::uint64_t g_grad_calls = 0;
    std::uint64_t cached_hits = 0;  ///< evalcache hits before the snapshot
    std::vector<StageDiagnostics> stages;  ///< completed stages

    // --- mid-stage (epoch) snapshot extras, valid when has_partial -------
    bool has_partial = false;
    std::uint64_t next_epoch = 0;
    std::uint64_t attempt = 0;
    double attempt_lr = 0.0;    ///< lr0 of the current attempt
    double attempt_clip = 0.0;  ///< grad clip of the current attempt
    double stage_lr = 0.0;      ///< decayed per-epoch lr, mid-attempt
    nn::OptimizerState opt_state;
    std::vector<linalg::Matrix> stage_start_params;  ///< rollback anchor
    StageDiagnostics partial;  ///< in-flight stage diagnostics so far
};

/// Binary serialisation of one snapshot: magic "NOFISCKP" | u32 version |
/// payload | trailing u64 FNV-1a checksum over everything before it. All
/// doubles round-trip as raw 8-byte patterns, so restored state is
/// bit-exact (including NaN loss sentinels).
std::string encode_snapshot(const TrainSnapshot& snapshot);
/// Decodes and verifies; std::nullopt on any damage (bad magic/version,
/// truncation, checksum mismatch) — torn or bit-flipped snapshots are
/// detected here, never half-applied.
std::optional<TrainSnapshot> decode_snapshot(const std::string& bytes);

/// A directory of numbered snapshots ("ckpt-00000042.nofisckpt"). Writes go
/// through util::AtomicFile (temp + fsync + rename + directory fsync);
/// loads scan from the newest sequence number down, skipping invalid files,
/// so a torn final snapshot falls back to the previous valid one.
class CheckpointDir {
public:
    /// Opens (creating if needed) the snapshot directory. Throws
    /// std::runtime_error when the directory cannot be created.
    CheckpointDir(std::string dir, std::size_t keep);

    /// Durably writes `snapshot` under the next sequence number, then
    /// prunes all but the newest `keep` valid snapshots. Throws on I/O
    /// failure (injected or real); an existing snapshot is never damaged.
    void write(const TrainSnapshot& snapshot);

    /// Newest decodable snapshot whose fingerprint matches, skipping
    /// corrupt/torn files. std::nullopt when none exists. Throws
    /// std::runtime_error when a valid snapshot exists but its fingerprint
    /// differs (resuming under a changed config would silently diverge).
    std::optional<TrainSnapshot> load_latest(std::uint64_t fingerprint) const;

    /// Snapshot files written by this object (the crash_after_snapshots
    /// test hook counts these).
    std::size_t writes() const noexcept { return writes_; }
    const std::string& dir() const noexcept { return dir_; }

private:
    std::string dir_;
    std::size_t keep_;
    std::uint64_t next_seq_ = 1;
    std::size_t writes_ = 0;
};

/// FNV-1a accumulator for run fingerprints: feed every config field that
/// defines the run's identity; resuming checks the stored fingerprint so a
/// snapshot can never silently continue a different run.
class FingerprintBuilder {
public:
    FingerprintBuilder& add(std::uint64_t v) noexcept;
    FingerprintBuilder& add(double v) noexcept;  ///< raw bit pattern
    FingerprintBuilder& add(const std::string& s) noexcept;
    std::uint64_t value() const noexcept { return hash_; }

private:
    void add_bytes(const void* data, std::size_t n) noexcept;
    std::uint64_t hash_ = util::kFnv1aBasis;
};

// --- graceful stop ------------------------------------------------------
// SIGINT/SIGTERM handlers for long training runs: the first signal sets a
// flag that NofisEstimator::run polls at stage boundaries — it finishes the
// in-flight stage, writes a final checkpoint, and returns with
// RunResult::interrupted set so the caller can exit cleanly. (The serve
// path keeps its own handler: it drains in-flight requests instead.)

/// Installs the stop handlers (idempotent).
void install_stop_handlers();
/// True once SIGINT/SIGTERM arrived (or request_stop was called).
bool stop_requested() noexcept;
/// Programmatic stop for tests.
void request_stop() noexcept;
/// Clears the flag (between runs / tests).
void reset_stop_request() noexcept;

}  // namespace nofis::checkpoint
