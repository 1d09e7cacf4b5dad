#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <vector>

#include "estimators/problem.hpp"
#include "rng/engine.hpp"

namespace nofis::estimators {

/// Classification of a failed g-evaluation. The first three kinds mirror
/// nofis::SolverError::Kind (structured throws from src/linalg and
/// src/circuit); the rest cover everything else a black-box simulator can
/// do to a caller.
enum class FaultKind : std::size_t {
    kSingularMatrix = 0,  ///< factorisation breakdown inside the solver
    kNonConvergence,      ///< Newton / iterative solve gave up
    kBadInput,            ///< solver rejected its input (often NaN samples)
    kNonFiniteValue,      ///< g returned NaN or ±inf
    kNonFiniteGrad,       ///< g_grad produced a NaN/±inf component
    kOtherException,      ///< any other std::exception
    kCount,
};

const char* fault_kind_name(FaultKind kind) noexcept;

/// Per-run fault ledger accumulated by GuardedProblem. Counts every faulty
/// evaluation attempt by kind (a retry that faults again counts again, so
/// the totals match a seeded fault injector exactly), plus how each
/// top-level fault was ultimately resolved.
struct FaultReport {
    std::array<std::size_t, static_cast<std::size_t>(FaultKind::kCount)>
        counts{};

    std::size_t retry_attempts = 0;  ///< extra inner evaluations spent on retries
    std::size_t recovered = 0;       ///< faults fixed by a perturbed retry
    std::size_t clamped = 0;         ///< faults resolved by clamp-to-fail
    std::size_t propagated = 0;      ///< faults rethrown to the caller

    /// Context of the lowest-call-index fault observed (debugging aid for
    /// long runs). Selecting by call index rather than arrival time keeps
    /// the report identical under any thread count.
    bool has_first = false;
    FaultKind first_kind = FaultKind::kOtherException;
    std::string first_message;
    std::vector<double> first_x;
    std::size_t first_call_index = 0;  ///< 0-based top-level call number

    std::size_t count(FaultKind kind) const noexcept {
        return counts[static_cast<std::size_t>(kind)];
    }
    std::size_t total_faults() const noexcept;

    /// One-line human-readable digest ("12 faults (nan:8 newton:4), ...").
    std::string summary() const;
};

/// What GuardedProblem does when an evaluation faults.
struct GuardConfig {
    enum class Policy {
        kPropagate,     ///< record the fault, then rethrow / pass it through
        kRetryPerturb,  ///< re-evaluate at x + ε·N(0,I); clamp if retries fail
        kClampToFail,   ///< replace g with `clamp_value` (sample leaves Ω)
    };
    Policy policy = Policy::kRetryPerturb;
    std::size_t max_retries = 3;   ///< perturbed re-evaluations per fault
    double perturb_sigma = 1e-6;   ///< stddev of the retry jitter
    /// Replacement g value for clamp-to-fail: large and positive, so the
    /// faulty sample is classified "no failure" and carries zero IS weight —
    /// the conservative direction for a rare-event probability.
    double clamp_value = 1e9;
};

/// Seed of the retry jitter: call i perturbs with an engine seeded from
/// util::splitmix64(kGuardJitterSeed + i·γ), so the probes depend on the
/// call index alone.
inline constexpr std::uint64_t kGuardJitterSeed = 0x9e3779b97f4a7c15ULL;

/// Fault-tolerant decorator around any RareEventProblem: catches solver
/// exceptions (classified via nofis::SolverError) and non-finite g / g_grad
/// outputs, applies the configured GuardConfig::Policy, and accumulates a
/// FaultReport. Fault-free evaluations are bit-identical passthroughs.
///
/// Thread-safety and determinism: every evaluation carries a call index
/// (self-assigned in arrival order on the serial g/g_grad path, reserved in
/// row order by batched callers). Retry jitter is a pure function of the
/// call index — not a shared stream — and the fault ledger is
/// mutex-protected with the "first fault" selected by lowest call index,
/// so a batch of guarded evaluations produces bitwise-identical values and
/// an identical FaultReport under any thread count.
///
/// Call accounting: the guard itself is transparent (one caller call = one
/// inner call), but retries spend extra inner evaluations; those are
/// tallied in FaultReport::retry_attempts so runs can charge them to the
/// paper's g-call budget (see DESIGN.md, "Failure handling & recovery").
class GuardedProblem final : public RareEventProblem {
public:
    explicit GuardedProblem(const RareEventProblem& inner,
                            GuardConfig cfg = {});

    std::size_t dim() const noexcept override { return inner_->dim(); }
    double fd_step() const noexcept override { return inner_->fd_step(); }

    double g(std::span<const double> x) const override;
    double g_grad(std::span<const double> x,
                  std::span<double> grad_out) const override;

    /// Indexed entry points for batched callers: `index` must come from
    /// reserve_calls so the serial and batched paths share one index space.
    /// The index is forwarded to the inner problem's indexed hooks, letting
    /// a deterministic fault injector replay the same faults regardless of
    /// evaluation order.
    double g_indexed(std::size_t index,
                     std::span<const double> x) const override;
    double g_grad_indexed(std::size_t index, std::span<const double> x,
                          std::span<double> grad_out) const override;

    /// Parallel batch over the rows of `x`: reserves one call index per row
    /// (row r -> base + r) and evaluates on the global pool. Exceptions
    /// (propagate policy) are rethrown for the lowest faulting row after
    /// the whole batch completed.
    std::vector<double> g_rows(const linalg::Matrix& x) const override;

    /// Reserves `n` consecutive call indices for a batched caller and
    /// returns the first.
    std::size_t reserve_calls(std::size_t n) const noexcept {
        return call_index_.fetch_add(n, std::memory_order_relaxed);
    }

    /// Not for use while a batch is in flight.
    const FaultReport& report() const noexcept { return report_; }
    void reset_report() { report_ = FaultReport{}; }

    /// Complete run state of the guard: the next top-level call index plus
    /// the fault ledger. Checkpoint snapshots persist this so a resumed run
    /// re-enters the exact same call-index space — a deterministic fault
    /// injector keyed on those indices replays the exact same faults, and
    /// the cumulative FaultReport matches an uninterrupted run
    /// count-for-count. Not for use while a batch is in flight.
    struct GuardState {
        std::size_t call_index = 0;
        FaultReport report;
    };
    GuardState export_state() const {
        return {call_index_.load(std::memory_order_relaxed), report_};
    }
    void import_state(const GuardState& state) {
        call_index_.store(state.call_index, std::memory_order_relaxed);
        report_ = state.report;
    }
    const RareEventProblem& inner() const noexcept { return *inner_; }

private:
    /// One evaluation attempt; returns true on a finite result, records the
    /// fault under `record_index` (and sets `kind`/`message`/`eptr`)
    /// otherwise. `inner_index` is what the inner problem sees — retries
    /// probe under synthetic indices while reporting against the top-level
    /// call. `grad_out` empty = value only.
    bool attempt(std::size_t inner_index, std::size_t record_index,
                 std::span<const double> x, std::span<double> grad_out,
                 double& value, FaultKind& kind, std::string& message,
                 std::exception_ptr& eptr) const;
    double resolve(std::size_t index, std::span<const double> x,
                   std::span<double> grad_out, FaultKind kind,
                   std::exception_ptr eptr) const;
    void record(std::size_t record_index, FaultKind kind,
                const std::string& message, std::span<const double> x) const;

    const RareEventProblem* inner_;
    GuardConfig cfg_;
    mutable FaultReport report_;
    mutable std::mutex ledger_mutex_;
    mutable std::atomic<std::size_t> call_index_{0};
};

}  // namespace nofis::estimators
