#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "estimators/problem.hpp"
#include "util/io_fault.hpp"

namespace nofis::testcases {

/// Deterministic fault-injection settings. Rates are per-call probabilities
/// evaluated in the order NaN → throw → inf → latency (at most one fault per
/// call); injection decisions are a pure hash of (seed, call index), so a
/// given call number always faults the same way no matter how callers
/// interleave g and g_grad retries.
struct FaultInjectorConfig {
    double nan_rate = 0.0;      ///< return quiet NaN
    double throw_rate = 0.0;    ///< throw a SolverError (kind alternates)
    double inf_rate = 0.0;      ///< return +inf
    double latency_rate = 0.0;  ///< busy-wait `latency_us` before returning
    double latency_us = 100.0;
    std::uint64_t seed = 0x5eedULL;

    /// Deterministic NaN burst: calls with index in [nan_burst_begin,
    /// nan_burst_end) return NaN regardless of the rates. This is how the
    /// rollback tests force a whole epoch's losses to go non-finite.
    std::size_t nan_burst_begin = 0;
    std::size_t nan_burst_end = 0;

    bool affect_grad = true;  ///< also inject into g_grad calls

    /// Deterministic I/O faults (DESIGN.md §12): while the FaultInjector is
    /// alive and any rate is nonzero, a util::IoFaultInjector with these
    /// rates is installed process-globally, so every durable write path
    /// (checkpoint snapshots, evalcache disk appends, atomic metrics/model
    /// writes) and disk-tier read sees injected ENOSPC / torn-write /
    /// bit-flip / short-read faults keyed purely on (seed, I/O op index).
    double io_enospc_rate = 0.0;
    double io_torn_write_rate = 0.0;
    double io_corrupt_rate = 0.0;
    double io_short_read_rate = 0.0;
};

/// Test double for the fault-tolerant runtime: wraps any RareEventProblem
/// and injects NaNs, structured solver throws, infinities, and latency at
/// seeded per-call rates, while keeping an exact ledger of what it injected
/// so GuardedProblem's FaultReport can be checked count-for-count.
///
/// Thread-safe: injection decisions are pure functions of (seed, index) and
/// every ledger counter is atomic, so batched callers may evaluate rows in
/// parallel and still replay the exact same faults per call index.
class FaultInjector final : public estimators::RareEventProblem {
public:
    FaultInjector(const estimators::RareEventProblem& inner,
                  FaultInjectorConfig cfg);

    std::size_t dim() const noexcept override { return inner_->dim(); }
    double fd_step() const noexcept override { return inner_->fd_step(); }

    double g(std::span<const double> x) const override;
    double g_grad(std::span<const double> x,
                  std::span<double> grad_out) const override;

    /// Indexed entry points: the injection decision is keyed on the
    /// caller-assigned `index`, so batched / guarded callers replay faults
    /// identically under any thread count.
    double g_indexed(std::size_t index,
                     std::span<const double> x) const override;
    double g_grad_indexed(std::size_t index, std::span<const double> x,
                          std::span<double> grad_out) const override;
    std::vector<double> g_rows(const linalg::Matrix& x) const override;

    // --- exact injection ledger ----------------------------------------------
    std::size_t calls() const noexcept {
        return calls_.load(std::memory_order_relaxed);
    }
    std::size_t injected_nan() const noexcept {
        return nan_.load(std::memory_order_relaxed);
    }
    std::size_t injected_throws() const noexcept {
        return injected_singular() + injected_nonconvergence();
    }
    std::size_t injected_singular() const noexcept {
        return thrown_singular_.load(std::memory_order_relaxed);
    }
    std::size_t injected_nonconvergence() const noexcept {
        return thrown_nonconv_.load(std::memory_order_relaxed);
    }
    std::size_t injected_inf() const noexcept {
        return inf_.load(std::memory_order_relaxed);
    }
    std::size_t injected_latency() const noexcept {
        return latency_.load(std::memory_order_relaxed);
    }
    /// Faults visible to a guard (latency is a slowdown, not a fault).
    std::size_t injected_total() const noexcept {
        return injected_nan() + injected_inf() + injected_throws();
    }

    /// The process-global I/O fault injector owned by this FaultInjector
    /// (null when every io_* rate is zero). Tests read its ledger to check
    /// the durable-write paths saw exactly the faults they recovered from.
    util::IoFaultInjector* io_injector() const noexcept { return io_.get(); }

private:
    /// Outcome decided purely from (seed, index).
    enum class Inject { kNone, kNan, kThrow, kInf, kLatency };
    Inject decide(std::size_t index) const noexcept;
    [[noreturn]] void throw_fault(std::size_t index) const;
    /// Injected latency, for value and gradient calls alike: counts it,
    /// then busy-waits `latency_us`.
    void delay() const;
    /// Injection + evaluation for one decided index; does NOT touch calls_.
    double value_at(std::size_t index, std::span<const double> x) const;
    double grad_at(std::size_t index, std::span<const double> x,
                   std::span<double> grad_out) const;

    const estimators::RareEventProblem* inner_;
    FaultInjectorConfig cfg_;
    std::unique_ptr<util::IoFaultInjector> io_;
    std::unique_ptr<util::ScopedIoFaultInjector> io_install_;
    mutable std::atomic<std::size_t> calls_{0};
    mutable std::atomic<std::size_t> nan_{0};
    mutable std::atomic<std::size_t> thrown_singular_{0};
    mutable std::atomic<std::size_t> thrown_nonconv_{0};
    mutable std::atomic<std::size_t> inf_{0};
    mutable std::atomic<std::size_t> latency_{0};
};

}  // namespace nofis::testcases
