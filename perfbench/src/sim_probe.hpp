// Counting and timing decorator for the simulator boundary.
#pragma once

#include <atomic>
#include <cstdint>

#include "estimators/problem.hpp"

namespace perfbench {

/// Wraps a test case beneath NOFIS's own Guarded(Cached(.)) composition and
/// counts every value evaluation (g, g_indexed, rows of g_rows) and every
/// gradient evaluation (g_grad, g_grad_indexed). With timing on, each call
/// is also timed on the thread that makes it, so busy time is summed across
/// pool lanes. Results pass through untouched: the decorator adds no state
/// the wrapped model sees, so estimates are bitwise identical with or
/// without it.
///
/// The value-call count is the benchmark's honest-ledger check: it must
/// equal EstimateResult::calls of every run made through the probe.
class SimProbe final : public nofis::estimators::RareEventProblem {
public:
    SimProbe(const nofis::estimators::RareEventProblem& inner, bool timed)
        : inner_(&inner), timed_(timed) {}

    std::size_t dim() const noexcept override { return inner_->dim(); }
    double fd_step() const noexcept override { return inner_->fd_step(); }

    double g(std::span<const double> x) const override;
    double g_indexed(std::size_t index,
                     std::span<const double> x) const override;
    double g_grad(std::span<const double> x,
                  std::span<double> grad_out) const override;
    double g_grad_indexed(std::size_t index, std::span<const double> x,
                          std::span<double> grad_out) const override;
    /// Same row-parallel evaluation as the base class, with each row
    /// counted (and timed) as one value call.
    std::vector<double> g_rows(const nofis::linalg::Matrix& x) const override;

    struct Totals {
        std::uint64_t g_calls = 0;
        std::uint64_t g_ns = 0;
        std::uint64_t grad_calls = 0;
        std::uint64_t grad_ns = 0;
    };
    Totals totals() const noexcept;
    void reset() noexcept;

private:
    double timed_value(std::size_t index, std::span<const double> x) const;

    const nofis::estimators::RareEventProblem* inner_;
    bool timed_;
    mutable std::atomic<std::uint64_t> g_calls_{0};
    mutable std::atomic<std::uint64_t> g_ns_{0};
    mutable std::atomic<std::uint64_t> grad_calls_{0};
    mutable std::atomic<std::uint64_t> grad_ns_{0};
};

}  // namespace perfbench
