#pragma once

#include <atomic>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "rng/engine.hpp"

namespace nofis::estimators {

/// A rare-event problem F = (p, Ω) per Section 2 of the paper, with
/// p = N(0, I_D) fixed (the standard process-variation model) and
/// Ω = { x : g(x) <= 0 } described by the characteristic function g.
///
/// `g` stands in for an expensive circuit simulation; implementations in
/// src/testcases back it with an MNA solve, a transfer-matrix propagation, a
/// neural network, or a closed-form synthetic function.
class RareEventProblem {
public:
    virtual ~RareEventProblem() = default;

    virtual std::size_t dim() const noexcept = 0;

    /// Characteristic function; g(x) <= 0 means failure (x ∈ Ω).
    virtual double g(std::span<const double> x) const = 0;

    /// ∂g/∂x. The default uses central finite differences on the underlying
    /// model, 2·dim() + 1 calls of g. Overriders provide analytic or adjoint
    /// gradients: the synthetic cases in closed form, DeepNet62 through the
    /// autodiff tape, YBranch by a reverse pass through its segment
    /// recurrence. For those the default stays as the test oracle. Returns
    /// g(x) bit for bit: CachedProblem stores the returned value, and later
    /// value lookups return it.
    ///
    /// Call accounting: one (value, gradient) evaluation is counted as ONE
    /// call, mirroring the paper's PyTorch setup where backward through the
    /// simulation costs no additional simulator run.
    virtual double g_grad(std::span<const double> x,
                          std::span<double> grad_out) const;

    /// Indexed evaluation for batched / parallel callers: `index` is a
    /// deterministic caller-assigned call number. Stateful decorators
    /// (fault injection, guards) override these to key their per-call
    /// behaviour on the index instead of arrival order, so a batch replays
    /// identically under any thread count. The defaults ignore the index.
    virtual double g_indexed(std::size_t index,
                             std::span<const double> x) const {
        (void)index;
        return g(x);
    }
    virtual double g_grad_indexed(std::size_t index,
                                  std::span<const double> x,
                                  std::span<double> grad_out) const {
        (void)index;
        return g_grad(x, grad_out);
    }

    /// Batched g over the rows of `x`, results in row order. The default
    /// evaluates rows in parallel on the global pool and requires `g` to be
    /// safe for concurrent const calls (true for every stateless model in
    /// src/testcases). Stateful decorators override it to assign
    /// deterministic per-row call indices. Every row is evaluated even if
    /// some throw; the exception of the lowest-index failing row is
    /// rethrown once the batch completes, so the surfaced error does not
    /// depend on the thread count.
    virtual std::vector<double> g_rows(const linalg::Matrix& x) const;

    /// Step used by the finite-difference fallback; override for models
    /// with noisy or stiff responses.
    virtual double fd_step() const noexcept { return 1e-5; }
};

/// Counting facade: every estimator routes evaluations through one of these
/// so the "number of function calls" column of Table 1 is measured, not
/// assumed. The counter is atomic, so the wrapped problem may be evaluated
/// from several pool lanes at once.
class CountedProblem {
public:
    explicit CountedProblem(const RareEventProblem& p) : p_(&p) {}

    std::size_t dim() const noexcept { return p_->dim(); }

    double g(std::span<const double> x) {
        calls_.fetch_add(1, std::memory_order_relaxed);
        return p_->g(x);
    }

    double g_grad(std::span<const double> x, std::span<double> grad_out) {
        calls_.fetch_add(1, std::memory_order_relaxed);
        return p_->g_grad(x, grad_out);
    }

    /// Evaluates g on every row of `x`, in parallel on the global pool
    /// (delegates to the problem's g_rows, which stateful decorators
    /// override with deterministic per-row call indices).
    std::vector<double> g_rows(const linalg::Matrix& x);

    std::size_t calls() const noexcept {
        return calls_.load(std::memory_order_relaxed);
    }
    void reset_calls() noexcept {
        calls_.store(0, std::memory_order_relaxed);
    }

    const RareEventProblem& problem() const noexcept { return *p_; }

private:
    const RareEventProblem* p_;
    std::atomic<std::size_t> calls_{0};
};

/// Result of one estimator run.
struct EstimateResult {
    double p_hat = 0.0;       ///< estimated failure probability
    std::size_t calls = 0;    ///< g-evaluations arriving at the problem
    /// Of `calls`, how many were served from an evaluation cache instead of
    /// running the simulator (0 when no cache is wired in). Fresh simulator
    /// work is therefore `calls - cached_calls`; totals stay comparable
    /// with and without a cache.
    std::size_t cached_calls = 0;
    bool failed = false;      ///< algorithm collapse ("—" entries in Table 1)
    std::string detail;       ///< optional human-readable diagnostics
};

/// Common interface for the NOFIS estimator and the six baselines.
class Estimator {
public:
    virtual ~Estimator() = default;
    virtual std::string name() const = 0;
    virtual EstimateResult estimate(const RareEventProblem& problem,
                                    rng::Engine& eng) const = 0;
};

/// Table-1 error metric: |ln(max(p_hat, floor)) - ln(golden)|. The floor
/// keeps zero estimates (common for MC at these budgets) finite; see
/// EXPERIMENTS.md for calibration of the floor against the paper's MC rows.
double log_error(double p_hat, double golden, double floor = 1e-10);

}  // namespace nofis::estimators
