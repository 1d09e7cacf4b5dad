#include "testcases/fault_injector.hpp"

#include <chrono>
#include <exception>
#include <limits>
#include <stdexcept>

#include "linalg/solver_error.hpp"
#include "parallel/thread_pool.hpp"

namespace nofis::testcases {

namespace {

/// splitmix64 finaliser — the same mixer rng::Engine seeds from, reused here
/// to turn (seed, call index) into an i.i.d.-quality uniform without any
/// mutable generator state.
std::uint64_t mix64(std::uint64_t z) noexcept {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double hash_uniform(std::uint64_t seed, std::uint64_t index) noexcept {
    const std::uint64_t bits = mix64(mix64(seed) ^ index);
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

FaultInjector::FaultInjector(const estimators::RareEventProblem& inner,
                             FaultInjectorConfig cfg)
    : inner_(&inner), cfg_(cfg) {
    if (cfg_.io_enospc_rate > 0.0 || cfg_.io_torn_write_rate > 0.0 ||
        cfg_.io_corrupt_rate > 0.0 || cfg_.io_short_read_rate > 0.0) {
        util::IoFaultConfig io_cfg;
        io_cfg.enospc_rate = cfg_.io_enospc_rate;
        io_cfg.torn_write_rate = cfg_.io_torn_write_rate;
        io_cfg.corrupt_rate = cfg_.io_corrupt_rate;
        io_cfg.short_read_rate = cfg_.io_short_read_rate;
        io_cfg.seed = cfg_.seed;
        io_ = std::make_unique<util::IoFaultInjector>(io_cfg);
        io_install_ = std::make_unique<util::ScopedIoFaultInjector>(io_.get());
    }
}

FaultInjector::Inject FaultInjector::decide(std::size_t index) const noexcept {
    if (index >= cfg_.nan_burst_begin && index < cfg_.nan_burst_end)
        return Inject::kNan;
    const double u = hash_uniform(cfg_.seed, index);
    double edge = cfg_.nan_rate;
    if (u < edge) return Inject::kNan;
    edge += cfg_.throw_rate;
    if (u < edge) return Inject::kThrow;
    edge += cfg_.inf_rate;
    if (u < edge) return Inject::kInf;
    edge += cfg_.latency_rate;
    if (u < edge) return Inject::kLatency;
    return Inject::kNone;
}

void FaultInjector::throw_fault(std::size_t index) const {
    // Alternate the structured kinds so classification paths both get
    // exercised; odd/even split keeps the ledger deterministic.
    if (index % 2 == 0) {
        thrown_singular_.fetch_add(1, std::memory_order_relaxed);
        throw SingularMatrixError("FaultInjector: injected singular matrix");
    }
    thrown_nonconv_.fetch_add(1, std::memory_order_relaxed);
    throw NonConvergenceError("FaultInjector: injected non-convergence");
}

double FaultInjector::value_at(std::size_t index,
                               std::span<const double> x) const {
    switch (decide(index)) {
        case Inject::kNan:
            nan_.fetch_add(1, std::memory_order_relaxed);
            return std::numeric_limits<double>::quiet_NaN();
        case Inject::kThrow:
            throw_fault(index);
        case Inject::kInf:
            inf_.fetch_add(1, std::memory_order_relaxed);
            return std::numeric_limits<double>::infinity();
        case Inject::kLatency: {
            latency_.fetch_add(1, std::memory_order_relaxed);
            const auto until =
                std::chrono::steady_clock::now() +
                std::chrono::microseconds(
                    static_cast<long long>(cfg_.latency_us));
            while (std::chrono::steady_clock::now() < until) {
            }
            break;
        }
        case Inject::kNone:
            break;
    }
    return inner_->g(x);
}

double FaultInjector::grad_at(std::size_t index, std::span<const double> x,
                              std::span<double> grad_out) const {
    switch (decide(index)) {
        case Inject::kNan: {
            nan_.fetch_add(1, std::memory_order_relaxed);
            const double v = inner_->g_grad(x, grad_out);
            if (!grad_out.empty())
                grad_out[0] = std::numeric_limits<double>::quiet_NaN();
            return v;
        }
        case Inject::kThrow:
            throw_fault(index);
        case Inject::kInf:
            inf_.fetch_add(1, std::memory_order_relaxed);
            inner_->g_grad(x, grad_out);
            return std::numeric_limits<double>::infinity();
        case Inject::kLatency:
            latency_.fetch_add(1, std::memory_order_relaxed);
            break;
        case Inject::kNone:
            break;
    }
    return inner_->g_grad(x, grad_out);
}

double FaultInjector::g(std::span<const double> x) const {
    const std::size_t index = calls_.fetch_add(1, std::memory_order_relaxed);
    return value_at(index, x);
}

double FaultInjector::g_indexed(std::size_t index,
                                std::span<const double> x) const {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return value_at(index, x);
}

double FaultInjector::g_grad(std::span<const double> x,
                             std::span<double> grad_out) const {
    if (!cfg_.affect_grad) return inner_->g_grad(x, grad_out);
    const std::size_t index = calls_.fetch_add(1, std::memory_order_relaxed);
    return grad_at(index, x, grad_out);
}

double FaultInjector::g_grad_indexed(std::size_t index,
                                     std::span<const double> x,
                                     std::span<double> grad_out) const {
    if (!cfg_.affect_grad) return inner_->g_grad_indexed(index, x, grad_out);
    calls_.fetch_add(1, std::memory_order_relaxed);
    return grad_at(index, x, grad_out);
}

std::vector<double> FaultInjector::g_rows(const linalg::Matrix& x) const {
    if (x.cols() != dim())
        throw std::invalid_argument("g_rows: dimension mismatch");
    const std::size_t base = calls_.fetch_add(x.rows(),
                                              std::memory_order_relaxed);
    std::vector<double> out(x.rows());
    std::vector<std::exception_ptr> errors(x.rows());
    parallel::parallel_for(x.rows(), [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
            try {
                out[r] = value_at(base + r, x.row_span(r));
            } catch (...) {
                errors[r] = std::current_exception();
            }
        }
    });
    parallel::rethrow_first(errors);
    return out;
}

}  // namespace nofis::testcases
