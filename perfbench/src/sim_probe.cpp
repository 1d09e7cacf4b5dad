#include "sim_probe.hpp"

#include <chrono>
#include <exception>
#include <stdexcept>

#include "parallel/thread_pool.hpp"

namespace perfbench {

namespace {

std::uint64_t ns_between(std::chrono::steady_clock::time_point t0,
                         std::chrono::steady_clock::time_point t1) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

}  // namespace

double SimProbe::timed_value(std::size_t index,
                             std::span<const double> x) const {
    g_calls_.fetch_add(1, std::memory_order_relaxed);
    if (!timed_) return inner_->g_indexed(index, x);
    const auto t0 = std::chrono::steady_clock::now();
    const double v = inner_->g_indexed(index, x);
    g_ns_.fetch_add(ns_between(t0, std::chrono::steady_clock::now()),
                    std::memory_order_relaxed);
    return v;
}

double SimProbe::g(std::span<const double> x) const {
    g_calls_.fetch_add(1, std::memory_order_relaxed);
    if (!timed_) return inner_->g(x);
    const auto t0 = std::chrono::steady_clock::now();
    const double v = inner_->g(x);
    g_ns_.fetch_add(ns_between(t0, std::chrono::steady_clock::now()),
                    std::memory_order_relaxed);
    return v;
}

double SimProbe::g_indexed(std::size_t index,
                           std::span<const double> x) const {
    return timed_value(index, x);
}

double SimProbe::g_grad(std::span<const double> x,
                        std::span<double> grad_out) const {
    grad_calls_.fetch_add(1, std::memory_order_relaxed);
    if (!timed_) return inner_->g_grad(x, grad_out);
    const auto t0 = std::chrono::steady_clock::now();
    const double v = inner_->g_grad(x, grad_out);
    grad_ns_.fetch_add(ns_between(t0, std::chrono::steady_clock::now()),
                       std::memory_order_relaxed);
    return v;
}

double SimProbe::g_grad_indexed(std::size_t index, std::span<const double> x,
                                std::span<double> grad_out) const {
    grad_calls_.fetch_add(1, std::memory_order_relaxed);
    if (!timed_) return inner_->g_grad_indexed(index, x, grad_out);
    const auto t0 = std::chrono::steady_clock::now();
    const double v = inner_->g_grad_indexed(index, x, grad_out);
    grad_ns_.fetch_add(ns_between(t0, std::chrono::steady_clock::now()),
                       std::memory_order_relaxed);
    return v;
}

std::vector<double> SimProbe::g_rows(const nofis::linalg::Matrix& x) const {
    if (x.cols() != dim())
        throw std::invalid_argument("g_rows: dimension mismatch");
    std::vector<double> out(x.rows());
    std::vector<std::exception_ptr> errors(x.rows());
    nofis::parallel::parallel_for(
        x.rows(), [&](std::size_t r0, std::size_t r1) {
            for (std::size_t r = r0; r < r1; ++r) {
                try {
                    out[r] = timed_value(r, x.row_span(r));
                } catch (...) {
                    errors[r] = std::current_exception();
                }
            }
        });
    nofis::parallel::rethrow_first(errors);
    return out;
}

SimProbe::Totals SimProbe::totals() const noexcept {
    Totals t;
    t.g_calls = g_calls_.load(std::memory_order_relaxed);
    t.g_ns = g_ns_.load(std::memory_order_relaxed);
    t.grad_calls = grad_calls_.load(std::memory_order_relaxed);
    t.grad_ns = grad_ns_.load(std::memory_order_relaxed);
    return t;
}

void SimProbe::reset() noexcept {
    g_calls_.store(0, std::memory_order_relaxed);
    g_ns_.store(0, std::memory_order_relaxed);
    grad_calls_.store(0, std::memory_order_relaxed);
    grad_ns_.store(0, std::memory_order_relaxed);
}

}  // namespace perfbench
