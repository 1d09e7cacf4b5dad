#include "estimators/guarded_problem.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "linalg/solver_error.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/normal.hpp"
#include "util/hash.hpp"

namespace nofis::estimators {

namespace {

/// Fault kind of a thrown evaluation: structured solver errors keep their
/// kind, rejected input (invalid_argument / domain_error) is bad input.
FaultKind classify(const std::exception& e) noexcept {
    if (const auto* solver = dynamic_cast<const SolverError*>(&e)) {
        switch (solver->kind()) {
            case SolverError::Kind::kSingularMatrix:
                return FaultKind::kSingularMatrix;
            case SolverError::Kind::kNonConvergence:
                return FaultKind::kNonConvergence;
            case SolverError::Kind::kBadInput:
                return FaultKind::kBadInput;
        }
    }
    if (dynamic_cast<const std::invalid_argument*>(&e) != nullptr ||
        dynamic_cast<const std::domain_error*>(&e) != nullptr)
        return FaultKind::kBadInput;
    return FaultKind::kOtherException;
}

bool all_finite(std::span<const double> v) noexcept {
    for (double x : v)
        if (!std::isfinite(x)) return false;
    return true;
}

/// Synthetic inner-problem index for retry attempt `k` of top-level call
/// `index`: tagged with the top bit so retry probes can never collide with
/// (or shift) the top-level call-index space a deterministic fault injector
/// keys its decisions on.
std::size_t retry_probe_index(std::size_t index, std::size_t k) noexcept {
    return (std::size_t{1} << 63) | (index << 8) | (k & 0xFF);
}

}  // namespace

const char* fault_kind_name(FaultKind kind) noexcept {
    switch (kind) {
        case FaultKind::kSingularMatrix: return "singular-matrix";
        case FaultKind::kNonConvergence: return "non-convergence";
        case FaultKind::kBadInput: return "bad-input";
        case FaultKind::kNonFiniteValue: return "non-finite-value";
        case FaultKind::kNonFiniteGrad: return "non-finite-grad";
        case FaultKind::kOtherException: return "other-exception";
        case FaultKind::kCount: break;
    }
    return "unknown";
}

std::size_t FaultReport::total_faults() const noexcept {
    std::size_t total = 0;
    for (std::size_t c : counts) total += c;
    return total;
}

std::string FaultReport::summary() const {
    std::ostringstream os;
    os << total_faults() << " fault(s)";
    if (total_faults() > 0) {
        os << " (";
        bool first = true;
        for (std::size_t i = 0; i < counts.size(); ++i) {
            if (counts[i] == 0) continue;
            if (!first) os << ", ";
            os << fault_kind_name(static_cast<FaultKind>(i)) << ":"
               << counts[i];
            first = false;
        }
        os << ")";
    }
    os << ", " << retry_attempts << " retry call(s), " << recovered
       << " recovered, " << clamped << " clamped, " << propagated
       << " propagated";
    if (has_first)
        os << "; first: " << fault_kind_name(first_kind) << " at call #"
           << first_call_index << " (" << first_message << ")";
    return os.str();
}

GuardedProblem::GuardedProblem(const RareEventProblem& inner, GuardConfig cfg)
    : inner_(&inner), cfg_(cfg) {}

void GuardedProblem::record(std::size_t record_index, FaultKind kind,
                            const std::string& message,
                            std::span<const double> x) const {
    std::lock_guard<std::mutex> lock(ledger_mutex_);
    ++report_.counts[static_cast<std::size_t>(kind)];
    // "First" fault = lowest call index, not earliest arrival. Retries of a
    // call record under the same index and never displace the initial fault
    // (strict <), so the ledger is identical under any thread count.
    if (!report_.has_first || record_index < report_.first_call_index) {
        report_.has_first = true;
        report_.first_kind = kind;
        report_.first_message = message;
        report_.first_x.assign(x.begin(), x.end());
        report_.first_call_index = record_index;
    }
}

bool GuardedProblem::attempt(std::size_t inner_index,
                             std::size_t record_index,
                             std::span<const double> x,
                             std::span<double> grad_out, double& value,
                             FaultKind& kind, std::string& message,
                             std::exception_ptr& eptr) const {
    try {
        value = grad_out.empty()
                    ? inner_->g_indexed(inner_index, x)
                    : inner_->g_grad_indexed(inner_index, x, grad_out);
    } catch (const std::exception& e) {
        kind = classify(e);
        message = e.what();
        eptr = std::current_exception();
        record(record_index, kind, message, x);
        return false;
    }
    eptr = nullptr;
    if (!std::isfinite(value)) {
        kind = FaultKind::kNonFiniteValue;
        message = "g returned a non-finite value";
        record(record_index, kind, message, x);
        return false;
    }
    if (!grad_out.empty() && !all_finite(grad_out)) {
        kind = FaultKind::kNonFiniteGrad;
        message = "g_grad produced a non-finite component";
        record(record_index, kind, message, x);
        return false;
    }
    return true;
}

double GuardedProblem::resolve(std::size_t index, std::span<const double> x,
                               std::span<double> grad_out, FaultKind kind,
                               std::exception_ptr eptr) const {
    using Policy = GuardConfig::Policy;
    if (cfg_.policy == Policy::kPropagate) {
        {
            std::lock_guard<std::mutex> lock(ledger_mutex_);
            ++report_.propagated;
        }
        // Thrown faults pass through untouched; non-finite results are not
        // exceptions, so hand a quiet NaN back to the caller.
        if (eptr) std::rethrow_exception(eptr);
        return std::numeric_limits<double>::quiet_NaN();
    }

    if (cfg_.policy == Policy::kRetryPerturb) {
        // The jitter for call `index` is its own engine seeded from a pure
        // hash of the index: no shared stream, so the probes a faulty call
        // sees do not depend on which other calls faulted before it.
        rng::Engine jitter(
            util::splitmix64(kGuardJitterSeed + util::kGoldenGamma * index));
        std::vector<double> probe(x.begin(), x.end());
        for (std::size_t attempt_i = 0; attempt_i < cfg_.max_retries;
             ++attempt_i) {
            for (std::size_t i = 0; i < probe.size(); ++i)
                probe[i] =
                    x[i] + cfg_.perturb_sigma * rng::standard_normal(jitter);
            {
                std::lock_guard<std::mutex> lock(ledger_mutex_);
                ++report_.retry_attempts;
            }
            double value = 0.0;
            FaultKind k2 = kind;
            std::string m2;
            std::exception_ptr e2;
            if (attempt(retry_probe_index(index, attempt_i), index, probe,
                        grad_out, value, k2, m2, e2)) {
                std::lock_guard<std::mutex> lock(ledger_mutex_);
                ++report_.recovered;
                return value;
            }
        }
    }

    // Clamp-to-fail: the sample is pushed far outside Ω (g >> 0), so it is
    // classified as "no failure" and carries zero importance weight. Also
    // the fallback once retries are exhausted.
    {
        std::lock_guard<std::mutex> lock(ledger_mutex_);
        ++report_.clamped;
    }
    for (double& gi : grad_out) gi = 0.0;
    return cfg_.clamp_value;
}

double GuardedProblem::g_indexed(std::size_t index,
                                 std::span<const double> x) const {
    double value = 0.0;
    FaultKind kind = FaultKind::kOtherException;
    std::string message;
    std::exception_ptr eptr;
    if (attempt(index, index, x, {}, value, kind, message, eptr)) return value;
    return resolve(index, x, {}, kind, eptr);
}

double GuardedProblem::g_grad_indexed(std::size_t index,
                                      std::span<const double> x,
                                      std::span<double> grad_out) const {
    double value = 0.0;
    FaultKind kind = FaultKind::kOtherException;
    std::string message;
    std::exception_ptr eptr;
    if (attempt(index, index, x, grad_out, value, kind, message, eptr))
        return value;
    return resolve(index, x, grad_out, kind, eptr);
}

double GuardedProblem::g(std::span<const double> x) const {
    return g_indexed(reserve_calls(1), x);
}

double GuardedProblem::g_grad(std::span<const double> x,
                              std::span<double> grad_out) const {
    return g_grad_indexed(reserve_calls(1), x, grad_out);
}

std::vector<double> GuardedProblem::g_rows(const linalg::Matrix& x) const {
    if (x.cols() != dim())
        throw std::invalid_argument("g_rows: dimension mismatch");
    const std::size_t base = reserve_calls(x.rows());
    std::vector<double> out(x.rows());
    parallel::for_each_index(x.rows(), [&](std::size_t r) {
        out[r] = g_indexed(base + r, x.row_span(r));
    });
    return out;
}

}  // namespace nofis::estimators
