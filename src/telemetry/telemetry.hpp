#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace nofis::telemetry {

class RunTrace;

/// One node of the hierarchical wall-clock trace: cumulative elapsed time
/// and invocation count for a named scope, plus ordered children. Repeated
/// entries into the same scope (e.g. the per-epoch phases of a training
/// stage) accumulate into one node rather than appending siblings, so the
/// tree stays bounded by the code's scope structure, not the run length.
struct SpanNode {
    std::string name;
    double wall_ms = 0.0;    ///< cumulative elapsed wall-clock time
    std::size_t count = 0;   ///< completed entries into this scope
    std::vector<std::unique_ptr<SpanNode>> children;  ///< in first-seen order

    /// Child with `child_name`, created on first use.
    SpanNode& find_or_add(std::string_view child_name);
    /// Child lookup without creation; nullptr when absent.
    const SpanNode* find(std::string_view child_name) const noexcept;
};

/// Telemetry record of one run: a span tree (wall-clock), monotonic
/// counters, and scalar metrics, serialisable as a single JSON object.
///
/// Thread model — chosen so instrumentation can never perturb results:
///   * The span tree belongs to the thread that activated the trace (the
///     orchestrator). ScopedSpan silently no-ops on any other thread, so
///     worker lanes cannot race on the tree.
///   * Counters and metrics are mutex-protected and may be written from
///     any thread (the thread pool and the tiled matmul report through
///     them).
/// Nothing in here touches an RNG stream or the math being measured:
/// estimates are bitwise identical with telemetry on or off.
class RunTrace {
public:
    RunTrace();

    // --- span tree (orchestrator thread only) -----------------------------
    SpanNode& root() noexcept { return root_; }
    const SpanNode& root() const noexcept { return root_; }

    // --- monotonic counters (any thread) ----------------------------------
    void add_counter(std::string_view name, std::uint64_t delta);
    std::uint64_t counter(std::string_view name) const;
    std::map<std::string, std::uint64_t> counters() const;

    // --- scalar metrics, last write wins (any thread) ---------------------
    void set_metric(std::string_view name, double value);
    /// `fallback` when the metric was never set.
    double metric(std::string_view name, double fallback = 0.0) const;
    bool has_metric(std::string_view name) const;
    std::map<std::string, double> metrics() const;

    /// Serialises the whole record as one JSON object (spans / counters /
    /// metrics) through util::Json; non-finite numbers are emitted as
    /// `null` so the output always parses.
    std::string to_json() const;

private:
    friend class ScopedSpan;
    friend void set_active(RunTrace* trace) noexcept;
    friend void adopt_span_tree() noexcept;

    SpanNode root_;
    SpanNode* current_ = &root_;     ///< innermost open span
    /// Thread allowed to touch the tree. Atomic because every thread that
    /// opens a span reads it, while adopt_span_tree() moves it.
    std::atomic<std::thread::id> owner_;

    mutable std::mutex mutex_;       ///< guards counters_ and metrics_
    std::map<std::string, std::uint64_t, std::less<>> counters_;
    std::map<std::string, double, std::less<>> metrics_;
};

namespace detail {
/// The process-global sink. Plain pointer behind an atomic: instrumented
/// hot paths read it with one relaxed load and skip every clock read and
/// allocation when no trace is active — the advertised zero-cost-off mode.
extern std::atomic<RunTrace*> g_active;
}  // namespace detail

/// Currently active trace, or nullptr when telemetry is off.
inline RunTrace* active() noexcept {
    return detail::g_active.load(std::memory_order_relaxed);
}

/// Installs `trace` as the process-global sink (nullptr turns telemetry
/// off). The calling thread becomes the span-tree owner. Not meant to be
/// called while instrumented work is in flight.
void set_active(RunTrace* trace) noexcept;

/// Re-binds the active trace's span tree to the calling thread, which
/// becomes the new owner; ScopedSpans on the previous owner silently no-op
/// from here on. No-op when telemetry is off or the caller already owns
/// the tree. May only be called while no span is open on the previous
/// owner — the serving scheduler thread adopts the tree at loop start,
/// while the main thread is parked waiting for shutdown, which satisfies
/// that by construction.
void adopt_span_tree() noexcept;

/// RAII wall-clock span. Construction opens (or re-enters) the child scope
/// `name` under the innermost open span of the active trace; destruction
/// adds the elapsed time. A no-op — no clock read, no allocation — when no
/// trace is active or when constructed off the owner thread.
class ScopedSpan {
public:
    explicit ScopedSpan(std::string_view name);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    RunTrace* trace_ = nullptr;
    SpanNode* node_ = nullptr;
    SpanNode* parent_ = nullptr;
    std::chrono::steady_clock::time_point t0_;
};

/// Adds `delta` to the named counter of the active trace; no-op when off.
/// Safe from any thread.
inline void count(std::string_view name, std::uint64_t delta = 1) {
    if (RunTrace* tr = active()) tr->add_counter(name, delta);
}

/// Sets a scalar metric on the active trace; no-op when off.
inline void metric(std::string_view name, double value) {
    if (RunTrace* tr = active()) tr->set_metric(name, value);
}

}  // namespace nofis::telemetry
