// Shared plumbing of the perfbench binary: command-line options, timing,
// percentiles, host/build description and the result record every workload
// fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Scratch directory for files a workload writes (models); run.py
    /// passes a path inside the checkout and removes it afterwards.
    std::string work_dir;
};

/// Parses --workload/--seed/--seconds/--trace/--work-dir; throws
/// std::invalid_argument on anything malformed.
Options parse_options(int argc, char** argv);

inline double ms_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/// Nearest-rank percentile of an unsorted sample (q in [0, 1]).
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Peak resident set of this process in MiB (VmHWM).
double peak_rss_mb();

/// Reads a whole file; throws std::runtime_error when it cannot.
std::string read_file(const std::string& path);

/// Span `path` ("a/b/c") under the trace root; nullptr when absent.
const nofis::telemetry::SpanNode* find_span(
    const nofis::telemetry::RunTrace& trace, const std::string& path);

/// Sum of wall_ms over every span named `name` anywhere in the tree.
double sum_spans(const nofis::telemetry::SpanNode& node,
                 const std::string& name);

/// One run's outcome. `metrics` holds every value a workload measured;
/// main() prints the subset that BENCHMARK.json declares for the mode.
struct Result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> check_failures;  ///< human-readable, one per check
    std::map<std::string, std::pair<double, std::string>> metrics;
    /// Context printed on the detail line (not a metric).
    std::map<std::string, std::string> notes;

    void set(const std::string& name, double value, const std::string& unit) {
        metrics[name] = {value, unit};
    }
    void fail_check(const std::string& what) {
        correct = false;
        check_failures.push_back(what);
    }
};

/// Host and build description: CPU model, nproc, kernel choice, SIMD
/// backend, compiler. Recorded with every result so figures from different
/// machines are never compared silently.
std::map<std::string, std::string> host_notes();

}  // namespace perfbench
