#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "linalg/kernels/kernels.hpp"
#include "util/parse.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

Options parse_options(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--seed") {
            const auto v = nofis::util::parse_u64(value);
            if (!v) throw std::invalid_argument("bad --seed " + value);
            o.seed = *v;
        } else if (flag == "--seconds") {
            const auto v = nofis::util::parse_u64(value);
            if (!v || *v == 0 || *v > 600)
                throw std::invalid_argument("bad --seconds " + value);
            o.seconds = static_cast<double>(*v);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                throw std::invalid_argument("--trace takes 0 or 1");
            o.trace = value == "1";
        } else if (flag == "--work-dir") {
            o.work_dir = value;
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    if (o.workload.empty()) throw std::invalid_argument("--workload is required");
    if (o.work_dir.empty()) throw std::invalid_argument("--work-dir is required");
    return o;
}

double percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(idx, values.size() - 1)];
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    double s = 0.0;
    for (double v : values) s += v;
    return s / static_cast<double>(values.size());
}

double peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream is(line.substr(6));
            double kb = 0.0;
            is >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

const nofis::telemetry::SpanNode* find_span(
    const nofis::telemetry::RunTrace& trace, const std::string& path) {
    const nofis::telemetry::SpanNode* node = &trace.root();
    std::size_t start = 0;
    while (node != nullptr && start <= path.size()) {
        const std::size_t slash = path.find('/', start);
        const std::size_t end = slash == std::string::npos ? path.size() : slash;
        node = node->find(std::string_view(path).substr(start, end - start));
        if (slash == std::string::npos) break;
        start = slash + 1;
    }
    return node;
}

double sum_spans(const nofis::telemetry::SpanNode& node,
                 const std::string& name) {
    double total = node.name == name ? node.wall_ms : 0.0;
    for (const auto& child : node.children) total += sum_spans(*child, name);
    return total;
}

std::map<std::string, std::string> host_notes() {
    std::map<std::string, std::string> notes;
    std::string cpu = "unknown";
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                cpu = line.substr(colon + 1);
                cpu.erase(0, cpu.find_first_not_of(' '));
            }
            break;
        }
    }
    notes["cpu_model"] = cpu;
    notes["nproc"] = std::to_string(std::thread::hardware_concurrency());
    notes["kernels"] = nofis::linalg::kernels::choice_name();
    notes["simd_backend"] = nofis::linalg::kernels::simd_backend();
    notes["compiler"] = PERFBENCH_COMPILER;
    return notes;
}

}  // namespace perfbench
