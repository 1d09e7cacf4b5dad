// perfbench: steady end-to-end and per-layer benchmark of the NOFIS library.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// Workloads: estimate-leaf, estimate-ybranch, serve-flow, serve-estimate
// (see perfbench/README.md). Prints one human-readable detail line per check
// failure and, as its last line, one JSON object with every metric the run
// measured, the host/build notes and the attempted/failed op counts.
// run.py turns that into the benchmark's result line. Exit status: 0 when
// every output check passed, 1 when one failed, 2 on a usage or set-up
// error (no result printed).
#include <cstdio>
#include <exception>
#include <string>

#include "serve/protocol.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

Result dispatch(const Options& opt) {
    if (opt.workload == "estimate-leaf") {
        EstimateSpec spec;
        spec.case_name = "Leaf";
        spec.epochs = 15;
        spec.samples_per_epoch = 50;
        spec.n_is = 2000;
        spec.pool_ops = 8;
        return run_estimate_workload(opt, spec);
    }
    if (opt.workload == "estimate-ybranch") {
        EstimateSpec spec;
        spec.case_name = "YBranch";
        spec.epochs = 2;
        spec.samples_per_epoch = 20;
        spec.n_is = 1000;
        spec.pool_ops = 6;
        return run_estimate_workload(opt, spec);
    }
    if (opt.workload == "serve-flow") return run_serve_flow(opt);
    if (opt.workload == "serve-estimate") return run_serve_estimate(opt);
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

std::string encode(const Result& r) {
    using nofis::serve::Json;
    Json metrics = Json::object();
    for (const auto& [name, vu] : r.metrics) {
        Json m = Json::object();
        m.set("value", Json::number(vu.first));
        m.set("unit", Json::string(vu.second));
        metrics.set(name, std::move(m));
    }
    Json notes = Json::object();
    for (const auto& [k, v] : r.notes) notes.set(k, Json::string(v));
    Json checks = Json::array();
    for (const auto& c : r.check_failures) checks.push_back(Json::string(c));
    Json out = Json::object();
    out.set("correct", Json::boolean(r.correct));
    out.set("attempted", Json::number_u64(r.attempted));
    out.set("failed", Json::number_u64(r.failed));
    out.set("metrics", std::move(metrics));
    out.set("notes", std::move(notes));
    out.set("check_failures", std::move(checks));
    return out.encode();
}

}  // namespace

int main(int argc, char** argv) {
    Result r;
    try {
        const Options opt = parse_options(argc, argv);
        r = dispatch(opt);
        for (const auto& [k, v] : host_notes()) r.notes[k] = v;
        r.notes["workload"] = opt.workload;
        r.notes["seed"] = std::to_string(opt.seed);
        r.notes["trace"] = opt.trace ? "1" : "0";
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 2;
    }
    for (const auto& c : r.check_failures)
        std::printf("perfbench: CHECK FAILED: %s\n", c.c_str());
    std::printf("%s\n", encode(r).c_str());
    std::fflush(stdout);
    return r.correct ? 0 : 1;
}
