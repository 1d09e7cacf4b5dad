// Regenerates Table 1 of the paper: 10 test cases x 7 methods, reported as
// "calls / log-error" averaged over repeated runs.
//
// Usage:
//   table1 [--cases Leaf,Cube,...] [--methods MC,SUS,NOFIS,...]
//          [--repeats N] [--seed S] [--threads T]
//
// Defaults run every case and method at 2 repeats (the paper uses 20; pass
// --repeats 20 to match, at ~10x the runtime). A cell where every repeat
// collapses prints "—", matching the paper's convention.

#include "bench_common.hpp"

int main(int argc, char** argv) {
    using namespace nofis;
    using namespace nofis::bench;

    apply_threads_flag(argc, argv);
    apply_kernels_flag(argc, argv);
    MetricsSession metrics(argc, argv);
    const auto case_names =
        split_csv(arg_value(argc, argv, "--cases",
                            "Leaf,Cube,Rosen,Levy,Powell,Opamp,Oscillator,"
                            "ChargePump,YBranch,DeepNet62"));
    const auto methods = split_csv(
        arg_value(argc, argv, "--methods", "MC,SIR,SUC,SUS,SSS,Adapt-IS,NOFIS"));
    const auto repeats = size_flag(argc, argv, "--repeats", "2", 1);
    const auto seed = u64_flag(argc, argv, "--seed", "20240101");

    std::printf("Table 1 reproduction — %zu repeat(s), seed %llu\n", repeats,
                static_cast<unsigned long long>(seed));
    std::printf("%-12s %-4s %-10s", "Case", "Dim", "Golden");
    for (const auto& m : methods) std::printf(" | %-16s", m.c_str());
    std::printf("\n");

    for (const auto& cname : case_names) {
        const auto tc = testcases::make_case(cname);
        std::printf("%-12s %-4zu %-10.2e", cname.c_str(), tc->dim(),
                    tc->golden_pr());
        for (const auto& m : methods) {
            const auto cell = run_cell(m, *tc, repeats, seed);
            if (cell.failures == cell.repeats) {
                std::printf(" | %-16s", "      —");
            } else {
                char buf[48];
                std::snprintf(buf, sizeof(buf), "%s / %.2f",
                              format_calls(cell.mean_calls).c_str(),
                              cell.mean_log_error);
                std::printf(" | %-16s", buf);
            }
            std::fflush(stdout);
        }
        std::printf("\n");
    }
    return 0;
}
