// The four perfbench workloads. Each one builds its inputs from the
// workload seed, times a schedule of short operations against the public
// library API for Options::seconds, checks the outputs, and (with
// Options::trace) replays the schedule under a telemetry::RunTrace to fill
// the per-layer metrics.
#pragma once

#include <cstddef>
#include <string>

#include "common.hpp"
#include "core/nofis.hpp"
#include "testcases/testcase.hpp"

namespace perfbench {

/// Back-to-back NofisEstimator runs on one test case at a cut budget.
struct EstimateSpec {
    std::string case_name;
    std::size_t epochs = 0;             ///< E (cut from the case budget)
    std::size_t samples_per_epoch = 0;  ///< N
    std::size_t n_is = 0;               ///< N_IS
    /// Estimates per pass over the fixed evaluation set; a run times whole
    /// passes, and g_calls_per_op / log_err are taken over the first.
    std::size_t pool_ops = 0;
};

/// The case's own NOFIS configuration with E, N and N_IS replaced.
nofis::core::NofisConfig cut_config(const nofis::testcases::TestCase& tc,
                                    std::size_t epochs,
                                    std::size_t samples_per_epoch,
                                    std::size_t n_is);

Result run_estimate_workload(const Options& opt, const EstimateSpec& spec);
Result run_serve_flow(const Options& opt);
Result run_serve_estimate(const Options& opt);

}  // namespace perfbench
