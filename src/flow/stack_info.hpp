#pragma once

#include <string>

#include "flow/coupling_stack.hpp"

namespace nofis::flow {

/// Introspection record of a coupling stack: the architecture header plus
/// the parameter tally, without touching any parameter value. The serving
/// registry validates loaded models against this, and `nofis_cli info`
/// prints it for an on-disk `.nofisflow` file.
struct StackInfo {
    std::size_t dim = 0;
    std::size_t num_blocks = 0;        ///< M
    std::size_t layers_per_block = 0;  ///< K
    CouplingKind coupling = CouplingKind::kAffine;
    bool use_actnorm = false;
    std::vector<std::size_t> hidden;
    double scale_cap = 0.0;
    /// Every physical layer's log-scale bound (0 for layers without one);
    /// a stage rollback leaves one block's below scale_cap.
    std::vector<double> scale_caps;
    std::size_t rqs_bins = 0;   ///< spline bins (0 unless coupling == kRqs)
    double rqs_tail = 0.0;      ///< spline half-width (0 unless kRqs)
    std::size_t param_tensors = 0;  ///< parameter matrices in the stack
    std::size_t param_values = 0;   ///< total scalar parameters
};

/// Introspects an in-memory stack.
StackInfo stack_info(const CouplingStack& stack);

/// Loads `path` (validating it exactly as load_stack does) and introspects
/// it. Throws std::runtime_error on a missing or malformed file.
StackInfo stack_info(const std::string& path);

}  // namespace nofis::flow
