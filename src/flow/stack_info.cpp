#include "flow/stack_info.hpp"

#include "flow/serialize.hpp"

namespace nofis::flow {

StackInfo stack_info(const CouplingStack& stack) {
    const StackConfig& cfg = stack.config();
    StackInfo info;
    info.dim = cfg.dim;
    info.num_blocks = cfg.num_blocks;
    info.layers_per_block = cfg.layers_per_block;
    info.coupling = cfg.coupling;
    info.use_actnorm = cfg.use_actnorm;
    info.hidden = cfg.hidden;
    info.scale_cap = cfg.scale_cap;
    info.scale_caps = stack.scale_caps();
    if (cfg.coupling == CouplingKind::kRqs) {
        info.rqs_bins = cfg.rqs_bins;
        info.rqs_tail = cfg.rqs_tail;
    }
    const StackTally tally = stack_tally(cfg);
    info.param_tensors = tally.tensors;
    info.param_values = tally.values;
    return info;
}

StackInfo stack_info(const std::string& path) {
    return stack_info(load_stack(path));
}

}  // namespace nofis::flow
