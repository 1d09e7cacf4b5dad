#pragma once

#include <iosfwd>
#include <string>

#include "flow/coupling_stack.hpp"

namespace nofis::flow {

/// Text serialisation of a trained coupling stack ("*.nofisflow"): the
/// StackConfig header, every layer's scale cap (a stage rollback tightens
/// one block's), then every parameter matrix in layer order, each value
/// spelled "%.17g" by util::format_double, so it reloads bit for bit.
/// save_stack writes "nofisflow-v2"; load_stack also reads "nofisflow-v1",
/// which has no caps line, with every layer at the header's cap. A saved
/// proposal can be reloaded in a later process and used for additional
/// importance-sampling draws without retraining (see
/// NofisEstimator::importance_estimate and the CLI's train/reuse commands).
void save_stack(const CouplingStack& stack, std::ostream& os);
void save_stack(const CouplingStack& stack, const std::string& path);

/// Loads a stack saved by save_stack. Throws std::runtime_error on a
/// malformed or version-mismatched file, including a value token that is
/// not one finite util::parse_double number of at most 32 chars.
CouplingStack load_stack(std::istream& is);
CouplingStack load_stack(const std::string& path);

/// In-memory checkpoint of every parameter value, in the same layer order
/// save_stack writes them. The stage rollback-retry machinery snapshots
/// before training a stage and restores on divergence — same parameter
/// walk as the on-disk format, minus the stream round-trip.
using ParamSnapshot = std::vector<linalg::Matrix>;
ParamSnapshot snapshot_params(const CouplingStack& stack);
/// Restores a snapshot taken from the *same* architecture; throws
/// std::runtime_error on a layout mismatch.
void restore_params(CouplingStack& stack, const ParamSnapshot& snapshot);

}  // namespace nofis::flow
