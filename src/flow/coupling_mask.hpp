#pragma once

#include <cstddef>
#include <vector>

namespace nofis::flow {

/// The coordinate split every coupling family shares (affine, additive,
/// RQS). With `pass_first_half` the first ⌈D/2⌉ coordinates pass through
/// unchanged (set A) and the rest are transformed (set B); otherwise the
/// roles swap. Stacks alternate the flag per layer so every coordinate gets
/// transformed.
struct CouplingMask {
    /// Throws std::invalid_argument, prefixed with `layer`, when dim < 2.
    CouplingMask(std::size_t dim, bool pass_first_half, const char* layer);

    /// Layer sizes of the conditioner MLP that maps x_A to the transform's
    /// parameters: {|A|, hidden..., params_per_dim · |B|}.
    std::vector<std::size_t> conditioner_layout(
        const std::vector<std::size_t>& hidden,
        std::size_t params_per_dim) const;

    std::size_t dim;
    std::vector<std::size_t> pass;       ///< A: the conditioner's input
    std::vector<std::size_t> transform;  ///< B: the transformed coordinates
};

}  // namespace nofis::flow
