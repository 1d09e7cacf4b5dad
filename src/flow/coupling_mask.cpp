#include "flow/coupling_mask.hpp"

#include <stdexcept>
#include <string>

namespace nofis::flow {

CouplingMask::CouplingMask(std::size_t dim, bool pass_first_half,
                           const char* layer)
    : dim(dim) {
    if (dim < 2)
        throw std::invalid_argument(std::string(layer) +
                                    ": dim must be >= 2");
    const std::size_t half = (dim + 1) / 2;
    for (std::size_t i = 0; i < dim; ++i)
        ((i < half) == pass_first_half ? pass : transform).push_back(i);
}

std::vector<std::size_t> CouplingMask::conditioner_layout(
    const std::vector<std::size_t>& hidden,
    std::size_t params_per_dim) const {
    std::vector<std::size_t> sizes{pass.size()};
    sizes.insert(sizes.end(), hidden.begin(), hidden.end());
    sizes.push_back(params_per_dim * transform.size());
    return sizes;
}

}  // namespace nofis::flow
