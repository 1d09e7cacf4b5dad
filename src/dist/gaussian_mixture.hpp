#pragma once

#include <vector>

#include "dist/diag_gaussian.hpp"

namespace nofis::dist {

/// Finite mixture of diagonal Gaussians with exact sampling / log-pdf.
///
/// This is the classic parametric proposal family for adaptive importance
/// sampling [Kanj et al. 2006; Shi et al. 2018]; the cross-entropy update
/// (`ce_update`) re-fits weights, means, and sigmas to weighted elite
/// samples — one iteration of the Adapt-IS baseline.
class GaussianMixture {
public:
    struct Component {
        double weight;
        std::vector<double> mean;
        std::vector<double> sigma;
    };

    explicit GaussianMixture(std::vector<Component> components);

    /// `k` components at the origin with unit sigma, equal weights.
    static GaussianMixture standard(std::size_t dim, std::size_t k);

    std::size_t dim() const noexcept { return dim_; }
    std::size_t num_components() const noexcept { return comps_.size(); }
    const Component& component(std::size_t i) const { return comps_.at(i); }

    /// Draws `n` i.i.d. samples, one per row -> (n x D).
    linalg::Matrix sample(rng::Engine& eng, std::size_t n) const;
    double log_pdf(std::span<const double> x) const;

    /// Cross-entropy re-fit: given samples (rows of x) with non-negative
    /// importance weights w, performs one weighted EM-style update of all
    /// component parameters. Sigmas are floored at `sigma_floor` to keep the
    /// proposal's support covering p (unbiasedness requirement of Eq. 2).
    void ce_update(const linalg::Matrix& x, std::span<const double> w,
                   double sigma_floor = 0.05);

private:
    void renormalise();

    std::size_t dim_ = 0;
    std::vector<Component> comps_;
};

}  // namespace nofis::dist
