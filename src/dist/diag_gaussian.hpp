#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "rng/engine.hpp"

namespace nofis::dist {

/// Gaussian with diagonal covariance, N(mu, diag(sigma^2)).
///
/// Used as the per-component building block of the Adapt-IS mixture and as
/// the scaled-sigma proposal in SSS (mu = 0, sigma = s·1).
class DiagGaussian {
public:
    DiagGaussian(std::vector<double> mean, std::vector<double> sigma);

    /// Isotropic convenience: N(0, s² I) in `dim` dimensions.
    static DiagGaussian isotropic(std::size_t dim, double s);

    std::size_t dim() const noexcept { return mean_.size(); }
    /// Draws `n` i.i.d. samples, one per row -> (n x D).
    linalg::Matrix sample(rng::Engine& eng, std::size_t n) const;
    double log_pdf(std::span<const double> x) const;

    std::span<const double> mean() const noexcept { return mean_; }
    std::span<const double> sigma() const noexcept { return sigma_; }

private:
    std::vector<double> mean_;
    std::vector<double> sigma_;
    double log_norm_ = 0.0;  // cached -(D/2)log(2π) - Σ log σ_i
};

}  // namespace nofis::dist
