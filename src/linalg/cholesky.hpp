#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace nofis::linalg {

/// Cholesky factorisation A = L·Lᵀ of a symmetric positive-definite matrix.
///
/// Used by the normal-equation least-squares path.
class Cholesky {
public:
    /// Throws std::runtime_error when A is not positive definite (within a
    /// small jitter tolerance).
    explicit Cholesky(const Matrix& a);

    std::size_t dim() const noexcept { return n_; }

    /// The lower-triangular factor L.
    const Matrix& lower() const noexcept { return l_; }

    /// Solves A x = b via two triangular solves.
    std::vector<double> solve(std::span<const double> b) const;

    /// log det A = 2 Σ log L_ii.
    double log_determinant() const noexcept;

private:
    std::size_t n_ = 0;
    Matrix l_;
};

}  // namespace nofis::linalg
