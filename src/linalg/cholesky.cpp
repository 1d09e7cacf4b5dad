#include "linalg/cholesky.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/solver_error.hpp"

namespace nofis::linalg {

Cholesky::Cholesky(const Matrix& a) : n_(a.rows()), l_(a.rows(), a.rows()) {
    if (a.rows() != a.cols())
        throw std::invalid_argument("Cholesky: matrix must be square");
    for (std::size_t i = 0; i < n_; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            double s = a(i, j);
            for (std::size_t k = 0; k < j; ++k) s -= l_(i, k) * l_(j, k);
            if (i == j) {
                if (s <= 0.0)
                    throw SingularMatrixError(
                        "Cholesky: matrix is not positive definite");
                l_(i, i) = std::sqrt(s);
            } else {
                l_(i, j) = s / l_(j, j);
            }
        }
    }
}

std::vector<double> Cholesky::solve(std::span<const double> b) const {
    if (b.size() != n_)
        throw std::invalid_argument("Cholesky::solve: bad rhs size");
    // Forward: L y = b
    std::vector<double> y(n_);
    for (std::size_t i = 0; i < n_; ++i) {
        double s = b[i];
        for (std::size_t k = 0; k < i; ++k) s -= l_(i, k) * y[k];
        y[i] = s / l_(i, i);
    }
    // Backward: Lᵀ x = y
    for (std::size_t ii = n_; ii-- > 0;) {
        double s = y[ii];
        for (std::size_t k = ii + 1; k < n_; ++k) s -= l_(k, ii) * y[k];
        y[ii] = s / l_(ii, ii);
    }
    return y;
}

double Cholesky::log_determinant() const noexcept {
    double s = 0.0;
    for (std::size_t i = 0; i < n_; ++i) s += std::log(l_(i, i));
    return 2.0 * s;
}

}  // namespace nofis::linalg
