#include "photonic/ybranch.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace nofis::photonic {

YBranchModel::YBranchModel(Params p) : p_(p) {
    if (p_.segments < 2)
        throw std::invalid_argument("YBranchModel: need >= 2 segments");
    mode_amp_.resize(p_.num_modes);
    for (std::size_t k = 0; k < p_.num_modes; ++k)
        mode_amp_[k] = p_.deform_amp_um / (1.0 + 0.25 * static_cast<double>(k));
    w_nominal_.resize(p_.segments);
    basis_.resize(p_.segments * p_.num_modes);
    const double dz = p_.length_um / static_cast<double>(p_.segments);
    const double pi = std::numbers::pi;
    for (std::size_t s = 0; s < p_.segments; ++s) {
        const double z = (static_cast<double>(s) + 0.5) * dz;
        const double t = z / p_.length_um;
        w_nominal_[s] = p_.w_in_um + (p_.w_out_um - p_.w_in_um) * t;
        for (std::size_t k = 0; k < p_.num_modes; ++k)
            basis_[s * p_.num_modes + k] =
                std::sin(pi * static_cast<double>(k + 1) * t);
    }
}

double YBranchModel::deformation(std::size_t s,
                                 std::span<const double> x) const {
    const std::size_t row = s * p_.num_modes;
    double dw = 0.0;
    for (std::size_t k = 0; k < p_.num_modes; ++k)
        dw += mode_amp_[k] * x[k] * basis_[row + k];
    return dw;
}

std::vector<double> YBranchModel::width_profile(
    std::span<const double> x) const {
    if (x.size() != p_.num_modes)
        throw std::invalid_argument("YBranchModel: dimension mismatch");
    std::vector<double> w(w_nominal_);
    for (std::size_t s = 0; s < w.size(); ++s) w[s] += deformation(s, x);
    return w;
}

double YBranchModel::transmission(std::span<const double> x) const {
    if (x.size() != p_.num_modes)
        throw std::invalid_argument("YBranchModel: dimension mismatch");
    const double dz = p_.length_um / static_cast<double>(p_.segments);
    const double k0 = 2.0 * std::numbers::pi / p_.lambda_um;
    // The higher mode leaks at a width-independent rate.
    const double leak2 = std::exp(-p_.loss2_per_um * dz);

    // Two-mode complex amplitudes; all power launched in the fundamental,
    // scaled by the nominal splitter ratio of the arm under study.
    std::complex<double> a1(p_.nominal_split, 0.0);
    std::complex<double> a2(0.0, 0.0);

    double w_prev = w_nominal_.front() + deformation(0, x);
    for (std::size_t s = 0; s < p_.segments; ++s) {
        const double w = w_nominal_[s] + deformation(s, x);
        const double dwidth = w - w_nominal_[s];
        const double slope = (w - w_prev) / dz;
        w_prev = w;

        // Width-dependent propagation constants.
        const double beta1 = k0 * (p_.n_eff1 + p_.dn_dw1 * dwidth);
        const double beta2 = k0 * (p_.n_eff2 + p_.dn_dw2 * dwidth);

        // Sidewall-slope-driven inter-mode rotation.
        const double theta = p_.couple_strength * slope * dz;
        const double c = std::cos(theta);
        const double sn = std::sin(theta);
        const std::complex<double> b1 = c * a1 - sn * a2;
        const std::complex<double> b2 = sn * a1 + c * a2;

        // Propagation phase + loss. The fundamental sees weak scattering
        // growing with |deformation|.
        const double loss1 = p_.loss1_scatter * dwidth * dwidth * dz;
        a1 = b1 * std::polar(std::exp(-loss1), beta1 * dz);
        a2 = b2 * std::polar(leak2, beta2 * dz);
    }
    return std::norm(a1) + 0.15 * std::norm(a2);
}

}  // namespace nofis::photonic
