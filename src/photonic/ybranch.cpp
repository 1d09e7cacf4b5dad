#include "photonic/ybranch.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

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

namespace {
// T = |a₁|² + kHigherModeWeight·|a₂|² at the output.
constexpr double kHigherModeWeight = 0.15;
}  // namespace

struct YBranchModel::SegmentState {
    std::complex<double> b1, b2;  ///< amplitudes after the rotation
    std::complex<double> p1, p2;  ///< phase-and-loss factors
    double c = 0.0;               ///< rotation cosine
    double sn = 0.0;              ///< rotation sine
    double dwidth = 0.0;          ///< width deviation δw
};

template <class Record>
double YBranchModel::propagate(std::span<const double> x,
                               Record&& record) const {
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
        const std::complex<double> p1 =
            std::polar(std::exp(-loss1), beta1 * dz);
        a1 = b1 * p1;
        const std::complex<double> p2 = std::polar(leak2, beta2 * dz);
        a2 = b2 * p2;
        record(s, SegmentState{b1, b2, p1, p2, c, sn, dwidth});
    }
    return std::norm(a1) + kHigherModeWeight * std::norm(a2);
}

double YBranchModel::transmission(std::span<const double> x) const {
    return propagate(x, [](std::size_t, const SegmentState&) {});
}

double YBranchModel::transmission_grad(std::span<const double> x,
                                       std::span<double> grad) const {
    if (grad.size() != p_.num_modes)
        throw std::invalid_argument("YBranchModel: dimension mismatch");
    std::vector<SegmentState> tape(p_.segments);
    const double t = propagate(
        x, [&](std::size_t s, const SegmentState& st) { tape[s] = st; });

    // Reverse pass. An adjoint ā is ∂T/∂Re a + i·∂T/∂Im a, seeded from
    // T = |a₁|² + kHigherModeWeight·|a₂|² at the last segment's output.
    const double dz = p_.length_um / static_cast<double>(p_.segments);
    const double k0 = 2.0 * std::numbers::pi / p_.lambda_um;
    const double dphase1_dw = k0 * p_.dn_dw1 * dz;
    const double dphase2_dw = k0 * p_.dn_dw2 * dz;
    std::complex<double> ybar1 = 2.0 * (tape.back().b1 * tape.back().p1);
    std::complex<double> ybar2 =
        2.0 * kHigherModeWeight * (tape.back().b2 * tape.back().p2);
    double dtheta_next = 0.0;  // ∂T/∂θ_{s+1}; nothing follows the last
    std::fill(grad.begin(), grad.end(), 0.0);
    for (std::size_t s = p_.segments; s-- > 0;) {
        const SegmentState& st = tape[s];
        // Phase and loss, y = b·P: ∂T/∂φ = −Im(conj(ȳ)·y),
        // ∂T/∂loss = −Re(conj(ȳ)·y) and b̄ = conj(P)·ȳ.
        const std::complex<double> ybar_y1 =
            std::conj(ybar1) * (st.b1 * st.p1);
        const std::complex<double> ybar_y2 =
            std::conj(ybar2) * (st.b2 * st.p2);
        const double dphase1 = -std::imag(ybar_y1);
        const double dphase2 = -std::imag(ybar_y2);
        const double dloss1 = -std::real(ybar_y1);
        const std::complex<double> bbar1 = std::conj(st.p1) * ybar1;
        const std::complex<double> bbar2 = std::conj(st.p2) * ybar2;
        // Rotation b = R(θ)·a: ā = R(θ)ᵀ·b̄, and ∂b₁/∂θ = −b₂, ∂b₂/∂θ = b₁.
        // θ₀ is identically 0 (the first slope compares w₀ with itself).
        const double dtheta =
            s > 0 ? std::real(std::conj(bbar2) * st.b1 -
                              std::conj(bbar1) * st.b2)
                  : 0.0;
        ybar1 = st.c * bbar1 + st.sn * bbar2;
        ybar2 = -st.sn * bbar1 + st.c * bbar2;
        // ∂T/∂w_s: δw_s sets both phases and the fundamental's loss, and
        // the couplings θ_s = κ·(w_s − w_{s−1}) and θ_{s+1}.
        const double dloss1_dw = 2.0 * p_.loss1_scatter * st.dwidth * dz;
        const double dt_dw = dphase1 * dphase1_dw + dphase2 * dphase2_dw +
                             dloss1 * dloss1_dw +
                             p_.couple_strength * (dtheta - dtheta_next);
        dtheta_next = dtheta;
        const double* row = &basis_[s * p_.num_modes];
        for (std::size_t k = 0; k < p_.num_modes; ++k)
            grad[k] += dt_dw * row[k];
    }
    for (std::size_t k = 0; k < p_.num_modes; ++k) grad[k] *= mode_amp_[k];
    return t;
}

}  // namespace nofis::photonic
