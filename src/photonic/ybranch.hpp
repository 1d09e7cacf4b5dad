#pragma once

#include <complex>
#include <span>
#include <vector>

namespace nofis::photonic {

/// Scalar coupled-mode transfer-matrix model of a photonic Y-branch splitter
/// under boundary (sidewall) deformation — the paper's test case #9.
///
/// The branch taper of length L is discretised into segments. The local
/// waveguide width is w(z) = w_nom(z) + Σ_k c_k x_k sin(kπz/L): a 26-mode
/// Fourier parameterisation of the line-edge deformation, driven by the
/// standard-normal vector x. Within each segment a two-mode amplitude
/// vector (fundamental, first higher-order/radiative) propagates with
///  - width-dependent propagation constants β₁(w), β₂(w),
///  - slope-driven inter-mode coupling θ ∝ dδw/dz (asymmetric walls scatter
///    power into the higher mode),
///  - width-dependent loss on the higher mode (it leaks into the slab) and
///    a small fundamental-mode scattering loss when the width deviates.
/// The figure of merit is the fundamental-mode power transmission
/// T = |a₁(L)|², and the failure event is T < 0.32.
///
/// The x-independent sine basis sin(kπz_s/L) at the segment centres and
/// the amplitudes c_k are tabulated once at construction; a call only sums
/// the deformation and propagates.
///
/// `transmission_grad` is the model's adjoint: it runs the same segment
/// loop as `transmission` while recording each segment's state on a tape
/// local to the call, then runs one reverse pass back through the two-mode
/// recurrence. A gradient costs about 1.5 transmissions instead of the
/// 2·26 + 1 of central differences, and its value is `transmission(x)` bit
/// for bit (DESIGN.md §2.1).
class YBranchModel {
public:
    struct Params {
        std::size_t num_modes = 26;      ///< deformation dimensions
        std::size_t segments = 64;
        double length_um = 20.0;
        double w_in_um = 0.5;            ///< input width
        double w_out_um = 1.2;           ///< output width
        double lambda_um = 1.55;
        double n_eff1 = 2.44;            ///< fundamental effective index
        double n_eff2 = 2.31;            ///< higher-order effective index
        double dn_dw1 = 0.30;            ///< d n_eff1 / d w [1/µm]
        double dn_dw2 = 0.55;            ///< d n_eff2 / d w [1/µm]
        double deform_amp_um = 0.0272;    ///< per-mode deformation amplitude
        double couple_strength = 1.9;    ///< slope-to-coupling factor
        double loss2_per_um = 0.28;      ///< higher-mode leakage loss
        double loss1_scatter = 0.055;    ///< fundamental scattering factor
        double nominal_split = 0.70;     ///< amplitude kept in the arm
    };

    YBranchModel() : YBranchModel(Params()) {}
    explicit YBranchModel(Params p);

    /// Power transmission T(x) in [0, 1]; x.size() == num_modes.
    double transmission(std::span<const double> x) const;

    /// T(x), with ∂T/∂x written to `grad` (size num_modes). The returned
    /// value is bitwise equal to transmission(x). Safe for concurrent calls.
    double transmission_grad(std::span<const double> x,
                             std::span<double> grad) const;

    /// Deformed width profile at segment centres (for tests / plots).
    std::vector<double> width_profile(std::span<const double> x) const;

    std::size_t num_modes() const noexcept { return p_.num_modes; }

private:
    /// What the reverse pass reads back from one forward segment.
    struct SegmentState;

    /// The one segment loop behind both entry points: returns T(x) and
    /// hands each segment's state to `record(s, state)`. `transmission`
    /// passes a no-op, so it records and allocates nothing.
    template <class Record>
    double propagate(std::span<const double> x, Record&& record) const;

    /// Width deviation δw at segment `s`: Σ_k (c_k·x_k)·sin(kπz_s/L),
    /// summed in ascending k. Expression and order are part of the
    /// determinism contract (DESIGN.md §2.1).
    double deformation(std::size_t s, std::span<const double> x) const;

    Params p_;
    std::vector<double> w_nominal_;  ///< nominal width at centres
    std::vector<double> mode_amp_;   ///< c_k, per mode
    std::vector<double> basis_;      ///< sin(kπz_s/L), segments × num_modes
};

}  // namespace nofis::photonic
