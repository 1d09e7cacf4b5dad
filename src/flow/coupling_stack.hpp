#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "flow/actnorm.hpp"
#include "flow/additive_coupling.hpp"
#include "flow/coupling.hpp"
#include "flow/rqs_coupling.hpp"

namespace nofis::flow {

/// Which coupling family builds the stack.
enum class CouplingKind {
    kAffine,    ///< RealNVP (the paper's backbone)
    kAdditive,  ///< NICE — volume-preserving ablation
    kRqs,       ///< monotone rational-quadratic splines (DESIGN.md §14)
};

/// "affine" / "additive" / "rqs": the tokens of the .nofisflow header, the
/// --coupling flag and `info` output.
std::string coupling_kind_name(CouplingKind kind);
/// Inverse of coupling_kind_name; std::nullopt for any other token (callers
/// word their own error).
std::optional<CouplingKind> parse_coupling_kind(std::string_view name);

/// Configuration for a block-structured coupling stack.
struct StackConfig {
    std::size_t dim = 2;
    std::size_t num_blocks = 4;        ///< M in the paper
    std::size_t layers_per_block = 8;  ///< K in the paper
    std::vector<std::size_t> hidden = {32, 32};
    double scale_cap = 2.0;
    CouplingKind coupling = CouplingKind::kAffine;
    /// Insert a trainable ActNorm in front of every coupling (Glow-style);
    /// the extra layers belong to the same block for freezing purposes.
    bool use_actnorm = false;
    /// Spline bins per transformed dim (kRqs only).
    std::size_t rqs_bins = 8;
    /// Spline interval half-width B — identity tails outside [-B, B]
    /// (kRqs only).
    double rqs_tail = 3.0;
};

/// What a StackConfig builds, counted from the config alone: physical
/// layers (ActNorm included), parameter matrices and parameter values.
/// Each conditioner is sized by CouplingMask::conditioner_layout, the rule
/// the coupling constructors use, and nothing is built but two masks, so
/// load_stack can bound an untrusted header before it builds the stack.
struct StackTally {
    std::size_t layers = 0;
    std::size_t tensors = 0;
    std::size_t values = 0;
};
/// Counts saturate at SIZE_MAX instead of wrapping. Throws
/// std::invalid_argument when cfg.dim < 2, which no coupling accepts.
StackTally stack_tally(const StackConfig& cfg);

/// A stack of M·K affine couplings with the paper's anchor semantics:
/// block m (layers (m-1)K+1 .. mK) transports anchor distribution
/// q_{(m-1)K} to q_{mK}. Masks alternate per layer so every coordinate is
/// transformed at least ⌊K/2⌋ times per block.
///
/// The base distribution is fixed to N(0, I_D) = the data-generating p, per
/// Section 2.1 of the paper (q_0 = p).
class CouplingStack {
public:
    CouplingStack(const StackConfig& cfg, rng::Engine& eng);

    std::size_t dim() const noexcept { return cfg_.dim; }
    std::size_t num_blocks() const noexcept { return cfg_.num_blocks; }
    std::size_t layers_per_block() const noexcept {
        return cfg_.layers_per_block;
    }

    // --- differentiable path (training) -------------------------------------
    struct ForwardVar {
        autodiff::Var z;        ///< anchor output z_{mK} (n x D)
        autodiff::Var log_det;  ///< Σ_j log|det J_j| per sample (n x 1)
    };
    /// Pushes graph input z0 through blocks [0, upto_block). The log-det sum
    /// covers all mK layers (Eq. 8 sums j = 1..mK; frozen layers contribute
    /// constants that the graph prunes automatically).
    ForwardVar forward(const autodiff::Var& z0, std::size_t upto_block) const;

    /// Graph forward through blocks [block_begin, block_end) only — lets the
    /// stage-m training run frozen blocks on the cheap value path and build
    /// a graph just for the trainable tail.
    ForwardVar forward_range(const autodiff::Var& z, std::size_t block_begin,
                             std::size_t block_end) const;

    // --- value paths (sampling / density) ------------------------------------
    /// Rows per block of the value paths. Every value path pushes its batch
    /// through the layers one block at a time, so no per-layer temporary
    /// grows with the batch; a multiple of 4, so every full block runs the
    /// four-row dense tiles.
    static constexpr std::size_t kValueBlockRows = 64;

    struct Samples {
        linalg::Matrix z;                ///< (n x D) samples of q_{mK}
        std::vector<double> log_q;       ///< exact log q_{mK}(z) per sample
    };
    /// Exact sampling from anchor distribution q_{mK}: draws z0 ~ N(0,I) and
    /// transports it, tracking log q via the change of variables.
    Samples sample(rng::Engine& eng, std::size_t n,
                   std::size_t upto_block) const;

    /// Transports given base points (rows of z0) instead of fresh draws.
    Samples transport(const linalg::Matrix& z0, std::size_t upto_block) const;

    /// Value-only transport through blocks [block_begin, block_end);
    /// accumulates per-row forward log|det J| into `log_det`. Throws
    /// std::invalid_argument unless z is n x dim and log_det has n entries.
    linalg::Matrix transport_range(const linalg::Matrix& z,
                                   std::size_t block_begin,
                                   std::size_t block_end,
                                   std::vector<double>& log_det) const;

    /// Exact density: inverts the first `upto_block` blocks at arbitrary
    /// points x and returns log q_{mK}(x) per row.
    std::vector<double> log_prob(const linalg::Matrix& x,
                                 std::size_t upto_block) const;

    /// Inverse transport: maps anchor-space points back to base space.
    linalg::Matrix inverse(const linalg::Matrix& x,
                           std::size_t upto_block) const;

    // --- parameter management -------------------------------------------------
    /// Parameters of one block (for stage-wise optimizers).
    std::vector<autodiff::Var> block_params(std::size_t block) const;
    /// All parameters.
    std::vector<autodiff::Var> params() const;
    /// Freezes blocks [0, upto_block) and unfreezes the rest — the paper's
    /// "gray-filled arrows" semantics at training stage upto_block+1.
    void freeze_blocks_before(std::size_t upto_block);
    /// Makes every block trainable (the paper's NoFreeze ablation).
    void unfreeze_all();

    /// Tightens the log-scale bound of every layer in `block` by `factor`
    /// (in (0, 1]); the stage rollback-retry path uses this to stop affine
    /// couplings from re-exploding on the retried stage.
    void tighten_scale_cap(std::size_t block, double factor);

    /// Per-physical-layer log-scale bounds (0 for layers without one), in
    /// layer order. Retry-tightened caps are run state the checkpoint
    /// subsystem persists next to the parameters.
    std::vector<double> scale_caps() const;
    /// Restores caps captured by scale_caps() on the same architecture;
    /// throws std::runtime_error on a layer-count mismatch.
    void set_scale_caps(const std::vector<double>& caps);

    const StackConfig& config() const noexcept { return cfg_; }

private:
    /// Physical layer index range of one logical block (ActNorm layers
    /// belong to the block of the coupling they precede).
    std::size_t block_begin_layer(std::size_t block) const {
        return block * layers_per_physical_block_;
    }
    /// log q_0 = log N(0, I) of every row of base-space points `z0`.
    std::vector<double> base_log_pdf(const linalg::Matrix& z0) const;

    /// One block's rows and their log-det slice, transformed in place.
    using BlockPass =
        std::function<void(linalg::Matrix& z, std::vector<double>& log_det)>;
    /// The value paths' one loop and their one fork. Throws
    /// std::invalid_argument naming `who` unless x is n x dim and `log_det`
    /// (if given) has n entries. Then, over kValueBlockRows-row blocks
    /// spread across the pool, copies each block's rows and log-det slice
    /// (zeros without `log_det`), runs `pass` on the copies, and writes them
    /// back to the same rows of `log_det` and of `out` (if given; sized
    /// n x dim here). Rows are independent and each block writes only its
    /// own, so no bit depends on the block size or lane count (§8.2).
    void for_each_block(const char* who, const linalg::Matrix& x,
                        std::vector<double>* log_det, linalg::Matrix* out,
                        const BlockPass& pass) const;
    /// Runs physical layers [first, last) forward over one block.
    void forward_layers(linalg::Matrix& z, std::vector<double>& log_det,
                        std::size_t first, std::size_t last) const;
    /// Inverts physical layers [0, last) over one block, last layer first.
    void inverse_layers(linalg::Matrix& z, std::vector<double>& log_det,
                        std::size_t last) const;

    StackConfig cfg_;
    std::size_t layers_per_physical_block_;
    std::vector<std::unique_ptr<FlowLayer>> layers_;
};

}  // namespace nofis::flow
