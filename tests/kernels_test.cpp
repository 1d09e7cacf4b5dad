// Tests for the dispatched kernel layer (DESIGN.md §13) and the matmul
// NaN-propagation bugfix.
//
// The central property: every SIMD kernel is BITWISE identical to the
// serial scalar reference — across shapes (including degenerate ones),
// non-finite inputs, activation choices, backends, and thread counts — and
// the fused value path of every flow layer is bitwise identical to its
// autodiff tape forward. All comparisons below are on bit patterns, not
// operator== (NaN != NaN).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "autodiff/var.hpp"
#include "flow/actnorm.hpp"
#include "flow/additive_coupling.hpp"
#include "flow/coupling.hpp"
#include "flow/rqs_coupling.hpp"
#include "linalg/kernels/kernels.hpp"
#include "linalg/kernels/scalar_math.hpp"
#include "linalg/kernels/table.hpp"
#include "linalg/matrix.hpp"
#include "nn/mlp.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/engine.hpp"

namespace nofis {
namespace {

using linalg::Matrix;
namespace kernels = linalg::kernels;
namespace detail = linalg::kernels::detail;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Restores the process-wide kernel choice (and thread count) on scope exit
/// so one test cannot leak its configuration into the next.
class ConfigGuard {
public:
    ConfigGuard() : choice_(kernels::active()) {}
    ~ConfigGuard() {
        kernels::set_choice(choice_);
        parallel::set_num_threads(0);
    }

private:
    kernels::Choice choice_;
};

/// True when a and b have identical bit patterns element-for-element
/// (distinguishes +0/-0 and compares NaNs by payload, which equality
/// comparison cannot).
bool bitwise_equal(const Matrix& a, const Matrix& b) {
    if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
    if (a.size() == 0) return true;
    return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
    if (a.size() != b.size()) return false;
    if (a.empty()) return true;
    return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Deterministic fill covering magnitudes and signs; optionally seeds a few
/// non-finite values (NaN, +Inf, -Inf) at fixed positions.
Matrix filled(std::size_t rows, std::size_t cols, std::uint64_t seed,
              bool poison = false) {
    Matrix m(rows, cols);
    std::mt19937_64 gen(seed);
    std::uniform_real_distribution<double> dist(-3.0, 3.0);
    for (double& v : m.flat()) v = dist(gen);
    if (poison && m.size() > 0) {
        m.flat()[0] = kNaN;
        if (m.size() > 2) m.flat()[m.size() / 2] = kInf;
        if (m.size() > 3) m.flat()[m.size() - 1] = -kInf;
    }
    return m;
}

// Shapes exercised by every property test: empty, single row/col, widths
// that are not multiples of the 4- and 8-lane SIMD blocks, and a larger
// rectangle.
struct Shape {
    std::size_t m, k, n;
};
const Shape kShapes[] = {{0, 3, 4}, {1, 1, 1},  {2, 5, 1}, {3, 1, 7},
                         {4, 4, 8}, {5, 7, 13}, {6, 3, 9}, {17, 11, 19}};

// ---------------------------------------------------------------------------
// Headline bugfix: matmul must propagate non-finite rhs values even through
// zero lhs entries (0 · NaN == NaN). The old inner loop skipped a == 0.0.
// ---------------------------------------------------------------------------

TEST(MatmulNanPropagation, ZeroLhsTimesNanRhsIsNan) {
    ConfigGuard guard;
    for (kernels::Choice c : {kernels::Choice::kScalar, kernels::Choice::kSimd}) {
        kernels::set_choice(c);
        // lhs row has a 0 exactly where rhs has its NaN/Inf row.
        const Matrix lhs{{0.0, 2.0}};
        const Matrix rhs{{kNaN, kInf}, {1.0, 1.0}};
        const Matrix out = lhs.matmul(rhs);
        EXPECT_TRUE(std::isnan(out(0, 0))) << kernels::choice_name();
        EXPECT_TRUE(std::isnan(out(0, 1))) << kernels::choice_name();
        EXPECT_FALSE(out.all_finite()) << kernels::choice_name();
    }
}

TEST(MatmulNanPropagation, ZeroRhsTimesInfLhsIsNan) {
    ConfigGuard guard;
    for (kernels::Choice c : {kernels::Choice::kScalar, kernels::Choice::kSimd}) {
        kernels::set_choice(c);
        const Matrix lhs{{kInf}};
        const Matrix rhs{{0.0}};
        const Matrix out = lhs.matmul(rhs);
        EXPECT_TRUE(std::isnan(out(0, 0))) << kernels::choice_name();
    }
}

// The guard the fix feeds: with a poisoned parameter, a batch that contains
// zeros must still produce a non-finite network output so the training
// loop's all_finite() divergence check fires instead of training on
// silently-zeroed garbage.
TEST(MatmulNanPropagation, DivergenceCheckFiresOnPoisonedBatch) {
    ConfigGuard guard;
    for (kernels::Choice c : {kernels::Choice::kScalar, kernels::Choice::kSimd}) {
        kernels::set_choice(c);
        rng::Engine eng(11);
        nn::MLP net({3, 8, 2}, nn::Activation::kTanh, eng);
        net.params()[0].mutable_value()(1, 0) = kNaN;  // poison one weight
        Matrix x(4, 3);  // all-zero batch: worst case for the old skip
        const Matrix y = net.predict(x);
        EXPECT_FALSE(y.all_finite()) << kernels::choice_name();
    }
}

TEST(MatmulNanPropagation, PoisonedCouplingOutputIsNonFinite) {
    ConfigGuard guard;
    for (kernels::Choice c : {kernels::Choice::kScalar, kernels::Choice::kSimd}) {
        kernels::set_choice(c);
        rng::Engine eng(13);
        flow::AffineCoupling layer(4, true, {8}, eng, 2.0);
        layer.params()[0].mutable_value()(0, 0) = kNaN;
        Matrix x(3, 4);  // zero batch
        std::vector<double> log_det(3, 0.0);
        const Matrix y = layer.forward_values(x, log_det);
        EXPECT_FALSE(y.all_finite()) << kernels::choice_name();
    }
}

// ---------------------------------------------------------------------------
// Empty-matrix semantics (satellite): mean() keeps its documented 0.0
// sentinel, min()/max() throw, to_string() of a zero-row matrix is "[]".
// ---------------------------------------------------------------------------

TEST(EmptyMatrix, MinMaxThrowMeanIsSentinel) {
    const Matrix empty;
    EXPECT_THROW(empty.min(), std::logic_error);
    EXPECT_THROW(empty.max(), std::logic_error);
    EXPECT_EQ(empty.mean(), 0.0);
    EXPECT_EQ(empty.sum(), 0.0);

    const Matrix zero_rows(0, 5);
    EXPECT_THROW(zero_rows.min(), std::logic_error);
    EXPECT_THROW(zero_rows.max(), std::logic_error);
    EXPECT_EQ(zero_rows.mean(), 0.0);
}

TEST(EmptyMatrix, ToStringOfZeroRowMatrixIsBrackets) {
    EXPECT_EQ(Matrix().to_string(), "[]");
    EXPECT_EQ(Matrix(0, 7).to_string(), "[]");
    // Non-empty stays the historical format.
    EXPECT_EQ(Matrix{{1.0}}.to_string(), "[1]");
}

TEST(EmptyMatrix, NonEmptyMinMaxUnchanged) {
    const Matrix m{{3.0, -1.0}, {2.0, 5.0}};
    EXPECT_EQ(m.min(), -1.0);
    EXPECT_EQ(m.max(), 5.0);
}

// ---------------------------------------------------------------------------
// Property tests: every backend table pinned bitwise against the scalar
// reference, shape sweep including degenerate and poisoned inputs.
// ---------------------------------------------------------------------------

/// Every non-null backend table paired with a label for failure messages.
std::vector<std::pair<const detail::Table*, const char*>> backend_tables() {
    std::vector<std::pair<const detail::Table*, const char*>> tables;
    tables.emplace_back(&detail::portable_table(), "portable");
    if (const detail::Table* t = detail::avx2_table())
        tables.emplace_back(t, "avx2");
    tables.emplace_back(&detail::simd_table(), "simd(resolved)");
    return tables;
}

TEST(KernelProperty, MatmulRowsBitwiseMatchesScalar) {
    const detail::Table& ref = detail::scalar_table();
    for (const auto& [table, name] : backend_tables()) {
        if (!table->matmul_rows) continue;
        for (const Shape& s : kShapes) {
            for (bool poison : {false, true}) {
                const Matrix lhs = filled(s.m, s.k, 7 * s.m + s.n, poison);
                const Matrix rhs = filled(s.k, s.n, 3 * s.k + 1, poison);
                Matrix want(s.m, s.n);
                Matrix got(s.m, s.n);
                ref.matmul_rows(lhs.data(), rhs.data(), want.data(), 0, s.m,
                                s.k, s.n);
                table->matmul_rows(lhs.data(), rhs.data(), got.data(), 0, s.m,
                                   s.k, s.n);
                EXPECT_TRUE(bitwise_equal(want, got))
                    << name << " " << s.m << "x" << s.k << "x" << s.n
                    << (poison ? " poisoned" : "");
            }
        }
    }
}

TEST(KernelProperty, LinearActRowsBitwiseMatchesScalar) {
    const detail::Table& ref = detail::scalar_table();
    using kernels::Act;
    for (const auto& [table, name] : backend_tables()) {
        if (!table->linear_act_rows) continue;
        for (const Shape& s : kShapes) {
            for (Act act : {Act::kNone, Act::kTanh, Act::kRelu,
                            Act::kLeakyRelu, Act::kSigmoid}) {
                const Matrix x = filled(s.m, s.k, 31 * s.m + s.k, true);
                const Matrix w = filled(s.k, s.n, 17 * s.n + 5);
                const Matrix b = filled(1, s.n, 23);
                Matrix want(s.m, s.n);
                Matrix got(s.m, s.n);
                ref.linear_act_rows(x.data(), w.data(), b.data(), want.data(),
                                    0, s.m, s.k, s.n, act);
                table->linear_act_rows(x.data(), w.data(), b.data(),
                                       got.data(), 0, s.m, s.k, s.n, act);
                EXPECT_TRUE(bitwise_equal(want, got))
                    << name << " act=" << static_cast<int>(act) << " " << s.m
                    << "x" << s.k << "x" << s.n;
            }
        }
    }
}

TEST(KernelProperty, AffineKernelsBitwiseMatchScalar) {
    const detail::Table& ref = detail::scalar_table();
    for (const auto& [table, name] : backend_tables()) {
        for (std::size_t dim : {2ul, 3ul, 5ul, 9ul}) {
            const std::size_t nb = dim / 2;
            std::vector<std::size_t> idx_b;
            for (std::size_t j = 0; j < nb; ++j) idx_b.push_back(dim - 1 - j);
            for (std::size_t rows : {0ul, 1ul, 4ul, 11ul}) {
                const Matrix x = filled(rows, dim, rows + dim, true);
                const Matrix h = filled(rows, 2 * nb, 5 * rows + 1, true);
                Matrix want = x, got = x;
                std::vector<double> ld_want(rows, 0.25), ld_got(rows, 0.25);
                if (table->affine_fwd_rows) {
                    ref.affine_fwd_rows(x.data(), h.data(), idx_b.data(), nb,
                                        1.5, dim, want.data(), ld_want.data(),
                                        0, rows);
                    table->affine_fwd_rows(x.data(), h.data(), idx_b.data(),
                                           nb, 1.5, dim, got.data(),
                                           ld_got.data(), 0, rows);
                    EXPECT_TRUE(bitwise_equal(want, got)) << name << dim;
                    EXPECT_TRUE(bitwise_equal(ld_want, ld_got)) << name << dim;
                }
                if (table->affine_inv_rows) {
                    want = x;
                    got = x;
                    std::fill(ld_want.begin(), ld_want.end(), 0.0);
                    std::fill(ld_got.begin(), ld_got.end(), 0.0);
                    ref.affine_inv_rows(x.data(), h.data(), idx_b.data(), nb,
                                        1.5, dim, want.data(), ld_want.data(),
                                        0, rows);
                    table->affine_inv_rows(x.data(), h.data(), idx_b.data(),
                                           nb, 1.5, dim, got.data(),
                                           ld_got.data(), 0, rows);
                    EXPECT_TRUE(bitwise_equal(want, got)) << name << dim;
                    EXPECT_TRUE(bitwise_equal(ld_want, ld_got)) << name << dim;
                }
                if (table->scale_shift_rows) {
                    const Matrix scale = filled(1, dim, 2 * dim);
                    const Matrix shift = filled(1, dim, 2 * dim + 1);
                    Matrix w2(rows, dim), g2(rows, dim);
                    ref.scale_shift_rows(x.data(), scale.data(), shift.data(),
                                         w2.data(), dim, 0, rows);
                    table->scale_shift_rows(x.data(), scale.data(),
                                            shift.data(), g2.data(), dim, 0,
                                            rows);
                    EXPECT_TRUE(bitwise_equal(w2, g2)) << name << dim;
                }
            }
        }
    }
}

TEST(KernelProperty, ElementwiseBitwiseMatchesScalar) {
    const detail::Table& ref = detail::scalar_table();
    for (const auto& [table, name] : backend_tables()) {
        for (std::size_t n : {0ul, 1ul, 3ul, 8ul, 17ul, 1024ul}) {
            const Matrix a = filled(1, n, n + 2, true);
            const Matrix b = filled(1, n, n + 3, true);
            Matrix want(1, n), got(1, n);
            auto check = [&](const char* op) {
                EXPECT_TRUE(bitwise_equal(want, got))
                    << name << " " << op << " n=" << n;
            };
            if (table->ew_add) {
                ref.ew_add(a.data(), b.data(), want.data(), n);
                table->ew_add(a.data(), b.data(), got.data(), n);
                check("add");
            }
            if (table->ew_sub) {
                ref.ew_sub(a.data(), b.data(), want.data(), n);
                table->ew_sub(a.data(), b.data(), got.data(), n);
                check("sub");
            }
            if (table->ew_mul) {
                ref.ew_mul(a.data(), b.data(), want.data(), n);
                table->ew_mul(a.data(), b.data(), got.data(), n);
                check("mul");
            }
            if (table->ew_scale) {
                ref.ew_scale(a.data(), -1.75, want.data(), n);
                table->ew_scale(a.data(), -1.75, got.data(), n);
                check("scale");
            }
            if (table->ew_tanh) {
                ref.ew_tanh(a.data(), want.data(), n);
                table->ew_tanh(a.data(), got.data(), n);
                check("tanh");
            }
            if (table->ew_exp) {
                ref.ew_exp(a.data(), want.data(), n);
                table->ew_exp(a.data(), got.data(), n);
                check("exp");
            }
            if (table->ew_tanh_bwd) {
                ref.ew_tanh_bwd(a.data(), b.data(), want.data(), n);
                table->ew_tanh_bwd(a.data(), b.data(), got.data(), n);
                check("tanh_bwd");
            }
            // In-place aliasing (out == a), used by Matrix::operator+=.
            if (table->ew_add && n > 0) {
                Matrix wa = a, ga = a;
                ref.ew_add(wa.data(), b.data(), wa.data(), n);
                table->ew_add(ga.data(), b.data(), ga.data(), n);
                EXPECT_TRUE(bitwise_equal(wa, ga)) << name << " aliased add";
            }
        }
    }
}

// ---------------------------------------------------------------------------
// End-to-end determinism: the fused value path against the autodiff tape
// forward, under scalar and simd and at thread counts {1, 2, 8}.
// ---------------------------------------------------------------------------

TEST(KernelDeterminism, MlpPredictBitwiseAcrossFlavoursAndThreads) {
    ConfigGuard guard;
    rng::Engine eng(21);
    nn::MLP net({6, 32, 32, 4}, nn::Activation::kTanh, eng);
    // Large enough batch to cross the fused kernel's parallel threshold.
    const Matrix x = filled(192, 6, 99, true);

    kernels::set_choice(kernels::Choice::kScalar);
    parallel::set_num_threads(1);
    const Matrix ref = net.forward(autodiff::Var(x)).value();
    for (std::size_t threads : {1ul, 2ul, 8ul}) {
        parallel::set_num_threads(threads);
        for (kernels::Choice c :
             {kernels::Choice::kScalar, kernels::Choice::kSimd}) {
            kernels::set_choice(c);
            EXPECT_TRUE(bitwise_equal(ref, net.predict(x)))
                << kernels::choice_name() << " t=" << threads;
        }
    }
}

/// Pins a layer's value paths: forward_values reproduces the tape
/// forward's y and log_det bit for bit, and inverse_values reproduces its
/// own scalar-flavour single-thread result, under both flavours at thread
/// counts {1, 2, 8}.
void expect_values_match_tape(const flow::FlowLayer& layer, const Matrix& x,
                              const char* name) {
    kernels::set_choice(kernels::Choice::kScalar);
    parallel::set_num_threads(1);
    const auto tape = layer.forward(autodiff::Var(x));
    const Matrix& y_ref = tape.y.value();
    const auto ld_col = tape.log_det.value().flat();
    const std::vector<double> ld_ref(ld_col.begin(), ld_col.end());
    std::vector<double> ld_inv_ref(x.rows(), 0.0);
    const Matrix x_ref = layer.inverse_values(y_ref, ld_inv_ref);

    for (std::size_t threads : {1ul, 2ul, 8ul}) {
        parallel::set_num_threads(threads);
        for (kernels::Choice c :
             {kernels::Choice::kScalar, kernels::Choice::kSimd}) {
            kernels::set_choice(c);
            std::vector<double> ld(x.rows(), 0.0);
            EXPECT_TRUE(bitwise_equal(y_ref, layer.forward_values(x, ld)))
                << name << " " << kernels::choice_name() << " t=" << threads;
            EXPECT_TRUE(bitwise_equal(ld_ref, ld))
                << name << " " << kernels::choice_name() << " t=" << threads;
            std::vector<double> ld_inv(x.rows(), 0.0);
            EXPECT_TRUE(
                bitwise_equal(x_ref, layer.inverse_values(y_ref, ld_inv)))
                << name << " " << kernels::choice_name() << " t=" << threads;
            EXPECT_TRUE(bitwise_equal(ld_inv_ref, ld_inv))
                << name << " " << kernels::choice_name() << " t=" << threads;
        }
    }
    // Round trip really inverts (tolerance: the map is smooth, not exact).
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(x.flat()[i], x_ref.flat()[i], 1e-9) << name;
}

/// Shifts every parameter so a freshly initialised layer is not the
/// identity map.
void perturb(flow::FlowLayer& layer) {
    for (auto& p : layer.params())
        for (double& v : p.mutable_value().flat()) v += 0.05;
}

TEST(KernelDeterminism, CouplingValuesBitwiseAcrossFlavoursAndThreads) {
    ConfigGuard guard;
    rng::Engine eng(31);
    // 160 rows: large enough to cross the affine/RQS parallel thresholds.
    const Matrix x = filled(160, 8, 7);

    flow::AffineCoupling affine(8, false, {16, 16}, eng, 2.0);
    perturb(affine);
    expect_values_match_tape(affine, x, "affine");

    flow::AdditiveCoupling additive(8, true, {16, 16}, eng);
    perturb(additive);
    expect_values_match_tape(additive, x, "additive");

    flow::RqsCoupling rqs(8, false, {16, 16}, eng);
    perturb(rqs);
    expect_values_match_tape(rqs, x, "rqs");

    flow::ActNorm actnorm(8);
    perturb(actnorm);
    expect_values_match_tape(actnorm, x, "actnorm");
}

TEST(KernelDeterminism, MatrixMatmulBitwiseAcrossFlavoursAndThreads) {
    ConfigGuard guard;
    const Matrix a = filled(96, 40, 1, true);
    const Matrix b = filled(40, 56, 2, true);
    kernels::set_choice(kernels::Choice::kScalar);
    parallel::set_num_threads(1);
    const Matrix ref = a.matmul(b);
    for (std::size_t threads : {1ul, 2ul, 8ul}) {
        parallel::set_num_threads(threads);
        for (kernels::Choice c :
             {kernels::Choice::kScalar, kernels::Choice::kSimd}) {
            kernels::set_choice(c);
            EXPECT_TRUE(bitwise_equal(ref, a.matmul(b)))
                << kernels::choice_name() << " t=" << threads;
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatch plumbing.
// ---------------------------------------------------------------------------

TEST(KernelDispatch, ParseChoiceAcceptsKnownNamesOnly) {
    EXPECT_EQ(kernels::parse_choice("auto"), kernels::Choice::kAuto);
    EXPECT_EQ(kernels::parse_choice("scalar"), kernels::Choice::kScalar);
    EXPECT_EQ(kernels::parse_choice("simd"), kernels::Choice::kSimd);
    EXPECT_FALSE(kernels::parse_choice("avx2").has_value());
    EXPECT_FALSE(kernels::parse_choice("").has_value());
    EXPECT_FALSE(kernels::parse_choice("SIMD").has_value());
}

TEST(KernelDispatch, SetChoiceRoundTripsAndAutoResolvesToSimd) {
    ConfigGuard guard;
    kernels::set_choice(kernels::Choice::kScalar);
    EXPECT_EQ(kernels::active(), kernels::Choice::kScalar);
    EXPECT_STREQ(kernels::choice_name(), "scalar");
    kernels::set_choice(kernels::Choice::kAuto);
    EXPECT_EQ(kernels::active(), kernels::Choice::kSimd);
    EXPECT_STREQ(kernels::choice_name(), "simd");
}

TEST(KernelDispatch, BackendNameIsKnown) {
    const std::string backend = kernels::simd_backend();
    EXPECT_TRUE(backend == "avx2" || backend == "portable") << backend;
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx2")) {
        EXPECT_EQ(backend, "avx2");
    }
#endif
}

// ---------------------------------------------------------------------------
// The kernel layer's own exp/tanh (the deterministic Cephes ports that
// replaced libm in PR 7's re-baseline): accurate to a few ulps against
// libm over the whole working range, exact on the special values.
// ---------------------------------------------------------------------------

/// Units-in-the-last-place distance between two finite doubles.
std::uint64_t ulp_distance(double a, double b) {
    const auto key = [](double d) {
        std::int64_t i;
        std::memcpy(&i, &d, 8);
        // Map the sign-magnitude double ordering onto the integer line.
        return i < 0 ? std::int64_t(0x8000000000000000ULL) - i : i;
    };
    const std::int64_t ka = key(a);
    const std::int64_t kb = key(b);
    return static_cast<std::uint64_t>(ka > kb ? ka - kb : kb - ka);
}

TEST(KernelMath, ExpMatchesLibmWithinUlps) {
    std::uint64_t worst = 0;
    for (int i = -14000; i <= 14000; ++i) {
        const double x = 0.05 * i;  // [-700, 700]
        worst = std::max(worst, ulp_distance(kernels::k_exp(x), std::exp(x)));
    }
    EXPECT_LE(worst, 4u);
}

TEST(KernelMath, TanhMatchesLibmWithinUlps) {
    std::uint64_t worst = 0;
    for (int i = -20000; i <= 20000; ++i) {
        const double x = 0.001 * i;  // [-20, 20] covers both branches
        worst =
            std::max(worst, ulp_distance(kernels::k_tanh(x), std::tanh(x)));
    }
    EXPECT_LE(worst, 4u);
}

TEST(KernelMath, SpecialValuesAreExact) {
    EXPECT_EQ(kernels::k_exp(0.0), 1.0);
    EXPECT_EQ(kernels::k_exp(-0.0), 1.0);
    EXPECT_EQ(kernels::k_exp(kInf), kInf);
    EXPECT_EQ(kernels::k_exp(-kInf), 0.0);
    EXPECT_EQ(kernels::k_exp(710.0), kInf);   // past the overflow clamp
    EXPECT_EQ(kernels::k_exp(-746.0), 0.0);   // past the underflow clamp
    EXPECT_GT(kernels::k_exp(-709.0), 0.0);   // still normal
    EXPECT_GT(kernels::k_exp(-740.0), 0.0);   // denormal but non-zero
    EXPECT_TRUE(std::isnan(kernels::k_exp(kNaN)));

    EXPECT_EQ(kernels::k_tanh(0.0), 0.0);
    EXPECT_TRUE(std::signbit(kernels::k_tanh(-0.0)));  // tanh(-0) == -0
    EXPECT_EQ(kernels::k_tanh(kInf), 1.0);
    EXPECT_EQ(kernels::k_tanh(-kInf), -1.0);
    EXPECT_EQ(kernels::k_tanh(40.0), 1.0);   // saturated
    EXPECT_EQ(kernels::k_tanh(-40.0), -1.0);
    EXPECT_TRUE(std::isnan(kernels::k_tanh(kNaN)));

    EXPECT_EQ(kernels::k_sigmoid(0.0), 0.5);
    EXPECT_EQ(kernels::k_sigmoid(kInf), 1.0);
    EXPECT_EQ(kernels::k_sigmoid(-kInf), 0.0);
    EXPECT_TRUE(std::isnan(kernels::k_sigmoid(kNaN)));
}

TEST(KernelMath, OddSymmetryIsExact) {
    // k_tanh must be an exact odd function (the sign is applied as a bit
    // op), so flows see symmetric conditioners regardless of input sign.
    for (int i = 0; i <= 5000; ++i) {
        const double x = 0.004 * i;
        ASSERT_EQ(kernels::k_tanh(-x), -kernels::k_tanh(x)) << x;
    }
}

}  // namespace
}  // namespace nofis
