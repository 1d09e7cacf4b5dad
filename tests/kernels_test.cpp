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

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
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
#include "util/hash.hpp"

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

/// Deterministic U(−half_width, half_width) fill covering magnitudes and
/// signs; optionally seeds a few non-finite values (NaN, +Inf, -Inf) at
/// fixed positions.
Matrix filled(std::size_t rows, std::size_t cols, std::uint64_t seed,
              bool poison = false, double half_width = 3.0) {
    Matrix m(rows, cols);
    std::mt19937_64 gen(seed);
    std::uniform_real_distribution<double> dist(-half_width, half_width);
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

/// Every backend table paired with a label for failure messages.
std::vector<std::pair<const detail::Table*, const char*>> backend_tables() {
    std::vector<std::pair<const detail::Table*, const char*>> tables;
    tables.emplace_back(&detail::portable_table(), "portable");
    if (const detail::Table* t = detail::avx2_table())
        tables.emplace_back(t, "avx2");
    tables.emplace_back(&detail::simd_table(), "simd(resolved)");
    return tables;
}

TEST(KernelProperty, MatmulRowsBitwiseMatchesScalar) {
    // The rows of Matrix::matmul: the dense layer with a zero bias and no
    // activation, both operands poisoned.
    const detail::Table& ref = detail::scalar_table();
    for (const auto& [table, name] : backend_tables()) {
        for (const Shape& s : kShapes) {
            for (bool poison : {false, true}) {
                const Matrix lhs = filled(s.m, s.k, 7 * s.m + s.n, poison);
                const Matrix rhs = filled(s.k, s.n, 3 * s.k + 1, poison);
                const std::vector<double> zero(s.n, 0.0);
                Matrix want(s.m, s.n);
                Matrix got(s.m, s.n);
                ref.linear_act_rows(lhs.data(), rhs.data(), zero.data(),
                                    want.data(), 0, s.m, s.k, s.n,
                                    kernels::Act::kNone);
                table->linear_act_rows(lhs.data(), rhs.data(), zero.data(),
                                       got.data(), 0, s.m, s.k, s.n,
                                       kernels::Act::kNone);
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

/// Applies one affine direction of `table` to rows [0, rows) in `parts`
/// contiguous sub-ranges, split as parallel_for splits over `parts` lanes.
void affine_in_parts(const detail::Table& table, bool inverse,
                     const Matrix& in, const Matrix& h,
                     const std::vector<std::size_t>& idx_b, double scale_cap,
                     Matrix& out, std::vector<double>& log_det,
                     std::size_t parts) {
    const std::size_t rows = in.rows();
    const auto kernel = inverse ? table.affine_inv_rows : table.affine_fwd_rows;
    for (std::size_t p = 0; p < parts; ++p) {
        const std::size_t r0 = p * rows / parts;
        const std::size_t r1 = (p + 1) * rows / parts;
        if (r0 < r1)
            kernel(in.data(), h.data(), idx_b.data(), idx_b.size(), scale_cap,
                   in.cols(), out.data(), log_det.data(), r0, r1);
    }
}

/// Log-det rows starting at 0.25 and −0.0 in turn: a kernel that skips
/// the scalar's `+= 0.0` on an empty row would leave −0.0 behind.
std::vector<double> log_det_start(std::size_t rows) {
    std::vector<double> ld(rows);
    for (std::size_t r = 0; r < rows; ++r) ld[r] = r % 2 ? -0.0 : 0.25;
    return ld;
}

TEST(KernelProperty, AffineKernelsBitwiseMatchScalar) {
    // Widths from nb = 0 to past one 256-value tanh buffer, row counts
    // whose s-values end mid-buffer or split a row across two buffers, and
    // the sub-ranges parallel_for hands the kernels (r0 > 0). h spans
    // U(−1.5, 1.5), so tanh mixes its branches, and x and h are poisoned.
    const detail::Table& ref = detail::scalar_table();
    for (std::size_t nb : {0ul, 1ul, 3ul, 4ul, 5ul, 13ul, 20ul, 31ul, 257ul}) {
        const std::size_t dim = std::max<std::size_t>(1, 2 * nb + nb % 2);
        std::vector<std::size_t> idx_b;
        for (std::size_t j = 0; j < nb; ++j) idx_b.push_back(dim - 1 - 2 * j);
        for (std::size_t rows :
             {0ul, 1ul, 3ul, 4ul, 5ul, 255ul, 257ul, 1000ul}) {
            const Matrix x = filled(rows, dim, 7 * rows + nb, true);
            const Matrix h = filled(rows, 2 * nb, 5 * rows + nb, true, 1.5);
            for (bool inverse : {false, true}) {
                Matrix want = x;
                std::vector<double> ld_want = log_det_start(rows);
                affine_in_parts(ref, inverse, x, h, idx_b, 1.5, want, ld_want,
                                1);
                for (const auto& [table, name] : backend_tables()) {
                    for (std::size_t parts : {1ul, 3ul, 8ul}) {
                        Matrix got = x;
                        std::vector<double> ld_got = log_det_start(rows);
                        affine_in_parts(*table, inverse, x, h, idx_b, 1.5,
                                        got, ld_got, parts);
                        EXPECT_TRUE(bitwise_equal(want, got) &&
                                    bitwise_equal(ld_want, ld_got))
                            << name << (inverse ? " inverse" : " forward")
                            << " nb=" << nb << " rows=" << rows
                            << " parts=" << parts;
                    }
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
            ref.ew_add(a.data(), b.data(), want.data(), n);
            table->ew_add(a.data(), b.data(), got.data(), n);
            check("add");
            ref.ew_sub(a.data(), b.data(), want.data(), n);
            table->ew_sub(a.data(), b.data(), got.data(), n);
            check("sub");
            ref.ew_mul(a.data(), b.data(), want.data(), n);
            table->ew_mul(a.data(), b.data(), got.data(), n);
            check("mul");
            ref.ew_scale(a.data(), -1.75, want.data(), n);
            table->ew_scale(a.data(), -1.75, got.data(), n);
            check("scale");
            ref.ew_tanh(a.data(), want.data(), n);
            table->ew_tanh(a.data(), got.data(), n);
            check("tanh");
            ref.ew_exp(a.data(), want.data(), n);
            table->ew_exp(a.data(), got.data(), n);
            check("exp");
            ref.ew_tanh_bwd(a.data(), b.data(), want.data(), n);
            table->ew_tanh_bwd(a.data(), b.data(), got.data(), n);
            check("tanh_bwd");
            // In-place aliasing (out == a), used by Matrix::operator+=.
            if (n > 0) {
                Matrix wa = a, ga = a;
                ref.ew_add(wa.data(), b.data(), wa.data(), n);
                table->ew_add(ga.data(), b.data(), ga.data(), n);
                EXPECT_TRUE(bitwise_equal(wa, ga)) << name << " aliased add";
            }
        }
    }
}

/// nn::Adam::step's per-element update as it was written before it became
/// a kernel slot: the oracle of the scalar loop.
void adam_reference(std::vector<double>& p, const std::vector<double>& g,
                    std::vector<double>& m, std::vector<double>& v,
                    const kernels::AdamStep& c) {
    for (std::size_t k = 0; k < p.size(); ++k) {
        const double gk = g[k];
        double& mk = m[k];
        double& vk = v[k];
        mk = c.beta1 * mk + (1.0 - c.beta1) * gk;
        vk = c.beta2 * vk + (1.0 - c.beta2) * gk * gk;
        const double mhat = mk / c.bias1;
        const double vhat = vk / c.bias2;
        p[k] -= c.lr * mhat / (std::sqrt(vhat) + c.eps);
    }
}

TEST(KernelProperty, AdamStepBitwiseMatchesScalar) {
    // Gradients of every magnitude class (±0, subnormal, huge, ±inf, NaN)
    // over lengths with every 4-lane remainder, at the first step and at a
    // late one, where the bias corrections are near 1.
    const double specials[] = {0.0,    -0.0,    4.9e-324, -1e-310, 1e300,
                               -1e300, kInf,    -kInf,    kNaN,    1e-8};
    for (const long t : {1L, 2L, 1000L}) {
        const kernels::AdamStep c{0.9,
                                  0.999,
                                  1.0 - std::pow(0.9, static_cast<double>(t)),
                                  1.0 - std::pow(0.999, static_cast<double>(t)),
                                  5e-3,
                                  1e-8};
        for (std::size_t n : {0ul, 1ul, 3ul, 4ul, 5ul, 8ul, 17ul, 1024ul}) {
            const Matrix p0 = filled(1, n, 11 * n + 1);
            Matrix g0 = filled(1, n, 11 * n + 2, false, 0.5);
            for (std::size_t k = 0; k < n; k += 3)
                g0.flat()[k] = specials[(k / 3) % std::size(specials)];
            const Matrix m0 = filled(1, n, 11 * n + 3, false, 0.1);
            Matrix v0 = filled(1, n, 11 * n + 4, false, 0.1);
            for (double& x : v0.flat()) x = x * x;

            std::vector<double> p(p0.flat().begin(), p0.flat().end());
            std::vector<double> m(m0.flat().begin(), m0.flat().end());
            std::vector<double> v(v0.flat().begin(), v0.flat().end());
            const std::vector<double> g(g0.flat().begin(), g0.flat().end());
            adam_reference(p, g, m, v, c);

            std::vector<std::pair<const detail::Table*, const char*>> tables =
                backend_tables();
            tables.emplace_back(&detail::scalar_table(), "scalar");
            for (const auto& [table, name] : tables) {
                std::vector<double> tp(p0.flat().begin(), p0.flat().end());
                std::vector<double> tm(m0.flat().begin(), m0.flat().end());
                std::vector<double> tv(v0.flat().begin(), v0.flat().end());
                table->adam_step(tp.data(), g.data(), tm.data(), tv.data(), n,
                                 c);
                EXPECT_TRUE(bitwise_equal(p, tp))
                    << name << " params n=" << n << " t=" << t;
                EXPECT_TRUE(bitwise_equal(m, tm))
                    << name << " m n=" << n << " t=" << t;
                EXPECT_TRUE(bitwise_equal(v, tv))
                    << name << " v n=" << n << " t=" << t;
            }
        }
    }
}

/// Double with the given bit pattern (NaNs with a chosen sign and payload).
double from_bits(std::uint64_t bits) {
    double d;
    std::memcpy(&d, &bits, sizeof d);
    return d;
}

/// v with its sign bit set when `negative` — a bit op, so NaNs keep their
/// payload (negation need not preserve a NaN's sign).
double with_sign(double v, bool negative) {
    return negative ? from_bits(std::bit_cast<std::uint64_t>(v) |
                                0x8000000000000000ULL)
                    : v;
}

/// One tanh input on the chosen side of the branch point |x| = 0.625:
/// every third a random magnitude, the rest cycling through the edge
/// values, with a random sign. NaNs compare false, so they are "small".
double tanh_input(bool big, std::size_t i, std::mt19937_64& gen) {
    static const double kBig[] = {0.625, std::nextafter(0.625, 1.0),
                                  1.7,   19.1,
                                  40.0,  710.0,
                                  std::numeric_limits<double>::max(), kInf};
    static const double kSmall[] = {
        0.0,
        std::nextafter(0.625, 0.0),
        0.3,
        1e-8,
        std::numeric_limits<double>::denorm_min(),
        2.2e-310,
        from_bits(0x7ff8000000000123ULL),   // +NaN with a payload
        from_bits(0xfff800000000abcdULL)};  // -NaN with a payload
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    double v;
    if (i % 3 == 0)
        v = big ? 0.625 + 5.0 * dist(gen) : 0.625 * dist(gen);
    else if (big)
        v = kBig[(i / 3) % std::size(kBig)];
    else
        v = kSmall[(i / 3) % std::size(kSmall)];
    return with_sign(v, gen() & 1);
}

TEST(KernelProperty, TanhEveryLaneMaskMatchesScalar) {
    // Vector q of the input takes big/small lane mask (q + rot) mod 16, so
    // every mask appears in every lane group, at every alignment of the
    // input mod 4 doubles, across the split kernel's 256-value chunk edges.
    const detail::Table& ref = detail::scalar_table();
    std::mt19937_64 gen(2026);
    for (const auto& [table, name] : backend_tables()) {
        for (std::size_t n :
             {0ul, 1ul, 3ul, 4ul, 5ul, 255ul, 256ul, 257ul, 770ul}) {
            for (std::size_t offset = 0; offset < 4; ++offset) {
                for (unsigned rot = 0; rot < 16; ++rot) {
                    std::vector<double> buf(offset + n, 0.0);
                    for (std::size_t i = 0; i < n; ++i) {
                        const unsigned mask = (i / 4 + rot) % 16;
                        buf[offset + i] =
                            tanh_input((mask >> (i % 4)) & 1u, i, gen);
                    }
                    const double* a = buf.data() + offset;
                    std::vector<double> want(n), got(n);
                    ref.ew_tanh(a, want.data(), n);
                    table->ew_tanh(a, got.data(), n);
                    EXPECT_TRUE(bitwise_equal(want, got))
                        << name << " n=" << n << " offset=" << offset
                        << " rot=" << rot;
                    double* inplace = buf.data() + offset;
                    table->ew_tanh(inplace, inplace, n);
                    EXPECT_TRUE(n == 0 || std::memcmp(inplace, want.data(),
                                                      n * sizeof(double)) == 0)
                        << name << " in place n=" << n << " offset=" << offset
                        << " rot=" << rot;
                }
            }
        }
    }
}

TEST(KernelProperty, LinearActRowsEveryTileAndTail) {
    // Every row-tile remainder (1–9, 17 rows) × column-tile remainder
    // (8/4/masked) for each input width, and the tanh row blocks of about
    // 256 outputs (75 columns × 17 rows spans several). x ∈ U(−1, 1),
    // W ∈ U(−2/√in, 2/√in) and b ∈ U(−0.5, 0.5) put the pre-activations
    // at a spread of about 0.7, so tanh sees both branches in most vectors.
    const detail::Table& ref = detail::scalar_table();
    using kernels::Act;
    for (const auto& [table, name] : backend_tables()) {
        for (std::size_t rows : {1ul, 2ul, 3ul, 4ul, 5ul, 6ul, 7ul, 8ul, 9ul,
                                 17ul}) {
            for (std::size_t in : {1ul, 3ul, 13ul, 32ul}) {
                for (std::size_t out : {0ul, 1ul, 2ul, 3ul, 4ul, 5ul, 6ul,
                                        7ul, 8ul, 9ul, 12ul, 16ul, 26ul, 32ul,
                                        33ul, 75ul}) {
                    const std::uint64_t seed = 1000 * rows + 100 * in + out;
                    const Matrix w = filled(in, out, seed + 1, false,
                                            2.0 / std::sqrt(double(in)));
                    const Matrix b = filled(1, out, seed + 2, false, 0.5);
                    for (bool poison : {false, true}) {
                        const Matrix x = filled(rows, in, seed, poison, 1.0);
                        for (Act act : {Act::kNone, Act::kTanh, Act::kRelu,
                                        Act::kLeakyRelu, Act::kSigmoid}) {
                            Matrix want(rows, out), got(rows, out);
                            ref.linear_act_rows(x.data(), w.data(), b.data(),
                                                want.data(), 0, rows, in, out,
                                                act);
                            table->linear_act_rows(x.data(), w.data(),
                                                   b.data(), got.data(), 0,
                                                   rows, in, out, act);
                            EXPECT_TRUE(bitwise_equal(want, got))
                                << name << " act=" << static_cast<int>(act)
                                << " " << rows << "x" << in << "x" << out
                                << (poison ? " poisoned" : "");
                        }
                    }
                }
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
    // 160 rows: the conditioners' 16 x 16 hidden layer crosses the dense fork
    // threshold.
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

TEST(KernelDispatch, EveryTableIsComplete) {
    std::vector<std::pair<const detail::Table*, const char*>> tables =
        backend_tables();
    tables.emplace_back(&detail::scalar_table(), "scalar");
    for (const auto& [t, name] : tables) {
        const std::pair<bool, const char*> slots[] = {
            {t->linear_act_rows != nullptr, "linear_act_rows"},
            {t->affine_fwd_rows != nullptr, "affine_fwd_rows"},
            {t->affine_inv_rows != nullptr, "affine_inv_rows"},
            {t->ew_add != nullptr, "ew_add"},
            {t->ew_sub != nullptr, "ew_sub"},
            {t->ew_mul != nullptr, "ew_mul"},
            {t->ew_scale != nullptr, "ew_scale"},
            {t->ew_tanh != nullptr, "ew_tanh"},
            {t->ew_exp != nullptr, "ew_exp"},
            {t->ew_tanh_bwd != nullptr, "ew_tanh_bwd"},
            {t->adam_step != nullptr, "adam_step"}};
        for (const auto& [set, slot] : slots)
            EXPECT_TRUE(set) << name << " leaves " << slot << " null";
    }
    // simd resolves to one backend's table whole, never a mix of two.
    const detail::Table* simd = &detail::simd_table();
    EXPECT_TRUE(simd == detail::avx2_table() ||
                simd == &detail::portable_table());
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

/// FNV-1a of a buffer's bit patterns.
std::uint64_t bits_hash(const double* v, std::size_t n) {
    return util::fnv1a64(v, n * sizeof(double));
}

/// Exact pseudo-random double in [−half_width, half_width) for a
/// power-of-two half_width: a 53-bit integer scaled by powers of two, so
/// no rounding (and no contraction) can make the sweep differ between
/// compilers.
double exact_uniform(std::uint64_t seed, std::uint64_t i, double half_width) {
    const auto k = static_cast<std::int64_t>(
        util::splitmix64(seed ^ util::splitmix64(i)) >> 11);
    return static_cast<double>(k - (std::int64_t{1} << 52)) * 0x1p-52 *
           half_width;
}

TEST(KernelMath, TanhBitsArePinned) {
    // Golden hashes of the tanh kernels' output bits, taken from the
    // reference kernels before the split-branch AVX2 tanh landed. The
    // property tests compare backends with each other; this pins the bits
    // all of them produce, so a change to the operation sequence that the
    // scalar and the SIMD code would share still fails.
    std::vector<double> a;
    for (std::uint64_t i = 0; i < 1031; ++i)
        a.push_back(exact_uniform(41, i, 2.0));  // ~69% big lanes, mixed
    for (double v : {0.0, 0.625, std::nextafter(0.625, 0.0),
                     std::nextafter(0.625, 1.0), 19.1, 40.0, kInf,
                     std::numeric_limits<double>::denorm_min(), 2.2e-310,
                     from_bits(0x7ff8000000000123ULL)}) {
        a.push_back(v);
        a.push_back(with_sign(v, true));
    }
    constexpr std::size_t kRows = 41, kIn = 13, kOut = 26;
    std::vector<double> x(kRows * kIn), w(kIn * kOut), b(kOut);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = exact_uniform(42, i, 1.0);
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = exact_uniform(43, i, 0.5);
    for (std::size_t i = 0; i < b.size(); ++i)
        b[i] = exact_uniform(44, i, 0.5);
    x[5 * kIn + 2] = from_bits(0xfff800000000abcdULL);
    x[9 * kIn] = kInf;

    std::vector<std::pair<const detail::Table*, const char*>> tables =
        backend_tables();
    tables.emplace_back(&detail::scalar_table(), "scalar");
    for (const auto& [table, name] : tables) {
        std::vector<double> y(a.size());
        table->ew_tanh(a.data(), y.data(), y.size());
        EXPECT_EQ(bits_hash(y.data(), y.size()), 0xceee8246b830d542ULL)
            << name;
        std::vector<double> h(kRows * kOut);
        table->linear_act_rows(x.data(), w.data(), b.data(), h.data(), 0,
                               kRows, kIn, kOut, kernels::Act::kTanh);
        EXPECT_EQ(bits_hash(h.data(), h.size()), 0x8a04f479dec6923cULL)
            << name;
    }
}

TEST(KernelMath, AffineBitsArePinned) {
    // Golden hashes of both affine directions' outputs and log-dets, taken
    // from the reference kernels before the AVX2 affine path moved to the
    // split tanh. Shapes: nb = 1 (Leaf), 13 (YBranch), 20 (Powell) and one
    // row wider than a 256-value tanh buffer; h holds ±inf, a NaN, signed
    // zeros and the branch point among its exact uniforms.
    struct Case {
        std::size_t rows, nb;
    };
    const Case cases[] = {{41, 1}, {70, 13}, {13, 20}, {2, 300}};
    const double specials[] = {kInf,
                               -kInf,
                               from_bits(0x7ff8000000000123ULL),
                               0.625,
                               -0.625,
                               std::nextafter(0.625, 0.0),
                               0.0,
                               -0.0,
                               40.0,
                               -19.1};
    std::vector<std::pair<const detail::Table*, const char*>> tables =
        backend_tables();
    tables.emplace_back(&detail::scalar_table(), "scalar");
    for (const auto& [table, name] : tables) {
        std::uint64_t fwd = util::kFnv1aBasis, inv = util::kFnv1aBasis;
        for (std::uint64_t c = 0; c < std::size(cases); ++c) {
            const std::size_t rows = cases[c].rows, nb = cases[c].nb;
            const std::size_t dim = 2 * nb;
            std::vector<std::size_t> idx_b;
            for (std::size_t j = 0; j < nb; ++j)
                idx_b.push_back(dim - 1 - 2 * j);
            Matrix x(rows, dim), h(rows, 2 * nb);
            for (std::size_t i = 0; i < x.size(); ++i)
                x.flat()[i] = exact_uniform(61 + c, i, 4.0);
            for (std::size_t i = 0; i < h.size(); ++i)
                h.flat()[i] = exact_uniform(51 + c, i, 2.0);
            for (std::size_t k = 0; k < std::size(specials); ++k)
                h.flat()[(7 * k + c) % h.size()] = specials[k];
            for (bool inverse : {false, true}) {
                Matrix out = x;
                std::vector<double> ld = log_det_start(rows);
                affine_in_parts(*table, inverse, x, h, idx_b, 1.5, out, ld,
                                1);
                std::uint64_t& hash = inverse ? inv : fwd;
                hash = util::fnv1a64(out.data(), out.size() * sizeof(double),
                                     hash);
                hash = util::fnv1a64(ld.data(), ld.size() * sizeof(double),
                                     hash);
            }
        }
        EXPECT_EQ(fwd, 0xa031bc1e44ee878cULL) << name;
        EXPECT_EQ(inv, 0x9e1e3cdb0852fe7fULL) << name;
    }
}

/// One operand pair of the dense-product golden: exact uniforms with NaNs
/// of both signs and payloads, ±inf, signed zeros and subnormals.
struct ProductCase {
    Shape s;
    Matrix a, b;
};

std::vector<ProductCase> poisoned_products() {
    // The property sweep plus the conditioner products of training:
    // Leaf's one-column input, the weight gradients and YBranch's 13-wide
    // input; 32x50x32 crosses the parallel threshold.
    std::vector<Shape> shapes(std::begin(kShapes), std::end(kShapes));
    for (const Shape s : {Shape{1, 50, 32}, Shape{50, 1, 32},
                          Shape{50, 32, 2}, Shape{32, 50, 32},
                          Shape{13, 20, 32}})
        shapes.push_back(s);
    const double specials[] = {from_bits(0x7ff8000000000123ULL),
                               from_bits(0xfff800000000abcdULL),
                               kInf,
                               -kInf,
                               0.0,
                               -0.0,
                               std::numeric_limits<double>::denorm_min(),
                               -2.2e-310};
    std::vector<ProductCase> cases;
    for (std::uint64_t i = 0; i < shapes.size(); ++i) {
        const Shape& s = shapes[i];
        Matrix a(s.m, s.k), b(s.k, s.n);
        for (std::size_t j = 0; j < a.size(); ++j)
            a.flat()[j] = exact_uniform(71 + i, j, 2.0);
        for (std::size_t j = 0; j < b.size(); ++j)
            b.flat()[j] = exact_uniform(81 + i, j, 2.0);
        for (std::size_t k = 0; k < std::size(specials); ++k) {
            if (a.size() > 0) a.flat()[(5 * k + i) % a.size()] = specials[k];
            if (b.size() > 0)
                b.flat()[(3 * k + 2 * i) % b.size()] =
                    specials[(k + 3) % std::size(specials)];
        }
        cases.push_back({s, std::move(a), std::move(b)});
    }
    return cases;
}

/// FNV-1a of the outputs' bit patterns, continuing from `hash`, with every
/// NaN hashed as one canonical NaN. Which NaN survives where two NaNs of
/// different sign or payload meet in one sum is the compiler's choice of
/// operand order, not the algorithm's, and it differs between backends.
std::uint64_t bits_hash_nan_as_one(const Matrix& m, std::uint64_t hash) {
    for (const double v : m.flat()) {
        const double c = std::isnan(v) ? kNaN : v;
        hash = util::fnv1a64(&c, sizeof c, hash);
    }
    return hash;
}

TEST(KernelMath, MatmulBitsArePinned) {
    // Golden hash of the dense products over poisoned_products(), taken
    // from Matrix::matmul and from every table's separate matmul kernel in
    // the build before the product moved onto the zero-bias dense layer
    // (all five agreed). Pins every finite bit, signed zero, infinity and
    // subnormal, and which outputs are NaN.
    constexpr std::uint64_t kGolden = 0x045bc3287396c657ULL;
    ConfigGuard guard;
    const std::vector<ProductCase> cases = poisoned_products();
    std::vector<std::pair<const detail::Table*, const char*>> tables =
        backend_tables();
    tables.emplace_back(&detail::scalar_table(), "scalar");
    for (const auto& [table, name] : tables) {
        std::uint64_t hash = util::kFnv1aBasis;
        for (const ProductCase& c : cases) {
            const std::vector<double> zero(c.s.n, 0.0);
            Matrix out(c.s.m, c.s.n);
            table->linear_act_rows(c.a.data(), c.b.data(), zero.data(),
                                   out.data(), 0, c.s.m, c.s.k, c.s.n,
                                   kernels::Act::kNone);
            hash = bits_hash_nan_as_one(out, hash);
        }
        EXPECT_EQ(hash, kGolden) << name;
    }
    for (kernels::Choice choice :
         {kernels::Choice::kScalar, kernels::Choice::kSimd}) {
        kernels::set_choice(choice);
        for (std::size_t threads : {1ul, 4ul}) {
            parallel::set_num_threads(threads);
            std::uint64_t hash = util::kFnv1aBasis;
            for (const ProductCase& c : cases)
                hash = bits_hash_nan_as_one(c.a.matmul(c.b), hash);
            EXPECT_EQ(hash, kGolden)
                << kernels::choice_name() << " t=" << threads;
        }
    }
}

}  // namespace
}  // namespace nofis
