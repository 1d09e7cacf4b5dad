#include "autodiff/ops.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "linalg/kernels/kernels.hpp"
#include "linalg/kernels/scalar_math.hpp"

namespace nofis::autodiff {

namespace {

using linalg::Matrix;
namespace kernels = linalg::kernels;

/// Creates the result node; wires parents; only installs `bw` when gradient
/// flow is actually needed.
template <typename Backward>
Var make_op(Matrix value, std::vector<std::shared_ptr<Node>> parents,
            Backward&& bw) {
    bool req = false;
    for (const auto& p : parents) req = req || p->requires_grad;
    auto node = std::make_shared<Node>(std::move(value), req);
    node->parents = std::move(parents);
    if (req) node->backward = std::forward<Backward>(bw);
    return Var(node);
}

/// Adds `delta` into `parent`'s grad if that parent participates in
/// differentiation.
void accumulate(Node& parent, const Matrix& delta) {
    if (!parent.requires_grad) return;
    parent.ensure_grad();
    parent.grad += delta;
}

void check_same_shape(const Var& a, const Var& b, const char* op) {
    if (a.rows() != b.rows() || a.cols() != b.cols())
        throw std::invalid_argument(std::string(op) + ": shape mismatch");
}

}  // namespace

Var matmul(const Var& a, const Var& b) {
    if (a.cols() != b.rows())
        throw std::invalid_argument("matmul: inner dimension mismatch");
    auto pa = a.node();
    auto pb = b.node();
    return make_op(a.value().matmul(b.value()), {pa, pb},
                   [pa, pb](Node& self) {
                       if (pa->requires_grad)
                           accumulate(*pa,
                                      self.grad.matmul(pb->value.transposed()));
                       if (pb->requires_grad)
                           accumulate(*pb,
                                      pa->value.transposed().matmul(self.grad));
                   });
}

Var add(const Var& a, const Var& b) {
    check_same_shape(a, b, "add");
    auto pa = a.node();
    auto pb = b.node();
    return make_op(a.value() + b.value(), {pa, pb}, [pa, pb](Node& self) {
        accumulate(*pa, self.grad);
        accumulate(*pb, self.grad);
    });
}

Var sub(const Var& a, const Var& b) {
    check_same_shape(a, b, "sub");
    auto pa = a.node();
    auto pb = b.node();
    return make_op(a.value() - b.value(), {pa, pb}, [pa, pb](Node& self) {
        accumulate(*pa, self.grad);
        if (pb->requires_grad) accumulate(*pb, -self.grad);
    });
}

Var mul(const Var& a, const Var& b) {
    check_same_shape(a, b, "mul");
    auto pa = a.node();
    auto pb = b.node();
    return make_op(a.value().hadamard(b.value()), {pa, pb},
                   [pa, pb](Node& self) {
                       if (pa->requires_grad)
                           accumulate(*pa, self.grad.hadamard(pb->value));
                       if (pb->requires_grad)
                           accumulate(*pb, self.grad.hadamard(pa->value));
                   });
}

Var add_bias(const Var& x, const Var& bias) {
    if (bias.rows() != 1 || bias.cols() != x.cols())
        throw std::invalid_argument("add_bias: bias must be 1 x cols(x)");
    auto px = x.node();
    auto pb = bias.node();
    return make_op(x.value().add_row_broadcast(bias.value()), {px, pb},
                   [px, pb](Node& self) {
                       accumulate(*px, self.grad);
                       if (pb->requires_grad)
                           accumulate(*pb, self.grad.col_sums());
                   });
}

Var neg(const Var& a) { return scale(a, -1.0); }

Var scale(const Var& a, double s) {
    auto pa = a.node();
    return make_op(a.value() * s, {pa}, [pa, s](Node& self) {
        accumulate(*pa, self.grad * s);
    });
}

Var add_const(const Var& a, double c) {
    auto pa = a.node();
    return make_op(a.value().map([c](double v) { return v + c; }), {pa},
                   [pa](Node& self) { accumulate(*pa, self.grad); });
}

Var tanh_v(const Var& a) {
    auto pa = a.node();
    Matrix y(a.rows(), a.cols());
    linalg::kernels::ew_tanh(a.value().data(), y.data(), y.size());
    auto node = std::make_shared<Node>(std::move(y), pa->requires_grad);
    node->parents = {pa};
    if (node->requires_grad) {
        node->backward = [pa](Node& self) {
            Matrix d(self.value.rows(), self.value.cols());
            linalg::kernels::ew_tanh_bwd(self.value.data(), self.grad.data(),
                                         d.data(), d.size());
            accumulate(*pa, d);
        };
    }
    return Var(node);
}

Var sigmoid_v(const Var& a) {
    auto pa = a.node();
    // Same k_sigmoid as the fused kernels so the tape and value paths
    // agree bitwise regardless of kernel flavour.
    Matrix y = a.value().map(linalg::kernels::k_sigmoid);
    auto node = std::make_shared<Node>(std::move(y), pa->requires_grad);
    node->parents = {pa};
    if (node->requires_grad) {
        node->backward = [pa](Node& self) {
            Matrix d(self.value.rows(), self.value.cols());
            for (std::size_t i = 0; i < d.size(); ++i) {
                const double s = self.value.flat()[i];
                d.flat()[i] = self.grad.flat()[i] * s * (1.0 - s);
            }
            accumulate(*pa, d);
        };
    }
    return Var(node);
}

Var relu_v(const Var& a) {
    auto pa = a.node();
    return make_op(a.value().map([](double v) { return v > 0.0 ? v : 0.0; }),
                   {pa}, [pa](Node& self) {
                       Matrix d(self.grad);
                       for (std::size_t i = 0; i < d.size(); ++i)
                           if (pa->value.flat()[i] <= 0.0) d.flat()[i] = 0.0;
                       accumulate(*pa, d);
                   });
}

Var leaky_relu_v(const Var& a, double slope) {
    auto pa = a.node();
    return make_op(
        a.value().map([slope](double v) { return v > 0.0 ? v : slope * v; }),
        {pa}, [pa, slope](Node& self) {
            Matrix d(self.grad);
            for (std::size_t i = 0; i < d.size(); ++i)
                if (pa->value.flat()[i] <= 0.0) d.flat()[i] *= slope;
            accumulate(*pa, d);
        });
}

Var exp_v(const Var& a) {
    auto pa = a.node();
    Matrix y(a.rows(), a.cols());
    linalg::kernels::ew_exp(a.value().data(), y.data(), y.size());
    auto node = std::make_shared<Node>(std::move(y), pa->requires_grad);
    node->parents = {pa};
    if (node->requires_grad) {
        node->backward = [pa](Node& self) {
            accumulate(*pa, self.grad.hadamard(self.value));
        };
    }
    return Var(node);
}

Var log_v(const Var& a) {
    auto pa = a.node();
    return make_op(a.value().map([](double v) { return std::log(v); }), {pa},
                   [pa](Node& self) {
                       Matrix d(self.grad.rows(), self.grad.cols());
                       for (std::size_t i = 0; i < d.size(); ++i)
                           d.flat()[i] =
                               self.grad.flat()[i] / pa->value.flat()[i];
                       accumulate(*pa, d);
                   });
}

Var softplus_v(const Var& a) {
    auto pa = a.node();
    // Numerically stable: log(1+e^x) = max(x,0) + log1p(e^{-|x|}).
    return make_op(
        a.value().map([](double v) {
            return std::max(v, 0.0) + std::log1p(std::exp(-std::abs(v)));
        }),
        {pa}, [pa](Node& self) {
            Matrix d(self.grad.rows(), self.grad.cols());
            for (std::size_t i = 0; i < d.size(); ++i) {
                const double x = pa->value.flat()[i];
                d.flat()[i] = self.grad.flat()[i] / (1.0 + std::exp(-x));
            }
            accumulate(*pa, d);
        });
}

Var square_v(const Var& a) {
    auto pa = a.node();
    return make_op(a.value().map([](double v) { return v * v; }), {pa},
                   [pa](Node& self) {
                       Matrix d = self.grad.hadamard(pa->value) * 2.0;
                       accumulate(*pa, d);
                   });
}

Var hadamard_const(const Var& a, const linalg::Matrix& c) {
    if (a.rows() != c.rows() || a.cols() != c.cols())
        throw std::invalid_argument("hadamard_const: shape mismatch");
    auto pa = a.node();
    return make_op(a.value().hadamard(c), {pa}, [pa, c](Node& self) {
        accumulate(*pa, self.grad.hadamard(c));
    });
}

namespace {

/// δ = ∂L/∂(x·W + b) from the node's gradient g for an activation other
/// than kNone, per element as the elementwise ops compute it: tanh_v's
/// g·(1 − y²), sigmoid_v's g·s·(1 − s), relu_v's mask on the
/// pre-activation and leaky_relu_v's slope where y ≤ 0 (the output's sign
/// is the pre-activation's, NaN included).
Matrix activation_grad(const Matrix& g, const Matrix& y, const Matrix& pre,
                       kernels::Act act) {
    Matrix d(g.rows(), g.cols());
    const std::size_t n = d.size();
    const double* gp = g.data();
    const double* yp = y.data();
    double* dp = d.data();
    switch (act) {
        case kernels::Act::kNone:
            break;
        case kernels::Act::kTanh:
            kernels::ew_tanh_bwd(yp, gp, dp, n);
            break;
        case kernels::Act::kSigmoid:
            for (std::size_t i = 0; i < n; ++i)
                dp[i] = gp[i] * yp[i] * (1.0 - yp[i]);
            break;
        case kernels::Act::kRelu:
            for (std::size_t i = 0; i < n; ++i)
                dp[i] = pre.data()[i] <= 0.0 ? 0.0 : gp[i];
            break;
        case kernels::Act::kLeakyRelu:
            for (std::size_t i = 0; i < n; ++i)
                dp[i] = yp[i] <= 0.0 ? gp[i] * 0.01 : gp[i];
            break;
    }
    return d;
}

}  // namespace

Var dense(const Var& x, const Var& w, const Var& b, kernels::Act act) {
    if (x.cols() != w.rows())
        throw std::invalid_argument("dense: inner dimension mismatch");
    if (b.rows() != 1 || b.cols() != w.cols())
        throw std::invalid_argument("dense: bias must be 1 x cols(W)");
    auto px = x.node();
    auto pw = w.node();
    auto pb = b.node();
    // ReLU's output is 0 where its pre-activation is NaN, so its backward
    // keeps the pre-activation; every other derivative reads the output.
    const bool keep_pre = act == kernels::Act::kRelu;
    Matrix y = linalg::linear_act(px->value, pw->value, pb->value.flat(),
                                  keep_pre ? kernels::Act::kNone : act);
    Matrix pre;
    if (keep_pre) {
        pre = y;
        for (double& v : y.flat()) v = v > 0.0 ? v : 0.0;
    }
    return make_op(std::move(y), {px, pw, pb},
                   [px, pw, pb, act, pre = std::move(pre)](Node& self) {
                       const bool linear = act == kernels::Act::kNone;
                       const Matrix d_act =
                           linear ? Matrix()
                                  : activation_grad(self.grad, self.value,
                                                    pre, act);
                       const Matrix& d = linear ? self.grad : d_act;
                       if (pb->requires_grad) accumulate(*pb, d.col_sums());
                       if (px->requires_grad)
                           accumulate(*px, d.matmul(pw->value.transposed()));
                       if (pw->requires_grad)
                           accumulate(*pw, px->value.transposed().matmul(d));
                   });
}

AffineForward affine_forward(const Var& xb, const Var& h, double cap) {
    const std::size_t n = xb.rows();
    const std::size_t nb = xb.cols();
    if (h.rows() != n || h.cols() != 2 * nb)
        throw std::invalid_argument(
            "affine_forward: conditioner shape mismatch");
    auto px = xb.node();
    auto ph = h.node();
    // tanh(h_s) and e^s over compact n x nb buffers, through the same
    // elementwise kernels and in the same order as the eight-op chain
    // (select, tanh, scale, exp, mul, add); the backward reuses both.
    Matrix th(n, nb);
    for (std::size_t r = 0; r < n; ++r)
        std::copy_n(ph->value.data() + r * 2 * nb, nb, th.data() + r * nb);
    kernels::ew_tanh(th.data(), th.data(), th.size());
    Matrix e(n, nb);
    kernels::ew_scale(th.data(), cap, e.data(), e.size());
    Matrix out(n, nb + 1);
    for (std::size_t r = 0; r < n; ++r) {
        double ld = 0.0;
        for (std::size_t j = 0; j < nb; ++j) ld += e(r, j);
        out(r, nb) = ld;
    }
    kernels::ew_exp(e.data(), e.data(), e.size());
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t j = 0; j < nb; ++j)
            out(r, j) = px->value(r, j) * e(r, j) + ph->value(r, nb + j);

    Var node = make_op(
        std::move(out), {px, ph},
        [px, ph, cap, th = std::move(th), e = std::move(e)](Node& self) {
            const std::size_t n = th.rows();
            const std::size_t nb = th.cols();
            Matrix gx(n, nb);
            Matrix gh(n, 2 * nb);
            for (std::size_t r = 0; r < n; ++r) {
                const double gld = self.grad(r, nb);
                for (std::size_t j = 0; j < nb; ++j) {
                    const double g = self.grad(r, j);
                    const double ej = e(r, j);
                    const double tj = th(r, j);
                    gx(r, j) = g * ej;
                    const double gs = g * px->value(r, j) * ej + gld;
                    gh(r, j) = gs * cap * (1.0 - tj * tj);
                    gh(r, nb + j) = g;
                }
            }
            accumulate(*px, gx);
            accumulate(*ph, gh);
        });
    std::vector<std::size_t> y_cols(nb);
    std::iota(y_cols.begin(), y_cols.end(), std::size_t{0});
    const std::size_t ld_col[] = {nb};
    return {select_cols(node, y_cols), select_cols(node, ld_col)};
}

RqsForward rqs_forward(const Var& xb, const Var& h, std::size_t num_bins,
                       double tail_bound) {
    namespace kernels = linalg::kernels;
    const std::size_t n = xb.rows();
    const std::size_t nb = xb.cols();
    const std::size_t group = 3 * num_bins + 1;
    if (num_bins == 0 || num_bins > kernels::kMaxRqsBins)
        throw std::invalid_argument("rqs_forward: bad num_bins");
    if (h.rows() != n || h.cols() != nb * group)
        throw std::invalid_argument("rqs_forward: conditioner shape mismatch");

    auto px = xb.node();
    auto ph = h.node();
    // Compact layout: every column is transformed, so idx_b is the identity.
    std::vector<std::size_t> idx(nb);
    for (std::size_t j = 0; j < nb; ++j) idx[j] = j;
    Matrix y(n, nb);
    Matrix ld(n, 1);
    kernels::rqs_fwd_rows(px->value.data(), ph->value.data(), idx.data(), nb,
                          num_bins, tail_bound, nb, y.data(), ld.data(), 0, n);

    const bool req = px->requires_grad || ph->requires_grad;
    auto ynode = std::make_shared<Node>(std::move(y), req);
    auto lnode = std::make_shared<Node>(std::move(ld), req);
    ynode->parents = {px, ph};
    lnode->parents = {px, ph};
    if (req) {
        // The kernel backward takes both upstream grads at once; each output
        // node contributes its own grad with the other slot zeroed, and the
        // shared parents accumulate both contributions.
        auto bwd = [px, ph, num_bins, tail_bound, nb](const Matrix& gy,
                                                      const Matrix& gld) {
            Matrix gx(px->value.rows(), px->value.cols());
            Matrix gh(ph->value.rows(), ph->value.cols());
            linalg::kernels::rqs_bwd_rows(
                px->value.data(), ph->value.data(), nb, num_bins, tail_bound,
                gy.data(), gld.data(), gx.data(), gh.data(), 0,
                px->value.rows());
            accumulate(*px, gx);
            accumulate(*ph, gh);
        };
        ynode->backward = [bwd, n](Node& self) {
            bwd(self.grad, Matrix(n, 1));
        };
        lnode->backward = [bwd, n, nb](Node& self) {
            bwd(Matrix(n, nb), self.grad);
        };
    }
    return {Var(ynode), Var(lnode)};
}

Var sum(const Var& a) {
    auto pa = a.node();
    Matrix s(1, 1);
    s(0, 0) = a.value().sum();
    return make_op(std::move(s), {pa}, [pa](Node& self) {
        accumulate(*pa, Matrix(pa->value.rows(), pa->value.cols(),
                               self.grad(0, 0)));
    });
}

Var mean(const Var& a) {
    auto pa = a.node();
    Matrix s(1, 1);
    s(0, 0) = a.value().mean();
    const double inv_n = 1.0 / static_cast<double>(a.value().size());
    return make_op(std::move(s), {pa}, [pa, inv_n](Node& self) {
        accumulate(*pa, Matrix(pa->value.rows(), pa->value.cols(),
                               self.grad(0, 0) * inv_n));
    });
}

Var row_sums(const Var& a) {
    auto pa = a.node();
    return make_op(a.value().row_sums(), {pa}, [pa](Node& self) {
        Matrix d(pa->value.rows(), pa->value.cols());
        for (std::size_t r = 0; r < d.rows(); ++r)
            for (std::size_t c = 0; c < d.cols(); ++c)
                d(r, c) = self.grad(r, 0);
        accumulate(*pa, d);
    });
}

Var select_cols(const Var& a, std::span<const std::size_t> idx) {
    auto pa = a.node();
    std::vector<std::size_t> idx_copy(idx.begin(), idx.end());
    return make_op(a.value().select_cols(idx), {pa},
                   [pa, idx_copy](Node& self) {
                       Matrix d(pa->value.rows(), pa->value.cols());
                       for (std::size_t r = 0; r < d.rows(); ++r)
                           for (std::size_t j = 0; j < idx_copy.size(); ++j)
                               d(r, idx_copy[j]) += self.grad(r, j);
                       accumulate(*pa, d);
                   });
}

Var combine_cols(const Var& a, std::span<const std::size_t> idx_a,
                 const Var& b, std::span<const std::size_t> idx_b,
                 std::size_t total_cols) {
    if (a.rows() != b.rows())
        throw std::invalid_argument("combine_cols: row mismatch");
    if (idx_a.size() != a.cols() || idx_b.size() != b.cols() ||
        idx_a.size() + idx_b.size() != total_cols)
        throw std::invalid_argument("combine_cols: index sizes inconsistent");
    auto pa = a.node();
    auto pb = b.node();
    Matrix out(a.rows(), total_cols);
    out.scatter_cols(idx_a, a.value());
    out.scatter_cols(idx_b, b.value());
    std::vector<std::size_t> ia(idx_a.begin(), idx_a.end());
    std::vector<std::size_t> ib(idx_b.begin(), idx_b.end());
    return make_op(std::move(out), {pa, pb}, [pa, pb, ia, ib](Node& self) {
        if (pa->requires_grad)
            accumulate(*pa, self.grad.select_cols(ia));
        if (pb->requires_grad)
            accumulate(*pb, self.grad.select_cols(ib));
    });
}

Var dot_constant(const Var& a, const linalg::Matrix& c) {
    if (a.rows() != c.rows() || a.cols() != c.cols())
        throw std::invalid_argument("dot_constant: shape mismatch");
    auto pa = a.node();
    Matrix s(1, 1);
    for (std::size_t i = 0; i < c.size(); ++i)
        s(0, 0) += a.value().flat()[i] * c.flat()[i];
    return make_op(std::move(s), {pa}, [pa, c](Node& self) {
        accumulate(*pa, c * self.grad(0, 0));
    });
}

}  // namespace nofis::autodiff
