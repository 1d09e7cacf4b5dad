#include "linalg/matrix.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "linalg/kernels/kernels.hpp"
#include "parallel/thread_pool.hpp"
#include "telemetry/telemetry.hpp"

namespace nofis::linalg {

namespace {
[[noreturn]] void shape_error(const char* what) {
    throw std::invalid_argument(std::string("Matrix shape error: ") + what);
}
}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
    rows_ = rows.size();
    cols_ = rows_ == 0 ? 0 : rows.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& r : rows) {
        if (r.size() != cols_) shape_error("ragged initializer list");
        data_.insert(data_.end(), r.begin(), r.end());
    }
}

Matrix Matrix::identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
}

Matrix Matrix::diag(std::span<const double> d) {
    Matrix m(d.size(), d.size());
    for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
    return m;
}

Matrix Matrix::row(std::span<const double> v) {
    Matrix m(1, v.size());
    std::copy(v.begin(), v.end(), m.data());
    return m;
}

Matrix Matrix::col(std::span<const double> v) {
    Matrix m(v.size(), 1);
    std::copy(v.begin(), v.end(), m.data());
    return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
    if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
    return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
    return (*this)(r, c);
}

Matrix Matrix::transposed() const {
    Matrix out(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
    return out;
}

Matrix Matrix::rows_slice(std::size_t r0, std::size_t r1) const {
    if (r0 > r1 || r1 > rows_) shape_error("rows_slice range");
    Matrix out(r1 - r0, cols_);
    std::copy(data_.begin() + static_cast<std::ptrdiff_t>(r0 * cols_),
              data_.begin() + static_cast<std::ptrdiff_t>(r1 * cols_),
              out.data());
    return out;
}

Matrix Matrix::cols_slice(std::size_t c0, std::size_t c1) const {
    if (c0 > c1 || c1 > cols_) shape_error("cols_slice range");
    Matrix out(rows_, c1 - c0);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = c0; c < c1; ++c) out(r, c - c0) = (*this)(r, c);
    return out;
}

Matrix Matrix::select_cols(std::span<const std::size_t> idx) const {
    Matrix out(rows_, idx.size());
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t j = 0; j < idx.size(); ++j) {
            if (idx[j] >= cols_) shape_error("select_cols index");
            out(r, j) = (*this)(r, idx[j]);
        }
    return out;
}

void Matrix::scatter_cols(std::span<const std::size_t> idx, const Matrix& src) {
    if (src.rows() != rows_ || src.cols() != idx.size())
        shape_error("scatter_cols source shape");
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t j = 0; j < idx.size(); ++j) {
            if (idx[j] >= cols_) shape_error("scatter_cols index");
            (*this)(r, idx[j]) = src(r, j);
        }
}

Matrix Matrix::hcat(const Matrix& other) const {
    if (other.rows() != rows_) shape_error("hcat row mismatch");
    Matrix out(rows_, cols_ + other.cols_);
    for (std::size_t r = 0; r < rows_; ++r) {
        std::copy(row_span(r).begin(), row_span(r).end(), out.row_span(r).begin());
        std::copy(other.row_span(r).begin(), other.row_span(r).end(),
                  out.row_span(r).begin() + static_cast<std::ptrdiff_t>(cols_));
    }
    return out;
}

Matrix Matrix::vcat(const Matrix& other) const {
    if (other.cols() != cols_) shape_error("vcat column mismatch");
    Matrix out(rows_ + other.rows_, cols_);
    std::copy(data_.begin(), data_.end(), out.data());
    std::copy(other.data_.begin(), other.data_.end(),
              out.data() + data_.size());
    return out;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
    if (rhs.rows() != rows_ || rhs.cols() != cols_) shape_error("operator+=");
    kernels::ew_add(data(), rhs.data(), data(), data_.size());
    return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
    if (rhs.rows() != rows_ || rhs.cols() != cols_) shape_error("operator-=");
    kernels::ew_sub(data(), rhs.data(), data(), data_.size());
    return *this;
}

Matrix& Matrix::operator*=(double s) {
    kernels::ew_scale(data(), s, data(), data_.size());
    return *this;
}

Matrix& Matrix::operator/=(double s) {
    for (double& v : data_) v /= s;
    return *this;
}

Matrix Matrix::operator-() const { return map([](double v) { return -v; }); }

Matrix Matrix::hadamard(const Matrix& rhs) const {
    if (rhs.rows() != rows_ || rhs.cols() != cols_) shape_error("hadamard");
    Matrix out(rows_, cols_);
    kernels::ew_mul(data(), rhs.data(), out.data(), data_.size());
    return out;
}

Matrix Matrix::matmul(const Matrix& rhs) const {
    if (cols_ != rhs.rows()) shape_error("matmul inner dimension");
    // The dense-layer kernel with a zero bias and no activation, which
    // leaves every bit of the product unchanged (kernels.hpp). It never
    // skips zero multipliers: 0·NaN must stay NaN so non-finite values in
    // the rhs propagate to downstream all_finite() divergence checks.
    const std::vector<double> zero_bias(rhs.cols_, 0.0);
    return linear_act(*this, rhs, zero_bias, kernels::Act::kNone);
}

Matrix Matrix::add_row_broadcast(const Matrix& bias) const {
    if (bias.rows() != 1 || bias.cols() != cols_) shape_error("add_row_broadcast");
    Matrix out(*this);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c) out(r, c) += bias(0, c);
    return out;
}

double Matrix::sum() const noexcept {
    double s = 0.0;
    for (double v : data_) s += v;
    return s;
}

double Matrix::mean() const noexcept {
    return data_.empty() ? 0.0 : sum() / static_cast<double>(data_.size());
}

double Matrix::min() const {
    if (data_.empty())
        throw std::logic_error("Matrix::min: empty matrix has no minimum");
    double m = std::numeric_limits<double>::infinity();
    for (double v : data_) m = std::min(m, v);
    return m;
}

double Matrix::max() const {
    if (data_.empty())
        throw std::logic_error("Matrix::max: empty matrix has no maximum");
    double m = -std::numeric_limits<double>::infinity();
    for (double v : data_) m = std::max(m, v);
    return m;
}

double Matrix::norm() const noexcept {
    double s = 0.0;
    for (double v : data_) s += v * v;
    return std::sqrt(s);
}

double Matrix::max_abs() const noexcept {
    double m = 0.0;
    for (double v : data_) m = std::max(m, std::abs(v));
    return m;
}

Matrix Matrix::row_sums() const {
    Matrix out(rows_, 1);
    for (std::size_t r = 0; r < rows_; ++r) {
        double s = 0.0;
        for (std::size_t c = 0; c < cols_; ++c) s += (*this)(r, c);
        out(r, 0) = s;
    }
    return out;
}

Matrix Matrix::col_sums() const {
    Matrix out(1, cols_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c) out(0, c) += (*this)(r, c);
    return out;
}

Matrix Matrix::col_means() const {
    Matrix out = col_sums();
    if (rows_ > 0) out /= static_cast<double>(rows_);
    return out;
}

bool Matrix::all_finite() const noexcept {
    return std::all_of(data_.begin(), data_.end(),
                       [](double v) { return std::isfinite(v); });
}

std::string Matrix::to_string(int precision) const {
    if (rows_ == 0) return "[]";
    std::ostringstream os;
    os.precision(precision);
    for (std::size_t r = 0; r < rows_; ++r) {
        os << (r == 0 ? "[" : " ");
        for (std::size_t c = 0; c < cols_; ++c)
            os << (*this)(r, c) << (c + 1 == cols_ ? "" : ", ");
        os << (r + 1 == rows_ ? "]" : "\n");
    }
    return os.str();
}

Matrix linear_act(const Matrix& x, const Matrix& w,
                  std::span<const double> bias, kernels::Act act) {
    if (x.cols() != w.rows()) shape_error("linear_act inner dimension");
    if (bias.size() != w.cols()) shape_error("linear_act bias length");
    Matrix out(x.rows(), w.cols());
    auto row_range = [&](std::size_t r0, std::size_t r1) {
        kernels::linear_act_rows(x.data(), w.data(), bias.data(), out.data(),
                                 r0, r1, x.cols(), w.cols(), act);
    };
    // Row-tiled parallel kernel: every output row is produced by exactly one
    // lane with the same inner loop and accumulation order as the serial
    // path, so the product is bitwise identical at any thread count.
    const std::size_t madds = x.rows() * x.cols() * w.cols();
    if (madds < kernels::kParallelDenseMinOps) {
        row_range(0, x.rows());
        return out;
    }
    // Only the tiled path reports telemetry: the small conditioner products
    // are far too frequent for a shared counter, and the tiled products
    // are what the perf PRs optimise. Counting and timing touch nothing the
    // kernel computes, so results are unchanged with telemetry on or off.
    telemetry::RunTrace* tr = telemetry::active();
    if (tr == nullptr) {
        parallel::parallel_for(x.rows(), row_range);
        return out;
    }
    const auto t0 = std::chrono::steady_clock::now();
    parallel::parallel_for(x.rows(), row_range);
    const auto dt = std::chrono::steady_clock::now() - t0;
    tr->add_counter("matmul.tiled_calls", 1);
    tr->add_counter("matmul.tiled_madds", madds);
    tr->add_counter(
        "matmul.tiled_busy_us",
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(dt).count()));
    return out;
}

double dot(std::span<const double> a, std::span<const double> b) {
    if (a.size() != b.size()) throw std::invalid_argument("dot size mismatch");
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
    return s;
}

double norm2(std::span<const double> a) {
    double s = 0.0;
    for (double v : a) s += v * v;
    return std::sqrt(s);
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
    if (a.rows() != b.rows() || a.cols() != b.cols())
        throw std::invalid_argument("max_abs_diff shape mismatch");
    double m = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::abs(a.flat()[i] - b.flat()[i]));
    return m;
}

}  // namespace nofis::linalg
