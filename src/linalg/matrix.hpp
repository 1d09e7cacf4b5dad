#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace nofis::linalg {

/// Dense row-major matrix of doubles.
///
/// This is the single numeric substrate used by every subsystem (autodiff,
/// flows, MNA circuit solves, least squares). It is a concrete regular value
/// type: copyable, movable, equality-comparable, with checked element access
/// in debug and explicit `at()` checked access everywhere.
class Matrix {
public:
    Matrix() = default;

    /// rows x cols matrix, zero-initialised.
    Matrix(std::size_t rows, std::size_t cols);

    /// rows x cols matrix filled with `fill`.
    Matrix(std::size_t rows, std::size_t cols, double fill);

    /// Construct from nested initializer lists; all rows must have equal
    /// length. Intended for small literals in tests and netlists.
    Matrix(std::initializer_list<std::initializer_list<double>> rows);

    static Matrix identity(std::size_t n);
    /// Diagonal matrix from a vector of diagonal entries.
    static Matrix diag(std::span<const double> d);
    /// 1 x n row vector wrapping a copy of `v`.
    static Matrix row(std::span<const double> v);
    /// n x 1 column vector wrapping a copy of `v`.
    static Matrix col(std::span<const double> v);

    std::size_t rows() const noexcept { return rows_; }
    std::size_t cols() const noexcept { return cols_; }
    std::size_t size() const noexcept { return data_.size(); }
    bool empty() const noexcept { return data_.empty(); }

    double& operator()(std::size_t r, std::size_t c) noexcept {
        return data_[r * cols_ + c];
    }
    double operator()(std::size_t r, std::size_t c) const noexcept {
        return data_[r * cols_ + c];
    }

    /// Bounds-checked access; throws std::out_of_range.
    double& at(std::size_t r, std::size_t c);
    double at(std::size_t r, std::size_t c) const;

    double* data() noexcept { return data_.data(); }
    const double* data() const noexcept { return data_.data(); }

    std::span<double> row_span(std::size_t r) noexcept {
        return {data_.data() + r * cols_, cols_};
    }
    std::span<const double> row_span(std::size_t r) const noexcept {
        return {data_.data() + r * cols_, cols_};
    }
    std::span<double> flat() noexcept { return {data_.data(), data_.size()}; }
    std::span<const double> flat() const noexcept {
        return {data_.data(), data_.size()};
    }

    // --- shape manipulation -------------------------------------------------
    Matrix transposed() const;
    /// Returns a copy of rows [r0, r1).
    Matrix rows_slice(std::size_t r0, std::size_t r1) const;
    /// Returns a copy of columns [c0, c1).
    Matrix cols_slice(std::size_t c0, std::size_t c1) const;
    /// Copies columns selected by `idx` in order.
    Matrix select_cols(std::span<const std::size_t> idx) const;
    /// Writes `src` into columns selected by `idx` (src.cols()==idx.size()).
    void scatter_cols(std::span<const std::size_t> idx, const Matrix& src);
    /// Horizontal concatenation [*this | other].
    Matrix hcat(const Matrix& other) const;
    /// Vertical concatenation.
    Matrix vcat(const Matrix& other) const;

    // --- arithmetic (element-wise unless stated) ----------------------------
    Matrix& operator+=(const Matrix& rhs);
    Matrix& operator-=(const Matrix& rhs);
    Matrix& operator*=(double s);
    Matrix& operator/=(double s);

    friend Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
    friend Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
    friend Matrix operator*(Matrix lhs, double s) { return lhs *= s; }
    friend Matrix operator*(double s, Matrix rhs) { return rhs *= s; }
    friend Matrix operator/(Matrix lhs, double s) { return lhs /= s; }
    Matrix operator-() const;

    bool operator==(const Matrix& rhs) const = default;

    /// Element-wise product (Hadamard).
    Matrix hadamard(const Matrix& rhs) const;
    /// Matrix product: (m x k) * (k x n) -> (m x n).
    Matrix matmul(const Matrix& rhs) const;
    /// Adds `bias` (1 x cols) to every row.
    Matrix add_row_broadcast(const Matrix& bias) const;
    /// Applies `f` to every element, returning a new matrix.
    template <typename F>
    Matrix map(F&& f) const {
        Matrix out(rows_, cols_);
        for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = f(data_[i]);
        return out;
    }

    // --- reductions ----------------------------------------------------------
    // Empty-matrix semantics: sum() is 0 (the additive identity) and mean()
    // returns the documented sentinel 0.0 — both are tested contracts. min()
    // and max() have no safe identity (a ±infinity sentinel would mask
    // non-finite divergence downstream), so they throw std::logic_error on a
    // 0-element matrix.
    double sum() const noexcept;
    double mean() const noexcept;
    double min() const;
    double max() const;
    /// Frobenius norm.
    double norm() const noexcept;
    /// Largest absolute element.
    double max_abs() const noexcept;
    /// Row-wise sum -> (rows x 1).
    Matrix row_sums() const;
    /// Column-wise sum -> (1 x cols).
    Matrix col_sums() const;
    /// Column-wise mean -> (1 x cols).
    Matrix col_means() const;

    /// True when every element is finite.
    bool all_finite() const noexcept;

    /// Human-readable dump (tests / debugging).
    std::string to_string(int precision = 4) const;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/// Euclidean dot product of two equally-sized flat views.
double dot(std::span<const double> a, std::span<const double> b);

/// Euclidean norm of a flat view.
double norm2(std::span<const double> a);

/// Maximum absolute difference between two matrices of identical shape.
double max_abs_diff(const Matrix& a, const Matrix& b);

}  // namespace nofis::linalg
