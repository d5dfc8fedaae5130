// Small dense linear algebra: exactly what OLS with robust covariance needs
// and nothing more. Matrices are row-major, value-typed, and sized at
// runtime (design matrices here are ~48 rows x ~26 columns — 24 hour fixed
// effects + treatment + intercept — so no fancy blocking is warranted).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <vector>

namespace xp::stats {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Build from nested initializer list: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  std::span<const double> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> flat() const noexcept { return data_; }

  Matrix transpose() const;
  Matrix operator*(const Matrix& rhs) const;
  Matrix scaled(double factor) const;

  /// A^T * A without materializing the transpose.
  Matrix gram() const;

  /// Frobenius-norm distance to another matrix (testing aid).
  double distance(const Matrix& rhs) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Cholesky factorization of a symmetric positive-definite matrix: returns
/// lower-triangular L with A = L L^T. Throws std::domain_error when the
/// matrix is not SPD (within a small tolerance).
Matrix cholesky(const Matrix& a);

/// Solve A x = b for SPD A via Cholesky. b is a column vector.
std::vector<double> solve_spd(const Matrix& a, std::span<const double> b);

/// Inverse of an SPD matrix via Cholesky (used for (X'X)^-1 sandwiches).
Matrix inverse_spd(const Matrix& a);

}  // namespace xp::stats
