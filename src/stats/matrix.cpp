#include "stats/matrix.h"

#include <cmath>

namespace xp::stats {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    if (row.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  if (cols_ != rhs.rows_) {
    throw std::invalid_argument("Matrix multiply: dimension mismatch");
  }
  Matrix out(rows_, rhs.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < rhs.cols_; ++j) {
        out(i, j) += aik * rhs(k, j);
      }
    }
  }
  return out;
}

Matrix Matrix::scaled(double factor) const {
  Matrix out = *this;
  for (double& v : out.data_) v *= factor;
  return out;
}

Matrix Matrix::gram() const {
  Matrix out(cols_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row_ptr = data_.data() + r * cols_;
    for (std::size_t i = 0; i < cols_; ++i) {
      const double xi = row_ptr[i];
      if (xi == 0.0) continue;
      for (std::size_t j = i; j < cols_; ++j) {
        out(i, j) += xi * row_ptr[j];
      }
    }
  }
  for (std::size_t i = 0; i < cols_; ++i) {
    for (std::size_t j = 0; j < i; ++j) out(i, j) = out(j, i);
  }
  return out;
}

double Matrix::distance(const Matrix& rhs) const {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
    throw std::invalid_argument("Matrix distance: dimension mismatch");
  }
  double ss = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    const double d = data_[i] - rhs.data_[i];
    ss += d * d;
  }
  return std::sqrt(ss);
}

Matrix cholesky(const Matrix& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("cholesky: matrix must be square");
  }
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      if (i == j) {
        if (sum <= 0.0) {
          throw std::domain_error("cholesky: matrix not positive definite");
        }
        l(i, j) = std::sqrt(sum);
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }
  return l;
}

std::vector<double> solve_spd(const Matrix& a, std::span<const double> b) {
  const Matrix l = cholesky(a);
  const std::size_t n = a.rows();
  if (b.size() != n) throw std::invalid_argument("solve_spd: size mismatch");

  // Forward substitution: L y = b.
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l(i, k) * y[k];
    y[i] = sum / l(i, i);
  }
  // Back substitution: L^T x = y.
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) sum -= l(k, ii) * x[k];
    x[ii] = sum / l(ii, ii);
  }
  return x;
}

Matrix inverse_spd(const Matrix& a) {
  const std::size_t n = a.rows();
  Matrix inv(n, n);
  std::vector<double> e(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    e[j] = 1.0;
    const std::vector<double> col = solve_spd(a, e);
    for (std::size_t i = 0; i < n; ++i) inv(i, j) = col[i];
    e[j] = 0.0;
  }
  return inv;
}

}  // namespace xp::stats
