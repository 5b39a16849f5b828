#include "stats/matrix.h"

#include <cmath>
#include <stdexcept>

namespace cebis::stats {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return data_[r * cols_ + c];
}

double Matrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return data_[r * cols_ + c];
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1.0;
  return m;
}

void Matrix::mul(std::span<const double> v, std::span<double> out) const {
  if (v.size() != cols_ || out.size() != rows_) {
    throw std::invalid_argument("Matrix::mul: size mismatch");
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) s += data_[r * cols_ + c] * v[c];
    out[r] = s;
  }
}

Matrix Matrix::mul(const Matrix& other) const {
  if (cols_ != other.rows_) throw std::invalid_argument("Matrix::mul: shape mismatch");
  Matrix out(rows_, other.cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = data_[r * cols_ + k];
      if (a == 0.0) continue;
      for (std::size_t c = 0; c < other.cols_; ++c) {
        out.at(r, c) += a * other.at(k, c);
      }
    }
  }
  return out;
}

Matrix Matrix::transpose() const {
  Matrix out(cols_, rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out.at(c, r) = at(r, c);
  }
  return out;
}

Matrix cholesky(const Matrix& m) {
  if (m.rows() != m.cols()) throw std::invalid_argument("cholesky: not square");
  const std::size_t n = m.rows();
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = r + 1; c < n; ++c) {
      if (std::abs(m.at(r, c) - m.at(c, r)) > 1e-9) {
        throw std::invalid_argument("cholesky: not symmetric");
      }
    }
  }
  Matrix l(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double d = m.at(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= l.at(j, k) * l.at(j, k);
    if (d <= 0.0) throw std::invalid_argument("cholesky: not positive definite");
    l.at(j, j) = std::sqrt(d);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = m.at(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l.at(i, k) * l.at(j, k);
      l.at(i, j) = s / l.at(j, j);
    }
  }
  return l;
}

Matrix exponential_kernel(const Matrix& distances_km, double lambda_km, double jitter) {
  if (distances_km.rows() != distances_km.cols()) {
    throw std::invalid_argument("exponential_kernel: not square");
  }
  if (lambda_km <= 0.0) throw std::invalid_argument("exponential_kernel: lambda <= 0");
  const std::size_t n = distances_km.rows();
  Matrix k(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      k.at(i, j) = std::exp(-distances_km.at(i, j) / lambda_km);
    }
    k.at(i, i) += jitter;
  }
  return k;
}

}  // namespace cebis::stats
