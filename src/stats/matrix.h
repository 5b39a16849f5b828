#ifndef CEBIS_STATS_MATRIX_H
#define CEBIS_STATS_MATRIX_H

// Minimal dense matrix with Cholesky factorization.
//
// The market substrate needs correlated Gaussian innovations across the
// hubs of an RTO (spatial kernel Sigma_ij = exp(-d_ij / lambda)); a
// Cholesky factor of that kernel turns iid normals into the correlated
// draws. RTOs have at most ~7 hubs, so a simple O(n^3) factorization is
// plenty.

#include <cstddef>
#include <span>
#include <vector>

namespace cebis::stats {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] double& at(std::size_t r, std::size_t c);
  [[nodiscard]] double at(std::size_t r, std::size_t c) const;

  // cebis-lint: allow(unreferenced-api) test oracle for cholesky
  [[nodiscard]] static Matrix identity(std::size_t n);

  /// Matrix-vector product into `out` (rows() values); allocates
  /// nothing, so a per-hour caller reuses one scratch vector.
  void mul(std::span<const double> v, std::span<double> out) const;

  /// Matrix-matrix product.
  [[nodiscard]] Matrix mul(const Matrix& other) const;

  // cebis-lint: allow(unreferenced-api) test oracle: L*L^T
  [[nodiscard]] Matrix transpose() const;

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Lower-triangular Cholesky factor L with L * L^T = m. Throws
/// std::invalid_argument if m is not symmetric positive definite (within
/// a small diagonal tolerance).
[[nodiscard]] Matrix cholesky(const Matrix& m);

/// Builds the exponential spatial kernel K_ij = exp(-d_ij / lambda_km)
/// from a row-major distance matrix. A tiny diagonal jitter keeps the
/// kernel positive definite for coincident points.
[[nodiscard]] Matrix exponential_kernel(const Matrix& distances_km, double lambda_km,
                                        double jitter = 1e-9);

}  // namespace cebis::stats

#endif  // CEBIS_STATS_MATRIX_H
