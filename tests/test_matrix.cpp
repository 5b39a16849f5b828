// Matrix / Cholesky: correctness of the factorization that correlates
// local price-factor innovations inside an RTO.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "stats/matrix.h"
#include "stats/rng.h"
#include "test_support.h"

namespace cebis::stats {
namespace {

TEST(Matrix, BasicOps) {
  Matrix m(2, 3, 0.0);
  m.at(0, 0) = 1.0;
  m.at(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m.at(1, 2), 5.0);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_THROW((void)m.at(2, 0), std::out_of_range);

  const Matrix i3 = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(i3.at(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(i3.at(0, 1), 0.0);
}

TEST(Matrix, VectorProduct) {
  Matrix m(2, 2, 0.0);
  m.at(0, 0) = 1.0;
  m.at(0, 1) = 2.0;
  m.at(1, 0) = 3.0;
  m.at(1, 1) = 4.0;
  const std::vector<double> v = {1.0, 1.0};
  std::vector<double> out(2, 0.0);
  m.mul(v, out);
  EXPECT_DOUBLE_EQ(out[0], 3.0);
  EXPECT_DOUBLE_EQ(out[1], 7.0);
  EXPECT_THROW(m.mul(std::vector<double>{1.0}, out), std::invalid_argument);
  std::vector<double> short_out(1, 0.0);
  EXPECT_THROW(m.mul(v, short_out), std::invalid_argument);
}

TEST(Matrix, MatrixProductAndTranspose) {
  Matrix a(2, 2, 0.0);
  a.at(0, 1) = 1.0;
  const Matrix at = a.transpose();
  EXPECT_DOUBLE_EQ(at.at(1, 0), 1.0);
  const Matrix prod = a.mul(Matrix::identity(2));
  EXPECT_EQ(prod, a);
}

TEST(Cholesky, IdentityFactorsToIdentity) {
  const Matrix l = cholesky(Matrix::identity(4));
  EXPECT_EQ(l, Matrix::identity(4));
}

TEST(Cholesky, RejectsBadInput) {
  Matrix asym(2, 2, 0.0);
  asym.at(0, 0) = 1.0;
  asym.at(1, 1) = 1.0;
  asym.at(0, 1) = 0.5;
  asym.at(1, 0) = -0.5;
  EXPECT_THROW((void)cholesky(asym), std::invalid_argument);

  Matrix not_pd(2, 2, 1.0);  // rank 1, singular
  EXPECT_THROW((void)cholesky(not_pd), std::invalid_argument);

  EXPECT_THROW((void)cholesky(Matrix(2, 3, 0.0)), std::invalid_argument);
}

TEST(ExponentialKernel, UnitDiagonalAndDecay) {
  Matrix d(3, 3, 0.0);
  d.at(0, 1) = d.at(1, 0) = 100.0;
  d.at(0, 2) = d.at(2, 0) = 1000.0;
  d.at(1, 2) = d.at(2, 1) = 900.0;
  const Matrix k = exponential_kernel(d, 500.0);
  EXPECT_NEAR(k.at(0, 0), 1.0, test::kSumTol);
  EXPECT_NEAR(k.at(0, 1), std::exp(-0.2), test::kNumericTol);
  EXPECT_GT(k.at(0, 1), k.at(0, 2));
  EXPECT_THROW((void)exponential_kernel(d, 0.0), std::invalid_argument);
}

/// Property: L * L^T reconstructs the kernel for random point sets.
class CholeskyRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyRoundTrip, Reconstructs) {
  const int n = GetParam();
  Rng rng = test::test_rng(static_cast<std::uint64_t>(n) + 100);
  // Random distances from random points on a line (guaranteed metric).
  std::vector<double> pos;
  for (int i = 0; i < n; ++i) pos.push_back(rng.uniform(0.0, 2000.0));
  Matrix d(static_cast<std::size_t>(n), static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      d.at(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
          std::abs(pos[static_cast<std::size_t>(i)] -
                   pos[static_cast<std::size_t>(j)]);
    }
  }
  const Matrix k = exponential_kernel(d, 600.0, 1e-9);
  const Matrix l = cholesky(k);
  const Matrix back = l.mul(l.transpose());
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      EXPECT_NEAR(back.at(static_cast<std::size_t>(i), static_cast<std::size_t>(j)),
                  k.at(static_cast<std::size_t>(i), static_cast<std::size_t>(j)),
                  test::kNumericTol);
    }
  }
  // Lower triangular with positive diagonal.
  for (int i = 0; i < n; ++i) {
    EXPECT_GT(l.at(static_cast<std::size_t>(i), static_cast<std::size_t>(i)), 0.0);
    for (int j = i + 1; j < n; ++j) {
      EXPECT_DOUBLE_EQ(
          l.at(static_cast<std::size_t>(i), static_cast<std::size_t>(j)), 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyRoundTrip, ::testing::Values(1, 2, 3, 5, 7, 12));

}  // namespace
}  // namespace cebis::stats
