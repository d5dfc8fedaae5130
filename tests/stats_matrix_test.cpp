#include "stats/matrix.h"

#include <gtest/gtest.h>

namespace xp::stats {
namespace {

TEST(Matrix, ConstructionAndAccess) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, Identity) {
  const Matrix eye = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(eye(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(eye(0, 1), 0.0);
}

TEST(Matrix, MultiplyKnown) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MultiplyDimensionMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW(a * b, std::invalid_argument);
}

TEST(Matrix, TransposeRoundTrip) {
  const Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = a.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_NEAR(t.transpose().distance(a), 0.0, 1e-15);
}

TEST(Matrix, GramEqualsAtA) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  const Matrix g = a.gram();
  const Matrix reference = a.transpose() * a;
  EXPECT_NEAR(g.distance(reference), 0.0, 1e-12);
}

TEST(Matrix, Scale) {
  const Matrix a{{1.0, 2.0}};
  EXPECT_DOUBLE_EQ(a.scaled(3.0)(0, 1), 6.0);
}

TEST(Cholesky, FactorizesSpd) {
  const Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  const Matrix l = cholesky(a);
  const Matrix reconstructed = l * l.transpose();
  EXPECT_NEAR(reconstructed.distance(a), 0.0, 1e-12);
}

TEST(Cholesky, RejectsIndefinite) {
  const Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_THROW(cholesky(a), std::domain_error);
}

TEST(SolveSpd, RecoversSolution) {
  const Matrix a{{4.0, 1.0}, {1.0, 3.0}};
  const std::vector<double> x_true{2.0, -1.0};
  // b = A x.
  const std::vector<double> b{4.0 * 2 + 1.0 * -1, 1.0 * 2 + 3.0 * -1};
  const std::vector<double> x = solve_spd(a, b);
  EXPECT_NEAR(x[0], x_true[0], 1e-12);
  EXPECT_NEAR(x[1], x_true[1], 1e-12);
}

TEST(InverseSpd, TimesOriginalIsIdentity) {
  const Matrix a{{5.0, 2.0, 1.0}, {2.0, 6.0, 2.0}, {1.0, 2.0, 7.0}};
  const Matrix inv = inverse_spd(a);
  const Matrix eye = a * inv;
  EXPECT_NEAR(eye.distance(Matrix::identity(3)), 0.0, 1e-10);
}

}  // namespace
}  // namespace xp::stats
