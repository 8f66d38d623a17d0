// Unit tests for the dense direct solver.

#include "la/solve.h"

#include <gtest/gtest.h>

#include <cmath>

#include "la/gemm.h"
#include "matrix_oracles.h"
#include "util/rng.h"

namespace rhchme {
namespace la {
namespace {

using testing_reference::MaxAbsDiff;

/// Random SPD matrix A = BᵀB + n·I.
Matrix RandomSpd(std::size_t n, Rng* rng) {
  Matrix b = Matrix::RandomNormal(n, n, rng);
  Matrix a = Gram(b);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

/// Random symmetric A = B + Bᵀ with a negative leading entry. A negative
/// diagonal entry rules out positive definiteness, so Cholesky stops at
/// its first pivot and SolveRidged solves by LU over all n pivot steps.
Matrix RandomIndefinite(std::size_t n, Rng* rng) {
  Matrix b = Matrix::RandomNormal(n, n, rng);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = b(i, j) + b(j, i);
  }
  a(0, 0) = -1.0 - std::fabs(a(0, 0));
  return a;
}

TEST(SolveRidged, RoundTripSpd) {
  Rng rng(2);
  Matrix a = RandomSpd(10, &rng);
  Matrix x_true = Matrix::RandomNormal(10, 3, &rng);
  Matrix b = Multiply(a, x_true);
  Result<Matrix> x = SolveRidged(a, b, 0.0);
  ASSERT_TRUE(x.ok());
  EXPECT_LT(MaxAbsDiff(x.value(), x_true), 1e-8);
}

TEST(SolveRidged, IndefiniteFallsBackToLu) {
  // Eigenvalues 3 and -1: Cholesky fails, LU solves.
  Matrix a = Matrix::FromRows({{1, 2}, {2, 1}});
  Matrix b = Matrix::FromRows({{5}, {4}});
  Result<Matrix> x = SolveRidged(a, b, 0.0);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x.value()(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(x.value()(1, 0), 2.0, 1e-12);
}

TEST(SolveRidged, LuRoundTripGeneral) {
  Rng rng(3);
  Matrix a = RandomIndefinite(12, &rng);
  Matrix x_true = Matrix::RandomNormal(12, 3, &rng);
  Matrix b = Multiply(a, x_true);
  Result<Matrix> x = SolveRidged(a, b, 0.0);
  ASSERT_TRUE(x.ok());
  EXPECT_LT(MaxAbsDiff(x.value(), x_true), 1e-7);
}

TEST(SolveRidged, LuIdentityRhsGivesInverse) {
  // B = I: the LU path returns A⁻¹, column by column.
  Rng rng(4);
  Matrix a = RandomIndefinite(9, &rng);
  Result<Matrix> inv = SolveRidged(a, Matrix::Identity(9), 0.0);
  ASSERT_TRUE(inv.ok());
  EXPECT_LT(MaxAbsDiff(Multiply(a, inv.value()), Matrix::Identity(9)), 1e-8);
}

TEST(SolveRidged, LuNeedsPivoting) {
  // Zero on the leading diagonal forces a row swap.
  Matrix a = Matrix::FromRows({{0, 1}, {1, 0}});
  Matrix b = Matrix::FromRows({{2}, {3}});
  Result<Matrix> x = SolveRidged(a, b, 0.0);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x.value()(0, 0), 3.0, 1e-12);
  EXPECT_NEAR(x.value()(1, 0), 2.0, 1e-12);
}

TEST(SolveRidged, DetectsSingular) {
  Matrix a = Matrix::FromRows({{1, 2}, {2, 4}});
  Result<Matrix> x = SolveRidged(a, Matrix::Identity(2), 0.0);
  ASSERT_FALSE(x.ok());
  EXPECT_EQ(x.status().code(), StatusCode::kNumericalError);
}

TEST(SolveRidged, RejectsBadShapes) {
  Result<Matrix> nonsquare = SolveRidged(Matrix(2, 3), Matrix(2, 1), 1.0);
  ASSERT_FALSE(nonsquare.ok());
  EXPECT_EQ(nonsquare.status().code(), StatusCode::kInvalidArgument);
  Result<Matrix> rows = SolveRidged(Matrix::Identity(2), Matrix(3, 1), 1.0);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
}

TEST(SolveRidged, HandlesSingularGram) {
  // GᵀG singular when a cluster column is empty (paper Eq. 18 guard).
  Matrix a = Matrix::FromRows({{1, 0}, {0, 0}});
  Matrix b = Matrix::Identity(2);
  Result<Matrix> x = SolveRidged(a, b, 1e-8);
  ASSERT_TRUE(x.ok());
  EXPECT_TRUE(x.value().AllFinite());
}

TEST(SolveRidged, TinyRidgeMatchesExactSolve) {
  Rng rng(5);
  Matrix a = RandomSpd(6, &rng);
  Matrix b = Matrix::RandomNormal(6, 2, &rng);
  Result<Matrix> exact = SolveRidged(a, b, 0.0);
  Result<Matrix> ridged = SolveRidged(a, b, 1e-12);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(ridged.ok());
  EXPECT_LT(MaxAbsDiff(exact.value(), ridged.value()), 1e-6);
}

}  // namespace
}  // namespace la
}  // namespace rhchme
