// Unit and property tests for the Jacobi symmetric eigensolver.

#include "eigen_sym.h"

#include <gtest/gtest.h>

#include "la/gemm.h"
#include "util/rng.h"

namespace rhchme {
namespace la {
namespace {

TEST(EigenSym, DiagonalMatrix) {
  Matrix a = Matrix::Diagonal({3.0, -1.0, 2.0});
  Result<EigenSymResult> r = EigenSym(a);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().eigenvalues.size(), 3u);
  EXPECT_NEAR(r.value().eigenvalues[0], -1.0, 1e-12);
  EXPECT_NEAR(r.value().eigenvalues[1], 2.0, 1e-12);
  EXPECT_NEAR(r.value().eigenvalues[2], 3.0, 1e-12);
}

TEST(EigenSym, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  Matrix a = Matrix::FromRows({{2, 1}, {1, 2}});
  Result<EigenSymResult> r = EigenSym(a);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(r.value().eigenvalues[1], 3.0, 1e-12);
}

TEST(EigenSym, RejectsNonSquare) {
  EXPECT_FALSE(EigenSym(Matrix(2, 3)).ok());
}

TEST(EigenSym, EmptyAndSingleton) {
  Result<EigenSymResult> empty = EigenSym(Matrix(0, 0));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().eigenvalues.empty());
  Result<EigenSymResult> one = EigenSym(Matrix::Diagonal({5.0}));
  ASSERT_TRUE(one.ok());
  EXPECT_NEAR(one.value().eigenvalues[0], 5.0, 1e-12);
}

class EigenSymPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(EigenSymPropertyTest, ReconstructionAndOrthonormality) {
  const int n = GetParam();
  Rng rng(1000 + n);
  Matrix b = Matrix::RandomNormal(n, n, &rng);
  Matrix a = Add(b, b.Transposed());  // Symmetric.
  Result<EigenSymResult> r = EigenSym(a);
  ASSERT_TRUE(r.ok());
  const Matrix& v = r.value().eigenvectors;

  // VᵀV = I.
  EXPECT_LT(MaxAbsDiff(Gram(v), Matrix::Identity(n)), 1e-9);

  // V·diag(w)·Vᵀ = A.
  Matrix vl = v;
  std::vector<double> w = r.value().eigenvalues;
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) vl(i, j) *= w[j];
  }
  EXPECT_LT(MaxAbsDiff(MultiplyNT(vl, v), a), 1e-8);

  // Eigenvalues ascending.
  for (int i = 1; i < n; ++i) EXPECT_LE(w[i - 1], w[i] + 1e-12);

  // Trace preserved.
  double sum = 0.0;
  for (double x : w) sum += x;
  EXPECT_NEAR(sum, a.Trace(), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenSymPropertyTest,
                         ::testing::Values(2, 3, 5, 10, 25, 50));

TEST(EigenSym, EigenvectorSatisfiesDefinition) {
  Rng rng(7);
  Matrix b = Matrix::RandomNormal(8, 8, &rng);
  Matrix a = Add(b, b.Transposed());
  Result<EigenSymResult> r = EigenSym(a);
  ASSERT_TRUE(r.ok());
  // Check A·v_j = w_j·v_j for the extreme eigenpairs.
  for (std::size_t j : {std::size_t{0}, std::size_t{7}}) {
    std::vector<double> v = r.value().eigenvectors.Col(j);
    std::vector<double> av = MultiplyVec(a, v);
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_NEAR(av[i], r.value().eigenvalues[j] * v[i], 1e-8);
    }
  }
}

TEST(EigenSym, SmallestSliceMatchesFull) {
  Rng rng(8);
  Matrix b = Matrix::RandomNormal(10, 10, &rng);
  Matrix a = Add(b, b.Transposed());
  Result<EigenSymResult> full = EigenSym(a);
  Result<EigenSymResult> small = EigenSymSmallest(a, 3);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(small.ok());
  ASSERT_EQ(small.value().eigenvalues.size(), 3u);
  for (int j = 0; j < 3; ++j) {
    EXPECT_NEAR(small.value().eigenvalues[j], full.value().eigenvalues[j],
                1e-12);
  }
  EXPECT_EQ(small.value().eigenvectors.cols(), 3u);
}

TEST(EigenSym, SmallestRejectsOversizedK) {
  EXPECT_FALSE(EigenSymSmallest(Matrix::Identity(3), 4).ok());
}

TEST(EigenSym, NonSymmetricInputIsSymmetrised) {
  // (A + Aᵀ)/2 of [[0, 2],[0, 0]] is [[0,1],[1,0]] with eigenvalues ±1.
  Matrix a = Matrix::FromRows({{0, 2}, {0, 0}});
  Result<EigenSymResult> r = EigenSym(a);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().eigenvalues[0], -1.0, 1e-12);
  EXPECT_NEAR(r.value().eigenvalues[1], 1.0, 1e-12);
}

}  // namespace
}  // namespace la
}  // namespace rhchme
