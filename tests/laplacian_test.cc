// Unit tests for graph Laplacians.

#include "graph/laplacian.h"

#include <gtest/gtest.h>

#include <cmath>

#include "eigen_sym.h"
#include "la/gemm.h"
#include "util/rng.h"

namespace rhchme {
namespace graph {
namespace {

/// Path graph 0-1-2 with unit weights.
la::Matrix PathAffinity() {
  return la::Matrix::FromRows({{0, 1, 0}, {1, 0, 1}, {0, 1, 0}});
}

TEST(Laplacian, UnnormalizedHandComputed) {
  Result<la::Matrix> l =
      BuildLaplacian(PathAffinity(), LaplacianKind::kUnnormalized);
  ASSERT_TRUE(l.ok());
  EXPECT_DOUBLE_EQ(l.value()(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(l.value()(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(l.value()(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(l.value()(0, 2), 0.0);
}

TEST(Laplacian, UnnormalizedRowSumsAreZero) {
  Rng rng(1);
  la::Matrix b = la::Matrix::RandomUniform(12, 12, &rng);
  la::Matrix w = la::Add(b, b.Transposed());  // Symmetric affinity.
  for (std::size_t i = 0; i < 12; ++i) w(i, i) = 0.0;
  Result<la::Matrix> l = BuildLaplacian(w, LaplacianKind::kUnnormalized);
  ASSERT_TRUE(l.ok());
  for (double s : l.value().RowSums()) EXPECT_NEAR(s, 0.0, 1e-10);
}

TEST(Laplacian, SymmetricNormalizedDiagonalIsOne) {
  Result<la::Matrix> l =
      BuildLaplacian(PathAffinity(), LaplacianKind::kSymmetric);
  ASSERT_TRUE(l.ok());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(l.value()(i, i), 1.0);
  }
  // Off-diagonal: -1/sqrt(d_i d_j) = -1/sqrt(2).
  EXPECT_NEAR(l.value()(0, 1), -1.0 / std::sqrt(2.0), 1e-12);
}

TEST(Laplacian, RandomWalkRowSumsAreZero) {
  Result<la::Matrix> l =
      BuildLaplacian(PathAffinity(), LaplacianKind::kRandomWalk);
  ASSERT_TRUE(l.ok());
  for (double s : l.value().RowSums()) EXPECT_NEAR(s, 0.0, 1e-12);
}

TEST(Laplacian, UnnormalizedAndSymmetricArePSD) {
  Rng rng(2);
  la::Matrix b = la::Matrix::RandomUniform(10, 10, &rng);
  la::Matrix w = la::Add(b, b.Transposed());
  for (std::size_t i = 0; i < 10; ++i) w(i, i) = 0.0;
  for (LaplacianKind kind :
       {LaplacianKind::kUnnormalized, LaplacianKind::kSymmetric}) {
    Result<la::Matrix> l = BuildLaplacian(w, kind);
    ASSERT_TRUE(l.ok());
    Result<la::EigenSymResult> eig = la::EigenSym(l.value());
    ASSERT_TRUE(eig.ok());
    EXPECT_GE(eig.value().eigenvalues.front(), -1e-9)
        << LaplacianKindName(kind);
  }
}

TEST(Laplacian, ConstantVectorInNullspaceOfUnnormalized) {
  Rng rng(3);
  la::Matrix b = la::Matrix::RandomUniform(8, 8, &rng);
  la::Matrix w = la::Add(b, b.Transposed());
  for (std::size_t i = 0; i < 8; ++i) w(i, i) = 0.0;
  Result<la::Matrix> l = BuildLaplacian(w, LaplacianKind::kUnnormalized);
  ASSERT_TRUE(l.ok());
  std::vector<double> ones(8, 1.0);
  for (double v : la::MultiplyVec(l.value(), ones)) {
    EXPECT_NEAR(v, 0.0, 1e-10);
  }
}

TEST(Laplacian, IsolatedVertexHandledGracefully) {
  // Vertex 2 has no edges; normalised variants must not divide by zero.
  la::Matrix w = la::Matrix::FromRows({{0, 1, 0}, {1, 0, 0}, {0, 0, 0}});
  for (LaplacianKind kind :
       {LaplacianKind::kUnnormalized, LaplacianKind::kSymmetric,
        LaplacianKind::kRandomWalk}) {
    Result<la::Matrix> l = BuildLaplacian(w, kind);
    ASSERT_TRUE(l.ok()) << LaplacianKindName(kind);
    EXPECT_TRUE(l.value().AllFinite());
    EXPECT_DOUBLE_EQ(l.value()(2, 2), 0.0);
  }
}

TEST(Laplacian, SparseAndDenseOverloadsAgree) {
  Rng rng(4);
  la::Matrix b = la::Matrix::RandomUniform(9, 9, &rng);
  la::Matrix w = la::Add(b, b.Transposed());
  for (std::size_t i = 0; i < 9; ++i) w(i, i) = 0.0;
  w.Apply([](double v) { return v < 0.8 ? 0.0 : v; });
  la::SparseMatrix sparse = la::SparseMatrix::FromDense(w);
  for (LaplacianKind kind :
       {LaplacianKind::kUnnormalized, LaplacianKind::kSymmetric,
        LaplacianKind::kRandomWalk}) {
    Result<la::Matrix> from_dense = BuildLaplacian(w, kind);
    Result<la::Matrix> from_sparse = BuildLaplacian(sparse, kind);
    ASSERT_TRUE(from_dense.ok());
    ASSERT_TRUE(from_sparse.ok());
    EXPECT_LT(la::MaxAbsDiff(from_dense.value(), from_sparse.value()), 1e-12);
  }
}

TEST(Laplacian, SparseOutputMatchesDenseForAllKinds) {
  Rng rng(11);
  la::Matrix b = la::Matrix::RandomUniform(12, 12, &rng);
  la::Matrix w = la::Add(b, b.Transposed());
  for (std::size_t i = 0; i < 12; ++i) w(i, i) = 0.0;
  w.Apply([](double v) { return v < 1.2 ? 0.0 : v; });
  la::SparseMatrix sparse = la::SparseMatrix::FromDense(w);
  for (LaplacianKind kind :
       {LaplacianKind::kUnnormalized, LaplacianKind::kSymmetric,
        LaplacianKind::kRandomWalk}) {
    Result<la::Matrix> dense = BuildLaplacian(sparse, kind);
    Result<la::SparseMatrix> lean = BuildSparseLaplacian(sparse, kind);
    ASSERT_TRUE(dense.ok());
    ASSERT_TRUE(lean.ok()) << LaplacianKindName(kind);
    EXPECT_LT(la::MaxAbsDiff(dense.value(), lean.value().ToDense()), 1e-12)
        << LaplacianKindName(kind);
    // The sparse result never widens beyond W's pattern plus the diagonal.
    EXPECT_LE(lean.value().nnz(), sparse.nnz() + 12u);
  }
}

TEST(Laplacian, SparseOutputHandlesIsolatedVertices) {
  // Vertex 2 has no edges: normalised variants must leave its row (and
  // diagonal) empty, the unnormalised variant stores no explicit zero.
  std::vector<la::Triplet> trips = {{0, 1, 2.0}, {1, 0, 2.0}};
  la::SparseMatrix w = la::SparseMatrix::FromTriplets(3, 3, trips);
  for (LaplacianKind kind :
       {LaplacianKind::kUnnormalized, LaplacianKind::kSymmetric,
        LaplacianKind::kRandomWalk}) {
    Result<la::SparseMatrix> l = BuildSparseLaplacian(w, kind);
    ASSERT_TRUE(l.ok());
    EXPECT_EQ(l.value().At(2, 2), 0.0) << LaplacianKindName(kind);
    EXPECT_EQ(l.value().At(2, 0), 0.0) << LaplacianKindName(kind);
  }
}

TEST(Laplacian, SparseOutputRejectsNonSquare) {
  la::SparseMatrix w = la::SparseMatrix::FromTriplets(2, 3, {{0, 1, 1.0}});
  EXPECT_FALSE(BuildSparseLaplacian(w, LaplacianKind::kSymmetric).ok());
}

TEST(Laplacian, ConnectedComponentsShowInSpectrum) {
  // Two disjoint edges -> two zero eigenvalues of the unnormalised L.
  la::Matrix w(4, 4);
  w(0, 1) = w(1, 0) = 1.0;
  w(2, 3) = w(3, 2) = 1.0;
  Result<la::Matrix> l = BuildLaplacian(w, LaplacianKind::kUnnormalized);
  ASSERT_TRUE(l.ok());
  Result<la::EigenSymResult> eig = la::EigenSym(l.value());
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig.value().eigenvalues[0], 0.0, 1e-10);
  EXPECT_NEAR(eig.value().eigenvalues[1], 0.0, 1e-10);
  EXPECT_GT(eig.value().eigenvalues[2], 0.5);
}

TEST(Laplacian, RejectsNonSquare) {
  EXPECT_FALSE(BuildLaplacian(la::Matrix(2, 3),
                              LaplacianKind::kUnnormalized).ok());
}

TEST(Laplacian, DegreeVectorMatchesRowSums) {
  la::Matrix w = PathAffinity();
  std::vector<double> deg = DegreeVector(w);
  EXPECT_EQ(deg, (std::vector<double>{1.0, 2.0, 1.0}));
  std::vector<double> deg_sparse =
      DegreeVector(la::SparseMatrix::FromDense(w));
  EXPECT_EQ(deg_sparse, deg);
}

}  // namespace
}  // namespace graph
}  // namespace rhchme
