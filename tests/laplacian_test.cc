// Unit tests for graph Laplacians.

#include "graph/laplacian.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "eigen_sym.h"
#include "la/gemm.h"
#include "matrix_oracles.h"
#include "reference_laplacian.h"
#include "scoped_num_threads.h"
#include "util/rng.h"

namespace rhchme {
namespace graph {
namespace {

using testing_reference::MaxAbsDiff;
using testing_reference::ReferenceDenseLaplacian;
using testing_reference::ReferenceTripletLaplacian;

constexpr LaplacianKind kAllKinds[] = {LaplacianKind::kUnnormalized,
                                       LaplacianKind::kSymmetric,
                                       LaplacianKind::kRandomWalk};

la::SparseMatrix Csr(const la::Matrix& w) {
  return la::SparseMatrix::FromDense(w);
}

/// Path graph 0-1-2 with unit weights.
la::SparseMatrix PathAffinity() {
  return Csr(la::Matrix::FromRows({{0, 1, 0}, {1, 0, 1}, {0, 1, 0}}));
}

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

void ExpectSameCsr(const la::SparseMatrix& got, const la::SparseMatrix& want) {
  EXPECT_EQ(got.rows(), want.rows());
  EXPECT_EQ(got.cols(), want.cols());
  EXPECT_TRUE(SameBytes(got.row_offsets(), want.row_offsets()));
  EXPECT_TRUE(SameBytes(got.col_indices(), want.col_indices()));
  EXPECT_TRUE(SameBytes(got.values(), want.values()));
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
  la::Matrix w = b;
  w.Add(b.Transposed());  // Symmetric affinity.
  for (std::size_t i = 0; i < 12; ++i) w(i, i) = 0.0;
  Result<la::Matrix> l = BuildLaplacian(Csr(w), LaplacianKind::kUnnormalized);
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
  la::Matrix w = b;
  w.Add(b.Transposed());
  for (std::size_t i = 0; i < 10; ++i) w(i, i) = 0.0;
  for (LaplacianKind kind :
       {LaplacianKind::kUnnormalized, LaplacianKind::kSymmetric}) {
    Result<la::Matrix> l = BuildLaplacian(Csr(w), kind);
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
  la::Matrix w = b;
  w.Add(b.Transposed());
  for (std::size_t i = 0; i < 8; ++i) w(i, i) = 0.0;
  Result<la::Matrix> l = BuildLaplacian(Csr(w), LaplacianKind::kUnnormalized);
  ASSERT_TRUE(l.ok());
  // L·1 is the vector of row sums.
  for (double v : l.value().RowSums()) EXPECT_NEAR(v, 0.0, 1e-10);
}

TEST(Laplacian, IsolatedVertexHandledGracefully) {
  // Vertex 2 has no edges; normalised variants must not divide by zero.
  la::Matrix w = la::Matrix::FromRows({{0, 1, 0}, {1, 0, 0}, {0, 0, 0}});
  for (LaplacianKind kind : kAllKinds) {
    Result<la::Matrix> l = BuildLaplacian(Csr(w), kind);
    ASSERT_TRUE(l.ok()) << LaplacianKindName(kind);
    EXPECT_TRUE(l.value().AllFinite());
    EXPECT_DOUBLE_EQ(l.value()(2, 2), 0.0);
  }
}

TEST(Laplacian, MatchesTheDenseReference) {
  // The dense rule on W and the CSR rule on FromDense(W) give the same
  // values: FromDense of the dense L is the sparse L byte for byte.
  Rng rng(4);
  la::Matrix b = la::Matrix::RandomUniform(9, 9, &rng);
  la::Matrix w = b;
  w.Add(b.Transposed());
  for (std::size_t i = 0; i < 9; ++i) w(i, i) = 0.0;
  w.Apply([](double v) { return v < 0.8 ? 0.0 : v; });
  for (LaplacianKind kind : kAllKinds) {
    const la::Matrix want = ReferenceDenseLaplacian(w, kind);
    Result<la::Matrix> dense = BuildLaplacian(Csr(w), kind);
    Result<la::SparseMatrix> lean = BuildSparseLaplacian(Csr(w), kind);
    ASSERT_TRUE(dense.ok());
    ASSERT_TRUE(lean.ok());
    EXPECT_EQ(MaxAbsDiff(dense.value(), want), 0.0)
        << LaplacianKindName(kind);
    ExpectSameCsr(lean.value(), Csr(want));
  }
}

TEST(Laplacian, SparseOutputMatchesTheTripletBuildForAllKinds) {
  Rng rng(11);
  la::Matrix b = la::Matrix::RandomUniform(12, 12, &rng);
  la::Matrix w = b;
  w.Add(b.Transposed());
  for (std::size_t i = 0; i < 12; ++i) w(i, i) = 0.0;
  w.Apply([](double v) { return v < 1.2 ? 0.0 : v; });
  la::SparseMatrix sparse = Csr(w);
  for (LaplacianKind kind : kAllKinds) {
    Result<la::SparseMatrix> lean = BuildSparseLaplacian(sparse, kind);
    ASSERT_TRUE(lean.ok()) << LaplacianKindName(kind);
    ExpectSameCsr(lean.value(), ReferenceTripletLaplacian(sparse, kind));
    // The sparse result never widens beyond W's pattern plus the diagonal.
    EXPECT_LE(lean.value().nnz(), sparse.nnz() + 12u);
  }
}

TEST(Laplacian, DirectCsrMatchesTheTripletBuildByteForByte) {
  // Row 0: a self-loop next to ordinary edges. Row 1: an explicit zero
  // and a −0.0 among its edges. Row 2: no entries (zero degree). Row 3:
  // entries that sum to a zero degree. Row 4: only a self-loop, which
  // cancels the unnormalised diagonal exactly. Row 5: edges before the
  // diagonal only.
  const la::SparseMatrix w =
      la::SparseMatrix::FromCsr(
          6, 6, {0, 3, 7, 7, 9, 10, 12},
          {0, 1, 5, 0, 1, 3, 4, 1, 5, 4, 0, 1},
          {0.5, 2.0, 0.25, 2.0, 0.0, -0.0, 1.5, 1.0, -1.0, 3.0, 0.25, 0.75})
          .value();
  // A random sparse affinity large enough for several row chunks.
  Rng rng(6);
  la::Matrix b = la::Matrix::RandomUniform(400, 400, &rng);
  b.Apply([](double v) { return v < 0.97 ? 0.0 : v; });
  b.Add(b.Transposed());
  const la::SparseMatrix big = Csr(b);
  for (int pool : {1, 4}) {
    ScopedNumThreads threads(pool);
    for (LaplacianKind kind : kAllKinds) {
      SCOPED_TRACE(std::string(LaplacianKindName(kind)) + ", pool " +
                   std::to_string(pool));
      ExpectSameCsr(BuildSparseLaplacian(w, kind).value(),
                    ReferenceTripletLaplacian(w, kind));
      ExpectSameCsr(BuildSparseLaplacian(big, kind).value(),
                    ReferenceTripletLaplacian(big, kind));
    }
  }
  // The unnormalised row 4 is −3 + 3 = 0 throughout: no entry is stored.
  const la::SparseMatrix l =
      BuildSparseLaplacian(w, LaplacianKind::kUnnormalized).value();
  EXPECT_EQ(l.row_offsets()[5] - l.row_offsets()[4], 0u);
}

TEST(Laplacian, SparseOutputHandlesIsolatedVertices) {
  // Vertex 2 has no edges: normalised variants must leave its row (and
  // diagonal) empty, the unnormalised variant stores no explicit zero.
  std::vector<la::Triplet> trips = {{0, 1, 2.0}, {1, 0, 2.0}};
  la::SparseMatrix w = la::SparseMatrix::FromTriplets(3, 3, trips);
  for (LaplacianKind kind : kAllKinds) {
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
  Result<la::Matrix> l = BuildLaplacian(Csr(w), LaplacianKind::kUnnormalized);
  ASSERT_TRUE(l.ok());
  Result<la::EigenSymResult> eig = la::EigenSym(l.value());
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig.value().eigenvalues[0], 0.0, 1e-10);
  EXPECT_NEAR(eig.value().eigenvalues[1], 0.0, 1e-10);
  EXPECT_GT(eig.value().eigenvalues[2], 0.5);
}

TEST(Laplacian, RejectsNonSquare) {
  EXPECT_FALSE(BuildLaplacian(la::SparseMatrix::FromTriplets(2, 3, {}),
                              LaplacianKind::kUnnormalized).ok());
}

}  // namespace
}  // namespace graph
}  // namespace rhchme
