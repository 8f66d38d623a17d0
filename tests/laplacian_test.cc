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

constexpr LaplacianKind kSym = LaplacianKind::kSymmetric;

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

TEST(Laplacian, SymmetricNormalizedDiagonalIsOne) {
  Result<la::Matrix> l = BuildLaplacian(PathAffinity(), kSym);
  ASSERT_TRUE(l.ok());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(l.value()(i, i), 1.0);
  }
  // Off-diagonal: -1/sqrt(d_i d_j) = -1/sqrt(2).
  EXPECT_NEAR(l.value()(0, 1), -1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(l.value()(0, 2), 0.0);
}

/// A symmetric affinity with zero diagonal and positive degrees.
la::Matrix RandomAffinity(std::size_t n, uint64_t seed) {
  Rng rng(seed);
  la::Matrix b = la::Matrix::RandomUniform(n, n, &rng);
  la::Matrix w = b;
  w.Add(b.Transposed());
  for (std::size_t i = 0; i < n; ++i) w(i, i) = 0.0;
  return w;
}

TEST(Laplacian, IsPSD) {
  Result<la::Matrix> l = BuildLaplacian(Csr(RandomAffinity(10, 2)), kSym);
  ASSERT_TRUE(l.ok());
  Result<la::EigenSymResult> eig = la::EigenSym(l.value());
  ASSERT_TRUE(eig.ok());
  EXPECT_GE(eig.value().eigenvalues.front(), -1e-9);
}

TEST(Laplacian, RootDegreeVectorInNullspace) {
  // L·D^{1/2}·1 = D^{1/2}·1 − D^{-1/2}·W·1 = 0.
  const la::Matrix w = RandomAffinity(8, 3);
  Result<la::Matrix> l = BuildLaplacian(Csr(w), kSym);
  ASSERT_TRUE(l.ok());
  const std::vector<double> deg = w.RowSums();
  for (std::size_t i = 0; i < 8; ++i) {
    double v = 0.0;
    for (std::size_t j = 0; j < 8; ++j) {
      v += l.value()(i, j) * std::sqrt(deg[j]);
    }
    EXPECT_NEAR(v, 0.0, 1e-10);
  }
}

TEST(Laplacian, IsolatedVertexHandledGracefully) {
  // Vertex 2 has no edges; the normalisation must not divide by zero.
  la::Matrix w = la::Matrix::FromRows({{0, 1, 0}, {1, 0, 0}, {0, 0, 0}});
  Result<la::Matrix> l = BuildLaplacian(Csr(w), kSym);
  ASSERT_TRUE(l.ok());
  EXPECT_TRUE(l.value().AllFinite());
  EXPECT_DOUBLE_EQ(l.value()(2, 2), 0.0);
}

TEST(Laplacian, MatchesTheDenseReference) {
  // The dense rule on W and the CSR rule on FromDense(W) give the same
  // values: FromDense of the dense L is the sparse L byte for byte.
  la::Matrix w = RandomAffinity(9, 4);
  w.Apply([](double v) { return v < 0.8 ? 0.0 : v; });
  const la::Matrix want = ReferenceDenseLaplacian(w);
  Result<la::Matrix> dense = BuildLaplacian(Csr(w), kSym);
  Result<la::SparseMatrix> lean = BuildSparseLaplacian(Csr(w), kSym);
  ASSERT_TRUE(dense.ok());
  ASSERT_TRUE(lean.ok());
  EXPECT_EQ(MaxAbsDiff(dense.value(), want), 0.0);
  ExpectSameCsr(lean.value(), Csr(want));
}

TEST(Laplacian, SparseOutputMatchesTheTripletBuild) {
  la::Matrix w = RandomAffinity(12, 11);
  w.Apply([](double v) { return v < 1.2 ? 0.0 : v; });
  la::SparseMatrix sparse = Csr(w);
  Result<la::SparseMatrix> lean = BuildSparseLaplacian(sparse, kSym);
  ASSERT_TRUE(lean.ok());
  ExpectSameCsr(lean.value(), ReferenceTripletLaplacian(sparse));
  // The sparse result never widens beyond W's pattern plus the diagonal.
  EXPECT_LE(lean.value().nnz(), sparse.nnz() + 12u);
}

TEST(Laplacian, DirectCsrMatchesTheTripletBuildByteForByte) {
  // Row 0: a self-loop next to ordinary edges. Row 1: an explicit zero
  // and a −0.0 among its edges. Row 2: no entries (zero degree). Row 3:
  // entries that sum to a zero degree. Row 4: only a self-loop, whose
  // term is summed with the diagonal. Row 5: edges before the diagonal
  // only.
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
    SCOPED_TRACE("pool " + std::to_string(pool));
    ExpectSameCsr(BuildSparseLaplacian(w, kSym).value(),
                  ReferenceTripletLaplacian(w));
    ExpectSameCsr(BuildSparseLaplacian(big, kSym).value(),
                  ReferenceTripletLaplacian(big));
  }
}

TEST(Laplacian, SparseOutputHandlesIsolatedVertices) {
  // Vertex 2 has no edges: its row (and diagonal) stays empty.
  std::vector<la::Triplet> trips = {{0, 1, 2.0}, {1, 0, 2.0}};
  la::SparseMatrix w = la::SparseMatrix::FromTriplets(3, 3, trips);
  Result<la::SparseMatrix> l = BuildSparseLaplacian(w, kSym);
  ASSERT_TRUE(l.ok());
  EXPECT_EQ(l.value().row_offsets()[3] - l.value().row_offsets()[2], 0u);
}

TEST(Laplacian, SparseOutputRejectsNonSquare) {
  la::SparseMatrix w = la::SparseMatrix::FromTriplets(2, 3, {{0, 1, 1.0}});
  EXPECT_FALSE(BuildSparseLaplacian(w, kSym).ok());
}

TEST(Laplacian, ConnectedComponentsShowInSpectrum) {
  // Two disjoint edges -> two zero eigenvalues.
  la::Matrix w(4, 4);
  w(0, 1) = w(1, 0) = 1.0;
  w(2, 3) = w(3, 2) = 1.0;
  Result<la::Matrix> l = BuildLaplacian(Csr(w), kSym);
  ASSERT_TRUE(l.ok());
  Result<la::EigenSymResult> eig = la::EigenSym(l.value());
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig.value().eigenvalues[0], 0.0, 1e-10);
  EXPECT_NEAR(eig.value().eigenvalues[1], 0.0, 1e-10);
  EXPECT_GT(eig.value().eigenvalues[2], 0.5);
}

TEST(Laplacian, RejectsNonSquare) {
  EXPECT_FALSE(
      BuildLaplacian(la::SparseMatrix::FromTriplets(2, 3, {}), kSym).ok());
}

}  // namespace
}  // namespace graph
}  // namespace rhchme
