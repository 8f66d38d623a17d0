// Unit tests for the CSR SparseMatrix: build/round-trip correctness,
// products and reductions against dense references, value mutators,
// bit-stability across thread counts, and bit-identity of the
// register-strip product with the per-nonzero Axpy loop it replaced.

#include "la/sparse.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "la/gemm.h"
#include "la/simd.h"
#include "matrix_oracles.h"
#include "scoped_num_threads.h"
#include "util/rng.h"

namespace rhchme {
namespace la {
namespace {

using testing_reference::MaxAbsDiff;
using testing_reference::TraceGtLG;

/// Random rectangular matrix sparsified to roughly `density`.
Matrix RandomSparseDense(std::size_t r, std::size_t c, double density,
                         uint64_t seed) {
  Rng rng(seed);
  Matrix m = Matrix::RandomUniform(r, c, &rng);
  m.Apply([&](double v) { return v < 1.0 - density ? 0.0 : v; });
  return m;
}

TEST(Sparse, EmptyMatrix) {
  SparseMatrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_EQ(m.Density(), 0.0);
}

TEST(Sparse, FromTripletsBasic) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      3, 4, {{0, 1, 2.0}, {2, 3, -1.0}, {1, 0, 5.0}});
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_EQ(m.At(0, 1), 2.0);
  EXPECT_EQ(m.At(2, 3), -1.0);
  EXPECT_EQ(m.At(1, 0), 5.0);
  EXPECT_EQ(m.At(0, 0), 0.0);
}

TEST(Sparse, DuplicatesAreSummed) {
  SparseMatrix m =
      SparseMatrix::FromTriplets(2, 2, {{0, 0, 1.0}, {0, 0, 2.5}});
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_EQ(m.At(0, 0), 3.5);
}

TEST(Sparse, ZerosArePruned) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0}, {0, 0, -1.0}, {1, 1, 0.0}});
  EXPECT_EQ(m.nnz(), 0u);
}

TEST(Sparse, DenseRoundTrip) {
  Rng rng(1);
  Matrix dense = Matrix::RandomUniform(6, 9, &rng);
  // Sparsify a bit.
  dense.Apply([](double v) { return v < 0.6 ? 0.0 : v; });
  SparseMatrix sparse = SparseMatrix::FromDense(dense);
  EXPECT_LT(MaxAbsDiff(sparse.ToDense(), dense), 1e-15);
}

TEST(Sparse, FromDenseWithPruneTolerance) {
  Matrix dense = Matrix::FromRows({{0.5, 0.01}, {0.0, 2.0}});
  SparseMatrix sparse = SparseMatrix::FromDense(dense, 0.1);
  EXPECT_EQ(sparse.nnz(), 2u);
  EXPECT_EQ(sparse.At(0, 1), 0.0);
}

TEST(Sparse, Density) {
  SparseMatrix m = SparseMatrix::FromTriplets(4, 5, {{0, 0, 1.0}, {3, 4, 1.0}});
  EXPECT_DOUBLE_EQ(m.Density(), 2.0 / 20.0);
}

TEST(Sparse, MultiplyDenseMatchesDense) {
  Rng rng(4);
  Matrix a = Matrix::RandomUniform(6, 5, &rng);
  a.Apply([](double v) { return v < 0.5 ? 0.0 : v; });
  Matrix b = Matrix::RandomNormal(5, 3, &rng);
  SparseMatrix sparse = SparseMatrix::FromDense(a);
  EXPECT_LT(MaxAbsDiff(sparse.MultiplyDense(b), Multiply(a, b)), 1e-12);
}

TEST(Sparse, RowNormsSquaredMatchDense) {
  Rng rng(31);
  Matrix dense = RandomSparseDense(7, 9, 0.4, 31);
  SparseMatrix sparse = SparseMatrix::FromDense(dense);
  std::vector<double> got = sparse.RowNormsSquared();
  ASSERT_EQ(got.size(), 7u);
  for (std::size_t i = 0; i < 7; ++i) {
    double expected = 0.0;
    for (std::size_t j = 0; j < 9; ++j) expected += dense(i, j) * dense(i, j);
    EXPECT_NEAR(got[i], expected, 1e-12) << "row " << i;
  }
}

TEST(Sparse, RowNormsSquaredEmptyAndZeroRows) {
  EXPECT_TRUE(SparseMatrix().RowNormsSquared().empty());
  SparseMatrix m = SparseMatrix::FromTriplets(3, 3, {{0, 1, 2.0}});
  std::vector<double> norms = m.RowNormsSquared();
  EXPECT_EQ(norms[0], 4.0);
  EXPECT_EQ(norms[1], 0.0);
  EXPECT_EQ(norms[2], 0.0);
}

TEST(Sparse, FromCsrAdoptsValidArrays) {
  // [[0 2 0], [0 0 0], [1 0 3]] handed over as raw CSR.
  Result<SparseMatrix> m =
      SparseMatrix::FromCsr(3, 3, {0, 1, 1, 3}, {1, 0, 2}, {2.0, 1.0, 3.0});
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m.value().nnz(), 3u);
  EXPECT_EQ(m.value().At(0, 1), 2.0);
  EXPECT_EQ(m.value().At(2, 0), 1.0);
  EXPECT_EQ(m.value().At(2, 2), 3.0);
  EXPECT_EQ(m.value().At(1, 1), 0.0);
  // Same arrays as the triplet builder.
  const SparseMatrix t = SparseMatrix::FromTriplets(
      3, 3, {{2, 2, 3.0}, {0, 1, 2.0}, {2, 0, 1.0}});
  EXPECT_EQ(m.value().row_offsets(), t.row_offsets());
  EXPECT_EQ(m.value().col_indices(), t.col_indices());
  EXPECT_EQ(m.value().values(), t.values());
  // Empty shapes are fine.
  EXPECT_TRUE(SparseMatrix::FromCsr(0, 0, {0}, {}, {}).ok());
}

TEST(Sparse, FromCsrRejectsMalformedArrays) {
  auto code = [](std::size_t rows, std::size_t cols,
                 std::vector<std::size_t> offsets,
                 std::vector<std::size_t> col_idx, std::vector<double> vals) {
    return SparseMatrix::FromCsr(rows, cols, std::move(offsets),
                                 std::move(col_idx), std::move(vals))
        .status()
        .code();
  };
  const StatusCode bad = StatusCode::kInvalidArgument;
  EXPECT_EQ(code(2, 2, {0, 1}, {0}, {1.0}), bad);           // Short offsets.
  EXPECT_EQ(code(2, 2, {1, 1, 1}, {0}, {1.0}), bad);        // Not from 0.
  EXPECT_EQ(code(2, 2, {0, 2, 1}, {0}, {1.0}), bad);        // Decreasing.
  EXPECT_EQ(code(2, 2, {0, 1, 2}, {0}, {1.0, 2.0}), bad);   // Short cols.
  EXPECT_EQ(code(2, 2, {0, 1, 2}, {0, 1}, {1.0}), bad);     // Short values.
  EXPECT_EQ(code(2, 2, {0, 1, 1}, {2}, {1.0}), bad);        // Column range.
  EXPECT_EQ(code(1, 3, {0, 2}, {1, 1}, {1.0, 2.0}), bad);   // Duplicate.
  EXPECT_EQ(code(1, 3, {0, 2}, {2, 0}, {1.0, 2.0}), bad);   // Unsorted.
}

TEST(Sparse, RowSumsMatchDense) {
  Rng rng(6);
  Matrix dense = Matrix::RandomUniform(5, 5, &rng);
  SparseMatrix sparse = SparseMatrix::FromDense(dense);
  std::vector<double> expected = dense.RowSums();
  std::vector<double> got = sparse.RowSums();
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(got[i], expected[i], 1e-12);
}

TEST(Sparse, UnsortedTripletsAreOrdered) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      3, 3, {{2, 2, 1.0}, {0, 2, 2.0}, {0, 0, 3.0}, {1, 1, 4.0}});
  // CSR row offsets must be monotone and consistent.
  const auto& offsets = m.row_offsets();
  ASSERT_EQ(offsets.size(), 4u);
  EXPECT_EQ(offsets[0], 0u);
  EXPECT_EQ(offsets[3], 4u);
  for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
    EXPECT_LE(offsets[i], offsets[i + 1]);
  }
  EXPECT_EQ(m.At(0, 0), 3.0);
  EXPECT_EQ(m.At(0, 2), 2.0);
}

/// The per-nonzero loop MultiplyDenseInto ran before the row kernel: a
/// zeroed output row, then one Axpy per stored entry of the
/// (row_offsets, idx, vals) row in ascending order.
Matrix AxpyLoopProduct(std::size_t out_rows,
                       const std::vector<std::size_t>& offsets,
                       const std::vector<std::size_t>& idx,
                       const std::vector<double>& vals, const Matrix& b) {
  Matrix c(out_rows, b.cols());
  for (std::size_t i = 0; i < out_rows; ++i) {
    for (std::size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      simd::scalar::Axpy(vals[k], b.row_ptr(idx[k]), c.row_ptr(i), b.cols());
    }
  }
  return c;
}

/// Bitwise equality of the logical entries (distinguishes −0.0 from +0.0).
bool SameBits(const Matrix& x, const Matrix& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    if (std::memcmp(x.row_ptr(i), y.row_ptr(i), x.cols() * sizeof(double)) !=
        0) {
      return false;
    }
  }
  return true;
}

TEST(SparseProducts, RowKernelIsBitIdenticalToThePerNonzeroAxpyLoop) {
  // The CSR forward product on the dispatched spmm_rows kernel at the
  // solver's widths (c = 9 block world, 24 tf-idf, 30 D presets) and
  // around the 32-column strip, at pool sizes 1 and 4. Rows 0 and 5 of A
  // and column 3 are empty.
  Matrix a = RandomSparseDense(157, 143, 0.3, 41);
  for (std::size_t j = 0; j < a.cols(); ++j) a(0, j) = a(5, j) = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) a(i, 3) = 0.0;
  SparseMatrix fwd = SparseMatrix::FromDense(a);
  for (std::size_t c : {1, 9, 24, 30, 33, 100}) {
    Rng rng(500 + c);
    const Matrix b = Matrix::RandomUniform(a.cols(), c, &rng, -1.0, 1.0);
    const Matrix want = AxpyLoopProduct(a.rows(), fwd.row_offsets(),
                                        fwd.col_indices(), fwd.values(), b);
    for (int pool : {1, 4}) {
      ScopedNumThreads threads(pool);
      Matrix got;
      fwd.MultiplyDenseInto(b, &got);
      EXPECT_TRUE(SameBits(got, want))
          << simd::IsaName() << " A·B c=" << c << " pool=" << pool;
    }
  }
}

TEST(Sparse, ScaleMultipliesEveryValue) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0}, {0, 1, 2.0}, {1, 1, 3.0}});
  m.Scale(2.0);
  EXPECT_EQ(m.At(0, 1), 4.0);
}

// ---- ±-split and Sandwich (memory-lean solver algebra) ---------------------

TEST(Sparse, PositiveAndNegativePartsMatchDense) {
  Rng rng(41);
  Matrix d = Matrix::RandomNormal(7, 9, &rng);
  d.Apply([](double v) { return std::fabs(v) < 0.8 ? 0.0 : v; });
  SparseMatrix m = SparseMatrix::FromDense(d);
  SparseMatrix pos = PositivePart(m);
  SparseMatrix neg = NegativePart(m);
  EXPECT_EQ(MaxAbsDiff(pos.ToDense(), PositivePart(d)), 0.0);
  EXPECT_EQ(MaxAbsDiff(neg.ToDense(), NegativePart(d)), 0.0);
  // The split partitions the pattern: pos and neg together hold exactly
  // m's nonzeros, and both are entrywise nonnegative.
  EXPECT_EQ(pos.nnz() + neg.nnz(), m.nnz());
  for (double v : pos.values()) EXPECT_GT(v, 0.0);
  for (double v : neg.values()) EXPECT_GT(v, 0.0);
}

TEST(Sparse, PartsOfEmptyMatrixAreEmpty) {
  SparseMatrix m;
  EXPECT_EQ(PositivePart(m).nnz(), 0u);
  EXPECT_EQ(NegativePart(m).nnz(), 0u);
}

TEST(Sparse, SandwichMatchesTheDenseTripleLoop) {
  Rng rng(42);
  const std::size_t n = 24, c = 5;
  Matrix l_dense = RandomSparseDense(n, n, 0.3, 43);
  SparseMatrix l = SparseMatrix::FromDense(l_dense);
  Matrix g = Matrix::RandomUniform(n, c, &rng);
  EXPECT_NEAR(Sandwich(g, l), TraceGtLG(g, l_dense), 1e-10);
}

TEST(Sparse, SandwichEmptyIsZero) {
  EXPECT_EQ(Sandwich(Matrix(), SparseMatrix()), 0.0);
  SparseMatrix l = SparseMatrix::FromTriplets(4, 4, {});
  EXPECT_EQ(Sandwich(Matrix(4, 3), l), 0.0);
}

TEST(Sparse, SandwichIsBitStableAcrossThreadCounts) {
  const std::size_t n = 400, c = 12;
  Matrix l_dense = RandomSparseDense(n, n, 0.05, 44);
  SparseMatrix l = SparseMatrix::FromDense(l_dense);
  Rng rng(45);
  Matrix g = Matrix::RandomUniform(n, c, &rng);
  auto run = [&](int threads) {
    ScopedNumThreads scoped(threads);
    return Sandwich(g, l);
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(Sparse, CopyIsUnchangedWhenTheOriginalIsScaled) {
  Matrix a = RandomSparseDense(6, 6, 0.5, 40);
  SparseMatrix original = SparseMatrix::FromDense(a);
  SparseMatrix copy = original;
  original.Scale(0.0);
  EXPECT_EQ(MaxAbsDiff(copy.ToDense(), a), 0.0);
}

}  // namespace
}  // namespace la
}  // namespace rhchme
