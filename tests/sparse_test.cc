// Unit tests for the CSR SparseMatrix and its CSC mirror: build/round-trip
// correctness, transposed products on both the gather (CSC) and scatter
// (per-chunk accumulator) paths, mutation-triggered mirror invalidation,
// bit-stability of the products across thread counts, and bit-identity
// of the register-strip products with the per-nonzero Axpy loop they
// replaced.

#include "la/sparse.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "la/gemm.h"
#include "la/simd.h"
#include "scoped_num_threads.h"
#include "util/rng.h"

namespace rhchme {
namespace la {
namespace {

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

TEST(Sparse, TransposeMatchesDense) {
  Rng rng(2);
  Matrix dense = Matrix::RandomUniform(5, 8, &rng);
  dense.Apply([](double v) { return v < 0.5 ? 0.0 : v; });
  SparseMatrix sparse = SparseMatrix::FromDense(dense);
  EXPECT_LT(MaxAbsDiff(sparse.Transposed().ToDense(), dense.Transposed()),
            1e-15);
}

TEST(Sparse, MultiplyVecMatchesDense) {
  Rng rng(3);
  Matrix dense = Matrix::RandomUniform(7, 4, &rng);
  dense.Apply([](double v) { return v < 0.4 ? 0.0 : v; });
  SparseMatrix sparse = SparseMatrix::FromDense(dense);
  std::vector<double> x = {1.0, -2.0, 0.5, 3.0};
  std::vector<double> expected = MultiplyVec(dense, x);
  std::vector<double> got = sparse.MultiplyVec(x);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(got[i], expected[i], 1e-12);
  }
}

TEST(Sparse, MultiplyDenseMatchesDense) {
  Rng rng(4);
  Matrix a = Matrix::RandomUniform(6, 5, &rng);
  a.Apply([](double v) { return v < 0.5 ? 0.0 : v; });
  Matrix b = Matrix::RandomNormal(5, 3, &rng);
  SparseMatrix sparse = SparseMatrix::FromDense(a);
  EXPECT_LT(MaxAbsDiff(sparse.MultiplyDense(b), Multiply(a, b)), 1e-12);
}

TEST(Sparse, MultiplyTransposedDenseMatchesDense) {
  Rng rng(5);
  Matrix a = Matrix::RandomUniform(6, 5, &rng);
  a.Apply([](double v) { return v < 0.5 ? 0.0 : v; });
  Matrix b = Matrix::RandomNormal(6, 2, &rng);
  SparseMatrix sparse = SparseMatrix::FromDense(a);
  Matrix got;
  sparse.MultiplyTransposedDenseInto(b, &got);
  EXPECT_LT(MaxAbsDiff(got, Multiply(a.Transposed(), b)), 1e-12);
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

TEST(Sparse, NormAndSum) {
  SparseMatrix m = SparseMatrix::FromTriplets(2, 2, {{0, 0, 3.0}, {1, 1, 4.0}});
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 5.0);
  EXPECT_DOUBLE_EQ(m.Sum(), 7.0);
}

TEST(Sparse, SymmetryCheck) {
  SparseMatrix sym = SparseMatrix::FromTriplets(
      3, 3, {{0, 1, 2.0}, {1, 0, 2.0}, {2, 2, 1.0}});
  EXPECT_TRUE(sym.IsSymmetric());
  SparseMatrix asym = SparseMatrix::FromTriplets(3, 3, {{0, 1, 2.0}});
  EXPECT_FALSE(asym.IsSymmetric());
  SparseMatrix rect = SparseMatrix::FromTriplets(2, 3, {});
  EXPECT_FALSE(rect.IsSymmetric());
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

TEST(SparseCsc, MirrorIsLazyAndCached) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      3, 4, {{0, 1, 2.0}, {2, 3, -1.0}, {1, 0, 5.0}});
  EXPECT_FALSE(m.HasCscMirror());
  const CscMirror& csc = m.BuildCscMirror();
  EXPECT_TRUE(m.HasCscMirror());
  EXPECT_EQ(&csc, &m.BuildCscMirror());  // Second call reuses the cache.
}

TEST(SparseCsc, RoundTripMatchesCsr) {
  Matrix dense = RandomSparseDense(7, 5, 0.4, 31);
  SparseMatrix sparse = SparseMatrix::FromDense(dense);
  const CscMirror& csc = sparse.BuildCscMirror();
  ASSERT_EQ(csc.col_ptr.size(), 6u);
  ASSERT_EQ(csc.row_idx.size(), sparse.nnz());
  EXPECT_EQ(csc.col_ptr.front(), 0u);
  EXPECT_EQ(csc.col_ptr.back(), sparse.nnz());
  // Rebuild the dense matrix column by column; rows must ascend within
  // each column (the order the deterministic gather loops rely on).
  Matrix rebuilt(7, 5);
  for (std::size_t c = 0; c < 5; ++c) {
    for (std::size_t k = csc.col_ptr[c]; k < csc.col_ptr[c + 1]; ++k) {
      if (k > csc.col_ptr[c]) {
        EXPECT_LT(csc.row_idx[k - 1], csc.row_idx[k]);
      }
      rebuilt(csc.row_idx[k], c) = csc.values[k];
    }
  }
  EXPECT_EQ(MaxAbsDiff(rebuilt, dense), 0.0);
}

TEST(SparseCsc, EmptyAndRaggedShapes) {
  SparseMatrix empty;
  EXPECT_EQ(empty.BuildCscMirror().col_ptr.size(), 1u);

  // Ragged occupancy: empty rows, empty columns, a full row.
  SparseMatrix ragged = SparseMatrix::FromTriplets(
      4, 3, {{1, 0, 1.0}, {1, 1, 2.0}, {1, 2, 3.0}, {3, 1, 4.0}});
  const CscMirror& csc = ragged.BuildCscMirror();
  ASSERT_EQ(csc.col_ptr.size(), 4u);
  EXPECT_EQ(csc.col_ptr[1] - csc.col_ptr[0], 1u);  // Column 0: one entry.
  EXPECT_EQ(csc.col_ptr[2] - csc.col_ptr[1], 2u);  // Column 1: two.
  Matrix b = Matrix::FromRows({{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0},
                               {7.0, 8.0}});
  Matrix got;
  ragged.MultiplyTransposedDenseInto(b, &got);
  EXPECT_LT(MaxAbsDiff(got, Multiply(ragged.ToDense().Transposed(), b)),
            1e-12);

  // Zero-row / zero-column shapes keep the product well-defined.
  SparseMatrix no_rows = SparseMatrix::FromTriplets(0, 3, {});
  Matrix empty_b(0, 2);
  no_rows.MultiplyTransposedDenseInto(empty_b, &got);
  EXPECT_EQ(got.rows(), 3u);
  EXPECT_EQ(got.MaxAbs(), 0.0);
}

TEST(SparseCsc, TransposedProductGatherMatchesDense) {
  Matrix a = RandomSparseDense(9, 6, 0.5, 32);
  Matrix b = RandomSparseDense(9, 4, 1.0, 33);
  SparseMatrix sparse = SparseMatrix::FromDense(a);
  sparse.BuildCscMirror();
  Matrix got;
  sparse.MultiplyTransposedDenseInto(b, &got);
  EXPECT_LT(MaxAbsDiff(got, Multiply(a.Transposed(), b)), 1e-12);
}

TEST(SparseCsc, TransposedProductBitStableAcrossThreadCounts) {
  // Both the gather path (mirror built) and the scatter fallback must be
  // bit-identical for any pool size — the chunk layouts derive from the
  // matrix shape only.
  Matrix a = RandomSparseDense(153, 47, 0.2, 34);
  Matrix b = RandomSparseDense(153, 9, 1.0, 35);
  for (bool with_mirror : {false, true}) {
    SparseMatrix sparse = SparseMatrix::FromDense(a);
    if (with_mirror) sparse.BuildCscMirror();
    Matrix serial, threaded;
    {
      ScopedNumThreads threads(1);
      sparse.MultiplyTransposedDenseInto(b, &serial);
    }
    {
      ScopedNumThreads threads(8);
      sparse.MultiplyTransposedDenseInto(b, &threaded);
    }
    EXPECT_EQ(MaxAbsDiff(serial, threaded), 0.0)
        << "mirror=" << with_mirror;
  }
}

/// The per-nonzero loop MultiplyDenseInto and the CSC gather ran before
/// the row kernel: a zeroed output row, then one Axpy per stored entry of
/// the (row_offsets, idx, vals) row in ascending order.
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
  // Both products that run on the dispatched spmm_rows kernel — the CSR
  // forward product and the CSC gather of the transposed product — at the
  // solver's widths (c = 9 block world, 24 tf-idf, 30 D presets) and
  // around the 32-column strip, at pool sizes 1 and 4. Rows 0 and 5 of A
  // and column 3 are empty.
  Matrix a = RandomSparseDense(157, 143, 0.3, 41);
  for (std::size_t j = 0; j < a.cols(); ++j) a(0, j) = a(5, j) = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) a(i, 3) = 0.0;
  SparseMatrix fwd = SparseMatrix::FromDense(a);
  SparseMatrix gather = SparseMatrix::FromDense(a);
  const CscMirror& csc = gather.BuildCscMirror();
  for (std::size_t c : {1, 9, 24, 30, 33, 100}) {
    Rng rng(500 + c);
    const Matrix b = Matrix::RandomUniform(a.cols(), c, &rng, -1.0, 1.0);
    const Matrix bt = Matrix::RandomUniform(a.rows(), c, &rng, -1.0, 1.0);
    const Matrix want = AxpyLoopProduct(a.rows(), fwd.row_offsets(),
                                        fwd.col_indices(), fwd.values(), b);
    const Matrix want_t =
        AxpyLoopProduct(a.cols(), csc.col_ptr, csc.row_idx, csc.values, bt);
    for (int pool : {1, 4}) {
      ScopedNumThreads threads(pool);
      Matrix got, got_t;
      fwd.MultiplyDenseInto(b, &got);
      gather.MultiplyTransposedDenseInto(bt, &got_t);
      EXPECT_TRUE(SameBits(got, want))
          << simd::IsaName() << " A·B c=" << c << " pool=" << pool;
      EXPECT_TRUE(SameBits(got_t, want_t))
          << simd::IsaName() << " Aᵀ·B (CSC) c=" << c << " pool=" << pool;
    }
  }
}

TEST(SparseCsc, MultiplyTVecMatchesDenseOnBothPaths) {
  Matrix a = RandomSparseDense(11, 7, 0.4, 36);
  SparseMatrix sparse = SparseMatrix::FromDense(a);
  Rng rng(37);
  std::vector<double> x(11);
  for (double& v : x) v = rng.Uniform(-2.0, 2.0);
  std::vector<double> expected = MultiplyVec(a.Transposed(), x);

  std::vector<double> scatter = sparse.MultiplyTVec(x);  // No mirror yet.
  sparse.BuildCscMirror();
  std::vector<double> gather = sparse.MultiplyTVec(x);
  ASSERT_EQ(scatter.size(), 7u);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(scatter[i], expected[i], 1e-12);
    EXPECT_NEAR(gather[i], expected[i], 1e-12);
  }
}

TEST(SparseCsc, TransposedUsesAndCarriesMirror) {
  Matrix a = RandomSparseDense(8, 5, 0.5, 38);
  SparseMatrix sparse = SparseMatrix::FromDense(a);
  sparse.BuildCscMirror();
  SparseMatrix t = sparse.Transposed();
  // The transpose ships with the original CSR as its ready-made mirror.
  EXPECT_TRUE(t.HasCscMirror());
  EXPECT_EQ(MaxAbsDiff(t.ToDense(), a.Transposed()), 0.0);
  EXPECT_EQ(MaxAbsDiff(t.Transposed().ToDense(), a), 0.0);
}

TEST(SparseCsc, ColSumsMatchDenseOnBothPaths) {
  Matrix a = RandomSparseDense(10, 6, 0.4, 39);
  SparseMatrix sparse = SparseMatrix::FromDense(a);
  std::vector<double> expected = a.Transposed().RowSums();
  std::vector<double> scatter = sparse.ColSums();
  sparse.BuildCscMirror();
  std::vector<double> gather = sparse.ColSums();
  for (std::size_t c = 0; c < 6; ++c) {
    EXPECT_NEAR(scatter[c], expected[c], 1e-12);
    // Identical summation order on both paths — exact agreement.
    EXPECT_EQ(gather[c], scatter[c]);
  }
}

TEST(SparseCsc, ScaleInvalidatesMirror) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0}, {0, 1, 2.0}, {1, 1, 3.0}});
  m.BuildCscMirror();
  m.Scale(2.0);
  EXPECT_FALSE(m.HasCscMirror());
  EXPECT_EQ(m.At(0, 1), 4.0);
  // The rebuilt mirror sees the new values.
  Matrix b = Matrix::FromRows({{1.0}, {1.0}});
  Matrix got;
  m.BuildCscMirror();
  m.MultiplyTransposedDenseInto(b, &got);
  EXPECT_DOUBLE_EQ(got(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(got(1, 0), 10.0);
}

TEST(SparseCsc, PruneSmallInvalidatesMirrorAndDropsEntries) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      3, 3, {{0, 0, 1.0}, {0, 2, 1e-14}, {1, 1, -2.0}, {2, 0, 1e-15}});
  m.BuildCscMirror();
  EXPECT_EQ(m.PruneSmall(1e-12), 2u);
  EXPECT_FALSE(m.HasCscMirror());
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_EQ(m.At(0, 2), 0.0);
  EXPECT_EQ(m.At(0, 0), 1.0);
  EXPECT_EQ(m.At(1, 1), -2.0);
  // Row offsets stay consistent after compaction.
  EXPECT_EQ(m.row_offsets().back(), 2u);
  EXPECT_EQ(m.BuildCscMirror().col_ptr.back(), 2u);
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

TEST(Sparse, SandwichMatchesDenseKernel) {
  Rng rng(42);
  const std::size_t n = 24, c = 5;
  Matrix l_dense = RandomSparseDense(n, n, 0.3, 43);
  SparseMatrix l = SparseMatrix::FromDense(l_dense);
  Matrix g = Matrix::RandomUniform(n, c, &rng);
  EXPECT_NEAR(Sandwich(g, l), Sandwich(g, l_dense), 1e-10);
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

TEST(SparseCsc, CopySharesMirrorAndMutationDetaches) {
  Matrix a = RandomSparseDense(6, 6, 0.5, 40);
  SparseMatrix original = SparseMatrix::FromDense(a);
  original.BuildCscMirror();
  SparseMatrix copy = original;
  EXPECT_TRUE(copy.HasCscMirror());
  // Mutating the original must not disturb the copy's mirror or values.
  original.Scale(0.0);
  EXPECT_TRUE(copy.HasCscMirror());
  EXPECT_EQ(MaxAbsDiff(copy.ToDense(), a), 0.0);
}

}  // namespace
}  // namespace la
}  // namespace rhchme
