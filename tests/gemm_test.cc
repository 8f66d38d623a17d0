// Unit and property tests for the GEMM kernels.

#include "la/gemm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <utility>

#include "la/simd.h"
#include "multiply_tn_stream.h"
#include "scoped_num_threads.h"
#include "util/rng.h"

namespace rhchme {
namespace la {
namespace {

/// Reference triple-loop product for validating the optimised kernels.
Matrix NaiveMultiply(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      c(i, j) = acc;
    }
  }
  return c;
}

TEST(Gemm, HandComputedProduct) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = Multiply(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Gemm, IdentityIsNeutral) {
  Rng rng(1);
  Matrix a = Matrix::RandomUniform(6, 6, &rng);
  EXPECT_LT(MaxAbsDiff(Multiply(a, Matrix::Identity(6)), a), 1e-15);
  EXPECT_LT(MaxAbsDiff(Multiply(Matrix::Identity(6), a), a), 1e-15);
}

/// Property sweep over shapes: all kernel variants agree with the naive
/// reference and with each other through transposes.
class GemmShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeTest, VariantsAgreeWithNaive) {
  auto [m, k, n] = GetParam();
  Rng rng(100 + m * 31 + k * 7 + n);
  Matrix a = Matrix::RandomNormal(m, k, &rng);
  Matrix b = Matrix::RandomNormal(k, n, &rng);
  Matrix expected = NaiveMultiply(a, b);

  EXPECT_LT(MaxAbsDiff(Multiply(a, b), expected), 1e-10);
  EXPECT_LT(MaxAbsDiff(MultiplyTN(a.Transposed(), b), expected), 1e-10);
  EXPECT_LT(MaxAbsDiff(MultiplyNT(a, b.Transposed()), expected), 1e-10);
}

TEST_P(GemmShapeTest, TransposeIdentity) {
  auto [m, k, n] = GetParam();
  Rng rng(200 + m + k + n);
  Matrix a = Matrix::RandomNormal(m, k, &rng);
  Matrix b = Matrix::RandomNormal(k, n, &rng);
  // (A·B)ᵀ = Bᵀ·Aᵀ.
  Matrix lhs = Multiply(a, b).Transposed();
  Matrix rhs = Multiply(b.Transposed(), a.Transposed());
  EXPECT_LT(MaxAbsDiff(lhs, rhs), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 2),
                      std::make_tuple(8, 1, 8), std::make_tuple(2, 9, 7),
                      std::make_tuple(16, 16, 16),
                      std::make_tuple(33, 17, 5)));

// Ragged shapes that stress the blocked kernels' tile edges: degenerate
// 1x1, single-row against a wide reduction, tall-and-skinny panels that
// straddle row-panel boundaries, wide outputs that straddle the column
// tile, reduction dims straddling the k tile, and empty matrices.
INSTANTIATE_TEST_SUITE_P(
    RaggedShapes, GemmShapeTest,
    ::testing::Values(std::make_tuple(1, 300, 1),     // 1xk row vector
                      std::make_tuple(1, 7, 90),      // single-row output
                      std::make_tuple(130, 3, 2),     // tall: > kRowPanel rows
                      std::make_tuple(2, 3, 1000),    // wide: > kBlockJ cols
                      std::make_tuple(5, 200, 5),     // k > kBlockK
                      std::make_tuple(65, 65, 65),    // off-by-one vs tiles
                      std::make_tuple(0, 0, 0),       // fully empty
                      std::make_tuple(0, 4, 3),       // empty output rows
                      std::make_tuple(3, 0, 4)));     // empty reduction

// Microtile edges of the packed SIMD kernel: row counts straddling the
// 4-row register tile, column counts straddling the vector-panel width
// (kNr = 8 on AVX2) and the column block, and reduction depths
// straddling the k tile.
INSTANTIATE_TEST_SUITE_P(
    MicroTileEdges, GemmShapeTest,
    ::testing::Values(std::make_tuple(4, 64, 8),      // exact 4 x kNr tiles
                      std::make_tuple(5, 64, 9),      // +1 row, +1 col
                      std::make_tuple(3, 63, 7),      // -1 of everything
                      std::make_tuple(37, 70, 23),    // nothing divides
                      std::make_tuple(4, 1, 8),       // minimal reduction
                      std::make_tuple(34, 129, 260)));  // tails in all dims

TEST(Gemm, EmptyReductionYieldsZeroMatrix) {
  Matrix a(4, 0);
  Matrix b(0, 6);
  Matrix c = Multiply(a, b);
  EXPECT_EQ(c.rows(), 4u);
  EXPECT_EQ(c.cols(), 6u);
  EXPECT_EQ(c.MaxAbs(), 0.0);
}

TEST(Gemm, AssociativityProperty) {
  Rng rng(3);
  Matrix a = Matrix::RandomNormal(6, 4, &rng);
  Matrix b = Matrix::RandomNormal(4, 5, &rng);
  Matrix c = Matrix::RandomNormal(5, 3, &rng);
  Matrix lhs = Multiply(Multiply(a, b), c);
  Matrix rhs = Multiply(a, Multiply(b, c));
  EXPECT_LT(MaxAbsDiff(lhs, rhs), 1e-10);
}

TEST(Gemm, GramMatchesExplicitProduct) {
  Rng rng(4);
  Matrix a = Matrix::RandomNormal(9, 6, &rng);
  Matrix expected = Multiply(a.Transposed(), a);
  Matrix g = Gram(a);
  EXPECT_LT(MaxAbsDiff(g, expected), 1e-10);
  // Symmetry.
  EXPECT_LT(MaxAbsDiff(g, g.Transposed()), 1e-15);
}

TEST(Gemm, MultiplyIntoReusesBuffer) {
  Rng rng(5);
  Matrix a = Matrix::RandomNormal(4, 4, &rng);
  Matrix b = Matrix::RandomNormal(4, 4, &rng);
  Matrix c(2, 2, 99.0);  // Wrong shape, stale contents.
  MultiplyInto(a, b, &c);
  EXPECT_LT(MaxAbsDiff(c, NaiveMultiply(a, b)), 1e-10);
}

TEST(Gemm, MultiplyRowsIntoMatchesMultiplyIntoForAnyRange) {
  // In every 32-row panel the first 16 rows are dense and the rest hold
  // one nonzero each: a whole panel is under half zero (packed path), its
  // last 16 rows alone are mostly zero (zero-skip path), and the two
  // paths round differently. A row range that cuts a panel must still get
  // the whole panel's path — the bits MultiplyInto gives those rows.
  Rng rng(31);
  for (std::size_t k : {9, 70}) {
    for (std::size_t n : {9, 40}) {
      const std::size_t m = 100;
      Matrix a(m, k);
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t l = 0; l < k; ++l) {
          if (i % 32 < 16 || l == i % k) a(i, l) = rng.Uniform(-1.0, 1.0);
        }
      }
      const Matrix b = Matrix::RandomUniform(k, n, &rng, -1.0, 1.0);
      Matrix whole;
      MultiplyInto(a, b, &whole);
      for (const auto& [r0, r1] : {std::pair<std::size_t, std::size_t>{0, m},
                                   {16, 32}, {20, 21}, {5, 37}, {33, 100},
                                   {96, 100}, {40, 40}}) {
        Matrix part(m, n, -7.5);
        MultiplyRowsInto(a, b, &part, r0, r1);
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            const double want = i >= r0 && i < r1 ? whole(i, j) : -7.5;
            ASSERT_EQ(std::memcmp(&part(i, j), &want, sizeof(double)), 0)
                << "k=" << k << " n=" << n << " rows [" << r0 << "," << r1
                << ") at (" << i << "," << j << ")";
          }
        }
      }
    }
  }
}

TEST(Gemm, VectorProducts) {
  Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  std::vector<double> x = {1, 1, 1};
  EXPECT_EQ(MultiplyVec(a, x), (std::vector<double>{6, 15}));
  std::vector<double> y = {1, 2};
  EXPECT_EQ(MultiplyTVec(a, y), (std::vector<double>{9, 12, 15}));
}

TEST(Gemm, FrobeniusInnerMatchesTrace) {
  Rng rng(6);
  Matrix a = Matrix::RandomNormal(5, 7, &rng);
  Matrix b = Matrix::RandomNormal(5, 7, &rng);
  // <A, B>_F = tr(Aᵀ B).
  double expected = Multiply(a.Transposed(), b).Trace();
  EXPECT_NEAR(FrobeniusInner(a, b), expected, 1e-10);
}

/// B with each entry kept (uniform in [-1, 1)) with probability `keep`
/// and exactly zero otherwise.
Matrix SparseRandom(std::size_t rows, std::size_t cols, double keep,
                    Rng* rng) {
  Matrix b(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      const double v = rng->Uniform(-1.0, 1.0);
      if (rng->Uniform() < keep) b(i, j) = v;
    }
  }
  return b;
}

/// C(i,j) = the dispatched table's dense dot of row i of A and row j of
/// B: what the dense MultiplyNTInto path computes.
Matrix DenseDotNT(const Matrix& a, const Matrix& b) {
  const simd::KernelTable& kt = simd::Table();
  Matrix c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      c(i, j) = kt.dot(a.row_ptr(i), b.row_ptr(j), a.cols());
    }
  }
  return c;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  if (!a.SameShape(b)) return false;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    if (std::memcmp(a.row_ptr(i), b.row_ptr(i), a.cols() * sizeof(double)) !=
        0) {
      return false;
    }
  }
  return true;
}

// The sparse path of MultiplyNTInto (mostly-zero B: one dot_sparse per
// entry over row j's nonzeros) is the dense path bit for bit, on both
// sides of the 50% rule, at every tail shape of the reduction length,
// for A with signed zeros, and for any pool size.
TEST(Gemm, SparseNTPathIsBitIdenticalToTheDensePath) {
  Rng rng(41);
  for (std::size_t k : {1, 7, 16, 64, 77, 300}) {
    for (double keep : {0.02, 0.3, 0.5, 0.9}) {
      Matrix a = Matrix::RandomNormal(45, k, &rng);
      a(3, 0) = -0.0;
      const Matrix b = SparseRandom(70, k, keep, &rng);
      const Matrix want = DenseDotNT(a, b);
      for (int threads : {1, 4}) {
        ScopedNumThreads scoped(threads);
        EXPECT_TRUE(SameBits(MultiplyNT(a, b), want))
            << "k=" << k << " keep=" << keep << " threads=" << threads;
      }
      // The Gram shape the subspace learner takes: A = B.
      EXPECT_TRUE(SameBits(MultiplyNT(b, b), DenseDotNT(b, b)))
          << "gram k=" << k << " keep=" << keep;
    }
  }
}

// A non-finite operand keeps the dense path, where 0·Inf = NaN enters
// the dot as it should.
TEST(Gemm, SparseNTPathLeavesNonFiniteOperandsToTheDensePath) {
  Rng rng(42);
  Matrix a = Matrix::RandomNormal(5, 40, &rng);
  const Matrix b = SparseRandom(6, 40, 0.05, &rng);
  a(2, 39) = std::numeric_limits<double>::infinity();
  const Matrix c = MultiplyNT(a, b);
  for (std::size_t j = 0; j < b.rows(); ++j) {
    EXPECT_EQ(std::isnan(c(2, j)), std::isnan(DenseDotNT(a, b)(2, j)));
  }
}

TEST(Gemm, StreamingTNMatchesNaive) {
  Rng rng(23);
  // Square-A (the solver's Mᵀ·G shape) and rectangular shapes.
  for (auto [k, m, n] : {std::make_tuple(40, 40, 7), std::make_tuple(9, 5, 3),
                         std::make_tuple(300, 300, 4)}) {
    Matrix a = Matrix::RandomNormal(k, m, &rng);
    Matrix b = Matrix::RandomNormal(k, n, &rng);
    Matrix got;
    testing_reference::MultiplyTNStreamInto(a, b, &got);
    EXPECT_LT(MaxAbsDiff(got, NaiveMultiply(a.Transposed(), b)), 1e-9)
        << k << "x" << m << " * " << k << "x" << n;
  }
}

TEST(Gemm, StreamingTNHandlesEmptyShapes) {
  Matrix got;
  testing_reference::MultiplyTNStreamInto(Matrix(0, 3), Matrix(0, 2), &got);
  EXPECT_EQ(got.rows(), 3u);
  EXPECT_EQ(got.cols(), 2u);
  EXPECT_EQ(got.MaxAbs(), 0.0);
}

TEST(Gemm, StreamingTNIsBitStableAcrossThreadCounts) {
  Rng rng(24);
  Matrix a = Matrix::RandomNormal(500, 500, &rng);
  Matrix b = Matrix::RandomNormal(500, 6, &rng);
  auto run = [&](int threads) {
    ScopedNumThreads scoped(threads);
    Matrix c;
    testing_reference::MultiplyTNStreamInto(a, b, &c);
    return c;
  };
  EXPECT_EQ(MaxAbsDiff(run(1), run(4)), 0.0);
}

TEST(Gemm, SandwichMatchesExplicitTrace) {
  Rng rng(17);
  Matrix g = Matrix::RandomNormal(23, 4, &rng);
  Matrix l = Matrix::RandomNormal(23, 23, &rng);
  // tr(Gᵀ L G) via the explicit product chain.
  const double expected = MultiplyTN(g, Multiply(l, g)).Trace();
  EXPECT_NEAR(Sandwich(g, l), expected, 1e-9);
}

TEST(Gemm, SandwichOfLaplacianLikeMatrixIsNonNegative) {
  // For L = D - W (diagonally dominant PSD), tr(GᵀLG) >= 0.
  Matrix w = Matrix::FromRows({{0, 1, 2}, {1, 0, 1}, {2, 1, 0}});
  std::vector<double> deg = w.RowSums();
  Matrix l = Matrix::Diagonal(deg);
  l.Sub(w);
  Rng rng(23);
  Matrix g = Matrix::RandomNormal(3, 2, &rng);
  EXPECT_GE(Sandwich(g, l), -1e-12);
}

TEST(Gemm, SandwichEmptyIsZero) {
  EXPECT_EQ(Sandwich(Matrix(), Matrix()), 0.0);
  EXPECT_EQ(Sandwich(Matrix(4, 0), Matrix(4, 4)), 0.0);
}

TEST(Gemm, SparseInputsShortCircuit) {
  // Zero blocks must not pollute the result (the kernels skip zeros).
  Matrix a(30, 30);
  Matrix b(30, 30);
  a(3, 4) = 2.0;
  b(4, 9) = 5.0;
  Matrix c = Multiply(a, b);
  EXPECT_DOUBLE_EQ(c(3, 9), 10.0);
  EXPECT_DOUBLE_EQ(c.Sum(), 10.0);
}

TEST(Gemm, MixedDensityTilesAgreeWithNaive) {
  // A membership-like A: the left half is one-nonzero-per-row (sparse
  // tiles take the zero-skip path), the right half dense (packed path).
  // Both paths must land in the same product.
  Rng rng(40);
  const std::size_t n = 96;
  Matrix a(n, 2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i % n) = rng.Uniform(0.5, 1.5);
    for (std::size_t j = n; j < 2 * n; ++j) a(i, j) = rng.Normal(0.0, 1.0);
  }
  Matrix b = Matrix::RandomNormal(2 * n, 17, &rng);
  EXPECT_LT(MaxAbsDiff(Multiply(a, b), NaiveMultiply(a, b)), 1e-9);
}

TEST(Gemm, MultiplyIsBitStableAcrossThreadCounts) {
  // The density probe runs per 32-row panel on the global row grid, so
  // sparse/dense path choices — and the result — cannot depend on how
  // ParallelFor chunks the rows.
  Rng rng(41);
  Matrix a = Matrix::RandomNormal(150, 90, &rng);
  // Zero a band so some panels probe sparse while others stay dense.
  for (std::size_t i = 40; i < 100; ++i) {
    for (std::size_t j = 0; j < 90; ++j) a(i, j) = (j % 19 == 0) ? a(i, j) : 0.0;
  }
  Matrix b = Matrix::RandomNormal(90, 70, &rng);
  auto run = [&](int threads) {
    ScopedNumThreads scoped(threads);
    return Multiply(a, b);
  };
  EXPECT_EQ(MaxAbsDiff(run(1), run(4)), 0.0);
}

TEST(Gemm, FrobeniusInnerIgnoresRowPadding) {
  // 5 columns forces a padded stride; the row-wise reduction must only
  // see logical columns.
  Rng rng(42);
  Matrix a = Matrix::RandomNormal(9, 5, &rng);
  Matrix b = Matrix::RandomNormal(9, 5, &rng);
  double expected = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) expected += a(i, j) * b(i, j);
  }
  EXPECT_NEAR(FrobeniusInner(a, b), expected, 1e-12);
}

TEST(Gemm, MultiplyTVecMatchesNaiveOnLargeInput) {
  Rng rng(43);
  const std::size_t rows = 700, cols = 41;
  Matrix a = Matrix::RandomNormal(rows, cols, &rng);
  std::vector<double> x(rows);
  for (double& v : x) v = rng.Uniform(-1.0, 1.0);
  std::vector<double> naive(cols, 0.0);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) naive[j] += x[i] * a(i, j);
  }
  std::vector<double> got = MultiplyTVec(a, x);
  ASSERT_EQ(got.size(), cols);
  for (std::size_t j = 0; j < cols; ++j) {
    EXPECT_NEAR(got[j], naive[j], 1e-9) << "j=" << j;
  }
}

TEST(Gemm, MultiplyTVecIsBitStableAcrossThreadCounts) {
  Rng rng(44);
  Matrix a = Matrix::RandomNormal(900, 60, &rng);
  std::vector<double> x(900);
  for (double& v : x) v = rng.Normal(0.0, 1.0);
  auto run = [&](int threads) {
    ScopedNumThreads scoped(threads);
    return MultiplyTVec(a, x);
  };
  const std::vector<double> serial = run(1);
  const std::vector<double> pooled = run(4);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t j = 0; j < serial.size(); ++j) {
    EXPECT_EQ(serial[j], pooled[j]) << "j=" << j;
  }
}

}  // namespace
}  // namespace la
}  // namespace rhchme
