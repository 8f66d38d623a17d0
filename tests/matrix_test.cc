// Unit tests for the dense Matrix type.

#include "la/matrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>

#include "util/rng.h"

namespace rhchme {
namespace la {
namespace {

TEST(Matrix, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, ZeroInitialised) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 4; ++j) EXPECT_EQ(m(i, j), 0.0);
  }
}

TEST(Matrix, FillConstructorAndFill) {
  Matrix m(2, 2, 3.5);
  EXPECT_EQ(m(1, 1), 3.5);
  m.Fill(-1.0);
  EXPECT_EQ(m(0, 0), -1.0);
}

TEST(Matrix, FromRows) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(1, 2), 6.0);
}

TEST(Matrix, IdentityAndDiagonal) {
  Matrix id = Matrix::Identity(3);
  EXPECT_EQ(id.Trace(), 3.0);
  EXPECT_EQ(id(0, 1), 0.0);
  Matrix d = Matrix::Diagonal({2, 5});
  EXPECT_EQ(d(0, 0), 2.0);
  EXPECT_EQ(d(1, 1), 5.0);
  EXPECT_EQ(d(0, 1), 0.0);
}

TEST(Matrix, RandomMatricesHonourRange) {
  Rng rng(1);
  Matrix u = Matrix::RandomUniform(10, 10, &rng, 2.0, 3.0);
  EXPECT_GE(u.Min(), 2.0);
  EXPECT_LT(u.Max(), 3.0);
  Matrix n = Matrix::RandomNormal(10, 10, &rng, 0.0, 1.0);
  EXPECT_TRUE(n.AllFinite());
}

TEST(Matrix, TransposeRoundTrip) {
  Rng rng(2);
  Matrix m = Matrix::RandomUniform(7, 13, &rng);
  Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 13u);
  EXPECT_EQ(t.cols(), 7u);
  EXPECT_EQ(MaxAbsDiff(t.Transposed(), m), 0.0);
  EXPECT_EQ(m(3, 11), t(11, 3));
}

TEST(Matrix, BlockExtractAndSet) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}, {7, 8, 9}});
  Matrix b = m.Block(1, 1, 2, 2);
  EXPECT_EQ(b(0, 0), 5.0);
  EXPECT_EQ(b(1, 1), 9.0);
  Matrix z(2, 2, 0.0);
  m.SetBlock(0, 0, z);
  EXPECT_EQ(m(0, 0), 0.0);
  EXPECT_EQ(m(1, 1), 0.0);
  EXPECT_EQ(m(2, 2), 9.0);
}

TEST(Matrix, RowAndColExtraction) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_EQ(m.Row(1), (std::vector<double>{3, 4}));
  EXPECT_EQ(m.Col(0), (std::vector<double>{1, 3}));
}

TEST(Matrix, ElementwiseOps) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{10, 20}, {30, 40}});
  Matrix sum = Add(a, b);
  EXPECT_EQ(sum(1, 1), 44.0);
  Matrix diff = Sub(b, a);
  EXPECT_EQ(diff(0, 0), 9.0);
  Matrix h = Hadamard(a, b);
  EXPECT_EQ(h(1, 0), 90.0);
  Matrix s = Scaled(a, 2.0);
  EXPECT_EQ(s(0, 1), 4.0);
  a.AddScaled(b, 0.1);
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0);
}

TEST(Matrix, ApplyAndClamp) {
  Matrix m = Matrix::FromRows({{-1, 2}, {3, -4}});
  Matrix clamped = m;
  clamped.ClampNonNegative();
  EXPECT_EQ(clamped(0, 0), 0.0);
  EXPECT_EQ(clamped(1, 0), 3.0);
  m.Apply([](double v) { return v * v; });
  EXPECT_EQ(m(1, 1), 16.0);
}

TEST(Matrix, PositiveNegativeSplit) {
  Matrix m = Matrix::FromRows({{-1, 2}, {0, -3}});
  Matrix pos = PositivePart(m);
  Matrix neg = NegativePart(m);
  EXPECT_EQ(pos(0, 0), 0.0);
  EXPECT_EQ(pos(0, 1), 2.0);
  EXPECT_EQ(neg(0, 0), 1.0);
  EXPECT_EQ(neg(1, 1), 3.0);
  // Invariant: M = pos - neg, both parts nonnegative.
  Matrix recon = Sub(pos, neg);
  EXPECT_EQ(MaxAbsDiff(recon, m), 0.0);
  EXPECT_TRUE(pos.IsNonNegative());
  EXPECT_TRUE(neg.IsNonNegative());
}

TEST(Matrix, Norms) {
  Matrix m = Matrix::FromRows({{3, 4}, {0, 0}});
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 5.0);
  EXPECT_DOUBLE_EQ(m.FrobeniusNormSquared(), 25.0);
  EXPECT_DOUBLE_EQ(m.L1Norm(), 7.0);
  // L2,1: row norms summed -> 5 + 0.
  EXPECT_DOUBLE_EQ(m.L21Norm(), 5.0);
  EXPECT_DOUBLE_EQ(m.Sum(), 7.0);
  EXPECT_DOUBLE_EQ(m.MaxAbs(), 4.0);
}

TEST(Matrix, L21NormMatchesDefinition) {
  // Paper Eq. 14: sum_i ||row_i||_2.
  Matrix m = Matrix::FromRows({{1, 2, 2}, {-3, 0, 4}});
  EXPECT_DOUBLE_EQ(m.L21Norm(), 3.0 + 5.0);
}

TEST(Matrix, RowColSumsAndTrace) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_EQ(m.RowSums(), (std::vector<double>{3, 7}));
  EXPECT_EQ(m.ColSums(), (std::vector<double>{4, 6}));
  EXPECT_EQ(m.Trace(), 5.0);
}

TEST(Matrix, FiniteAndNonNegativeChecks) {
  Matrix m(2, 2, 1.0);
  EXPECT_TRUE(m.AllFinite());
  EXPECT_TRUE(m.IsNonNegative());
  m(0, 0) = -1e-9;
  EXPECT_FALSE(m.IsNonNegative());
  EXPECT_TRUE(m.IsNonNegative(1e-8));
  m(1, 1) = std::nan("");
  EXPECT_FALSE(m.AllFinite());
}

TEST(Matrix, ScaleRowsAndCols) {
  Matrix m = Matrix::FromRows({{2, 4}, {6, 8}});
  m.ScaleRows({2.0, 4.0});  // Divides by d[i].
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 2.0);
  m.ScaleCols({10.0, 1.0});
  EXPECT_DOUBLE_EQ(m(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
}

TEST(Matrix, ScaleRowsSkipsZeroDivisors) {
  Matrix m = Matrix::FromRows({{2, 4}});
  m.ScaleRows({0.0});
  EXPECT_DOUBLE_EQ(m(0, 0), 2.0);  // Untouched.
}

TEST(Matrix, NormalizeRowsL1) {
  Matrix m = Matrix::FromRows({{1, 3}, {0, 0}});
  m.NormalizeRowsL1(0, 2);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.25);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.75);
  // All-zero row becomes uniform over the requested range.
  EXPECT_DOUBLE_EQ(m(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(m(1, 1), 0.5);
}

TEST(Matrix, NormalizeRowsL1ZeroRowStaysZeroWithoutRange) {
  Matrix m = Matrix::FromRows({{0, 0}});
  m.NormalizeRowsL1();
  EXPECT_EQ(m(0, 0), 0.0);
  EXPECT_EQ(m(0, 1), 0.0);
}

TEST(Matrix, ScaleRowsEpsFloorBoundary) {
  // Divisors at or above the documented floor divide; below it the row is
  // left untouched instead of blowing up to ±Inf.
  Matrix m = Matrix::FromRows({{2, 4}, {2, 4}, {2, 4}});
  m.ScaleRows({kScaleRowsEps, kScaleRowsEps / 2.0, -kScaleRowsEps / 2.0});
  EXPECT_TRUE(m.AllFinite());
  EXPECT_DOUBLE_EQ(m(0, 0), 2.0 / kScaleRowsEps);  // At the floor: divides.
  EXPECT_DOUBLE_EQ(m(1, 0), 2.0);                  // Below: untouched.
  EXPECT_DOUBLE_EQ(m(2, 0), 2.0);                  // |d| is what matters.
}

TEST(Matrix, NormalizeRowsL1UniformFallbackOverSubrange) {
  // The all-zero fallback spreads mass only over [c0, c1), matching the
  // per-type cluster blocks of the membership matrix (paper Eq. 22).
  Matrix m = Matrix::FromRows({{0, 0, 0, 0}, {1, 1, 1, 1}});
  m.NormalizeRowsL1(1, 4);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(m(0, 2), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(m(0, 3), 1.0 / 3.0);
  // A nonzero row normalises over all columns, untouched by the range.
  EXPECT_DOUBLE_EQ(m(1, 0), 0.25);
}

TEST(Matrix, NormalizeRowsL1NegativeEntriesUseAbsoluteMass) {
  Matrix m = Matrix::FromRows({{-1, 3}});
  m.NormalizeRowsL1();
  EXPECT_DOUBLE_EQ(m(0, 0), -0.25);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.75);
}

TEST(Matrix, Concat) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5}, {6}});
  Matrix h = HConcat(a, b);
  EXPECT_EQ(h.cols(), 3u);
  EXPECT_EQ(h(1, 2), 6.0);
  Matrix c = Matrix::FromRows({{7, 8}});
  Matrix v = VConcat(a, c);
  EXPECT_EQ(v.rows(), 3u);
  EXPECT_EQ(v(2, 1), 8.0);
}

TEST(Matrix, MaxAbsDiffDetectsChange) {
  Matrix a(3, 3, 1.0);
  Matrix b = a;
  EXPECT_EQ(a.MaxAbsDiff(b), 0.0);
  b(2, 2) = 1.5;
  EXPECT_DOUBLE_EQ(a.MaxAbsDiff(b), 0.5);
}

TEST(Matrix, ResizeDiscardsContents) {
  Matrix m(2, 2, 7.0);
  m.Resize(3, 1);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 1u);
  EXPECT_EQ(m(2, 0), 0.0);
}

TEST(Matrix, DebugStringMentionsShape) {
  Matrix m(3, 2, 1.0);
  std::string s = m.DebugString();
  EXPECT_NE(s.find("3x2"), std::string::npos);
}

// ---- Aligned, padded storage invariants ----------------------------------

bool AllRowsAligned(const Matrix& m) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    if (reinterpret_cast<std::uintptr_t>(m.row_ptr(i)) % kAlignment != 0) {
      return false;
    }
  }
  return true;
}

bool PaddingIsZero(const Matrix& m) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const double* r = m.row_ptr(i);
    for (std::size_t j = m.cols(); j < m.stride(); ++j) {
      if (r[j] != 0.0) return false;
    }
  }
  return true;
}

TEST(MatrixAlignment, RowsAlignedAfterConstructResizeCopyMove) {
  // 5 columns forces a padded stride (not a multiple of the cache line).
  Matrix m(6, 5, 2.0);
  EXPECT_EQ(m.stride(), PaddedStride(5));
  EXPECT_TRUE(AllRowsAligned(m));

  m.Resize(11, 3);
  EXPECT_TRUE(AllRowsAligned(m));

  Matrix copy = m;
  EXPECT_TRUE(AllRowsAligned(copy));

  Matrix moved = std::move(copy);
  EXPECT_TRUE(AllRowsAligned(moved));
}

TEST(MatrixAlignment, SizeIsLogicalAndPaddedSizeCoversStride) {
  Matrix m(4, 5);
  EXPECT_EQ(m.size(), 20u);
  EXPECT_EQ(m.padded_size(), 4 * m.stride());
  EXPECT_GE(m.stride(), m.cols());
}

TEST(MatrixAlignment, PaddingStaysZeroThroughMutations) {
  Rng rng(77);
  Matrix m = Matrix::RandomUniform(5, 3, &rng, 0.5, 1.5);
  EXPECT_TRUE(PaddingIsZero(m));

  m.Fill(4.0);
  EXPECT_TRUE(PaddingIsZero(m));

  m.Scale(-2.0);  // Negative scale must not flip pad signs to nonzero.
  EXPECT_TRUE(PaddingIsZero(m));

  Matrix other = Matrix::RandomUniform(5, 3, &rng);
  m.Add(other);
  m.Sub(other);
  m.Hadamard(other);
  m.AddScaled(other, -0.3);
  EXPECT_TRUE(PaddingIsZero(m));

  // Apply maps 0 -> 1 on logical entries only; pad must not see f.
  m.Apply([](double) { return 1.0; });
  EXPECT_TRUE(PaddingIsZero(m));

  m.NormalizeRowsL1(0, 3);
  m.ScaleRows({1.0, 2.0, 3.0, 4.0, 5.0});
  m.ScaleCols({1.0, 2.0, 3.0});
  m.ClampNonNegative();
  EXPECT_TRUE(PaddingIsZero(m));
}

TEST(MatrixAlignment, ReductionsIgnorePadding) {
  // All-positive entries: any pad leakage would drag Min to 0 or inflate
  // counts/sums.
  Matrix m(3, 5, 2.0);
  EXPECT_EQ(m.Min(), 2.0);
  EXPECT_EQ(m.Max(), 2.0);
  EXPECT_DOUBLE_EQ(m.Sum(), 30.0);
  EXPECT_DOUBLE_EQ(m.L1Norm(), 30.0);
  EXPECT_DOUBLE_EQ(m.FrobeniusNormSquared(), 60.0);

  // A NaN written into the pad through raw storage must stay invisible to
  // the logical predicates (no consumer may read pad columns).
  if (m.stride() > m.cols()) {
    m.row_ptr(1)[m.cols()] = std::nan("");
    EXPECT_TRUE(m.AllFinite());
  }
}

TEST(MatrixAlignment, MemstatsCountsLogicalElementsNotPaddedBuffer) {
  // 4x3 pads its buffer to 4*8 = 32 doubles; tracking with a threshold of
  // 13 must NOT count it (logical size 12), proving memstats never sees
  // the padding.
  memstats::StartTracking(13);
  { Matrix m(4, 3); }
  EXPECT_EQ(memstats::LargeAllocations(), 0u);
  memstats::StopTracking();

  memstats::StartTracking(12);
  { Matrix m(4, 3); }
  EXPECT_EQ(memstats::LargeAllocations(), 1u);
  memstats::StopTracking();
}

TEST(MatrixAlignment, MemstatsCountsCopiesThatAcquireABuffer) {
  const Matrix src(4, 3, 1.0);
  Matrix same(4, 3), other(2, 2);
  memstats::StartTracking(12);
  Matrix copy = src;  // Copy construction: a new buffer.
  EXPECT_EQ(memstats::LargeAllocations(), 1u);
  same = src;  // Same footprint: the buffer is reused.
  EXPECT_EQ(memstats::LargeAllocations(), 1u);
  other = src;  // New footprint: a new buffer.
  EXPECT_EQ(memstats::LargeAllocations(), 2u);
  Matrix moved = std::move(copy);  // Moves hand the buffer over.
  other = std::move(moved);
  EXPECT_EQ(memstats::LargeAllocations(), 2u);
  memstats::StopTracking();
  EXPECT_EQ(other(3, 2), 1.0);
  EXPECT_EQ(same(0, 0), 1.0);
}

}  // namespace
}  // namespace la
}  // namespace rhchme
