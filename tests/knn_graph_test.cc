// Unit tests for the pNN affinity graph (paper Eq. 3).

#include "graph/knn_graph.h"

#include <gtest/gtest.h>

#include <cmath>

#include "matrix_oracles.h"
#include "pairwise_reference.h"
#include "util/rng.h"

namespace rhchme {
namespace graph {
namespace {

using testing_reference::IsNonNegative;
using testing_reference::IsSymmetric;
using testing_reference::PairwiseCosine;
using testing_reference::PairwiseSquaredDistances;

/// Four collinear points at x = 0, 1, 2, 10: the first three are mutual
/// neighbours, the outlier attaches to x = 2.
la::Matrix LinePoints() {
  return la::Matrix::FromRows({{0.0}, {1.0}, {2.0}, {10.0}});
}

TEST(PairwiseDistances, HandComputed) {
  la::Matrix d = PairwiseSquaredDistances(LinePoints());
  EXPECT_DOUBLE_EQ(d(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(d(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(d(0, 3), 100.0);
  EXPECT_DOUBLE_EQ(d(1, 2), 1.0);
  // Symmetry, zero diagonal.
  EXPECT_DOUBLE_EQ(d(3, 0), 100.0);
  EXPECT_DOUBLE_EQ(d(2, 2), 0.0);
}

TEST(PairwiseCosine, HandComputed) {
  la::Matrix pts = la::Matrix::FromRows({{1, 0}, {0, 1}, {1, 1}, {-1, 0}});
  la::Matrix c = PairwiseCosine(pts);
  EXPECT_DOUBLE_EQ(c(0, 1), 0.0);
  EXPECT_NEAR(c(0, 2), 1.0 / std::sqrt(2.0), 1e-12);
  // Negative similarity floored at zero.
  EXPECT_DOUBLE_EQ(c(0, 3), 0.0);
  EXPECT_DOUBLE_EQ(c(2, 2), 0.0);  // Diagonal untouched (zero).
}

TEST(PairwiseCosine, ZeroRowsGetZeroSimilarity) {
  la::Matrix pts = la::Matrix::FromRows({{0, 0}, {1, 1}});
  la::Matrix c = PairwiseCosine(pts);
  EXPECT_DOUBLE_EQ(c(0, 1), 0.0);
}

TEST(KnnGraph, NeighbourStructureOnLine) {
  KnnGraphOptions opts;
  opts.p = 1;
  opts.scheme = WeightScheme::kBinary;
  Result<la::SparseMatrix> g = BuildKnnGraph(LinePoints(), opts);
  ASSERT_TRUE(g.ok());
  la::Matrix w = g.value().ToDense();
  // Union symmetrisation: x=10's nearest is x=2, so (2,3) edge exists.
  EXPECT_GT(w(2, 3), 0.0);
  EXPECT_GT(w(0, 1), 0.0);
  // x=0 and x=10 are nobody's 1-NN pair.
  EXPECT_EQ(w(0, 3), 0.0);
}

TEST(KnnGraph, ResultIsSymmetricZeroDiagonal) {
  Rng rng(1);
  la::Matrix pts = la::Matrix::RandomNormal(30, 4, &rng);
  KnnGraphOptions opts;
  opts.p = 5;
  for (WeightScheme scheme :
       {WeightScheme::kBinary, WeightScheme::kHeatKernel,
        WeightScheme::kCosine}) {
    opts.scheme = scheme;
    Result<la::SparseMatrix> g = BuildKnnGraph(pts, opts);
    ASSERT_TRUE(g.ok());
    EXPECT_TRUE(IsSymmetric(g.value(), 1e-12))
        << WeightSchemeName(scheme);
    la::Matrix w = g.value().ToDense();
    for (std::size_t i = 0; i < 30; ++i) EXPECT_EQ(w(i, i), 0.0);
    EXPECT_TRUE(IsNonNegative(w));
  }
}

TEST(KnnGraph, BinaryWeightsAreOne) {
  Rng rng(2);
  la::Matrix pts = la::Matrix::RandomNormal(20, 3, &rng);
  KnnGraphOptions opts;
  opts.p = 3;
  opts.scheme = WeightScheme::kBinary;
  la::Matrix w = BuildKnnGraph(pts, opts).value().ToDense();
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < 20; ++j) {
      if (w(i, j) != 0.0) {
        EXPECT_DOUBLE_EQ(w(i, j), 1.0);
      }
    }
  }
}

TEST(KnnGraph, HeatWeightsDecayWithDistance) {
  KnnGraphOptions opts;
  opts.p = 2;
  opts.scheme = WeightScheme::kHeatKernel;
  la::Matrix w = BuildKnnGraph(LinePoints(), opts).value().ToDense();
  // Closer pairs get larger weights.
  EXPECT_GT(w(0, 1), w(0, 2));
  // All weights in (0, 1].
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      if (w(i, j) > 0.0) {
        EXPECT_LE(w(i, j), 1.0);
      }
    }
  }
}

TEST(KnnGraph, AutoSigmaIsFiniteAndPositive) {
  Rng rng(3);
  la::Matrix pts = la::Matrix::RandomNormal(15, 2, &rng);
  KnnGraphOptions opts;
  opts.p = 3;
  opts.scheme = WeightScheme::kHeatKernel;
  Result<la::SparseMatrix> g = BuildKnnGraph(pts, opts);
  ASSERT_TRUE(g.ok());
  EXPECT_GT(g.value().nnz(), 0u);
  la::Matrix w = g.value().ToDense();
  EXPECT_TRUE(w.AllFinite());
}

TEST(KnnGraph, PClampedToPopulation) {
  la::Matrix pts = la::Matrix::FromRows({{0.0}, {1.0}, {2.0}});
  KnnGraphOptions opts;
  opts.p = 100;  // > n-1; must clamp, not crash.
  opts.scheme = WeightScheme::kBinary;
  Result<la::SparseMatrix> g = BuildKnnGraph(pts, opts);
  ASSERT_TRUE(g.ok());
  // Complete graph on 3 vertices.
  EXPECT_EQ(g.value().nnz(), 6u);
}

TEST(KnnGraph, RejectsDegenerateInputs) {
  KnnGraphOptions opts;
  EXPECT_FALSE(BuildKnnGraph(la::Matrix(1, 2), opts).ok());
  opts.p = 0;
  EXPECT_FALSE(BuildKnnGraph(la::Matrix(5, 2), opts).ok());
}

TEST(KnnGraph, DuplicatePointsDoNotBreakCosine) {
  la::Matrix pts = la::Matrix::FromRows({{1, 1}, {1, 1}, {2, 2}, {0, 0}});
  KnnGraphOptions opts;
  opts.p = 2;
  opts.scheme = WeightScheme::kCosine;
  Result<la::SparseMatrix> g = BuildKnnGraph(pts, opts);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g.value().ToDense().AllFinite());
}

/// Acceptance gate of the blocked exact path: no construction step —
/// neighbour search, auto bandwidth, weighting, symmetrisation — may
/// allocate a dense n x n matrix (la::memstats counts every Matrix
/// construction or Resize of >= n² doubles).
TEST(KnnGraph, ExactBuildAllocatesNoDenseNxN) {
  Rng rng(6);
  la::Matrix pts = la::Matrix::RandomNormal(64, 8, &rng);
  KnnGraphOptions opts;
  opts.p = 5;
  opts.backend = KnnBackend::kExact;
  for (WeightScheme scheme :
       {WeightScheme::kBinary, WeightScheme::kHeatKernel,
        WeightScheme::kCosine}) {
    opts.scheme = scheme;
    la::memstats::StartTracking(64 * 64);
    Result<la::SparseMatrix> g = BuildKnnGraph(pts, opts);
    la::memstats::StopTracking();
    ASSERT_TRUE(g.ok()) << WeightSchemeName(scheme);
    EXPECT_EQ(la::memstats::LargeAllocations(), 0u)
        << WeightSchemeName(scheme);
    EXPECT_GT(g.value().nnz(), 0u);
  }
}

TEST(KnnGraph, SchemeNames) {
  EXPECT_STREQ(WeightSchemeName(WeightScheme::kBinary), "binary");
  EXPECT_STREQ(WeightSchemeName(WeightScheme::kHeatKernel), "heat");
  EXPECT_STREQ(WeightSchemeName(WeightScheme::kCosine), "cosine");
}

}  // namespace
}  // namespace graph
}  // namespace rhchme
