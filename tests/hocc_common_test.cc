// Unit tests for the shared NMTF machinery.

#include "factorization/hocc_common.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.h"
#include "dense_reference_solver.h"
#include "la/gemm.h"
#include "matrix_oracles.h"
#include "util/rng.h"

namespace rhchme {
namespace fact {
namespace {

using testing_reference::IsNonNegative;
using testing_reference::MaxAbsDiff;
using testing_reference::ReconstructionError;

/// Eq. 18 in product form against a dense M.
Result<la::Matrix> SolveS(const la::Matrix& g, const la::Matrix& m,
                          double ridge) {
  return SolveCentralSFromProducts(la::Gram(g),
                                   la::MultiplyTN(g, la::Multiply(m, g)),
                                   ridge);
}

/// Eq. 21 in product form against a dense M and a sparse L (null L: no
/// manifold term).
void UpdateG(const la::Matrix& m, const la::Matrix& s, double lambda,
             const la::SparseMatrix* lap, la::Matrix* g) {
  la::SparseMatrix lap_pos, lap_neg;
  if (lap != nullptr) {
    lap_pos = la::PositivePart(*lap);
    lap_neg = la::NegativePart(*lap);
  }
  ASSERT_TRUE(MultiplicativeGUpdateFromProducts(
                  la::Multiply(m, *g), la::MultiplyTN(m, *g), s, la::Gram(*g),
                  lambda, lap ? &lap_pos : nullptr,
                  lap ? &lap_neg : nullptr, 1e-12, g)
                  .ok());
}

data::MultiTypeRelationalData SmallData() {
  data::BlockWorldOptions o;
  o.objects_per_type = {12, 9, 6};
  o.n_classes = 3;
  o.seed = 5;
  return data::GenerateBlockWorld(o).value();
}

TEST(BlockStructure, OffsetsMatchData) {
  data::MultiTypeRelationalData d = SmallData();
  BlockStructure b = BuildBlockStructure(d);
  EXPECT_EQ(b.num_types(), 3u);
  EXPECT_EQ(b.total_objects(), 27u);
  EXPECT_EQ(b.total_clusters(), 9u);
  EXPECT_EQ(b.objects(0), 12u);
  EXPECT_EQ(b.objects(2), 6u);
  EXPECT_EQ(b.clusters(1), 3u);
  EXPECT_EQ(b.type_offset[1], 12u);
  EXPECT_EQ(b.cluster_offset[2], 6u);
}

TEST(InitMembership, BlockDiagonalRowStochastic) {
  data::MultiTypeRelationalData d = SmallData();
  BlockStructure b = BuildBlockStructure(d);
  Rng rng(1);
  // k-means blocks, then type 1 without features: its block is the random
  // fallback.
  for (bool featureless : {false, true}) {
    if (featureless) d.MutableType(1).features = la::Matrix();
    Result<la::Matrix> g =
        InitMembership(d, b, MembershipInit::kKMeans, &rng);
    ASSERT_TRUE(g.ok());
    ASSERT_EQ(g.value().rows(), 27u);
    ASSERT_EQ(g.value().cols(), 9u);
    for (std::size_t k = 0; k < 3; ++k) {
      for (std::size_t i = b.type_offset[k]; i < b.type_offset[k + 1]; ++i) {
        double in_block = 0.0, out_block = 0.0;
        for (std::size_t j = 0; j < 9; ++j) {
          const bool inside =
              j >= b.cluster_offset[k] && j < b.cluster_offset[k + 1];
          (inside ? in_block : out_block) += g.value()(i, j);
          if (inside) {
            EXPECT_GT(g.value()(i, j), 0.0);
          }
        }
        EXPECT_NEAR(in_block, 1.0, 1e-9);
        EXPECT_EQ(out_block, 0.0);
      }
    }
  }
}

TEST(SolveCentralSFromProducts, RecoversPlantedS) {
  // Build R = G·S·Gᵀ exactly and check the closed form recovers S.
  Rng rng(2);
  const std::size_t n = 20, c = 4;
  la::Matrix g = la::Matrix::RandomUniform(n, c, &rng, 0.1, 1.0);
  la::Matrix s_true = la::Matrix::RandomNormal(c, c, &rng);
  la::Matrix r = la::MultiplyNT(la::Multiply(g, s_true), g);
  Result<la::Matrix> s = SolveS(g, r, 1e-12);
  ASSERT_TRUE(s.ok());
  EXPECT_LT(MaxAbsDiff(s.value(), s_true), 1e-6);
}

TEST(SolveCentralSFromProducts, SurvivesEmptyClusterColumn) {
  Rng rng(3);
  la::Matrix g = la::Matrix::RandomUniform(10, 3, &rng);
  for (std::size_t i = 0; i < 10; ++i) g(i, 2) = 0.0;  // Empty cluster.
  la::Matrix r = la::Matrix::RandomUniform(10, 10, &rng);
  Result<la::Matrix> s = SolveS(g, r, 1e-9);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s.value().AllFinite());
}

TEST(SolveCentralSFromProducts, RejectsShapeMismatch) {
  EXPECT_FALSE(
      SolveCentralSFromProducts(la::Matrix(2, 3), la::Matrix(2, 3)).ok());
  EXPECT_FALSE(
      SolveCentralSFromProducts(la::Matrix(2, 2), la::Matrix(3, 3)).ok());
}

TEST(MultiplicativeGUpdateFromProducts, DecreasesReconstructionObjective) {
  Rng rng(4);
  const std::size_t n = 16, c = 3;
  la::Matrix g_true = la::Matrix::RandomUniform(n, c, &rng, 0.0, 1.0);
  la::Matrix s = la::Matrix::RandomUniform(c, c, &rng, 0.0, 1.0);
  la::Matrix r = la::MultiplyNT(la::Multiply(g_true, s), g_true);
  la::Matrix g = la::Matrix::RandomUniform(n, c, &rng, 0.1, 1.0);

  double prev = ReconstructionError(r, g, s);
  for (int it = 0; it < 25; ++it) {
    UpdateG(r, s, 0.0, nullptr, &g);
    const double now = ReconstructionError(r, g, s);
    EXPECT_LE(now, prev * (1.0 + 1e-9)) << "iteration " << it;
    prev = now;
  }
}

TEST(MultiplicativeGUpdateFromProducts, ZerosStayZero) {
  // The block-diagonal structure of G survives because multiplicative
  // updates cannot resurrect exact zeros.
  Rng rng(5);
  const std::size_t n = 12, c = 4;
  la::Matrix g = la::Matrix::RandomUniform(n, c, &rng, 0.1, 1.0);
  for (std::size_t i = 0; i < 6; ++i) g(i, 3) = 0.0;
  la::Matrix s = la::Matrix::RandomUniform(c, c, &rng);
  la::Matrix r = la::Matrix::RandomUniform(n, n, &rng);
  UpdateG(r, s, 0.0, nullptr, &g);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(g(i, 3), 0.0);
  EXPECT_TRUE(IsNonNegative(g));
  EXPECT_TRUE(g.AllFinite());
}

TEST(MultiplicativeGUpdateFromProducts, LaplacianTermPullsNeighboursTogether) {
  // Two objects connected by a strong graph edge end up with more
  // similar membership rows than without the regulariser.
  Rng rng(6);
  const std::size_t n = 8, c = 2;
  la::Matrix r = la::Matrix::RandomUniform(n, n, &rng, 0.0, 0.3);
  la::Matrix s = la::Matrix::Identity(c);
  la::Matrix w(n, n);
  w(0, 1) = w(1, 0) = 10.0;  // Strong edge 0-1.
  la::Matrix lap(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) lap(i, j) = -w(i, j);
  }
  lap(0, 0) = lap(1, 1) = 10.0;
  const la::SparseMatrix sparse_lap = la::SparseMatrix::FromDense(lap);

  la::Matrix g0 = la::Matrix::RandomUniform(n, c, &rng, 0.1, 1.0);
  g0(0, 0) = 0.9;
  g0(0, 1) = 0.1;
  g0(1, 0) = 0.1;
  g0(1, 1) = 0.9;  // Rows 0 and 1 start very different.

  auto row_gap = [](const la::Matrix& g) {
    return std::fabs(g(0, 0) - g(1, 0)) + std::fabs(g(0, 1) - g(1, 1));
  };
  la::Matrix g_reg = g0;
  la::Matrix g_noreg = g0;
  for (int it = 0; it < 10; ++it) {
    UpdateG(r, s, 5.0, &sparse_lap, &g_reg);
    UpdateG(r, s, 0.0, nullptr, &g_noreg);
  }
  EXPECT_LT(row_gap(g_reg), row_gap(g_noreg));
}

TEST(RatioUpdate, AppliesSqrtRatio) {
  la::Matrix g = la::Matrix::FromRows({{2.0, 4.0}});
  la::Matrix num = la::Matrix::FromRows({{4.0, 1.0}});
  la::Matrix den = la::Matrix::FromRows({{1.0, 4.0}});
  RatioUpdate(num, den, 0.0, &g);
  EXPECT_NEAR(g(0, 0), 4.0, 1e-12);  // 2 * sqrt(4/1)
  EXPECT_NEAR(g(0, 1), 2.0, 1e-12);  // 4 * sqrt(1/4)
}

TEST(RatioUpdate, NegativeNumeratorTreatedAsZero) {
  la::Matrix g = la::Matrix::FromRows({{3.0}});
  la::Matrix num = la::Matrix::FromRows({{-2.0}});
  la::Matrix den = la::Matrix::FromRows({{1.0}});
  RatioUpdate(num, den, 1e-12, &g);
  EXPECT_EQ(g(0, 0), 0.0);
}

TEST(NormalizeMembershipRows, PerBlockRowSums) {
  data::MultiTypeRelationalData d = SmallData();
  BlockStructure b = BuildBlockStructure(d);
  Rng rng(7);
  la::Matrix g = InitMembership(d, b, MembershipInit::kKMeans, &rng).value();
  g.Scale(7.3);  // Destroy normalisation.
  NormalizeMembershipRows(b, &g);
  for (std::size_t k = 0; k < b.num_types(); ++k) {
    for (std::size_t i = b.type_offset[k]; i < b.type_offset[k + 1]; ++i) {
      double sum = 0.0;
      for (std::size_t j = b.cluster_offset[k]; j < b.cluster_offset[k + 1];
           ++j) {
        sum += g(i, j);
      }
      EXPECT_NEAR(sum, 1.0, 1e-9);
    }
  }
}

TEST(NormalizeMembershipRows, ZeroRowBecomesUniform) {
  data::MultiTypeRelationalData d = SmallData();
  BlockStructure b = BuildBlockStructure(d);
  la::Matrix g(b.total_objects(), b.total_clusters());
  NormalizeMembershipRows(b, &g);
  EXPECT_NEAR(g(0, 0), 1.0 / 3.0, 1e-12);
  EXPECT_EQ(g(0, 3), 0.0);  // Stays outside its block.
}

TEST(ExtractLabels, PerTypeArgmax) {
  data::MultiTypeRelationalData d = SmallData();
  BlockStructure b = BuildBlockStructure(d);
  la::Matrix g(27, 9);
  // Put every object of type 1 into its cluster 2 (column 5 overall).
  for (std::size_t i = b.type_offset[1]; i < b.type_offset[2]; ++i) {
    g(i, 5) = 1.0;
  }
  auto labels = ExtractLabels(b, g);
  ASSERT_EQ(labels.size(), 3u);
  EXPECT_EQ(labels[1], std::vector<std::size_t>(9, 2u));
}

TEST(DenseReference, ReconstructionErrorZeroForExactFactorisation) {
  Rng rng(8);
  la::Matrix g = la::Matrix::RandomUniform(10, 3, &rng);
  la::Matrix s = la::Matrix::RandomNormal(3, 3, &rng);
  la::Matrix r = la::MultiplyNT(la::Multiply(g, s), g);
  EXPECT_NEAR(ReconstructionError(r, g, s), 0.0, 1e-10);
}

}  // namespace
}  // namespace fact
}  // namespace rhchme
