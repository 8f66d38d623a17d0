// Unit tests for the MultiTypeRelationalData container.

#include "data/multitype_data.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "data/corruption.h"
#include "data/synthetic.h"
#include "la/gemm.h"
#include "scoped_num_threads.h"
#include "util/rng.h"

namespace rhchme {
namespace data {
namespace {

MultiTypeRelationalData ThreeTypeFixture() {
  MultiTypeRelationalData d;
  Rng rng(1);
  d.AddType({"docs", 4, 2, la::Matrix::RandomUniform(4, 3, &rng), {0, 0, 1, 1}});
  d.AddType({"terms", 3, 2, la::Matrix::RandomUniform(3, 4, &rng), {0, 1, 1}});
  d.AddType({"concepts", 2, 2, la::Matrix::RandomUniform(2, 4, &rng), {0, 1}});
  la::Matrix r01 = la::Matrix::FromRows(
      {{1, 0, 0}, {0, 2, 0}, {0, 0, 3}, {4, 0, 0}});
  la::Matrix r02 = la::Matrix::FromRows({{1, 0}, {0, 1}, {1, 0}, {0, 1}});
  la::Matrix r12 = la::Matrix::FromRows({{5, 0}, {0, 6}, {7, 0}});
  EXPECT_TRUE(d.SetRelation(0, 1, r01).ok());
  EXPECT_TRUE(d.SetRelation(0, 2, r02).ok());
  EXPECT_TRUE(d.SetRelation(1, 2, r12).ok());
  return d;
}

TEST(MultiTypeData, CountsAndOffsets) {
  MultiTypeRelationalData d = ThreeTypeFixture();
  EXPECT_EQ(d.NumTypes(), 3u);
  EXPECT_EQ(d.TotalObjects(), 9u);
  EXPECT_EQ(d.TotalClusters(), 6u);
  EXPECT_EQ(d.TypeOffset(0), 0u);
  EXPECT_EQ(d.TypeOffset(1), 4u);
  EXPECT_EQ(d.TypeOffset(2), 7u);
  EXPECT_EQ(d.ClusterOffset(1), 2u);
  EXPECT_EQ(d.ClusterOffset(2), 4u);
}

TEST(MultiTypeData, RelationRetrievalBothOrientations) {
  MultiTypeRelationalData d = ThreeTypeFixture();
  ASSERT_TRUE(d.HasRelation(0, 1));
  ASSERT_TRUE(d.HasRelation(1, 0));
  const la::Matrix& r01 = d.Relation(0, 1);
  la::Matrix r10 = d.RelationTransposed(1, 0);
  EXPECT_LT(la::MaxAbsDiff(r10, r01.Transposed()), 1e-15);
}

TEST(MultiTypeData, SetRelationTransposedOrientationIsNormalised) {
  MultiTypeRelationalData d;
  Rng rng(2);
  d.AddType({"a", 2, 1, {}, {}});
  d.AddType({"b", 3, 1, {}, {}});
  la::Matrix r10 = la::Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});  // 3x2
  ASSERT_TRUE(d.SetRelation(1, 0, r10).ok());
  EXPECT_LT(la::MaxAbsDiff(d.Relation(0, 1), r10.Transposed()), 1e-15);
}

TEST(MultiTypeData, SetRelationRejectsBadShapes) {
  MultiTypeRelationalData d;
  d.AddType({"a", 2, 1, {}, {}});
  d.AddType({"b", 3, 1, {}, {}});
  EXPECT_FALSE(d.SetRelation(0, 1, la::Matrix(2, 2)).ok());
  EXPECT_FALSE(d.SetRelation(0, 0, la::Matrix(2, 2)).ok());
  EXPECT_FALSE(d.SetRelation(0, 5, la::Matrix(2, 3)).ok());
}

TEST(MultiTypeData, JointRIsSymmetricWithZeroDiagonalBlocks) {
  MultiTypeRelationalData d = ThreeTypeFixture();
  la::Matrix r = d.BuildJointR();
  ASSERT_EQ(r.rows(), 9u);
  EXPECT_LT(la::MaxAbsDiff(r, r.Transposed()), 1e-15);
  // Diagonal blocks are zero (paper §I.A).
  for (std::size_t k = 0; k < 3; ++k) {
    const std::size_t o = d.TypeOffset(k);
    const std::size_t n = d.Type(k).count;
    EXPECT_EQ(r.Block(o, o, n, n).MaxAbs(), 0.0);
  }
  // Off-diagonal block matches the stored relation.
  EXPECT_LT(la::MaxAbsDiff(r.Block(0, 4, 4, 3), d.Relation(0, 1)), 1e-15);
  EXPECT_LT(la::MaxAbsDiff(r.Block(4, 0, 3, 4), d.RelationTransposed(1, 0)),
            1e-15);
}

TEST(MultiTypeData, SparseJointREqualsDense) {
  MultiTypeRelationalData d = ThreeTypeFixture();
  la::Matrix dense = d.BuildJointR();
  la::SparseMatrix sparse = d.BuildJointRSparse();
  EXPECT_LT(la::MaxAbsDiff(sparse.ToDense(), dense), 1e-15);
  EXPECT_TRUE(sparse.IsSymmetric(1e-12));
}

TEST(MultiTypeData, SparseJointRMatchesDenseElementwise) {
  // Exact agreement with BuildJointR without densifying the sparse side:
  // every entry compared through At(), and the stored count must equal
  // the dense nonzero count (explicit zeros of the blocks are dropped,
  // both mirrored copies of each stored entry are present).
  MultiTypeRelationalData d = ThreeTypeFixture();
  la::Matrix dense = d.BuildJointR();
  la::SparseMatrix sparse = d.BuildJointRSparse();
  ASSERT_EQ(sparse.rows(), dense.rows());
  ASSERT_EQ(sparse.cols(), dense.cols());
  std::size_t dense_nnz = 0;
  for (std::size_t i = 0; i < dense.rows(); ++i) {
    for (std::size_t j = 0; j < dense.cols(); ++j) {
      EXPECT_EQ(sparse.At(i, j), dense(i, j)) << "(" << i << ", " << j << ")";
      if (dense(i, j) != 0.0) ++dense_nnz;
    }
  }
  EXPECT_EQ(sparse.nnz(), dense_nnz);
}

TEST(MultiTypeData, SparseJointRMirroredBlocksAreSymmetric) {
  // The fixture's blocks carry exact zeros, so the mirrored (l, k) copies
  // must land symmetric without relying on any dense detour.
  MultiTypeRelationalData d = ThreeTypeFixture();
  la::SparseMatrix sparse = d.BuildJointRSparse();
  EXPECT_TRUE(sparse.IsSymmetric(0.0));
  // Spot-check a mirrored pair: r01(3, 0) = 4 sits at (3, 4+0) and (4, 3).
  EXPECT_EQ(sparse.At(3, 4), 4.0);
  EXPECT_EQ(sparse.At(4, 3), 4.0);
}

TEST(MultiTypeData, SparseJointRBuildContractOnDuplicates) {
  // The triplet oracle below leans on the FromTriplets build contract;
  // pin the two properties it needs with joint-R-shaped triplets:
  // duplicates are summed, and duplicates cancelling to an exact zero
  // are pruned.
  std::vector<la::Triplet> trips = {
      {0, 4, 1.5}, {4, 0, 1.5},   // mirrored pair, split in two...
      {0, 4, 1.5}, {4, 0, 1.5},   // ...deliveries: must sum to 3.
      {2, 5, 2.0}, {5, 2, 2.0},   // Mirrored pair cancelled below.
      {2, 5, -2.0}, {5, 2, -2.0},
  };
  la::SparseMatrix m = la::SparseMatrix::FromTriplets(9, 9, std::move(trips));
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_EQ(m.At(0, 4), 3.0);
  EXPECT_EQ(m.At(4, 0), 3.0);
  EXPECT_EQ(m.At(2, 5), 0.0);
  EXPECT_TRUE(m.IsSymmetric(0.0));
}

// ---- Direct CSR assembly of the joint R ------------------------------------

/// The former triplet builder of BuildJointRSparse, kept as the oracle:
/// every nonzero of every stored block and its mirror as a triplet, then
/// FromTriplets' sort.
la::SparseMatrix TripletJointR(const MultiTypeRelationalData& d) {
  std::vector<la::Triplet> trips;
  for (std::size_t k = 0; k < d.NumTypes(); ++k) {
    for (std::size_t l = k + 1; l < d.NumTypes(); ++l) {
      if (!d.HasRelation(k, l)) continue;
      const la::Matrix& block = d.Relation(k, l);
      const std::size_t rk = d.TypeOffset(k);
      const std::size_t cl = d.TypeOffset(l);
      for (std::size_t i = 0; i < block.rows(); ++i) {
        for (std::size_t j = 0; j < block.cols(); ++j) {
          const double v = block(i, j);
          if (v != 0.0) {
            trips.push_back({rk + i, cl + j, v});
            trips.push_back({cl + j, rk + i, v});
          }
        }
      }
    }
  }
  const std::size_t n = d.TotalObjects();
  return la::SparseMatrix::FromTriplets(n, n, std::move(trips));
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Same arrays, values compared by bit pattern (NaN payloads included).
void ExpectSameCsr(const la::SparseMatrix& got, const la::SparseMatrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  EXPECT_EQ(got.row_offsets(), want.row_offsets());
  EXPECT_EQ(got.col_indices(), want.col_indices());
  ASSERT_EQ(got.values().size(), want.values().size());
  for (std::size_t k = 0; k < got.values().size(); ++k) {
    ASSERT_EQ(Bits(got.values()[k]), Bits(want.values()[k])) << "slot " << k;
  }
}

MultiTypeRelationalData BlockWorld(double dropout) {
  BlockWorldOptions o;
  o.objects_per_type = {40, 31, 17};
  o.n_classes = 3;
  o.dropout = dropout;
  o.seed = 5;
  return GenerateBlockWorld(o).value();
}

MultiTypeRelationalData SmallCorpus() {
  SyntheticCorpusOptions o;
  o.docs_per_class = {12, 9, 6};
  o.n_terms = 60;
  o.n_concepts = 25;
  o.seed = 8;
  return GenerateSyntheticCorpus(o).value();
}

TEST(JointRAssembly, DirectCsrMatchesTripletBuilderBitForBit) {
  for (double dropout : {0.0, 0.35, 0.97}) {
    SCOPED_TRACE("block world, dropout " + std::to_string(dropout));
    const MultiTypeRelationalData d = BlockWorld(dropout);
    const la::SparseMatrix r = d.BuildJointRSparse();
    ExpectSameCsr(r, TripletJointR(d));
    EXPECT_TRUE(r.IsSymmetric(0.0));
  }
  SCOPED_TRACE("corpus");
  const MultiTypeRelationalData corpus = SmallCorpus();
  const la::SparseMatrix r = corpus.BuildJointRSparse();
  ExpectSameCsr(r, TripletJointR(corpus));
  EXPECT_TRUE(r.IsSymmetric(0.0));
}

TEST(JointRAssembly, NonFiniteEntriesAreKeptBitForBit) {
  // NaN/Inf are stored (the solver counts and zeroes them); negative zero
  // is dropped like any exact zero.
  MultiTypeRelationalData d = ThreeTypeFixture();
  la::Matrix r01 = d.Relation(0, 1);
  r01(0, 1) = std::numeric_limits<double>::quiet_NaN();
  r01(1, 2) = std::numeric_limits<double>::infinity();
  r01(2, 0) = -std::numeric_limits<double>::infinity();
  r01(3, 0) = -0.0;
  ASSERT_TRUE(d.SetRelation(0, 1, r01).ok());
  la::Matrix r21 = d.RelationTransposed(2, 1);
  r21(1, 1) = std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE(d.SetRelation(2, 1, r21).ok());
  const la::SparseMatrix r = d.BuildJointRSparse();
  ExpectSameCsr(r, TripletJointR(d));
  EXPECT_EQ(r.At(3, 4), 0.0);
  EXPECT_TRUE(std::isnan(r.At(0, 5)));
  EXPECT_TRUE(std::isnan(r.At(5, 0)));

  // Non-finite corruption from the generator, as the scenario grid plants
  // it.
  BlockWorldOptions o;
  o.objects_per_type = {24, 18, 12};
  o.n_classes = 3;
  o.corrupted_fraction = 0.2;
  o.corruption_mode = RowCorruptionMode::kNonFinite;
  o.seed = 33;
  const MultiTypeRelationalData poisoned = GenerateBlockWorld(o).value();
  ExpectSameCsr(poisoned.BuildJointRSparse(), TripletJointR(poisoned));
}

TEST(JointRAssembly, BitIdenticalAcrossPoolSizes) {
  const MultiTypeRelationalData d = BlockWorld(0.35);
  la::SparseMatrix serial, threaded;
  {
    ScopedNumThreads pool(1);
    serial = d.BuildJointRSparse();
  }
  {
    ScopedNumThreads pool(4);
    threaded = d.BuildJointRSparse();
  }
  ExpectSameCsr(threaded, serial);
}

TEST(MultiTypeData, JointRDensityCountsMirroredNonzeros) {
  MultiTypeRelationalData d = ThreeTypeFixture();
  la::SparseMatrix sparse = d.BuildJointRSparse();
  EXPECT_DOUBLE_EQ(d.JointRDensity(), sparse.Density());
  // r01 has 4 nonzeros, r02 has 4, r12 has 3 → 22 mirrored entries / 81.
  EXPECT_DOUBLE_EQ(d.JointRDensity(), 22.0 / 81.0);
}

TEST(MultiTypeData, RelationReturnsStoredBlockByReference) {
  // Copy hygiene: repeated stored-orientation lookups must hand back the
  // same object, not per-call copies.
  MultiTypeRelationalData d = ThreeTypeFixture();
  const la::Matrix& a = d.Relation(0, 1);
  const la::Matrix& b = d.Relation(0, 1);
  EXPECT_EQ(&a, &b);
}

TEST(MultiTypeData, JointLabels) {
  MultiTypeRelationalData d = ThreeTypeFixture();
  std::vector<std::size_t> joint = d.JointLabels();
  ASSERT_EQ(joint.size(), 9u);
  EXPECT_EQ(joint[0], 0u);
  EXPECT_EQ(joint[4], 0u);  // First term.
  EXPECT_EQ(joint[8], 1u);  // Last concept.
}

TEST(MultiTypeData, JointLabelsEmptyWhenAnyTypeUnlabelled) {
  MultiTypeRelationalData d = ThreeTypeFixture();
  d.MutableType(1).labels.clear();
  EXPECT_TRUE(d.JointLabels().empty());
}

TEST(MultiTypeData, ValidatePassesOnFixture) {
  MultiTypeRelationalData d = ThreeTypeFixture();
  EXPECT_TRUE(d.Validate().ok());
}

TEST(MultiTypeData, ValidateCatchesProblems) {
  {
    MultiTypeRelationalData d;
    EXPECT_FALSE(d.Validate().ok());  // No types.
  }
  {
    MultiTypeRelationalData d = ThreeTypeFixture();
    d.MutableType(0).clusters = 0;
    EXPECT_FALSE(d.Validate().ok());
  }
  {
    MultiTypeRelationalData d = ThreeTypeFixture();
    d.MutableType(0).clusters = 100;  // More clusters than objects.
    EXPECT_FALSE(d.Validate().ok());
  }
  {
    MultiTypeRelationalData d = ThreeTypeFixture();
    d.MutableType(2).labels = {0};  // Wrong label count.
    EXPECT_FALSE(d.Validate().ok());
  }
  {
    // A type with no relations cannot be co-clustered.
    MultiTypeRelationalData d;
    d.AddType({"a", 2, 1, {}, {}});
    d.AddType({"b", 2, 1, {}, {}});
    d.AddType({"c", 2, 1, {}, {}});
    EXPECT_TRUE(d.SetRelation(0, 1, la::Matrix(2, 2, 1.0)).ok());
    EXPECT_FALSE(d.Validate().ok());
  }
}

TEST(MultiTypeData, FeatureShapeMismatchCaught) {
  MultiTypeRelationalData d;
  Rng rng(3);
  d.AddType({"a", 4, 2, la::Matrix::RandomUniform(3, 2, &rng), {}});  // 3 != 4.
  d.AddType({"b", 2, 1, {}, {}});
  EXPECT_TRUE(d.SetRelation(0, 1, la::Matrix(4, 2, 1.0)).ok());
  EXPECT_FALSE(d.Validate().ok());
}

}  // namespace
}  // namespace data
}  // namespace rhchme
