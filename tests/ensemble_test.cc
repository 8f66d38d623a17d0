// Unit tests for the heterogeneous manifold ensemble (paper Eq. 12).

#include "core/ensemble.h"

#include <gtest/gtest.h>

#include "core/subspace.h"
#include "data/synthetic.h"
#include "eigen_sym.h"
#include "la/gemm.h"
#include "scoped_num_threads.h"

namespace rhchme {
namespace core {
namespace {

data::MultiTypeRelationalData SmallData() {
  data::BlockWorldOptions o;
  o.objects_per_type = {15, 12};
  o.n_classes = 3;
  o.seed = 9;
  return data::GenerateBlockWorld(o).value();
}

EnsembleOptions FastOptions() {
  EnsembleOptions opts;
  opts.subspace.spg.max_iterations = 20;
  return opts;
}

TEST(Ensemble, ValidationErrors) {
  EnsembleOptions opts = FastOptions();
  opts.include_knn = false;
  opts.include_subspace = false;
  EXPECT_FALSE(opts.Validate().ok());
  opts = FastOptions();
  opts.alpha = -1.0;
  EXPECT_FALSE(opts.Validate().ok());
  opts = FastOptions();
  opts.knn.p = 0;
  EXPECT_FALSE(opts.Validate().ok());
  EXPECT_TRUE(FastOptions().Validate().ok());
}

TEST(Ensemble, BlockDiagonalStructure) {
  data::MultiTypeRelationalData d = SmallData();
  fact::BlockStructure b = fact::BuildBlockStructure(d);
  Result<HeterogeneousEnsemble> e = BuildEnsemble(d, b, FastOptions());
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  // The joint Laplacian is stored sparse; densify for block inspection.
  const la::Matrix l = e.value().laplacian.ToDense();
  ASSERT_EQ(l.rows(), 27u);
  // Cross-type blocks are exactly zero.
  EXPECT_EQ(l.Block(0, 15, 15, 12).MaxAbs(), 0.0);
  EXPECT_EQ(l.Block(15, 0, 12, 15).MaxAbs(), 0.0);
  // Diagonal blocks are not.
  EXPECT_GT(l.Block(0, 0, 15, 15).MaxAbs(), 0.0);
  EXPECT_GT(l.Block(15, 15, 12, 12).MaxAbs(), 0.0);
}

TEST(Ensemble, EqualsAlphaLsPlusLe) {
  data::MultiTypeRelationalData d = SmallData();
  fact::BlockStructure b = fact::BuildBlockStructure(d);
  EnsembleOptions both = FastOptions();
  both.alpha = 2.5;
  EnsembleOptions only_s = both;
  only_s.include_knn = false;
  only_s.alpha = 1.0;  // Raw L_S.
  EnsembleOptions only_e = both;
  only_e.include_subspace = false;

  Result<HeterogeneousEnsemble> e_both = BuildEnsemble(d, b, both);
  Result<HeterogeneousEnsemble> e_s = BuildEnsemble(d, b, only_s);
  Result<HeterogeneousEnsemble> e_e = BuildEnsemble(d, b, only_e);
  ASSERT_TRUE(e_both.ok());
  ASSERT_TRUE(e_s.ok());
  ASSERT_TRUE(e_e.ok());

  la::Matrix expected = la::Scaled(e_s.value().laplacian.ToDense(), 2.5);
  expected.Add(e_e.value().laplacian.ToDense());
  EXPECT_LT(la::MaxAbsDiff(e_both.value().laplacian.ToDense(), expected),
            1e-9);
}

TEST(Ensemble, MembersAreRecorded) {
  data::MultiTypeRelationalData d = SmallData();
  fact::BlockStructure b = fact::BuildBlockStructure(d);
  Result<HeterogeneousEnsemble> e = BuildEnsemble(d, b, FastOptions());
  ASSERT_TRUE(e.ok());
  ASSERT_EQ(e.value().subspace_affinity.size(), 2u);
  ASSERT_EQ(e.value().knn_affinity.size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(e.value().subspace_affinity[k].rows(), d.Type(k).count);
    EXPECT_EQ(e.value().knn_affinity[k].rows(), d.Type(k).count);
    EXPECT_GT(e.value().knn_affinity[k].nnz(), 0u);
  }
}

TEST(Ensemble, DisabledMemberLeavesEmptySlot) {
  data::MultiTypeRelationalData d = SmallData();
  fact::BlockStructure b = fact::BuildBlockStructure(d);
  EnsembleOptions opts = FastOptions();
  opts.include_subspace = false;
  Result<HeterogeneousEnsemble> e = BuildEnsemble(d, b, opts);
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(e.value().subspace_affinity[0].empty());
  EXPECT_GT(e.value().knn_affinity[0].nnz(), 0u);
}

TEST(Ensemble, KnnOnlyLaplacianStaysSparse) {
  // With only the pNN member, the joint Laplacian pattern is bounded by
  // the symmetrised p-NN edges plus the diagonal — never densified.
  data::MultiTypeRelationalData d = SmallData();
  fact::BlockStructure b = fact::BuildBlockStructure(d);
  EnsembleOptions opts = FastOptions();
  opts.include_subspace = false;
  Result<HeterogeneousEnsemble> e = BuildEnsemble(d, b, opts);
  ASSERT_TRUE(e.ok());
  const std::size_t n = b.total_objects();
  const std::size_t p = opts.knn.p;
  EXPECT_GT(e.value().laplacian.nnz(), 0u);
  EXPECT_LE(e.value().laplacian.nnz(), n * (2 * p + 1));
}

TEST(Ensemble, LaplacianIsPSD) {
  // Both members are symmetric-normalised Laplacians, so the ensemble
  // (a nonnegative combination) must be PSD.
  data::MultiTypeRelationalData d = SmallData();
  fact::BlockStructure b = fact::BuildBlockStructure(d);
  Result<HeterogeneousEnsemble> e = BuildEnsemble(d, b, FastOptions());
  ASSERT_TRUE(e.ok());
  Result<la::EigenSymResult> eig =
      la::EigenSym(e.value().laplacian.ToDense());
  ASSERT_TRUE(eig.ok());
  EXPECT_GE(eig.value().eigenvalues.front(), -1e-8);
}

TEST(Ensemble, AlphaZeroDropsSubspaceInfluence) {
  data::MultiTypeRelationalData d = SmallData();
  fact::BlockStructure b = fact::BuildBlockStructure(d);
  EnsembleOptions zero_alpha = FastOptions();
  zero_alpha.alpha = 0.0;
  EnsembleOptions knn_only = FastOptions();
  knn_only.include_subspace = false;
  Result<HeterogeneousEnsemble> a = BuildEnsemble(d, b, zero_alpha);
  Result<HeterogeneousEnsemble> k = BuildEnsemble(d, b, knn_only);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(k.ok());
  EXPECT_LT(la::MaxAbsDiff(a.value().laplacian.ToDense(),
                           k.value().laplacian.ToDense()),
            1e-12);
}

TEST(Ensemble, ReweightMatchesFreshBuild) {
  data::MultiTypeRelationalData d = SmallData();
  fact::BlockStructure b = fact::BuildBlockStructure(d);
  EnsembleOptions base_opts = FastOptions();
  Result<HeterogeneousEnsemble> base = BuildEnsemble(d, b, base_opts);
  ASSERT_TRUE(base.ok());

  EnsembleOptions heavy = base_opts;
  heavy.alpha = 3.5;
  Result<HeterogeneousEnsemble> fresh = BuildEnsemble(d, b, heavy);
  ASSERT_TRUE(fresh.ok());
  Result<HeterogeneousEnsemble> reweighted =
      ReweightEnsemble(base.value(), b, 3.5);
  ASSERT_TRUE(reweighted.ok());
  EXPECT_LT(la::MaxAbsDiff(fresh.value().laplacian.ToDense(),
                           reweighted.value().laplacian.ToDense()),
            1e-9);
  EXPECT_DOUBLE_EQ(reweighted.value().alpha, 3.5);
}

TEST(Ensemble, ReweightRejectsBadInputs) {
  data::MultiTypeRelationalData d = SmallData();
  fact::BlockStructure b = fact::BuildBlockStructure(d);
  Result<HeterogeneousEnsemble> base = BuildEnsemble(d, b, FastOptions());
  ASSERT_TRUE(base.ok());
  EXPECT_FALSE(ReweightEnsemble(base.value(), b, -1.0).ok());
  HeterogeneousEnsemble broken = base.value();
  broken.subspace_affinity.pop_back();
  EXPECT_FALSE(ReweightEnsemble(broken, b, 1.0).ok());
}

// Per-member construction runs one manifold per pool task; member seeds
// are derived from (seed, type) before dispatch, so the assembled
// ensemble must be bit-identical whether the pool has 1 thread or 4
// (equivalently RHCHME_NUM_THREADS=1 vs 4, which feed the same pool).
TEST(Ensemble, BuildIsBitStableAcrossThreadCounts) {
  data::MultiTypeRelationalData d = SmallData();
  fact::BlockStructure b = fact::BuildBlockStructure(d);

  auto build = [&](int threads) {
    ScopedNumThreads scoped(threads);
    Result<HeterogeneousEnsemble> e = BuildEnsemble(d, b, FastOptions());
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    return std::move(e).value();
  };
  const HeterogeneousEnsemble serial = build(1);
  const HeterogeneousEnsemble threaded = build(4);

  ASSERT_EQ(serial.laplacian.nnz(), threaded.laplacian.nnz());
  EXPECT_EQ(serial.laplacian.values(), threaded.laplacian.values());
  EXPECT_EQ(serial.laplacian.col_indices(), threaded.laplacian.col_indices());
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(la::MaxAbsDiff(serial.subspace_affinity[k],
                             threaded.subspace_affinity[k]),
              0.0)
        << "type " << k;
    ASSERT_EQ(serial.knn_affinity[k].nnz(), threaded.knn_affinity[k].nnz());
    EXPECT_EQ(serial.knn_affinity[k].values(),
              threaded.knn_affinity[k].values());
    EXPECT_EQ(serial.knn_affinity[k].col_indices(),
              threaded.knn_affinity[k].col_indices());
  }
}

// A small type's subspace member fans out with the pNN members, while a
// large type's member runs on the caller with the whole pool (at pool 1
// both run on the caller). Every schedule must build the same ensemble.
TEST(Ensemble, SizeAwareScheduleIsBitStableAcrossThreadCounts) {
  data::BlockWorldOptions o;
  o.objects_per_type = {40, 600};
  o.n_classes = 3;
  o.seed = 12;
  const data::MultiTypeRelationalData d = data::GenerateBlockWorld(o).value();
  const fact::BlockStructure b = fact::BuildBlockStructure(d);
  ASSERT_LT(SpgRowChunks(40), 2u);
  ASSERT_GE(SpgRowChunks(600), 4u);
  EnsembleOptions opts;
  opts.subspace.spg.max_iterations = 5;

  auto build = [&](int threads) {
    ScopedNumThreads scoped(threads);
    Result<HeterogeneousEnsemble> e = BuildEnsemble(d, b, opts);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    return std::move(e).value();
  };
  const HeterogeneousEnsemble serial = build(1);
  for (int threads : {2, 4}) {
    const HeterogeneousEnsemble e = build(threads);
    EXPECT_EQ(serial.laplacian.values(), e.laplacian.values())
        << threads << " threads";
    EXPECT_EQ(serial.laplacian.col_indices(), e.laplacian.col_indices());
    for (std::size_t k = 0; k < 2; ++k) {
      EXPECT_EQ(la::MaxAbsDiff(serial.subspace_affinity[k],
                               e.subspace_affinity[k]),
                0.0)
          << "type " << k << ", " << threads << " threads";
      EXPECT_EQ(serial.knn_affinity[k].values(), e.knn_affinity[k].values());
    }
  }
}

TEST(Ensemble, ReweightIsBitStableAcrossThreadCounts) {
  data::MultiTypeRelationalData d = SmallData();
  fact::BlockStructure b = fact::BuildBlockStructure(d);
  Result<HeterogeneousEnsemble> base = BuildEnsemble(d, b, FastOptions());
  ASSERT_TRUE(base.ok());

  auto reweight = [&](int threads) {
    ScopedNumThreads scoped(threads);
    Result<HeterogeneousEnsemble> e = ReweightEnsemble(base.value(), b, 2.0);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    return std::move(e).value();
  };
  const HeterogeneousEnsemble serial = reweight(1);
  const HeterogeneousEnsemble threaded = reweight(4);
  ASSERT_EQ(serial.laplacian.nnz(), threaded.laplacian.nnz());
  EXPECT_EQ(serial.laplacian.values(), threaded.laplacian.values());
}

TEST(Ensemble, FailsWithoutFeatures) {
  data::MultiTypeRelationalData d = SmallData();
  d.MutableType(0).features = la::Matrix();
  fact::BlockStructure b = fact::BuildBlockStructure(d);
  Result<HeterogeneousEnsemble> e = BuildEnsemble(d, b, FastOptions());
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace core
}  // namespace rhchme
