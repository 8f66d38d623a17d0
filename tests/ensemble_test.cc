// Unit tests for the heterogeneous manifold ensemble (paper Eq. 12).

#include "core/ensemble.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "core/subspace.h"
#include "data/synthetic.h"
#include "eigen_sym.h"
#include "la/gemm.h"
#include "matrix_oracles.h"
#include "reference_laplacian.h"
#include "scoped_num_threads.h"
#include "util/rng.h"

namespace rhchme {
namespace core {
namespace {

using testing_reference::MaxAbsDiff;

data::MultiTypeRelationalData SmallData() {
  data::BlockWorldOptions o;
  o.objects_per_type = {15, 12};
  o.n_classes = 3;
  o.seed = 9;
  return data::GenerateBlockWorld(o).value();
}

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) ==
                           0);
}

void ExpectSameCsr(const la::SparseMatrix& got, const la::SparseMatrix& want) {
  EXPECT_EQ(got.rows(), want.rows());
  EXPECT_TRUE(SameBytes(got.row_offsets(), want.row_offsets()));
  EXPECT_TRUE(SameBytes(got.col_indices(), want.col_indices()));
  EXPECT_TRUE(SameBytes(got.values(), want.values()));
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

  la::Matrix expected = e_s.value().laplacian.ToDense();
  expected.Scale(2.5);
  expected.Add(e_e.value().laplacian.ToDense());
  EXPECT_LT(MaxAbsDiff(e_both.value().laplacian.ToDense(), expected),
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
  EXPECT_EQ(e.value().subspace_affinity[0].rows(), 0u);
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
  EXPECT_LT(MaxAbsDiff(a.value().laplacian.ToDense(),
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
  // Both run the same Laplacian-and-assembly tail on the same members,
  // and every field of the reweighted ensemble matches the fresh build.
  const HeterogeneousEnsemble& got = reweighted.value();
  const HeterogeneousEnsemble& want = fresh.value();
  ExpectSameCsr(got.laplacian, want.laplacian);
  ASSERT_EQ(got.subspace_affinity.size(), want.subspace_affinity.size());
  for (std::size_t k = 0; k < want.subspace_affinity.size(); ++k) {
    ExpectSameCsr(got.subspace_affinity[k], want.subspace_affinity[k]);
  }
  ASSERT_EQ(got.knn_affinity.size(), want.knn_affinity.size());
  for (std::size_t k = 0; k < want.knn_affinity.size(); ++k) {
    ExpectSameCsr(got.knn_affinity[k], want.knn_affinity[k]);
  }
  EXPECT_EQ(got.subspace_iterations, want.subspace_iterations);
  EXPECT_EQ(got.subspace_stop, want.subspace_stop);
  EXPECT_DOUBLE_EQ(got.alpha, 3.5);
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
    SCOPED_TRACE("type " + std::to_string(k));
    ExpectSameCsr(serial.subspace_affinity[k], threaded.subspace_affinity[k]);
    ASSERT_EQ(serial.knn_affinity[k].nnz(), threaded.knn_affinity[k].nnz());
    EXPECT_EQ(serial.knn_affinity[k].values(),
              threaded.knn_affinity[k].values());
    EXPECT_EQ(serial.knn_affinity[k].col_indices(),
              threaded.knn_affinity[k].col_indices());
  }
}

// A small type's members fan out, while a large type's members run on the
// caller with the whole pool (at pool 1 all run on the caller). Every
// schedule must build the same ensemble.
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
  std::vector<MemberShape> shapes;
  for (std::size_t k = 0; k < 2; ++k) {
    for (bool subspace : {true, false}) {
      shapes.push_back(
          {d.Type(k).features.rows(), d.Type(k).features.cols(), subspace});
    }
  }
  // Mixed at pools 2 and 4: the 600-object members alone on the caller.
  for (std::size_t pool : {2, 4}) {
    EXPECT_EQ(PlanMemberSchedule(shapes, 5, pool),
              (std::vector<bool>{false, false, true, true}))
        << pool;
  }

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
      SCOPED_TRACE("type " + std::to_string(k) + ", " +
                   std::to_string(threads) + " threads");
      ExpectSameCsr(serial.subspace_affinity[k], e.subspace_affinity[k]);
      EXPECT_EQ(serial.knn_affinity[k].values(), e.knn_affinity[k].values());
    }
  }
}

/// Member shapes of dense types (n·D feature nonzeros each), or of types
/// with the given nonzero counts.
std::vector<MemberShape> Shapes(
    const std::vector<std::pair<std::size_t, std::size_t>>& types,
    const std::vector<std::size_t>& nnz = {}) {
  std::vector<MemberShape> shapes;
  for (std::size_t k = 0; k < types.size(); ++k) {
    const auto [n, dims] = types[k];
    const std::size_t count = nnz.empty() ? n * dims : nnz[k];
    shapes.push_back({n, dims, true, count});
    shapes.push_back({n, dims, false, count});
  }
  return shapes;
}

/// Every subspace member on the caller, every pNN member fanned out.
std::vector<bool> SubspaceOnCaller(std::size_t types) {
  std::vector<bool> plan;
  for (std::size_t k = 0; k < types; ++k) {
    plan.push_back(true);
    plan.push_back(false);
  }
  return plan;
}

TEST(EnsembleSchedule, PlansTheWorkloadShapes) {
  // D4 (documents, terms, concepts): the 420-object member splits into
  // fewer row chunks than the pool, yet it runs on the caller too. At
  // pool 4 the three pNN members follow: one after another with the pool
  // they beat the fan-out, whose longest task runs on one thread. At
  // pool 2 that gain is gone and they fan out.
  const auto d4 =
      Shapes({{660, 520}, {520, 660}, {420, 660}}, {42834, 42834, 83454});
  ASSERT_LT(SpgRowChunks(420), 4u);
  EXPECT_EQ(PlanMemberSchedule(d4, 80, 4), std::vector<bool>(6, true));
  EXPECT_EQ(PlanMemberSchedule(d4, 80, 2), SubspaceOnCaller(3));
  // The tfidf-sparse corpus and the 3 × 600 block world.
  const auto tfidf = Shapes({{1200, 1000}, {1000, 1200}, {600, 1200}},
                            {24708, 24708, 41450});
  EXPECT_EQ(PlanMemberSchedule(tfidf, 80, 4), std::vector<bool>(6, true));
  EXPECT_EQ(PlanMemberSchedule(tfidf, 80, 2), SubspaceOnCaller(3));
  EXPECT_EQ(PlanMemberSchedule(
                Shapes({{600, 1200}, {600, 1200}, {600, 1200}}), 80, 4),
            std::vector<bool>(6, true));
  // bench_kernels' BM_EnsembleBuild/48 and /96: one-chunk members gain
  // nothing from the pool, so everything fans out.
  for (std::size_t n : {48, 96}) {
    EXPECT_EQ(PlanMemberSchedule(Shapes({{n, 2 * n}, {n, 2 * n}, {n, 2 * n}}),
                                 15, 4),
              std::vector<bool>(6, false))
        << n;
  }
  // One thread: no fan-out.
  EXPECT_EQ(PlanMemberSchedule(d4, 80, 1), std::vector<bool>(6, true));
  EXPECT_TRUE(PlanMemberSchedule({}, 80, 4).empty());
}

TEST(EnsembleSchedule, CostPlanBuildsTheSameD4EnsembleAtEveryPoolSize) {
  // D4 at 2 SPG steps. At pool 4 every member runs on the caller, the
  // 420-object concept member too although it splits into fewer row
  // chunks than the pool; at pool 2 the pNN members fan out.
  const data::MultiTypeRelationalData d =
      data::GenerateSyntheticCorpus(data::ReutersTop10Preset()).value();
  const fact::BlockStructure b = fact::BuildBlockStructure(d);
  EnsembleOptions opts;
  opts.subspace.spg.max_iterations = 2;
  std::vector<std::pair<std::size_t, std::size_t>> types;
  for (std::size_t k = 0; k < d.NumTypes(); ++k) {
    types.push_back({d.Type(k).features.rows(), d.Type(k).features.cols()});
  }
  ASSERT_EQ(types.back().first, 420u);
  ASSERT_LT(SpgRowChunks(420), 4u);
  EXPECT_EQ(PlanMemberSchedule(Shapes(types), 2, 4),
            std::vector<bool>(6, true));
  EXPECT_EQ(PlanMemberSchedule(Shapes(types), 2, 2), SubspaceOnCaller(3));

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
    for (std::size_t k = 0; k < d.NumTypes(); ++k) {
      SCOPED_TRACE("type " + std::to_string(k) + ", " +
                   std::to_string(threads) + " threads");
      ExpectSameCsr(serial.subspace_affinity[k], e.subspace_affinity[k]);
      EXPECT_EQ(serial.knn_affinity[k].values(), e.knn_affinity[k].values());
    }
  }
}

TEST(Ensemble, RecordsHowEachSubspaceMemberStopped) {
  data::MultiTypeRelationalData d = SmallData();
  fact::BlockStructure b = fact::BuildBlockStructure(d);
  auto build = [&](const EnsembleOptions& opts) {
    Result<HeterogeneousEnsemble> e = BuildEnsemble(d, b, opts);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    return std::move(e).value();
  };
  // At 80 steps both members plateau well before the cap; the record
  // matches each member learned alone.
  EnsembleOptions opts = FastOptions();
  opts.subspace.spg.max_iterations = 80;
  const HeterogeneousEnsemble e = build(opts);
  ASSERT_EQ(e.subspace_iterations.size(), 2u);
  ASSERT_EQ(e.subspace_stop.size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    SubspaceOptions sub = opts.subspace;
    sub.seed = DeriveStreamSeed(opts.subspace.seed, k);
    const SubspaceResult alone =
        LearnSubspaceAffinity(d.Type(k).features, sub).value();
    EXPECT_EQ(e.subspace_iterations[k], alone.iterations);
    EXPECT_EQ(e.subspace_stop[k], alone.stop);
    EXPECT_EQ(e.subspace_stop[k], StopReason::kPlateau) << "type " << k;
    EXPECT_LT(e.subspace_iterations[k], 80) << "type " << k;
  }
  // Re-weighting keeps the record.
  Result<HeterogeneousEnsemble> r = ReweightEnsemble(e, b, 2.0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().subspace_iterations, e.subspace_iterations);
  EXPECT_EQ(r.value().subspace_stop, e.subspace_stop);

  // Neither the plateau nor the tolerance comes within 20 steps: both
  // members hit the cap.
  const HeterogeneousEnsemble c = build(FastOptions());
  EXPECT_EQ(c.subspace_iterations, std::vector<int>(2, 20));
  EXPECT_EQ(c.subspace_stop,
            std::vector<StopReason>(2, StopReason::kMaxIterations));

  // A loose tolerance stops every member at the first probe.
  EnsembleOptions loose = FastOptions();
  loose.subspace.spg.tolerance = 1e9;
  const HeterogeneousEnsemble l = build(loose);
  EXPECT_EQ(l.subspace_iterations, std::vector<int>(2, 0));
  EXPECT_EQ(l.subspace_stop,
            std::vector<StopReason>(2, StopReason::kTolerance));

  // A disabled member has no record.
  EnsembleOptions knn_only = FastOptions();
  knn_only.include_subspace = false;
  const HeterogeneousEnsemble k = build(knn_only);
  EXPECT_TRUE(k.subspace_iterations.empty());
  EXPECT_TRUE(k.subspace_stop.empty());
}

// ---- Joint Laplacian assembly ----------------------------------------------

/// The triplet assembly that AssembleJointLaplacian's direct CSR rows
/// replaced, on dense L_S blocks: every nonzero alpha·L_S entry and every
/// L_E entry becomes a triplet, and FromTriplets sums the overlaps.
la::SparseMatrix ReferenceAssembly(
    const fact::BlockStructure& blocks,
    const std::vector<la::Matrix>& subspace_lap,
    const std::vector<la::SparseMatrix>& knn_lap, double alpha) {
  std::vector<la::Triplet> trips;
  for (std::size_t k = 0; k < blocks.num_types(); ++k) {
    const std::size_t off = blocks.type_offset[k];
    const la::Matrix& ls = subspace_lap[k];
    for (std::size_t i = 0; i < ls.rows(); ++i) {
      for (std::size_t j = 0; j < ls.cols(); ++j) {
        const double v = alpha * ls(i, j);
        if (v != 0.0) trips.push_back({off + i, off + j, v});
      }
    }
    const la::SparseMatrix& le = knn_lap[k];
    for (std::size_t i = 0; i < le.rows(); ++i) {
      for (std::size_t p = le.row_offsets()[i]; p < le.row_offsets()[i + 1];
           ++p) {
        trips.push_back({off + i, off + le.col_indices()[p], le.values()[p]});
      }
    }
  }
  return la::SparseMatrix::FromTriplets(
      blocks.total_objects(), blocks.total_objects(), std::move(trips));
}

std::vector<la::SparseMatrix> Csr(const std::vector<la::Matrix>& dense) {
  std::vector<la::SparseMatrix> out;
  for (const la::Matrix& m : dense) {
    out.push_back(la::SparseMatrix::FromDense(m));
  }
  return out;
}

TEST(EnsembleAssembly, MatchesTheTripletAssemblyByteForByte) {
  // Type 0 has both members with overlapping entries, among them one
  // pair that cancels exactly, an explicit zero and a −0.0 in L_E; type 1
  // has only L_E, type 2 only L_S.
  fact::BlockStructure blocks;
  blocks.type_offset = {0, 4, 7, 10};
  blocks.cluster_offset = {0, 1, 2, 3};
  std::vector<la::Matrix> ls(3);
  ls[0] = la::Matrix::FromRows({{1.0, 0.5, 0.0, -0.25},
                                {0.5, 1.0, 0.0, 0.0},
                                {0.0, 0.0, 0.0, 0.125},
                                {-0.25, 0.0, 0.125, 1.0}});
  ls[2] = la::Matrix::FromRows(
      {{1.0, -0.3, 0.0}, {-0.3, 1.0, 0.7}, {0.0, 0.7, 1.0}});
  std::vector<la::SparseMatrix> le(3);
  le[0] = la::SparseMatrix::FromCsr(
              4, 4, {0, 3, 5, 7, 9}, {0, 1, 3, 1, 2, 2, 3, 0, 3},
              {1.0, -1.0, 0.25, 1.0, 0.0, -0.0, 0.5, -0.5, 1.0})
              .value();
  le[1] = la::SparseMatrix::FromCsr(3, 3, {0, 2, 3, 5}, {0, 2, 1, 0, 2},
                                    {1.0, -0.5, 1.0, -0.5, 1.0})
              .value();
  // The library takes L_S as CSR. The second form stores explicit zeros
  // (a 0.0 and a −0.0 in type 0's row 2), which must count as absent.
  std::vector<la::SparseMatrix> ls_csr = Csr(ls);
  std::vector<la::SparseMatrix> ls_zeros = ls_csr;
  ls_zeros[0] = la::SparseMatrix::FromCsr(
                    4, 4, {0, 3, 5, 8, 11},
                    {0, 1, 3, 0, 1, 0, 1, 3, 0, 2, 3},
                    {1.0, 0.5, -0.25, 0.5, 1.0, 0.0, -0.0, 0.125, -0.25,
                     0.125, 1.0})
                    .value();
  ASSERT_EQ(MaxAbsDiff(ls_zeros[0].ToDense(), ls[0]), 0.0);
  for (double alpha : {2.0, 1.0, 0.3, 0.0}) {
    for (int pool : {1, 4}) {
      ScopedNumThreads threads(pool);
      SCOPED_TRACE("alpha " + std::to_string(alpha) + ", pool " +
                   std::to_string(pool));
      const la::SparseMatrix want = ReferenceAssembly(blocks, ls, le, alpha);
      ExpectSameCsr(AssembleJointLaplacian(blocks, ls_csr, le, alpha), want);
      ExpectSameCsr(AssembleJointLaplacian(blocks, ls_zeros, le, alpha),
                    want);
    }
  }
  // At alpha 2, L_S(0, 1)·2 + L_E(0, 1) = 0: that entry is dropped.
  EXPECT_EQ(AssembleJointLaplacian(blocks, ls_csr, le, 2.0).At(0, 1), 0.0);
  EXPECT_EQ(AssembleJointLaplacian(blocks, ls_csr, le, 2.0).nnz(),
            ReferenceAssembly(blocks, ls, le, 2.0).nnz());
}

TEST(EnsembleAssembly, BuiltEnsembleMatchesTheTripletAssembly) {
  // Types large enough for several row chunks; the diagonals and the
  // pNN edges overlap the subspace Laplacian throughout.
  data::BlockWorldOptions o;
  o.objects_per_type = {300, 200};
  o.n_classes = 3;
  o.seed = 5;
  const data::MultiTypeRelationalData d = data::GenerateBlockWorld(o).value();
  const fact::BlockStructure b = fact::BuildBlockStructure(d);
  EnsembleOptions opts;
  opts.subspace.spg.max_iterations = 2;
  Result<HeterogeneousEnsemble> e = BuildEnsemble(d, b, opts);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  // L_S from the dense rule on the densified W^S, L_E from the library.
  std::vector<la::Matrix> ls;
  std::vector<la::SparseMatrix> ls_csr, le;
  for (std::size_t k = 0; k < d.NumTypes(); ++k) {
    const la::SparseMatrix& ws = e.value().subspace_affinity[k];
    ls.push_back(testing_reference::ReferenceDenseLaplacian(ws.ToDense()));
    ls_csr.push_back(graph::BuildSparseLaplacian(ws, opts.laplacian).value());
    le.push_back(graph::BuildSparseLaplacian(e.value().knn_affinity[k],
                                             opts.laplacian)
                     .value());
  }
  ExpectSameCsr(e.value().laplacian, ReferenceAssembly(b, ls, le, opts.alpha));
  for (int pool : {1, 4}) {
    ScopedNumThreads threads(pool);
    ExpectSameCsr(AssembleJointLaplacian(b, ls_csr, le, 0.5),
                  ReferenceAssembly(b, ls, le, 0.5));
    ExpectSameCsr(ReweightEnsemble(e.value(), b, 0.5).value().laplacian,
                  ReferenceAssembly(b, ls, le, 0.5));
  }
}

TEST(Ensemble, ReweightAllocatesNoDenseTypeSquare) {
  // The subspace member's W^S and L_S stay CSR: re-weighting (and the
  // copy of the ensemble it returns) allocates no la::Matrix of n_k²
  // entries or more.
  data::BlockWorldOptions o;
  o.objects_per_type = {150, 120};
  o.n_classes = 3;
  o.seed = 4;
  const data::MultiTypeRelationalData d = data::GenerateBlockWorld(o).value();
  const fact::BlockStructure b = fact::BuildBlockStructure(d);
  Result<HeterogeneousEnsemble> base = BuildEnsemble(d, b, FastOptions());
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_GT(base.value().subspace_affinity[1].nnz(), 0u);
  la::memstats::StartTracking(120 * 120);
  Result<HeterogeneousEnsemble> r = ReweightEnsemble(base.value(), b, 2.0);
  la::memstats::StopTracking();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(la::memstats::LargeAllocations(), 0u);
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
