// Unit tests for the SRC, SNMTF, RMC and DRCC baselines.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "baselines/drcc.h"
#include "baselines/rmc.h"
#include "baselines/snmtf.h"
#include "baselines/src_clustering.h"
#include "core/ensemble.h"
#include "data/synthetic.h"
#include "dense_reference_solver.h"
#include "eval/metrics.h"
#include "la/gemm.h"
#include "matrix_oracles.h"
#include "scoped_num_threads.h"
#include "util/fault.h"

namespace rhchme {
namespace baselines {
namespace {

using testing_reference::AddScaled;
using testing_reference::IsNonNegative;

data::MultiTypeRelationalData SmallData(uint64_t seed = 17) {
  data::BlockWorldOptions o;
  o.objects_per_type = {24, 18, 12};
  o.n_classes = 3;
  o.seed = seed;
  return data::GenerateBlockWorld(o).value();
}

// ---- SRC -------------------------------------------------------------------

TEST(Src, RecoversPlantedClusters) {
  data::MultiTypeRelationalData d = SmallData();
  SrcOptions opts;
  opts.max_iterations = 40;
  Result<fact::HoccResult> r = RunSrc(d, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Result<double> f = eval::FScore(d.Type(0).labels, r.value().labels[0]);
  ASSERT_TRUE(f.ok());
  EXPECT_GT(f.value(), 0.9);
}

TEST(Src, ObjectiveDecreases) {
  data::MultiTypeRelationalData d = SmallData();
  SrcOptions opts;
  opts.max_iterations = 30;
  opts.tolerance = 0.0;
  Result<fact::HoccResult> r = RunSrc(d, opts);
  ASSERT_TRUE(r.ok());
  const auto& t = r.value().objective_trace;
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_LE(t[i], t[i - 1] * (1.0 + 1e-7)) << "iteration " << i;
  }
}

TEST(Src, ValidationErrors) {
  SrcOptions opts;
  opts.max_iterations = 0;
  EXPECT_FALSE(RunSrc(SmallData(), opts).ok());
}

// ---- SNMTF -----------------------------------------------------------------

TEST(Snmtf, RecoversPlantedClusters) {
  data::MultiTypeRelationalData d = SmallData();
  SnmtfOptions opts;
  opts.lambda = 1.0;
  opts.max_iterations = 40;
  Result<fact::HoccResult> r = RunSnmtf(d, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Result<double> f = eval::FScore(d.Type(0).labels, r.value().labels[0]);
  ASSERT_TRUE(f.ok());
  EXPECT_GT(f.value(), 0.9);
}

TEST(Snmtf, ObjectiveDecreases) {
  data::MultiTypeRelationalData d = SmallData();
  SnmtfOptions opts;
  opts.lambda = 0.5;
  opts.max_iterations = 30;
  opts.tolerance = 0.0;
  Result<fact::HoccResult> r = RunSnmtf(d, opts);
  ASSERT_TRUE(r.ok());
  const auto& t = r.value().objective_trace;
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_LE(t[i], t[i - 1] * (1.0 + 1e-7)) << "iteration " << i;
  }
}

TEST(Snmtf, JointLaplacianIsBlockDiagonal) {
  // SNMTF's single-graph Laplacian is the pNN-only ensemble's.
  data::MultiTypeRelationalData d = SmallData();
  fact::BlockStructure b = fact::BuildBlockStructure(d);
  core::EnsembleOptions knn_only;
  knn_only.include_subspace = false;
  Result<core::HeterogeneousEnsemble> e = core::BuildEnsemble(d, b, knn_only);
  ASSERT_TRUE(e.ok());
  const la::Matrix l = e.value().laplacian.ToDense();
  EXPECT_EQ(l.Block(0, 24, 24, 18).MaxAbs(), 0.0);
  EXPECT_GT(l.Block(0, 0, 24, 24).MaxAbs(), 0.0);
}

TEST(Snmtf, FailsWithoutFeatures) {
  data::MultiTypeRelationalData d = SmallData();
  d.MutableType(1).features = la::Matrix();
  SnmtfOptions opts;
  EXPECT_FALSE(RunSnmtf(d, opts).ok());
}

// ---- RMC -------------------------------------------------------------------

TEST(Rmc, DefaultCandidatesMatchPaper) {
  // q = 6: p ∈ {5, 10} × {binary, heat, cosine} (paper §IV.B).
  auto cands = DefaultRmcCandidates();
  ASSERT_EQ(cands.size(), 6u);
  std::size_t p5 = 0, p10 = 0;
  for (const auto& c : cands) {
    if (c.p == 5) ++p5;
    if (c.p == 10) ++p10;
  }
  EXPECT_EQ(p5, 3u);
  EXPECT_EQ(p10, 3u);
}

TEST(Rmc, RecoversPlantedClustersAndWeightsSumToOne) {
  data::MultiTypeRelationalData d = SmallData();
  RmcOptions opts;
  opts.lambda = 1.0;
  opts.max_iterations = 30;
  Result<RmcResult> r = RunRmc(d, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Result<double> f = eval::FScore(d.Type(0).labels, r.value().hocc.labels[0]);
  ASSERT_TRUE(f.ok());
  EXPECT_GT(f.value(), 0.9);
  double sum = 0.0;
  for (double b : r.value().candidate_weights) {
    EXPECT_GE(b, 0.0);
    sum += b;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Rmc, CustomCandidateListRespected) {
  data::MultiTypeRelationalData d = SmallData();
  RmcOptions opts;
  opts.lambda = 1.0;
  opts.max_iterations = 10;
  graph::KnnGraphOptions only;
  only.p = 3;
  opts.candidates = {only};
  Result<RmcResult> r = RunRmc(d, opts);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().candidate_weights.size(), 1u);
  EXPECT_NEAR(r.value().candidate_weights[0], 1.0, 1e-12);
}

// Simplex projection properties (TEST_P over inputs).
class SimplexTest : public ::testing::TestWithParam<std::vector<double>> {};

TEST_P(SimplexTest, OutputOnSimplex) {
  std::vector<double> out = ProjectOntoSimplex(GetParam());
  double sum = 0.0;
  for (double v : out) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, SimplexTest,
    ::testing::Values(std::vector<double>{0.2, 0.3, 0.5},
                      std::vector<double>{10.0, -5.0, 0.0},
                      std::vector<double>{-1.0, -2.0, -3.0},
                      std::vector<double>{0.0, 0.0},
                      std::vector<double>{7.0},
                      std::vector<double>{1e6, 1e6, 1e-6}));

TEST(Simplex, AlreadyOnSimplexIsFixedPoint) {
  std::vector<double> v = {0.1, 0.4, 0.5};
  std::vector<double> out = ProjectOntoSimplex(v);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(out[i], v[i], 1e-12);
}

TEST(Simplex, PreservesOrdering) {
  std::vector<double> out = ProjectOntoSimplex({3.0, 1.0, 2.0});
  EXPECT_GE(out[0], out[2]);
  EXPECT_GE(out[2], out[1]);
}

// ---- DRCC ------------------------------------------------------------------

/// Nonnegative block matrix with planted co-clusters.
la::Matrix BlockMatrix(Rng* rng) {
  la::Matrix x(30, 20);
  for (std::size_t i = 0; i < 30; ++i) {
    for (std::size_t j = 0; j < 20; ++j) {
      const bool same = (i / 10) == (j / 7 > 2 ? 2 : j / 7);
      x(i, j) = (same ? 1.0 : 0.1) * (0.5 + rng->Uniform());
    }
  }
  return x;
}

TEST(Drcc, RecoversRowCoClusters) {
  Rng rng(23);
  la::Matrix x = BlockMatrix(&rng);
  DrccOptions opts;
  opts.row_clusters = 3;
  opts.col_clusters = 3;
  opts.lambda = 0.1;
  opts.mu = 0.1;
  opts.max_iterations = 60;
  Result<DrccResult> r = RunDrcc(x, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<std::size_t> truth(30);
  for (std::size_t i = 0; i < 30; ++i) truth[i] = i / 10;
  Result<double> f = eval::FScore(truth, r.value().row_labels);
  ASSERT_TRUE(f.ok());
  EXPECT_GT(f.value(), 0.85);
}

TEST(Drcc, FactorsHaveRightShapes) {
  Rng rng(29);
  la::Matrix x = BlockMatrix(&rng);
  DrccOptions opts;
  opts.row_clusters = 3;
  opts.col_clusters = 4;
  opts.max_iterations = 15;
  Result<DrccResult> r = RunDrcc(x, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().g.rows(), 30u);
  EXPECT_EQ(r.value().g.cols(), 3u);
  EXPECT_EQ(r.value().f.rows(), 20u);
  EXPECT_EQ(r.value().f.cols(), 4u);
  EXPECT_EQ(r.value().s.rows(), 3u);
  EXPECT_EQ(r.value().s.cols(), 4u);
  EXPECT_EQ(r.value().row_labels.size(), 30u);
  EXPECT_EQ(r.value().col_labels.size(), 20u);
  EXPECT_TRUE(IsNonNegative(r.value().g));
  EXPECT_TRUE(IsNonNegative(r.value().f));
}

TEST(Drcc, ObjectiveDecreases) {
  Rng rng(31);
  la::Matrix x = BlockMatrix(&rng);
  DrccOptions opts;
  opts.row_clusters = 3;
  opts.col_clusters = 3;
  opts.lambda = 0.2;
  opts.mu = 0.2;
  opts.max_iterations = 25;
  opts.tolerance = 0.0;
  Result<DrccResult> r = RunDrcc(x, opts);
  ASSERT_TRUE(r.ok());
  const auto& t = r.value().objective_trace;
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_LE(t[i], t[i - 1] * (1.0 + 1e-6)) << "iteration " << i;
  }
}

TEST(Drcc, ValidationErrors) {
  Rng rng(37);
  la::Matrix x = BlockMatrix(&rng);
  DrccOptions opts;
  opts.row_clusters = 0;
  EXPECT_FALSE(RunDrcc(x, opts).ok());
  opts = DrccOptions{};
  opts.row_clusters = 100;  // More clusters than rows.
  opts.col_clusters = 2;
  EXPECT_FALSE(RunDrcc(x, opts).ok());
  opts = DrccOptions{};
  opts.row_clusters = 2;
  opts.col_clusters = 2;
  opts.lambda = -1.0;
  EXPECT_FALSE(RunDrcc(x, opts).ok());
  // NaN fails every real-valued knob: a NaN mu used to turn G into NaN
  // behind an OK status, and a NaN tolerance to run silently to the cap.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double DrccOptions::*field :
       {&DrccOptions::lambda, &DrccOptions::mu, &DrccOptions::tolerance}) {
    opts = DrccOptions{};
    opts.*field = nan;
    EXPECT_FALSE(opts.Validate().ok());
    EXPECT_FALSE(RunDrcc(x, opts).ok());
  }
}

// ---- Thread-count determinism ---------------------------------------------
//
// The scenario quality gate (tools/quality_compare.py) compares baseline
// metrics exactly against a committed artefact, which is only sound if
// every baseline honours the library's determinism contract:
// bit-identical results for any pool size given a fixed seed.

/// Runs `fit` under pool sizes 1 and 4 and returns both outcomes.
template <typename Fn>
auto FitUnderThreadCounts(Fn fit) {
  ScopedNumThreads one(1);
  auto a = fit();
  ScopedNumThreads four(4);
  auto b = fit();
  return std::make_pair(std::move(a), std::move(b));
}

void ExpectIdenticalHocc(const fact::HoccResult& a, const fact::HoccResult& b) {
  ASSERT_EQ(a.labels.size(), b.labels.size());
  for (std::size_t k = 0; k < a.labels.size(); ++k) {
    EXPECT_EQ(a.labels[k], b.labels[k]) << "type " << k;
  }
  ASSERT_EQ(a.objective_trace.size(), b.objective_trace.size());
  for (std::size_t i = 0; i < a.objective_trace.size(); ++i) {
    EXPECT_EQ(a.objective_trace[i], b.objective_trace[i]) << "iteration " << i;
  }
}

TEST(Determinism, SrcBitIdenticalAcrossThreadCounts) {
  data::MultiTypeRelationalData d = SmallData();
  SrcOptions opts;
  opts.max_iterations = 15;
  opts.seed = 5;
  auto [a, b] = FitUnderThreadCounts([&] { return RunSrc(d, opts); });
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectIdenticalHocc(a.value(), b.value());
}

TEST(Determinism, SnmtfBitIdenticalAcrossThreadCounts) {
  data::MultiTypeRelationalData d = SmallData();
  SnmtfOptions opts;
  opts.lambda = 1.0;
  opts.max_iterations = 15;
  opts.seed = 5;
  auto [a, b] = FitUnderThreadCounts([&] { return RunSnmtf(d, opts); });
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectIdenticalHocc(a.value(), b.value());
}

TEST(Determinism, RmcBitIdenticalAcrossThreadCounts) {
  data::MultiTypeRelationalData d = SmallData();
  RmcOptions opts;
  opts.lambda = 1.0;
  opts.max_iterations = 15;
  opts.seed = 5;
  auto [a, b] = FitUnderThreadCounts([&] { return RunRmc(d, opts); });
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectIdenticalHocc(a.value().hocc, b.value().hocc);
  ASSERT_EQ(a.value().candidate_weights.size(),
            b.value().candidate_weights.size());
  for (std::size_t i = 0; i < a.value().candidate_weights.size(); ++i) {
    EXPECT_EQ(a.value().candidate_weights[i], b.value().candidate_weights[i]);
  }
}

TEST(Determinism, DrccBitIdenticalAcrossThreadCounts) {
  Rng rng(41);
  la::Matrix x = BlockMatrix(&rng);
  DrccOptions opts;
  opts.row_clusters = 3;
  opts.col_clusters = 3;
  opts.max_iterations = 15;
  opts.seed = 5;
  auto [a, b] = FitUnderThreadCounts([&] { return RunDrcc(x, opts); });
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().row_labels, b.value().row_labels);
  EXPECT_EQ(a.value().col_labels, b.value().col_labels);
  ASSERT_EQ(a.value().objective_trace.size(),
            b.value().objective_trace.size());
  for (std::size_t i = 0; i < a.value().objective_trace.size(); ++i) {
    EXPECT_EQ(a.value().objective_trace[i], b.value().objective_trace[i])
        << "iteration " << i;
  }
}

// ---- One solver core -------------------------------------------------------
//
// SRC, SNMTF and RMC run the RHCHME core with E_R and Eq. 22 off; the
// dense oracle of tests/dense_reference_solver.h checks the mapping, and
// the core's validation, guards and footprint carry over to all three.

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(Src, RejectsNaNTolerance) {
  SrcOptions opts;
  opts.tolerance = kNaN;
  EXPECT_EQ(RunSrc(SmallData(), opts).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Snmtf, RejectsNaNTolerance) {
  SnmtfOptions opts;
  opts.tolerance = kNaN;
  EXPECT_EQ(RunSnmtf(SmallData(), opts).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Rmc, RejectsNaNToleranceAndMu) {
  RmcOptions opts;
  opts.tolerance = kNaN;
  EXPECT_EQ(RunRmc(SmallData(), opts).status().code(),
            StatusCode::kInvalidArgument);
  opts = RmcOptions{};
  opts.mu = kNaN;
  EXPECT_EQ(RunRmc(SmallData(), opts).status().code(),
            StatusCode::kInvalidArgument);
}

constexpr const char* kCoreBaselines[] = {"SRC", "SNMTF", "RMC"};

/// One of kCoreBaselines fitted on `d` for a few iterations.
Result<fact::HoccResult> FitCoreBaseline(
    const std::string& method, const data::MultiTypeRelationalData& d) {
  if (method == "SRC") {
    SrcOptions opts;
    opts.max_iterations = 12;
    return RunSrc(d, opts);
  }
  if (method == "SNMTF") {
    SnmtfOptions opts;
    opts.lambda = 1.0;
    opts.max_iterations = 12;
    return RunSnmtf(d, opts);
  }
  RmcOptions opts;
  opts.lambda = 1.0;
  opts.max_iterations = 12;
  Result<RmcResult> fit = RunRmc(d, opts);
  if (!fit.ok()) return fit.status();
  return std::move(fit).value().hocc;
}

TEST(CoreBaselines, RecoverFromNaNRelationEntry) {
  data::MultiTypeRelationalData d = SmallData();
  la::Matrix r01 = d.Relation(0, 1);
  r01(3, 2) = kNaN;
  ASSERT_TRUE(d.SetRelation(0, 1, r01).ok());
  for (const std::string method : kCoreBaselines) {
    Result<fact::HoccResult> fit = FitCoreBaseline(method, d);
    ASSERT_TRUE(fit.ok()) << method << ": " << fit.status().ToString();
    EXPECT_TRUE(fit.value().g.AllFinite()) << method;
  }
}

TEST(CoreBaselines, RecoverFromEveryPoisonSite) {
  const data::MultiTypeRelationalData d = SmallData();
  util::ScopedFaultDisarm disarm;
  for (const char* site :
       {util::fault_site::kInitPoison, util::fault_site::kCentralSolvePoison,
        util::fault_site::kGUpdatePoison, util::fault_site::kResidualPoison,
        util::fault_site::kObjectivePoison}) {
    for (const std::string method : kCoreBaselines) {
      util::FaultArmCountdown(site, 1);
      Result<fact::HoccResult> fit = FitCoreBaseline(method, d);
      const long long hits = util::FaultHitCount(site);
      util::FaultDisarm();
      EXPECT_GT(hits, 0) << site << " " << method;
      ASSERT_TRUE(fit.ok()) << site << " " << method << ": "
                            << fit.status().ToString();
      EXPECT_TRUE(fit.value().g.AllFinite()) << site << " " << method;
      EXPECT_TRUE(IsNonNegative(fit.value().g)) << site << " " << method;
    }
  }
}

/// No dense n x n allocation: the joint R stays CSR and every Laplacian
/// sparse (la::memstats counts each Matrix of at least n² doubles).
TEST(CoreBaselines, AllocateNoDenseNxN) {
  const data::MultiTypeRelationalData d = SmallData();
  const std::size_t n = d.TotalObjects();
  for (const std::string method : kCoreBaselines) {
    la::memstats::StartTracking(n * n);
    Result<fact::HoccResult> fit = FitCoreBaseline(method, d);
    la::memstats::StopTracking();
    ASSERT_TRUE(fit.ok()) << method;
    EXPECT_EQ(la::memstats::LargeAllocations(), 0u) << method;
  }
}

/// Core options of the dense oracle for a baseline: E_R and Eq. 22 off, a
/// fixed iteration count.
core::RhchmeOptions OracleOptions(double lambda, uint64_t seed) {
  core::RhchmeOptions o;
  o.lambda = lambda;
  o.use_error_matrix = false;
  o.normalize_rows = false;
  o.max_iterations = 40;
  o.tolerance = 0.0;
  o.seed = seed;
  return o;
}

/// pNN-only ensemble for one pNN configuration: SNMTF's Laplacian and an
/// RMC candidate.
core::HeterogeneousEnsemble KnnEnsemble(const data::MultiTypeRelationalData& d,
                                        const graph::KnnGraphOptions& knn) {
  core::EnsembleOptions o;
  o.include_subspace = false;
  o.knn = knn;
  return core::BuildEnsemble(d, fact::BuildBlockStructure(d), o).value();
}

void ExpectMatchesOracle(const data::MultiTypeRelationalData& d,
                         const fact::HoccResult& got,
                         const testing_reference::DenseReferenceFit& want) {
  const fact::BlockStructure b = fact::BuildBlockStructure(d);
  EXPECT_EQ(got.labels, fact::ExtractLabels(b, want.g));
  ASSERT_EQ(got.objective_trace.size(), want.objective_trace.size());
  for (std::size_t i = 0; i < got.objective_trace.size(); ++i) {
    EXPECT_NEAR(got.objective_trace[i], want.objective_trace[i],
                1e-12 * std::fabs(want.objective_trace[i]))
        << "iteration " << i;
  }
}

TEST(CoreBaselines, SrcMatchesDenseOracle) {
  const data::MultiTypeRelationalData d = SmallData();
  const std::size_t n = d.TotalObjects();
  core::HeterogeneousEnsemble none;
  none.laplacian = la::SparseMatrix::FromTriplets(n, n, {});
  const testing_reference::DenseReferenceFit want =
      testing_reference::DenseReferenceSolve(d, none, OracleOptions(0.0, 3));
  for (int threads : {1, 4}) {
    ScopedNumThreads pool(threads);
    SrcOptions opts;
    opts.max_iterations = 40;
    opts.tolerance = 0.0;
    opts.seed = 3;
    Result<fact::HoccResult> got = RunSrc(d, opts);
    ASSERT_TRUE(got.ok());
    ExpectMatchesOracle(d, got.value(), want);
  }
}

TEST(CoreBaselines, SnmtfMatchesDenseOracle) {
  const data::MultiTypeRelationalData d = SmallData();
  const testing_reference::DenseReferenceFit want =
      testing_reference::DenseReferenceSolve(
          d, KnnEnsemble(d, graph::KnnGraphOptions{}), OracleOptions(1.0, 3));
  for (int threads : {1, 4}) {
    ScopedNumThreads pool(threads);
    SnmtfOptions opts;
    opts.lambda = 1.0;
    opts.max_iterations = 40;
    opts.tolerance = 0.0;
    opts.seed = 3;
    Result<fact::HoccResult> got = RunSnmtf(d, opts);
    ASSERT_TRUE(got.ok());
    ExpectMatchesOracle(d, got.value(), want);
  }
}

TEST(CoreBaselines, RmcWithOneCandidateIsSnmtfBitForBit) {
  const data::MultiTypeRelationalData d = SmallData();
  graph::KnnGraphOptions knn;
  knn.p = 7;
  knn.scheme = graph::WeightScheme::kHeatKernel;
  SnmtfOptions snmtf;
  snmtf.knn = knn;
  snmtf.lambda = 2.0;
  snmtf.max_iterations = 30;
  snmtf.seed = 9;
  RmcOptions rmc;
  rmc.candidates = {knn};
  rmc.lambda = 2.0;
  rmc.max_iterations = 30;
  rmc.seed = 9;
  Result<fact::HoccResult> want = RunSnmtf(d, snmtf);
  Result<RmcResult> got = RunRmc(d, rmc);
  ASSERT_TRUE(want.ok() && got.ok());
  EXPECT_EQ(got.value().hocc.objective_trace, want.value().objective_trace);
  EXPECT_EQ(got.value().hocc.labels, want.value().labels);
  EXPECT_EQ(got.value().candidate_weights, std::vector<double>{1.0});
}

TEST(CoreBaselines, RmcMatchesDenseOracleUnderTheSameHook) {
  const data::MultiTypeRelationalData d = SmallData();
  const std::vector<graph::KnnGraphOptions> candidates =
      DefaultRmcCandidates();
  std::vector<la::Matrix> lap;
  for (const graph::KnnGraphOptions& knn : candidates) {
    lap.push_back(KnnEnsemble(d, knn).laplacian.ToDense());
  }
  // RMC's weight step on dense candidates: beta = Proj_simplex(−traces /
  // (2·mu)) with the automatic mu, then L = Σ beta_i·L̂_i.
  std::vector<double> beta;
  auto dense_hook = [&](int, const la::Matrix& g, la::Matrix* l) {
    std::vector<double> traces;
    double mean = 0.0;
    for (const la::Matrix& li : lap) {
      traces.push_back(la::FrobeniusInner(la::Multiply(li, g), g));
      mean += std::fabs(traces.back());
    }
    const double mu =
        std::max(mean / static_cast<double>(lap.size()), 1e-12);
    for (double& t : traces) t = -t / (2.0 * mu);
    beta = ProjectOntoSimplex(traces);
    *l = la::Matrix(l->rows(), l->cols());
    for (std::size_t i = 0; i < lap.size(); ++i) {
      if (beta[i] > 0.0) AddScaled(l, lap[i], beta[i]);
    }
  };
  const testing_reference::DenseReferenceFit want =
      testing_reference::DenseReferenceSolve(
          d, KnnEnsemble(d, candidates[0]), OracleOptions(1.0, 3),
          dense_hook);
  RmcOptions opts;
  opts.lambda = 1.0;
  opts.max_iterations = 40;
  opts.tolerance = 0.0;
  opts.seed = 3;
  Result<RmcResult> got = RunRmc(d, opts);
  ASSERT_TRUE(got.ok());
  ExpectMatchesOracle(d, got.value().hocc, want);
  const std::vector<double>& weights = got.value().candidate_weights;
  ASSERT_EQ(weights.size(), beta.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < beta.size(); ++i) {
    EXPECT_NEAR(weights[i], beta[i], 1e-12) << "candidate " << i;
    sum += weights[i];
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

// ---- The core's Laplacian hook (RMC's seam) -------------------------------

/// A full RHCHME fit (E_R and Eq. 22 on) with an optional hook.
Result<core::RhchmeResult> FitWithHook(const data::MultiTypeRelationalData& d,
                                       core::LaplacianHook hook,
                                       double lambda = 1.0) {
  core::RhchmeOptions opts;
  opts.lambda = lambda;
  opts.beta = 50.0;
  opts.max_iterations = 15;
  opts.tolerance = 0.0;
  core::Rhchme solver(opts);
  if (hook) solver.SetLaplacianHook(std::move(hook));
  return solver.FitWithEnsemble(
      d, KnnEnsemble(d, graph::KnnGraphOptions{}));
}

TEST(LaplacianHook, UnchangedValuesKeepTheTraceBitForBit) {
  const data::MultiTypeRelationalData d = SmallData();
  int calls = 0;
  Result<core::RhchmeResult> plain = FitWithHook(d, nullptr);
  Result<core::RhchmeResult> hooked = FitWithHook(
      d, [&](int iteration, const la::Matrix&, std::vector<double>*) {
        EXPECT_EQ(iteration, ++calls);
      });
  ASSERT_TRUE(plain.ok() && hooked.ok());
  EXPECT_EQ(calls, 15);
  EXPECT_EQ(hooked.value().hocc.objective_trace,
            plain.value().hocc.objective_trace);
  EXPECT_EQ(hooked.value().error_scale, plain.value().error_scale);
}

TEST(LaplacianHook, RewrittenValuesReachTheIteration) {
  // 3·L at lambda = 1 is L at lambda = 3, up to rounding.
  const data::MultiTypeRelationalData d = SmallData();
  std::vector<double> original;
  Result<core::RhchmeResult> hooked = FitWithHook(
      d, [&](int, const la::Matrix&, std::vector<double>* values) {
        if (original.empty()) original = *values;
        for (std::size_t k = 0; k < values->size(); ++k) {
          (*values)[k] = 3.0 * original[k];
        }
      });
  Result<core::RhchmeResult> want = FitWithHook(d, nullptr, /*lambda=*/3.0);
  ASSERT_TRUE(hooked.ok() && want.ok());
  EXPECT_EQ(hooked.value().hocc.labels, want.value().hocc.labels);
  const std::vector<double>& got_trace = hooked.value().hocc.objective_trace;
  const std::vector<double>& want_trace = want.value().hocc.objective_trace;
  ASSERT_EQ(got_trace.size(), want_trace.size());
  for (std::size_t i = 0; i < got_trace.size(); ++i) {
    EXPECT_NEAR(got_trace[i], want_trace[i], 1e-12 * std::fabs(want_trace[i]))
        << "iteration " << i;
  }
}

TEST(LaplacianHook, MustKeepTheValueCount) {
  const data::MultiTypeRelationalData d = SmallData();
  Result<core::RhchmeResult> fit = FitWithHook(
      d, [](int, const la::Matrix&, std::vector<double>* values) {
        values->push_back(1.0);
      });
  EXPECT_EQ(fit.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace baselines
}  // namespace rhchme
