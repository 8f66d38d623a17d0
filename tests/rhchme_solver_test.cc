// Unit and property tests for the RHCHME solver (paper Algorithm 2),
// including the Theorem 1 monotone-descent property.

#include "core/rhchme_solver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "data/corruption.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "dense_reference_solver.h"
#include "la/gemm.h"
#include "la/matrix.h"
#include "matrix_oracles.h"
#include "scoped_num_threads.h"

namespace rhchme {
namespace core {
namespace {

using testing_reference::IsNonNegative;
using testing_reference::MaxAbsDiff;

data::MultiTypeRelationalData SmallData(uint64_t seed = 21) {
  data::BlockWorldOptions o;
  o.objects_per_type = {24, 18, 12};
  o.n_classes = 3;
  o.seed = seed;
  return data::GenerateBlockWorld(o).value();
}

RhchmeOptions FastOptions() {
  RhchmeOptions opts;
  opts.max_iterations = 25;
  opts.lambda = 1.0;
  opts.beta = 50.0;
  opts.ensemble.subspace.spg.max_iterations = 20;
  return opts;
}

TEST(RhchmeOptions, Validation) {
  EXPECT_TRUE(FastOptions().Validate().ok());
  RhchmeOptions o = FastOptions();
  o.lambda = -1.0;
  EXPECT_FALSE(o.Validate().ok());
  o = FastOptions();
  o.beta = -1.0;
  EXPECT_FALSE(o.Validate().ok());
  o = FastOptions();
  o.max_iterations = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = FastOptions();
  o.ensemble.include_knn = false;
  o.ensemble.include_subspace = false;
  EXPECT_FALSE(o.Validate().ok());
  // NaN and negative values are rejected for every real-valued knob; zero
  // stays legal.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double RhchmeOptions::*field :
       {&RhchmeOptions::lambda, &RhchmeOptions::beta,
        &RhchmeOptions::tolerance}) {
    for (double bad : {nan, -1.0}) {
      o = FastOptions();
      o.*field = bad;
      EXPECT_FALSE(o.Validate().ok()) << bad;
    }
    o = FastOptions();
    o.*field = 0.0;
    EXPECT_TRUE(o.Validate().ok());
  }
  for (double bad : {nan, -1.0}) {
    o = FastOptions();
    o.ensemble.alpha = bad;
    EXPECT_FALSE(o.Validate().ok()) << "alpha " << bad;
    o = FastOptions();
    o.ensemble.subspace.gamma = bad;
    EXPECT_FALSE(o.Validate().ok()) << "gamma " << bad;
    o = FastOptions();
    o.ensemble.subspace.spg.tolerance = bad;
    EXPECT_FALSE(o.Validate().ok()) << "spg.tolerance " << bad;
  }
  // One core at every fill: the density cutoff is a constant, not a knob.
  static_assert(RhchmeOptions::sparse_r_density_threshold == 1.0,
                "every joint-R fill runs the CSR core");
}

TEST(Rhchme, SurvivesNonFiniteCorruptedInput) {
  // End-to-end guard check: a block world whose corrupted rows carry
  // NaN/Inf (not spikes) must still fit — input sanitization zeroes the
  // poison, counts it, and every downstream invariant holds.
  data::BlockWorldOptions gen;
  gen.objects_per_type = {24, 18, 12};
  gen.n_classes = 3;
  gen.corrupted_fraction = 0.2;
  gen.corruption_mode = data::RowCorruptionMode::kNonFinite;
  gen.seed = 33;
  data::MultiTypeRelationalData d = data::GenerateBlockWorld(gen).value();

  Rhchme solver(FastOptions());
  Result<RhchmeResult> r = solver.Fit(d);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r.value().diagnostics.nonfinite_input_entries, 0u);
  EXPECT_TRUE(r.value().hocc.g.AllFinite());
  EXPECT_TRUE(IsNonNegative(r.value().hocc.g));
  EXPECT_FALSE(r.value().hocc.objective_trace.empty());
  for (double obj : r.value().hocc.objective_trace) {
    EXPECT_TRUE(std::isfinite(obj));
  }
  // The dense E_R reads the same sanitised R: finite everywhere.
  EXPECT_TRUE(ErrorMatrix(d, r.value()).AllFinite());
}

TEST(Rhchme, ProducesValidResult) {
  data::MultiTypeRelationalData d = SmallData();
  Rhchme solver(FastOptions());
  Result<RhchmeResult> r = solver.Fit(d);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const fact::HoccResult& h = r.value().hocc;
  EXPECT_TRUE(h.g.AllFinite());
  EXPECT_TRUE(IsNonNegative(h.g));
  EXPECT_EQ(h.g.rows(), 54u);
  EXPECT_EQ(h.g.cols(), 9u);
  ASSERT_EQ(h.labels.size(), 3u);
  EXPECT_EQ(h.labels[0].size(), 24u);
  EXPECT_GT(h.iterations, 0);
  EXPECT_FALSE(h.objective_trace.empty());
  EXPECT_GT(h.seconds, 0.0);
  EXPECT_TRUE(r.value().HasErrorMatrix());
  EXPECT_EQ(ErrorMatrix(d, r.value()).rows(), 54u);
}

TEST(Rhchme, MembershipRowsAreL1Normalised) {
  data::MultiTypeRelationalData d = SmallData();
  Rhchme solver(FastOptions());
  Result<RhchmeResult> r = solver.Fit(d);
  ASSERT_TRUE(r.ok());
  const la::Matrix& g = r.value().hocc.g;
  fact::BlockStructure b = fact::BuildBlockStructure(d);
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::size_t i = b.type_offset[k]; i < b.type_offset[k + 1]; ++i) {
      double sum = 0.0;
      for (std::size_t j = b.cluster_offset[k]; j < b.cluster_offset[k + 1];
           ++j) {
        sum += g(i, j);
      }
      EXPECT_NEAR(sum, 1.0, 1e-9) << "row " << i;
    }
  }
}

TEST(Rhchme, BlockStructurePreserved) {
  // G block-diagonal; S zero diagonal blocks (paper §I.A structure).
  data::MultiTypeRelationalData d = SmallData();
  Rhchme solver(FastOptions());
  Result<RhchmeResult> r = solver.Fit(d);
  ASSERT_TRUE(r.ok());
  fact::BlockStructure b = fact::BuildBlockStructure(d);
  const la::Matrix& g = r.value().hocc.g;
  const la::Matrix& s = r.value().hocc.s;
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::size_t i = b.type_offset[k]; i < b.type_offset[k + 1]; ++i) {
      for (std::size_t j = 0; j < g.cols(); ++j) {
        const bool inside =
            j >= b.cluster_offset[k] && j < b.cluster_offset[k + 1];
        if (!inside) {
          EXPECT_EQ(g(i, j), 0.0);
        }
      }
    }
    la::Matrix s_block =
        s.Block(b.cluster_offset[k], b.cluster_offset[k], b.clusters(k),
                b.clusters(k));
    EXPECT_LT(s_block.MaxAbs(), 1e-8) << "S diagonal block " << k;
  }
}

/// Theorem 1: the objective decreases monotonically under the S, G, E_R
/// updates (the row-normalisation step is outside the theorem; disable it).
class Theorem1Test
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(Theorem1Test, ObjectiveMonotonicallyDecreases) {
  auto [lambda, beta] = GetParam();
  data::MultiTypeRelationalData d = SmallData();
  RhchmeOptions opts = FastOptions();
  opts.lambda = lambda;
  opts.beta = beta;
  opts.normalize_rows = false;
  opts.max_iterations = 30;
  opts.tolerance = 0.0;  // Run all iterations.
  Rhchme solver(opts);
  Result<RhchmeResult> r = solver.Fit(d);
  ASSERT_TRUE(r.ok());
  const auto& trace = r.value().hocc.objective_trace;
  ASSERT_GE(trace.size(), 5u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i], trace[i - 1] * (1.0 + 1e-7))
        << "objective rose at iteration " << i << " (lambda=" << lambda
        << ", beta=" << beta << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    LambdaBetaGrid, Theorem1Test,
    ::testing::Values(std::make_tuple(0.0, 10.0), std::make_tuple(1.0, 10.0),
                      std::make_tuple(10.0, 10.0),
                      std::make_tuple(1.0, 1000.0),
                      std::make_tuple(100.0, 100.0)));

TEST(Rhchme, ErrorMatrixLocalisesOnCorruptedRows) {
  // Corrupt a handful of document rows of R and check that E_R carries
  // more mass on those rows than on clean ones (the L2,1 sample-wise
  // noise model, paper Eq. 13/14).
  data::MultiTypeRelationalData d = SmallData(33);
  la::Matrix r01 = d.Relation(0, 1);
  la::Matrix r02 = d.Relation(0, 2);
  Rng rng(3);
  data::RowCorruptionOptions corr;
  corr.row_fraction = 0.15;
  corr.magnitude = 8.0;
  corr.entry_fraction = 0.8;
  std::vector<std::size_t> bad = data::CorruptRows(&r01, corr, &rng);
  ASSERT_TRUE(d.SetRelation(0, 1, r01).ok());
  ASSERT_TRUE(d.SetRelation(0, 2, r02).ok());

  RhchmeOptions opts = FastOptions();
  opts.beta = 30.0;
  opts.max_iterations = 20;
  Rhchme solver(opts);
  Result<RhchmeResult> res = solver.Fit(d);
  ASSERT_TRUE(res.ok());
  const la::Matrix e = ErrorMatrix(d, res.value());

  double bad_mass = 0.0, clean_mass = 0.0;
  std::size_t n_bad = 0, n_clean = 0;
  for (std::size_t i = 0; i < 24; ++i) {  // Document rows.
    double row_norm = 0.0;
    for (std::size_t j = 0; j < e.cols(); ++j) row_norm += e(i, j) * e(i, j);
    row_norm = std::sqrt(row_norm);
    if (std::find(bad.begin(), bad.end(), i) != bad.end()) {
      bad_mass += row_norm;
      ++n_bad;
    } else {
      clean_mass += row_norm;
      ++n_clean;
    }
  }
  ASSERT_GT(n_bad, 0u);
  EXPECT_GT(bad_mass / n_bad, 2.0 * clean_mass / n_clean);
}

TEST(Rhchme, CallbackSeesEveryIteration) {
  data::MultiTypeRelationalData d = SmallData();
  RhchmeOptions opts = FastOptions();
  opts.max_iterations = 7;
  opts.tolerance = 0.0;
  Rhchme solver(opts);
  std::vector<int> seen;
  solver.SetIterationCallback([&seen](int it, const la::Matrix& g) {
    seen.push_back(it);
    EXPECT_GT(g.rows(), 0u);
  });
  ASSERT_TRUE(solver.Fit(d).ok());
  ASSERT_EQ(seen.size(), 7u);
  EXPECT_EQ(seen.front(), 1);
  EXPECT_EQ(seen.back(), 7);
}

TEST(Rhchme, FitWithEnsembleMatchesFit) {
  data::MultiTypeRelationalData d = SmallData();
  RhchmeOptions opts = FastOptions();
  Rhchme solver(opts);
  Result<RhchmeResult> direct = solver.Fit(d);
  ASSERT_TRUE(direct.ok());
  fact::BlockStructure b = fact::BuildBlockStructure(d);
  Result<HeterogeneousEnsemble> e = BuildEnsemble(d, b, opts.ensemble);
  ASSERT_TRUE(e.ok());
  Result<RhchmeResult> staged = solver.FitWithEnsemble(d, e.value());
  ASSERT_TRUE(staged.ok());
  EXPECT_LT(MaxAbsDiff(direct.value().hocc.g, staged.value().hocc.g),
            1e-12);
}

TEST(Rhchme, DeterministicGivenSeed) {
  data::MultiTypeRelationalData d = SmallData();
  Rhchme solver(FastOptions());
  Result<RhchmeResult> a = solver.Fit(d);
  Result<RhchmeResult> b = solver.Fit(d);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(MaxAbsDiff(a.value().hocc.g, b.value().hocc.g), 0.0);
  EXPECT_EQ(a.value().hocc.objective_trace, b.value().hocc.objective_trace);
}

TEST(Rhchme, RecoversPlantedClusters) {
  data::MultiTypeRelationalData d = SmallData();
  Rhchme solver(FastOptions());
  Result<RhchmeResult> r = solver.Fit(d);
  ASSERT_TRUE(r.ok());
  Result<double> f =
      eval::FScore(d.Type(0).labels, r.value().hocc.labels[0]);
  ASSERT_TRUE(f.ok());
  EXPECT_GT(f.value(), 0.9);
}

TEST(Rhchme, DisablingErrorMatrixLeavesItEmpty) {
  data::MultiTypeRelationalData d = SmallData();
  RhchmeOptions opts = FastOptions();
  opts.use_error_matrix = false;
  Rhchme solver(opts);
  Result<RhchmeResult> r = solver.Fit(d);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().HasErrorMatrix());
  EXPECT_TRUE(ErrorMatrix(d, r.value()).empty());
}

TEST(Rhchme, ConvergesBeforeIterationCapOnEasyData) {
  data::MultiTypeRelationalData d = SmallData();
  RhchmeOptions opts = FastOptions();
  opts.max_iterations = 200;
  opts.tolerance = 1e-4;
  Rhchme solver(opts);
  Result<RhchmeResult> r = solver.Fit(d);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().hocc.converged);
  EXPECT_LT(r.value().hocc.iterations, 200);
}

// ---- Equivalence with the dense reference ---------------------------------

using testing_reference::DenseJointR;
using testing_reference::DenseObjective;
using testing_reference::DenseReferenceFit;
using testing_reference::DenseReferenceSolve;
using testing_reference::DenseResidual;

/// The CSR core groups the arithmetic differently from the dense oracle
/// (low-rank identities, symmetric SpMMs, analytic objective terms), so
/// the traces agree to rounding, not bit for bit: ≤1e-8 relative at pool
/// sizes 1 and 4, with the robust term on and off, with and without the
/// manifold term.
TEST(RhchmeCore, ObjectiveTraceMatchesDenseReference) {
  const data::MultiTypeRelationalData d = SmallData();
  const fact::BlockStructure b = fact::BuildBlockStructure(d);
  RhchmeOptions opts = FastOptions();
  opts.max_iterations = 15;
  opts.tolerance = 0.0;  // Fixed-length traces on both sides.
  Result<HeterogeneousEnsemble> e = BuildEnsemble(d, b, opts.ensemble);
  ASSERT_TRUE(e.ok());

  for (bool robust : {true, false}) {
    for (double lambda : {0.0, 1.0}) {
      opts.use_error_matrix = robust;
      opts.lambda = lambda;
      const DenseReferenceFit want = DenseReferenceSolve(d, e.value(), opts);
      for (int threads : {1, 4}) {
        SCOPED_TRACE("robust=" + std::to_string(robust) +
                     " lambda=" + std::to_string(lambda) +
                     " threads=" + std::to_string(threads));
        ScopedNumThreads scoped(threads);
        Result<RhchmeResult> got = Rhchme(opts).FitWithEnsemble(d, e.value());
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        const auto& tg = got.value().hocc.objective_trace;
        const auto& tw = want.objective_trace;
        ASSERT_EQ(tg.size(), tw.size());
        for (std::size_t i = 0; i < tg.size(); ++i) {
          EXPECT_LT(std::fabs(tg[i] - tw[i]) / std::fabs(tw[i]), 1e-8)
              << "iteration " << i;
        }
        EXPECT_LT(MaxAbsDiff(got.value().hocc.g, want.g), 1e-8);
      }
    }
  }
}

/// The factored E_R materialises to the oracle's dense E_R.
TEST(RhchmeCore, ErrorMatrixMatchesDenseReference) {
  const data::MultiTypeRelationalData d = SmallData();
  const fact::BlockStructure b = fact::BuildBlockStructure(d);
  RhchmeOptions opts = FastOptions();
  opts.max_iterations = 12;
  opts.tolerance = 0.0;
  Result<HeterogeneousEnsemble> e = BuildEnsemble(d, b, opts.ensemble);
  ASSERT_TRUE(e.ok());
  Result<RhchmeResult> fit = Rhchme(opts).FitWithEnsemble(d, e.value());
  ASSERT_TRUE(fit.ok());
  const DenseReferenceFit want = DenseReferenceSolve(d, e.value(), opts);
  const la::Matrix got = ErrorMatrix(d, fit.value());
  ASSERT_EQ(got.rows(), want.error.rows());
  EXPECT_LT(MaxAbsDiff(got, want.error), 1e-8);
  // And it is exactly diag(s)·(R − G·S·Gᵀ) of the fit's own factors.
  const la::Matrix q =
      DenseResidual(DenseJointR(d), fit.value().hocc.g, fit.value().hocc.s);
  for (std::size_t i = 0; i < q.rows(); ++i) {
    for (std::size_t j = 0; j < q.cols(); ++j) {
      EXPECT_NEAR(got(i, j), fit.value().error_scale[i] * q(i, j), 1e-12);
    }
  }
}

// ---- Memory, determinism and disabled terms --------------------------------

/// The fit allocates no dense n x n matrix at any fill: la::memstats
/// counts every Matrix construction or Resize of at least n² doubles.
TEST(RhchmeCore, FitAllocatesZeroDenseNxNAtEveryFill) {
  data::BlockWorldOptions tfidf_world;
  tfidf_world.objects_per_type = {24, 18, 12};
  tfidf_world.n_classes = 3;
  tfidf_world.dropout = 0.97;
  tfidf_world.seed = 21;
  const data::MultiTypeRelationalData block_world = SmallData();
  const data::MultiTypeRelationalData tfidf =
      data::GenerateBlockWorld(tfidf_world).value();
  ASSERT_GT(block_world.JointRDensity(), 0.4);
  ASSERT_LT(tfidf.JointRDensity(), 0.05);

  for (const data::MultiTypeRelationalData* d : {&block_world, &tfidf}) {
    const fact::BlockStructure b = fact::BuildBlockStructure(*d);
    RhchmeOptions opts = FastOptions();
    Result<HeterogeneousEnsemble> e = BuildEnsemble(*d, b, opts.ensemble);
    ASSERT_TRUE(e.ok());
    const std::size_t n = b.total_objects();
    la::memstats::StartTracking(n * n);
    Result<RhchmeResult> r = Rhchme(opts).FitWithEnsemble(*d, e.value());
    la::memstats::StopTracking();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(la::memstats::LargeAllocations(), 0u)
        << "density " << d->JointRDensity();
    EXPECT_TRUE(r.value().hocc.g.AllFinite());
    EXPECT_TRUE(r.value().HasErrorMatrix());
  }
}

/// The iteration workspace is allocated once per fit: counting every
/// acquisition of at least n·c doubles (copies included), a 50-iteration
/// fit allocates exactly as often as a 5-iteration one.
TEST(RhchmeCore, IterationsAllocateNoNxCBuffers) {
  const data::MultiTypeRelationalData d = SmallData();
  const fact::BlockStructure b = fact::BuildBlockStructure(d);
  RhchmeOptions opts = FastOptions();
  opts.tolerance = 0.0;  // Every iteration runs.
  Result<HeterogeneousEnsemble> e = BuildEnsemble(d, b, opts.ensemble);
  ASSERT_TRUE(e.ok());
  const std::size_t n = b.total_objects(), c = b.total_clusters();
  auto count = [&](int iterations) {
    opts.max_iterations = iterations;
    la::memstats::StartTracking(n * c);
    Result<RhchmeResult> r = Rhchme(opts).FitWithEnsemble(d, e.value());
    la::memstats::StopTracking();
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.value().hocc.iterations, iterations);
    return la::memstats::LargeAllocations();
  };
  const std::size_t five = count(5);
  EXPECT_GT(five, 0u);  // The workspace itself is counted.
  EXPECT_EQ(count(50), five);
}

/// Every kernel of the loop chunks independently of the pool size, so the
/// full fit is bit-identical across thread counts.
TEST(RhchmeCore, FitIsBitStableAcrossThreadCounts) {
  data::MultiTypeRelationalData d = SmallData();
  RhchmeOptions opts = FastOptions();
  opts.max_iterations = 10;
  opts.tolerance = 0.0;
  auto fit = [&](int threads) {
    ScopedNumThreads scoped(threads);
    Result<RhchmeResult> r = Rhchme(opts).Fit(d);
    EXPECT_TRUE(r.ok());
    return std::move(r).value();
  };
  const RhchmeResult serial = fit(1);
  const RhchmeResult threaded = fit(4);
  EXPECT_EQ(serial.hocc.objective_trace, threaded.hocc.objective_trace);
  EXPECT_EQ(MaxAbsDiff(serial.hocc.g, threaded.hocc.g), 0.0);
  EXPECT_EQ(MaxAbsDiff(serial.hocc.s, threaded.hocc.s), 0.0);
  EXPECT_EQ(serial.error_scale, threaded.error_scale);
}

/// With the robust term off and lambda == 0 the fit keeps no E_R state
/// and builds no Laplacian ± parts — and still allocates nothing n x n.
TEST(RhchmeCore, DisabledTermsStayAllocationFree) {
  data::MultiTypeRelationalData d = SmallData();
  fact::BlockStructure b = fact::BuildBlockStructure(d);
  RhchmeOptions opts = FastOptions();
  opts.use_error_matrix = false;
  opts.lambda = 0.0;
  Result<HeterogeneousEnsemble> e = BuildEnsemble(d, b, opts.ensemble);
  ASSERT_TRUE(e.ok());
  const std::size_t n = b.total_objects();
  Rhchme solver(opts);
  la::memstats::StartTracking(n * n);
  Result<RhchmeResult> r = solver.FitWithEnsemble(d, e.value());
  la::memstats::StopTracking();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(la::memstats::LargeAllocations(), 0u);
  EXPECT_FALSE(r.value().HasErrorMatrix());
  EXPECT_TRUE(r.value().error_scale.empty());
}

// ---- The objective helper --------------------------------------------------

/// Fed the fit's own factors, the objective helper reproduces the
/// solver's last trace entry, with and without the robust term.
TEST(RhchmeObjective, MatchesFinalTraceValue) {
  data::MultiTypeRelationalData d = SmallData();
  for (bool robust : {true, false}) {
    RhchmeOptions opts = FastOptions();
    opts.use_error_matrix = robust;
    opts.max_iterations = 8;
    opts.tolerance = 0.0;
    Result<RhchmeResult> r = Rhchme(opts).Fit(d);
    ASSERT_TRUE(r.ok());
    const RhchmeResult& res = r.value();
    const double objective = RhchmeObjective(
        d.BuildJointRSparse(), res.hocc.g, res.hocc.s, res.error_scale,
        res.ensemble.laplacian, opts.lambda, opts.beta);
    const double traced = res.hocc.objective_trace.back();
    EXPECT_NEAR(objective, traced, 1e-8 * std::fabs(traced))
        << "robust=" << robust;
  }
}

/// The analytic evaluation against the oracle's entry-by-entry Eq. 15 on
/// arbitrary factors (no fit involved): random R, G, S and E_R scales.
TEST(RhchmeObjective, MatchesDirectEvaluation) {
  Rng rng(5);
  const std::size_t n = 10, c = 3;
  la::Matrix r = la::Matrix::RandomUniform(n, n, &rng);
  la::Matrix g = la::Matrix::RandomUniform(n, c, &rng);
  la::Matrix s = la::Matrix::RandomNormal(c, c, &rng);
  std::vector<double> scale(n);
  for (double& v : scale) v = rng.Uniform(0.0, 1.0);
  la::Matrix lap = la::Matrix::Identity(n);
  la::Matrix e = DenseResidual(r, g, s);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) e(i, j) *= scale[i];
  }
  const double expected = DenseObjective(r, g, s, e, lap, 3.0, 2.0);
  const double got =
      RhchmeObjective(la::SparseMatrix::FromDense(r), g, s, scale,
                      la::SparseMatrix::FromDense(lap), 3.0, 2.0);
  EXPECT_NEAR(got, expected, 1e-9 * std::fabs(expected));
  // E_R = 0 form.
  EXPECT_NEAR(RhchmeObjective(la::SparseMatrix::FromDense(r), g, s, {},
                              la::SparseMatrix::FromDense(lap), 3.0, 2.0),
              DenseObjective(r, g, s, la::Matrix(), lap, 3.0, 2.0), 1e-9);
}

/// Catastrophic cancellation in ‖q_i‖² = ‖r_i‖² − 2·h_i·k_iᵀ +
/// h_i·(GᵀG)·h_iᵀ: on an exactly rank-c R = G₀·S₀·Gᵀ₀ every residual
/// row is zero, so the identity subtracts equal O(‖r_i‖²) terms and lands
/// on ±rounding. The clamp at zero keeps the objective finite; without
/// it a slightly negative row yields sqrt(negative) = NaN.
TEST(RhchmeObjective, ExactReconstructionStaysFiniteAndMatchesDirectNorms) {
  // Three types, G₀ block-diagonal with rows on the simplex, S₀ with zero
  // diagonal type blocks and S₀ = S₀ᵀ — so R has the joint-R block
  // pattern and can be stored as inter-type relations.
  const std::vector<std::size_t> counts = {30, 24, 18};
  const std::vector<std::size_t> clusters = {3, 2, 4};
  Rng rng(77);
  data::MultiTypeRelationalData d;
  std::vector<la::Matrix> gk;
  for (std::size_t k = 0; k < counts.size(); ++k) {
    la::Matrix block = la::Matrix::RandomUniform(counts[k], clusters[k], &rng,
                                                 0.05, 1.0);
    for (std::size_t i = 0; i < block.rows(); ++i) {
      double sum = 0.0;
      for (std::size_t j = 0; j < block.cols(); ++j) sum += block(i, j);
      for (std::size_t j = 0; j < block.cols(); ++j) block(i, j) /= sum;
    }
    gk.push_back(block);
    d.AddType({"t" + std::to_string(k), counts[k], clusters[k], {}, {}});
  }
  const fact::BlockStructure b = fact::BuildBlockStructure(d);
  la::Matrix g0(b.total_objects(), b.total_clusters());
  la::Matrix s0(b.total_clusters(), b.total_clusters());
  for (std::size_t k = 0; k < counts.size(); ++k) {
    g0.SetBlock(b.type_offset[k], b.cluster_offset[k], gk[k]);
    for (std::size_t l = k + 1; l < counts.size(); ++l) {
      const la::Matrix skl =
          la::Matrix::RandomUniform(clusters[k], clusters[l], &rng, 1.0, 9.0);
      s0.SetBlock(b.cluster_offset[k], b.cluster_offset[l], skl);
      s0.SetBlock(b.cluster_offset[l], b.cluster_offset[k], skl.Transposed());
      ASSERT_TRUE(d.SetRelation(
          k, l, la::MultiplyNT(la::Multiply(gk[k], skl), gk[l])).ok());
    }
  }
  const la::SparseMatrix r = d.BuildJointRSparse();
  const la::Matrix r_dense = DenseJointR(d);
  const la::Matrix q = DenseResidual(r_dense, g0, s0);
  const std::size_t n = b.total_objects();
  const la::SparseMatrix no_lap(la::SparseMatrix::FromDense(la::Matrix(n, n)));

  // Data term alone (E_R = 0), and with E_R scales at beta = 0: every
  // term is a squared norm, so the analytic value must sit within 1e-9 of
  // the direct one. (The ℓ2,1 term takes square roots of the rounding
  // residue and is only required to stay finite.)
  std::vector<double> scale(n);
  for (double& v : scale) v = rng.Uniform(0.1, 0.9);
  la::Matrix e = q;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) e(i, j) *= scale[i];
  }
  const double direct_plain =
      DenseObjective(r_dense, g0, s0, la::Matrix(), la::Matrix(n, n), 0.0, 0.0);
  const double direct_scaled =
      DenseObjective(r_dense, g0, s0, e, la::Matrix(n, n), 0.0, 0.0);
  const double plain = RhchmeObjective(r, g0, s0, {}, no_lap, 0.0, 0.0);
  const double scaled = RhchmeObjective(r, g0, s0, scale, no_lap, 0.0, 0.0);
  ASSERT_TRUE(std::isfinite(plain));
  ASSERT_TRUE(std::isfinite(scaled));
  EXPECT_NEAR(plain, direct_plain, 1e-9);
  EXPECT_NEAR(scaled, direct_scaled, 1e-9);
  EXPECT_TRUE(std::isfinite(RhchmeObjective(r, g0, s0, scale, no_lap, 0.0,
                                            300.0)));

  // The dense E_R built from the same factors matches the oracle's.
  RhchmeResult fit;
  fit.hocc.g = g0;
  fit.hocc.s = s0;
  fit.error_scale = scale;
  const la::Matrix got = ErrorMatrix(d, fit);
  ASSERT_TRUE(got.AllFinite());
  EXPECT_LT(MaxAbsDiff(got, e), 1e-9);
}

}  // namespace
}  // namespace core
}  // namespace rhchme
