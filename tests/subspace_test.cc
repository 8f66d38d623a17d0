// Unit and property tests for multiple-subspace affinity learning
// (paper §III.A, Algorithm 1).

#include "core/subspace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "data/synthetic.h"
#include "la/gemm.h"
#include "matrix_oracles.h"
#include "scoped_num_threads.h"
#include "union_of_subspaces.h"
#include "util/rng.h"

namespace rhchme {
namespace core {
namespace {

using testing_reference::AddScaled;
using testing_reference::IsNonNegative;
using testing_reference::MaxAbsDiff;
using testing_reference::SampleUnionOfSubspaces;
using testing_reference::Sum;
using testing_reference::UnionOfSubspacesOptions;

// ---- Straight-line reference ----------------------------------------------

/// J₂ from a precomputed W·Q.
double ReferenceObjective(const la::Matrix& w, const la::Matrix& gram,
                          const la::Matrix& wq, double gamma) {
  double tr_wq = 0.0;
  for (std::size_t i = 0; i < w.rows(); ++i) tr_wq += wq(i, i);
  double sparsity = 0.0;
  for (double cs : w.ColSums()) sparsity += cs * cs;
  return gamma * (gram.Trace() - 2.0 * tr_wq + la::FrobeniusInner(wq, w)) +
         sparsity;
}

/// grad = 2·gamma·(W·Q − Q) + 2·1·(1ᵀW).
la::Matrix ReferenceGradient(const la::Matrix& w, const la::Matrix& gram,
                             const la::Matrix& wq, double gamma) {
  la::Matrix g = wq;
  g.Sub(gram);
  g.Scale(2.0 * gamma);
  const std::vector<double> cs = w.ColSums();
  for (std::size_t i = 0; i < g.rows(); ++i) {
    for (std::size_t j = 0; j < g.cols(); ++j) g(i, j) += 2.0 * cs[j];
  }
  return g;
}

/// Algorithm 1 as whole-matrix operations: each step recomputes W·Q from
/// scratch (two n×n·n×n products) and rebuilds the gradient and every
/// sum from W. The library's fused solver must follow the same path.
/// Ends with the library's post-processing (prune, symmetrise).
SubspaceResult ReferenceLearn(const la::Matrix& x,
                              const SubspaceOptions& opts) {
  const std::size_t n = x.rows();
  la::Matrix gram = la::MultiplyNT(x, x);
  std::vector<double> inv_norm(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double d = std::sqrt(gram(i, i));
    inv_norm[i] = d > 0.0 ? 1.0 / d : 0.0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      gram(i, j) *= inv_norm[i] * inv_norm[j];
    }
  }
  Rng rng(opts.seed);
  la::Matrix w = la::Matrix::RandomUniform(n, n, &rng, 0.0,
                                           1.0 / static_cast<double>(n));
  ProjectFeasible(&w);

  const double gamma = opts.gamma;
  SubspaceResult out;
  la::Matrix wq = la::Multiply(w, gram);
  la::Matrix grad = ReferenceGradient(w, gram, wq, gamma);
  double step = 1.0;
  int it = 0;
  for (; it < opts.spg.max_iterations; ++it) {
    la::Matrix probe = w;
    AddScaled(&probe, grad, -1.0);
    ProjectFeasible(&probe);
    probe.Sub(w);
    if (probe.MaxAbs() <= opts.spg.tolerance) {
      out.stop = StopReason::kTolerance;
      break;
    }

    la::Matrix d = w;
    AddScaled(&d, grad, -step);
    ProjectFeasible(&d);
    d.Sub(w);

    const la::Matrix dq = la::Multiply(d, gram);
    const std::vector<double> cs_w = w.ColSums();
    const std::vector<double> cs_d = d.ColSums();
    double tr_dq = 0.0;
    for (std::size_t i = 0; i < n; ++i) tr_dq += dq(i, i);
    double dot_cs = 0.0, cs_d_sq = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      dot_cs += cs_w[j] * cs_d[j];
      cs_d_sq += cs_d[j] * cs_d[j];
    }
    const double b = -2.0 * gamma * (tr_dq - la::FrobeniusInner(dq, w)) +
                     2.0 * dot_cs;
    const double a = gamma * la::FrobeniusInner(dq, d) + cs_d_sq;
    const double t = a > 0.0 ? std::clamp(-b / (2.0 * a), 1e-6, 1.0) : 1.0;

    la::Matrix s = d;
    s.Scale(t);
    w.Add(s);
    wq = la::Multiply(w, gram);
    const la::Matrix grad_new = ReferenceGradient(w, gram, wq, gamma);
    la::Matrix y = grad_new;
    y.Sub(grad);
    const double sy = la::FrobeniusInner(s, y);
    const double ss = la::FrobeniusInner(s, s);
    step = sy > 0.0 ? std::clamp(ss / sy, kSpgStepMin, kSpgStepMax)
                    : kSpgStepMax;
    grad = grad_new;
    out.objective_trace.push_back(ReferenceObjective(w, gram, wq, gamma));
    if (ObjectivePlateaued(out.objective_trace)) {
      ++it;
      out.stop = StopReason::kPlateau;
      break;
    }
  }

  const double cut = kSpgPruneRelTol * w.MaxAbs();
  w.Apply([cut](double v) { return v < cut ? 0.0 : v; });
  la::Matrix wt = w.Transposed();
  w.Add(wt);
  w.Scale(0.5);
  out.affinity = la::SparseMatrix::FromDense(w);
  out.iterations = it;
  return out;
}

TEST(ProjectFeasible, ClampsAndZeroesDiagonal) {
  la::Matrix w = la::Matrix::FromRows({{5, -1}, {2, 3}});
  ProjectFeasible(&w);
  EXPECT_EQ(w(0, 0), 0.0);
  EXPECT_EQ(w(1, 1), 0.0);
  EXPECT_EQ(w(0, 1), 0.0);
  EXPECT_EQ(w(1, 0), 2.0);
}

TEST(SubspaceObjective, MatchesDirectEvaluation) {
  Rng rng(1);
  la::Matrix x = la::Matrix::RandomUniform(8, 5, &rng);
  la::Matrix w = la::Matrix::RandomUniform(8, 8, &rng, 0.0, 0.2);
  ProjectFeasible(&w);
  const la::Matrix gram = la::MultiplyNT(x, x);
  // Direct: gamma*||X - WX||² + ||WWᵀ||₁ (nonneg W -> plain sum).
  la::Matrix resid = la::Multiply(w, x);
  resid.Sub(x);
  resid.Scale(-1.0);
  const double direct =
      3.0 * resid.FrobeniusNormSquared() + Sum(la::MultiplyNT(w, w));
  EXPECT_NEAR(SubspaceObjective(w, gram, 3.0), direct, 1e-8);
}

TEST(LearnSubspace, OutputSatisfiesConstraints) {
  Rng rng(2);
  la::Matrix x = la::Matrix::RandomUniform(30, 10, &rng);
  SubspaceOptions opts;
  Result<SubspaceResult> r = LearnSubspaceAffinity(x, opts);
  ASSERT_TRUE(r.ok());
  const la::Matrix w = r.value().affinity.ToDense();
  EXPECT_EQ(w.rows(), 30u);
  EXPECT_TRUE(IsNonNegative(w));
  EXPECT_TRUE(w.AllFinite());
  for (std::size_t i = 0; i < 30; ++i) EXPECT_EQ(w(i, i), 0.0);
  // Symmetrised.
  EXPECT_LT(MaxAbsDiff(w, w.Transposed()), 1e-12);
}

TEST(LearnSubspace, ObjectiveDecreasesMonotonically) {
  // The exact line search on the convex QP guarantees descent.
  Rng rng(3);
  la::Matrix x = la::Matrix::RandomUniform(25, 8, &rng);
  SubspaceOptions opts;
  opts.spg.max_iterations = 40;
  Result<SubspaceResult> r = LearnSubspaceAffinity(x, opts);
  ASSERT_TRUE(r.ok());
  const auto& trace = r.value().objective_trace;
  ASSERT_GE(trace.size(), 2u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i], trace[i - 1] + 1e-8) << "iteration " << i;
  }
}

TEST(LearnSubspace, ConnectsWithinSubspaceObjects) {
  // Points from two disjoint linear subspaces: the affinity mass must
  // concentrate within subspaces (paper Eq. 5).
  UnionOfSubspacesOptions gen;
  gen.subspace_dims = {2, 2};
  gen.points_per_subspace = 40;
  gen.ambient_dim = 12;
  gen.noise_sigma = 0.01;
  gen.seed = 5;
  Result<data::ManifoldSample> sample = SampleUnionOfSubspaces(gen);
  ASSERT_TRUE(sample.ok());

  SubspaceOptions opts;
  opts.gamma = 20.0;
  Result<SubspaceResult> r =
      LearnSubspaceAffinity(sample.value().points, opts);
  ASSERT_TRUE(r.ok());
  const la::Matrix w = r.value().affinity.ToDense();
  double within = 0.0, across = 0.0;
  for (std::size_t i = 0; i < w.rows(); ++i) {
    for (std::size_t j = 0; j < w.cols(); ++j) {
      if (sample.value().labels[i] == sample.value().labels[j]) {
        within += w(i, j);
      } else {
        across += w(i, j);
      }
    }
  }
  EXPECT_GT(within, 3.0 * across);
}

TEST(LearnSubspace, FindsDistantWithinManifoldNeighbours) {
  // The headline claim of §III.A (point z in Fig. 1): objects far apart
  // in Euclidean distance but in the same subspace get nonzero affinity.
  UnionOfSubspacesOptions gen;
  gen.subspace_dims = {1, 1};
  gen.points_per_subspace = 30;
  gen.ambient_dim = 6;
  gen.noise_sigma = 0.0;
  gen.nonnegative = true;  // Coefficients 0.2..1.2 -> magnitude spread.
  gen.seed = 11;
  Result<data::ManifoldSample> sample = SampleUnionOfSubspaces(gen);
  ASSERT_TRUE(sample.ok());

  SubspaceOptions opts;
  opts.gamma = 50.0;
  Result<SubspaceResult> r =
      LearnSubspaceAffinity(sample.value().points, opts);
  ASSERT_TRUE(r.ok());
  const la::Matrix w = r.value().affinity.ToDense();

  // Pick the two most Euclidean-distant points of subspace 0; they are
  // colinear, so the affinity must still connect them (possibly via
  // normalisation the direction is identical).
  const la::Matrix& pts = sample.value().points;
  double best = -1.0;
  std::size_t a = 0, b = 0;
  for (std::size_t i = 0; i < 30; ++i) {
    for (std::size_t j = i + 1; j < 30; ++j) {
      double d = 0.0;
      for (std::size_t k = 0; k < 6; ++k) {
        const double diff = pts(i, k) - pts(j, k);
        d += diff * diff;
      }
      if (d > best) {
        best = d;
        a = i;
        b = j;
      }
    }
  }
  EXPECT_GT(w(a, b), 0.0);
}

TEST(LearnSubspace, GammaControlsReconstructionPressure) {
  Rng rng(7);
  la::Matrix x = la::Matrix::RandomUniform(20, 6, &rng);
  auto residual_for = [&](double gamma) {
    SubspaceOptions opts;
    opts.gamma = gamma;
    la::Matrix w = LearnSubspaceAffinity(x, opts).value().affinity.ToDense();
    la::Matrix resid = la::Multiply(w, x);
    resid.Sub(x);
    return resid.FrobeniusNormSquared();
  };
  // Larger gamma forces a more faithful reconstruction.
  EXPECT_LT(residual_for(100.0), residual_for(0.5));
}

TEST(LearnSubspace, ValidationErrors) {
  la::Matrix x(10, 3, 1.0);
  SubspaceOptions opts;
  opts.gamma = 0.0;
  EXPECT_FALSE(LearnSubspaceAffinity(x, opts).ok());
  opts = SubspaceOptions{};
  opts.spg.max_iterations = 0;
  EXPECT_FALSE(LearnSubspaceAffinity(x, opts).ok());
  opts = SubspaceOptions{};
  EXPECT_FALSE(LearnSubspaceAffinity(la::Matrix(1, 3), opts).ok());
}

// The fused solver carries W·Q and the column sums forward instead of
// recomputing them, so it rounds differently from the reference but must
// follow the same iterates.
TEST(SubspaceOracle, FusedSolverMatchesTwoGemmReference) {
  Rng rng(21);
  const la::Matrix x = la::Matrix::RandomUniform(150, 20, &rng);
  const SubspaceOptions opts;
  Result<SubspaceResult> fused = LearnSubspaceAffinity(x, opts);
  ASSERT_TRUE(fused.ok());
  const SubspaceResult ref = ReferenceLearn(x, opts);

  EXPECT_EQ(fused.value().iterations, ref.iterations);
  EXPECT_EQ(fused.value().stop, ref.stop);
  const auto& trace = fused.value().objective_trace;
  ASSERT_EQ(trace.size(), ref.objective_trace.size());
  ASSERT_GT(trace.size(), 10u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_NEAR(trace[i], ref.objective_trace[i],
                1e-9 * std::fabs(ref.objective_trace[i]))
        << "iteration " << i;
  }
  const la::Matrix want = ref.affinity.ToDense();
  EXPECT_LE(MaxAbsDiff(fused.value().affinity.ToDense(), want),
            1e-9 * want.MaxAbs());
}

// At n = 640 the fused passes split into several row chunks (one chunk
// per GrainForWork(n) rows), so pools of 1 and 4 really run different
// schedules; chunk-ordered merges must keep the result bit-identical.
TEST(LearnSubspace, BitIdenticalAcrossPoolSizesWithManyChunks) {
  constexpr std::size_t kN = 640;
  ASSERT_GE(SpgRowChunks(kN), 4u);
  Rng rng(22);
  const la::Matrix x = la::Matrix::RandomUniform(kN, 32, &rng);
  SubspaceOptions opts;
  opts.spg.max_iterations = 6;
  auto learn = [&](int threads) {
    ScopedNumThreads scoped(threads);
    return LearnSubspaceAffinity(x, opts).value();
  };
  const SubspaceResult serial = learn(1);
  const SubspaceResult threaded = learn(4);
  EXPECT_EQ(serial.objective_trace, threaded.objective_trace);
  EXPECT_EQ(serial.affinity.values(), threaded.affinity.values());
  EXPECT_EQ(serial.affinity.col_indices(), threaded.affinity.col_indices());
}

// The factored product (A·X̂)·X̂ᵀ against the Gram and la::Multiply, on
// tf-idf-like rows with a zero row (it stays zero in X̂) and 77 objects,
// off the 32-row panel grid.
TEST(FactoredGramProduct, MatchesTheGramAndGemm) {
  constexpr std::size_t kN = 77;
  Rng rng(24);
  la::Matrix x(kN, 40);
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = 0; i != 5 && j < x.cols(); ++j) {
      if (rng.Uniform() < 0.15) x(i, j) = rng.Uniform(0.1, 2.0);
    }
  }
  const la::Matrix w = la::Matrix::RandomUniform(kN, kN, &rng);
  la::Matrix xhat = x;
  for (std::size_t i = 0; i < kN; ++i) {
    double norm_sq = 0.0;
    for (std::size_t j = 0; j < x.cols(); ++j) norm_sq += x(i, j) * x(i, j);
    for (std::size_t j = 0; j < x.cols() && norm_sq > 0.0; ++j) {
      xhat(i, j) /= std::sqrt(norm_sq);
    }
  }
  const la::Matrix gram = la::MultiplyNT(xhat, xhat);
  const la::Matrix q = FactoredGramProduct(x, nullptr);
  EXPECT_LE(MaxAbsDiff(q, gram), 1e-12 * gram.MaxAbs());
  for (std::size_t j = 0; j < kN; ++j) {
    EXPECT_EQ(q(5, j), 0.0);
    EXPECT_EQ(q(j, 5), 0.0);
    for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(q(i, j), q(j, i));
  }
  const la::Matrix wq = la::Multiply(w, gram);
  const la::Matrix got = FactoredGramProduct(x, &w);
  EXPECT_LE(MaxAbsDiff(got, wq), 1e-12 * wq.MaxAbs());
  // Rows are the same bits at every pool size.
  ScopedNumThreads threads(1);
  EXPECT_EQ(MaxAbsDiff(FactoredGramProduct(x, &w), got), 0.0);
}

// The SPG workspace is allocated once: the count of n×n allocations does
// not grow with the number of steps.
TEST(LearnSubspace, WorkspaceDoesNotGrowWithIterations) {
  constexpr std::size_t kN = 64;
  Rng rng(23);
  const la::Matrix x = la::Matrix::RandomUniform(kN, 12, &rng);
  auto large_allocations = [&](int iterations) {
    SubspaceOptions opts;
    opts.spg.max_iterations = iterations;
    opts.spg.tolerance = 1e-300;
    la::memstats::StartTracking(kN * kN);
    Result<SubspaceResult> r = LearnSubspaceAffinity(x, opts);
    la::memstats::StopTracking();
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.value().iterations, iterations);
    return la::memstats::LargeAllocations();
  };
  const std::size_t short_run = large_allocations(5);
  EXPECT_GT(short_run, 0u);
  EXPECT_EQ(large_allocations(40), short_run);
}

// ---- Stop rules -------------------------------------------------------------

/// Whether step k of `trace` (k >= 1) is flat by the plateau rule.
bool FlatStep(const std::vector<double>& trace, std::size_t k) {
  const double prev = trace[k - 1];
  return std::fabs(trace[k] - prev) / std::max(1.0, std::fabs(prev)) <=
         kSpgPlateauTolerance;
}

/// Checks that a run stopped at the first window of kSpgPlateauSteps flat
/// steps and returns how many flat steps came before that window.
std::size_t ExpectStoppedAtFirstPlateau(const SubspaceResult& r, int cap) {
  EXPECT_EQ(r.stop, StopReason::kPlateau);
  EXPECT_LT(r.iterations, cap);
  const std::vector<double>& trace = r.objective_trace;
  EXPECT_EQ(trace.size(), static_cast<std::size_t>(r.iterations));
  const std::size_t window = static_cast<std::size_t>(kSpgPlateauSteps);
  if (trace.size() <= window) {
    ADD_FAILURE() << "trace too short: " << trace.size();
    return 0;
  }
  std::size_t run = 0, earlier_flat = 0;
  for (std::size_t k = 1; k < trace.size(); ++k) {
    run = FlatStep(trace, k) ? run + 1 : 0;
    if (k + 1 < trace.size()) {
      EXPECT_LT(run, window) << "an earlier plateau ends at step " << k + 1;
      if (run > 0) ++earlier_flat;
    }
  }
  EXPECT_EQ(run, window) << "the last steps are not a plateau";
  return earlier_flat - (window - 1);
}

TEST(SpgPlateau, ThreeFlatStepsStop) {
  std::vector<double> trace = {10.0, 4.0, 3.0};
  for (int k = 0; k < kSpgPlateauSteps; ++k) {
    EXPECT_FALSE(ObjectivePlateaued(trace)) << k << " flat steps";
    trace.push_back(trace.back());
  }
  EXPECT_TRUE(ObjectivePlateaued(trace));
  // The change is relative to |J| above 1 and absolute below it.
  EXPECT_TRUE(ObjectivePlateaued({1e3, 1e3 - 5e-4, 1e3 - 1e-3, 1e3 - 1.5e-3}));
  EXPECT_FALSE(ObjectivePlateaued({1e3, 1e3 - 2e-3, 1e3 - 4e-3, 1e3 - 6e-3}));
  EXPECT_TRUE(ObjectivePlateaued({0.5, 0.5 - 5e-7, 0.5 - 1e-6, 0.5 - 1.5e-6}));
  EXPECT_FALSE(ObjectivePlateaued({0.01, 0.0099, 0.0098, 0.0097}));
  EXPECT_FALSE(ObjectivePlateaued({1.0, NAN, NAN, NAN}));

  // A tf-idf type settles within a few dozen steps: the loop stops at its
  // first plateau, well before the cap.
  data::SyntheticCorpusOptions o;
  o.docs_per_class.assign(8, 50);
  o.n_terms = 330;
  o.n_concepts = 200;
  o.doc_length_mean = 40.0;
  o.relation_dropout = 0.7;
  o.seed = 3;
  const data::MultiTypeRelationalData d =
      data::GenerateSyntheticCorpus(o).value();
  const SubspaceOptions opts;
  const SubspaceResult r =
      LearnSubspaceAffinity(d.Type(2).features, opts).value();
  ExpectStoppedAtFirstPlateau(r, opts.spg.max_iterations);
  // One step fewer than the plateau needs: the cap stops it instead.
  SubspaceOptions shorter = opts;
  shorter.spg.max_iterations = r.iterations - 1;
  const SubspaceResult capped =
      LearnSubspaceAffinity(d.Type(2).features, shorter).value();
  EXPECT_EQ(capped.stop, StopReason::kMaxIterations);
  EXPECT_EQ(capped.iterations, r.iterations - 1);
}

TEST(SpgPlateau, SingleFlatStepDoesNotStop) {
  // Flat steps that never make a run of kSpgPlateauSteps.
  const std::vector<double> trace = {10.0, 9.0, 9.0, 8.0, 8.0, 8.0, 7.0};
  for (std::size_t len = 1; len <= trace.size(); ++len) {
    EXPECT_FALSE(ObjectivePlateaued(std::vector<double>(
        trace.begin(), trace.begin() + static_cast<std::ptrdiff_t>(len))))
        << len;
  }
  // This block-world type takes a single flat step inside the
  // nonmonotone phase (a tiny Barzilai–Borwein step); the loop goes on
  // and stops at its plateau some steps later.
  data::BlockWorldOptions o;
  o.objects_per_type = {15, 12};
  o.n_classes = 3;
  o.seed = 9;
  const data::MultiTypeRelationalData d = data::GenerateBlockWorld(o).value();
  SubspaceOptions opts;
  opts.seed = DeriveStreamSeed(opts.seed, 0);
  const SubspaceResult r =
      LearnSubspaceAffinity(d.Type(0).features, opts).value();
  EXPECT_GE(ExpectStoppedAtFirstPlateau(r, opts.spg.max_iterations), 1u);
}

TEST(SpgPlateau, D4MemberRunsToTheCap) {
  // The D4 concepts type is still changing at step 80: no plateau.
  const data::MultiTypeRelationalData d =
      data::GenerateSyntheticCorpus(data::ReutersTop10Preset()).value();
  const std::size_t k = d.NumTypes() - 1;
  ASSERT_EQ(d.Type(k).features.rows(), 420u);
  SubspaceOptions opts;
  opts.seed = DeriveStreamSeed(opts.seed, k);
  const SubspaceResult r =
      LearnSubspaceAffinity(d.Type(k).features, opts).value();
  EXPECT_EQ(r.stop, StopReason::kMaxIterations);
  EXPECT_EQ(r.iterations, 80);
}

class SubspaceGammaSweep : public ::testing::TestWithParam<double> {};

TEST_P(SubspaceGammaSweep, AlwaysFeasibleAndDescending) {
  Rng rng(8);
  la::Matrix x = la::Matrix::RandomUniform(18, 5, &rng);
  SubspaceOptions opts;
  opts.gamma = GetParam();
  opts.spg.max_iterations = 25;
  Result<SubspaceResult> r = LearnSubspaceAffinity(x, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(IsNonNegative(r.value().affinity.ToDense()));
  EXPECT_TRUE(r.value().affinity.ToDense().AllFinite());
  const auto& trace = r.value().objective_trace;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i], trace[i - 1] + 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Gammas, SubspaceGammaSweep,
                         ::testing::Values(0.01, 0.1, 1.0, 10.0, 100.0,
                                           1000.0));

}  // namespace
}  // namespace core
}  // namespace rhchme
