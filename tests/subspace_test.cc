// Unit and property tests for multiple-subspace affinity learning
// (paper §III.A, Algorithm 1).

#include "core/subspace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "data/manifolds.h"
#include "la/gemm.h"
#include "scoped_num_threads.h"
#include "util/rng.h"

namespace rhchme {
namespace core {
namespace {

// ---- Straight-line reference ----------------------------------------------

/// J₂ (with the optional affine penalty) from a precomputed W·Q.
double ReferenceObjective(const la::Matrix& w, const la::Matrix& gram,
                          const la::Matrix& wq, double gamma, double eta) {
  double tr_wq = 0.0;
  for (std::size_t i = 0; i < w.rows(); ++i) tr_wq += wq(i, i);
  double sparsity = 0.0;
  for (double cs : w.ColSums()) sparsity += cs * cs;
  double affine = 0.0;
  if (eta > 0.0) {
    for (double rs : w.RowSums()) affine += (rs - 1.0) * (rs - 1.0);
  }
  return gamma * (gram.Trace() - 2.0 * tr_wq + la::FrobeniusInner(wq, w)) +
         sparsity + eta * affine;
}

/// grad = 2·gamma·(W·Q − Q) + 2·1·(1ᵀW) + 2·eta·(W·1 − 1)·1ᵀ.
la::Matrix ReferenceGradient(const la::Matrix& w, const la::Matrix& gram,
                             const la::Matrix& wq, double gamma, double eta) {
  la::Matrix g = wq;
  g.Sub(gram);
  g.Scale(2.0 * gamma);
  const std::vector<double> cs = w.ColSums();
  const std::vector<double> rs = w.RowSums();
  for (std::size_t i = 0; i < g.rows(); ++i) {
    const double affine = eta > 0.0 ? 2.0 * eta * (rs[i] - 1.0) : 0.0;
    for (std::size_t j = 0; j < g.cols(); ++j) {
      g(i, j) += 2.0 * cs[j] + affine;
    }
  }
  return g;
}

/// Algorithm 1 as whole-matrix operations: each step recomputes W·Q from
/// scratch (two n×n·n×n products) and rebuilds the gradient and every
/// sum from W. The library's fused solver must follow the same path.
/// Covers the default post-processing (prune, symmetrise; no top-k).
SubspaceResult ReferenceLearn(const la::Matrix& x,
                              const SubspaceOptions& opts) {
  const std::size_t n = x.rows();
  la::Matrix gram = la::MultiplyNT(x, x);
  if (opts.normalize_rows) {
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
  }
  Rng rng(opts.seed);
  la::Matrix w = la::Matrix::RandomUniform(n, n, &rng, 0.0,
                                           1.0 / static_cast<double>(n));
  ProjectFeasible(&w);

  const double gamma = opts.gamma;
  const double eta = opts.affine_penalty;
  SubspaceResult out;
  la::Matrix wq = la::Multiply(w, gram);
  la::Matrix grad = ReferenceGradient(w, gram, wq, gamma, eta);
  double step = 1.0;
  int it = 0;
  for (; it < opts.spg.max_iterations; ++it) {
    la::Matrix probe = w;
    probe.AddScaled(grad, -1.0);
    ProjectFeasible(&probe);
    probe.Sub(w);
    if (probe.MaxAbs() <= opts.spg.tolerance) {
      out.converged = true;
      break;
    }

    la::Matrix d = w;
    d.AddScaled(grad, -step);
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
    double b = -2.0 * gamma * (tr_dq - la::FrobeniusInner(dq, w)) +
               2.0 * dot_cs;
    double a = gamma * la::FrobeniusInner(dq, d) + cs_d_sq;
    if (eta > 0.0) {
      const std::vector<double> rs_w = w.RowSums();
      const std::vector<double> rs_d = d.RowSums();
      double uv = 0.0, vv = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        uv += (rs_w[i] - 1.0) * rs_d[i];
        vv += rs_d[i] * rs_d[i];
      }
      b += 2.0 * eta * uv;
      a += eta * vv;
    }
    const double t = a > 0.0 ? std::clamp(-b / (2.0 * a), 1e-6, 1.0) : 1.0;

    la::Matrix s = d;
    s.Scale(t);
    w.Add(s);
    wq = la::Multiply(w, gram);
    const la::Matrix grad_new = ReferenceGradient(w, gram, wq, gamma, eta);
    la::Matrix y = grad_new;
    y.Sub(grad);
    const double sy = la::FrobeniusInner(s, y);
    const double ss = la::FrobeniusInner(s, s);
    step = sy > 0.0 ? std::clamp(ss / sy, opts.spg.step_min,
                                 opts.spg.step_max)
                    : opts.spg.step_max;
    grad = grad_new;
    out.objective_trace.push_back(ReferenceObjective(w, gram, wq, gamma, eta));
  }

  if (opts.prune_rel_tol > 0.0) {
    const double cut = opts.prune_rel_tol * w.MaxAbs();
    w.Apply([cut](double v) { return v < cut ? 0.0 : v; });
  }
  if (opts.symmetrize) {
    la::Matrix wt = w.Transposed();
    w.Add(wt);
    w.Scale(0.5);
  }
  out.affinity = w;
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
      3.0 * resid.FrobeniusNormSquared() + la::MultiplyNT(w, w).Sum();
  EXPECT_NEAR(SubspaceObjective(w, gram, 3.0), direct, 1e-8);
}

TEST(LearnSubspace, OutputSatisfiesConstraints) {
  Rng rng(2);
  la::Matrix x = la::Matrix::RandomUniform(30, 10, &rng);
  SubspaceOptions opts;
  Result<SubspaceResult> r = LearnSubspaceAffinity(x, opts);
  ASSERT_TRUE(r.ok());
  const la::Matrix& w = r.value().affinity;
  EXPECT_EQ(w.rows(), 30u);
  EXPECT_TRUE(w.IsNonNegative());
  EXPECT_TRUE(w.AllFinite());
  for (std::size_t i = 0; i < 30; ++i) EXPECT_EQ(w(i, i), 0.0);
  // Symmetrised by default.
  EXPECT_LT(la::MaxAbsDiff(w, w.Transposed()), 1e-12);
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
  data::UnionOfSubspacesOptions gen;
  gen.subspace_dims = {2, 2};
  gen.points_per_subspace = 40;
  gen.ambient_dim = 12;
  gen.noise_sigma = 0.01;
  gen.seed = 5;
  Result<data::ManifoldSample> sample = data::SampleUnionOfSubspaces(gen);
  ASSERT_TRUE(sample.ok());

  SubspaceOptions opts;
  opts.gamma = 20.0;
  Result<SubspaceResult> r =
      LearnSubspaceAffinity(sample.value().points, opts);
  ASSERT_TRUE(r.ok());
  const la::Matrix& w = r.value().affinity;
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
  data::UnionOfSubspacesOptions gen;
  gen.subspace_dims = {1, 1};
  gen.points_per_subspace = 30;
  gen.ambient_dim = 6;
  gen.noise_sigma = 0.0;
  gen.nonnegative = true;  // Coefficients 0.2..1.2 -> magnitude spread.
  gen.seed = 11;
  Result<data::ManifoldSample> sample = data::SampleUnionOfSubspaces(gen);
  ASSERT_TRUE(sample.ok());

  SubspaceOptions opts;
  opts.gamma = 50.0;
  Result<SubspaceResult> r =
      LearnSubspaceAffinity(sample.value().points, opts);
  ASSERT_TRUE(r.ok());
  const la::Matrix& w = r.value().affinity;

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

TEST(LearnSubspace, TopKSparsification) {
  Rng rng(6);
  la::Matrix x = la::Matrix::RandomUniform(20, 6, &rng);
  SubspaceOptions opts;
  opts.keep_top_k = 3;
  opts.symmetrize = false;
  Result<SubspaceResult> r = LearnSubspaceAffinity(x, opts);
  ASSERT_TRUE(r.ok());
  for (std::size_t i = 0; i < 20; ++i) {
    std::size_t nonzeros = 0;
    for (std::size_t j = 0; j < 20; ++j) {
      if (r.value().affinity(i, j) > 0.0) ++nonzeros;
    }
    EXPECT_LE(nonzeros, 3u) << "row " << i;
  }
}

TEST(LearnSubspace, GammaControlsReconstructionPressure) {
  Rng rng(7);
  la::Matrix x = la::Matrix::RandomUniform(20, 6, &rng);
  auto residual_for = [&](double gamma) {
    SubspaceOptions opts;
    opts.gamma = gamma;
    opts.symmetrize = false;
    la::Matrix w = LearnSubspaceAffinity(x, opts).value().affinity;
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

TEST(LearnSubspace, AffinePenaltyPullsRowSumsToOne) {
  Rng rng(9);
  la::Matrix x = la::Matrix::RandomUniform(24, 6, &rng);
  auto mean_row_sum_error = [&](double eta) {
    SubspaceOptions opts;
    opts.affine_penalty = eta;
    opts.symmetrize = false;
    opts.spg.max_iterations = 60;
    la::Matrix w = LearnSubspaceAffinity(x, opts).value().affinity;
    double err = 0.0;
    for (double rs : w.RowSums()) err += std::fabs(rs - 1.0);
    return err / static_cast<double>(w.rows());
  };
  // Eq. 6's sum-to-one constraint is approached as the penalty grows.
  EXPECT_LT(mean_row_sum_error(100.0), mean_row_sum_error(0.0));
  EXPECT_LT(mean_row_sum_error(100.0), 0.2);
}

TEST(LearnSubspace, AffinePenaltyKeepsDescentProperty) {
  Rng rng(10);
  la::Matrix x = la::Matrix::RandomUniform(20, 5, &rng);
  SubspaceOptions opts;
  opts.affine_penalty = 25.0;
  opts.spg.max_iterations = 30;
  Result<SubspaceResult> r = LearnSubspaceAffinity(x, opts);
  ASSERT_TRUE(r.ok());
  const auto& trace = r.value().objective_trace;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i], trace[i - 1] + 1e-8);
  }
}

// Regression: a negative or NaN prune_rel_tol passed Validate() and
// silently disabled pruning.
TEST(LearnSubspace, NegativeOrNaNPruneToleranceRejected) {
  for (double tol : {-1e-6, std::nan("")}) {
    SubspaceOptions opts;
    opts.prune_rel_tol = tol;
    EXPECT_FALSE(opts.Validate().ok()) << tol;
    EXPECT_FALSE(LearnSubspaceAffinity(la::Matrix(5, 3, 1.0), opts).ok())
        << tol;
  }
}

TEST(LearnSubspace, NegativeAffinePenaltyRejected) {
  SubspaceOptions opts;
  opts.affine_penalty = -1.0;
  EXPECT_FALSE(LearnSubspaceAffinity(la::Matrix(5, 3, 1.0), opts).ok());
}

class SubspaceOracle : public ::testing::TestWithParam<double> {};

// The fused solver carries W·Q and the row/column sums forward instead of
// recomputing them, so it rounds differently from the reference but must
// follow the same iterates.
TEST_P(SubspaceOracle, FusedSolverMatchesTwoGemmReference) {
  Rng rng(21);
  const la::Matrix x = la::Matrix::RandomUniform(150, 20, &rng);
  SubspaceOptions opts;
  opts.affine_penalty = GetParam();
  Result<SubspaceResult> fused = LearnSubspaceAffinity(x, opts);
  ASSERT_TRUE(fused.ok());
  const SubspaceResult ref = ReferenceLearn(x, opts);

  EXPECT_EQ(fused.value().iterations, ref.iterations);
  EXPECT_EQ(fused.value().converged, ref.converged);
  const auto& trace = fused.value().objective_trace;
  ASSERT_EQ(trace.size(), ref.objective_trace.size());
  ASSERT_GT(trace.size(), 10u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_NEAR(trace[i], ref.objective_trace[i],
                1e-9 * std::fabs(ref.objective_trace[i]))
        << "iteration " << i;
  }
  EXPECT_LE(la::MaxAbsDiff(fused.value().affinity, ref.affinity),
            1e-9 * ref.affinity.MaxAbs());
}

INSTANTIATE_TEST_SUITE_P(AffinePenalty, SubspaceOracle,
                         ::testing::Values(0.0, 10.0));

// At n = 640 the fused passes split into several row chunks (one chunk
// per GrainForWork(n) rows), so pools of 1 and 4 really run different
// schedules; chunk-ordered merges must keep the result bit-identical.
TEST(LearnSubspace, BitIdenticalAcrossPoolSizesWithManyChunks) {
  constexpr std::size_t kN = 640;
  ASSERT_GE(SpgRowChunks(kN), 4u);
  Rng rng(22);
  const la::Matrix x = la::Matrix::RandomUniform(kN, 32, &rng);
  SubspaceOptions opts;
  opts.affine_penalty = 1.0;
  opts.spg.max_iterations = 6;
  auto learn = [&](int threads) {
    ScopedNumThreads scoped(threads);
    return LearnSubspaceAffinity(x, opts).value();
  };
  const SubspaceResult serial = learn(1);
  const SubspaceResult threaded = learn(4);
  EXPECT_EQ(serial.objective_trace, threaded.objective_trace);
  EXPECT_EQ(la::MaxAbsDiff(serial.affinity, threaded.affinity), 0.0);
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

class SubspaceGammaSweep : public ::testing::TestWithParam<double> {};

TEST_P(SubspaceGammaSweep, AlwaysFeasibleAndDescending) {
  Rng rng(8);
  la::Matrix x = la::Matrix::RandomUniform(18, 5, &rng);
  SubspaceOptions opts;
  opts.gamma = GetParam();
  opts.spg.max_iterations = 25;
  Result<SubspaceResult> r = LearnSubspaceAffinity(x, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().affinity.IsNonNegative());
  EXPECT_TRUE(r.value().affinity.AllFinite());
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
