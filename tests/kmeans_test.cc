// Unit tests for k-means and the membership helpers.

#include "cluster/kmeans.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "cluster/assignments.h"
#include "la/simd.h"
#include "scoped_num_threads.h"
#include "util/rng.h"

namespace rhchme {
namespace cluster {
namespace {

/// Three well-separated Gaussian blobs in 2D.
la::Matrix Blobs(std::size_t per_blob, Rng* rng) {
  const double centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
  la::Matrix pts(3 * per_blob, 2);
  for (std::size_t b = 0; b < 3; ++b) {
    for (std::size_t i = 0; i < per_blob; ++i) {
      pts(b * per_blob + i, 0) = centers[b][0] + rng->Normal(0.0, 0.3);
      pts(b * per_blob + i, 1) = centers[b][1] + rng->Normal(0.0, 0.3);
    }
  }
  return pts;
}

/// Squared distance from `pts` row i to `centroids` row c.
double Dist2(const la::Matrix& pts, std::size_t i, const la::Matrix& centroids,
             std::size_t c) {
  double v = 0.0;
  for (std::size_t j = 0; j < pts.cols(); ++j) {
    const double diff = pts(i, j) - centroids(c, j);
    v += diff * diff;
  }
  return v;
}

/// Sum over points of the squared distance to the nearest centroid, while
/// asserting each point's assignment IS a nearest centroid — the
/// (assignments, centroids) consistency invariant of KMeansResult.
double RecomputeInertiaCheckingAssignments(const la::Matrix& pts,
                                           const KMeansResult& r,
                                           const std::string& context) {
  double total = 0.0;
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    double best = std::numeric_limits<double>::max();
    for (std::size_t c = 0; c < r.centroids.rows(); ++c) {
      best = std::min(best, Dist2(pts, i, r.centroids, c));
    }
    const double assigned = Dist2(pts, i, r.centroids, r.assignments[i]);
    EXPECT_NEAR(assigned, best, 1e-12) << context << " point " << i;
    total += assigned;
  }
  return total;
}

/// KMeans with the dense centroid update: k-means++ seeding and Lloyd
/// iterations as the library runs them, serially, adding whole rows.
/// The reference for the library's update over nonzeros.
KMeansResult DenseLoopKMeans(const la::Matrix& points,
                             const KMeansOptions& opts, Rng* rng) {
  const std::size_t n = points.rows(), d = points.cols(), k = opts.k;
  auto dist = [&](const double* a, const double* b) {
    return la::simd::SquaredDistance(a, b, d);
  };
  KMeansResult best;
  best.inertia = std::numeric_limits<double>::max();
  for (int restart = 0; restart < opts.restarts; ++restart) {
    la::Matrix centroids(k, d);
    centroids.SetBlock(0, 0, points.Block(rng->UniformInt(n), 0, 1, d));
    std::vector<double> dist2(n, std::numeric_limits<double>::max());
    for (std::size_t c = 1; c < k; ++c) {
      for (std::size_t i = 0; i < n; ++i) {
        dist2[i] = std::min(dist2[i],
                            dist(points.row_ptr(i), centroids.row_ptr(c - 1)));
      }
      double total = 0.0;
      for (double v : dist2) total += v;
      const std::size_t chosen =
          total <= 0.0 ? rng->UniformInt(n) : rng->Categorical(dist2);
      centroids.SetBlock(c, 0, points.Block(chosen, 0, 1, d));
    }
    std::vector<std::size_t> assign(n, 0);
    double prev = std::numeric_limits<double>::max(), inertia = prev;
    int it = 0;
    for (; it < opts.max_iterations; ++it) {
      inertia = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        double b = std::numeric_limits<double>::max();
        std::size_t best_c = 0;
        for (std::size_t c = 0; c < k; ++c) {
          const double v = dist(points.row_ptr(i), centroids.row_ptr(c));
          if (v < b) {
            b = v;
            best_c = c;
          }
        }
        assign[i] = best_c;
        inertia += b;
      }
      const double delta = prev - inertia;
      if (delta >= 0.0 && delta < opts.tolerance) {
        ++it;
        break;
      }
      prev = inertia;
      if (it + 1 >= opts.max_iterations) continue;
      centroids.Fill(0.0);
      std::vector<std::size_t> count(k, 0);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < d; ++j) {
          centroids(assign[i], j) += points(i, j);
        }
        ++count[assign[i]];
      }
      for (std::size_t c = 0; c < k; ++c) {
        if (count[c] == 0) {
          centroids.SetBlock(c, 0, points.Block(rng->UniformInt(n), 0, 1, d));
          continue;
        }
        const double inv = 1.0 / static_cast<double>(count[c]);
        for (std::size_t j = 0; j < d; ++j) centroids(c, j) *= inv;
      }
    }
    if (inertia < best.inertia) {
      best.assignments = assign;
      best.centroids = centroids;
      best.inertia = inertia;
      best.iterations = it;
    }
  }
  return best;
}

TEST(KMeans, UpdateOverNonzerosMatchesTheDenseLoop) {
  // Rows about 4% full, so the centroid update walks each row's
  // nonzeros; the result must be the dense loop's byte for byte.
  Rng data_rng(41);
  la::Matrix pts(300, 120);
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    const std::size_t topic = i % 5;
    for (std::size_t j = 0; j < pts.cols(); ++j) {
      const double p = j / 24 == topic ? 0.15 : 0.005;
      if (data_rng.Uniform() < p) pts(i, j) = data_rng.Uniform(0.1, 1.0);
    }
  }
  KMeansOptions opts;
  opts.k = 6;
  opts.restarts = 3;
  Rng rng_lib(42), rng_ref(42);
  const KMeansResult got = KMeans(pts, opts, &rng_lib).value();
  const KMeansResult ref = DenseLoopKMeans(pts, opts, &rng_ref);
  EXPECT_GT(got.iterations, 1);
  EXPECT_EQ(got.assignments, ref.assignments);
  EXPECT_EQ(got.iterations, ref.iterations);
  EXPECT_EQ(std::memcmp(&got.inertia, &ref.inertia, sizeof(double)), 0);
  ASSERT_TRUE(got.centroids.SameShape(ref.centroids));
  for (std::size_t c = 0; c < ref.centroids.rows(); ++c) {
    EXPECT_EQ(std::memcmp(got.centroids.row_ptr(c), ref.centroids.row_ptr(c),
                          ref.centroids.cols() * sizeof(double)),
              0)
        << "centroid " << c;
  }
}

TEST(KMeans, RecoversSeparatedBlobs) {
  Rng rng(1);
  la::Matrix pts = Blobs(30, &rng);
  KMeansOptions opts;
  opts.k = 3;
  Result<KMeansResult> r = KMeans(pts, opts, &rng);
  ASSERT_TRUE(r.ok());
  // Each blob maps to exactly one cluster id and the ids are distinct.
  std::set<std::size_t> ids;
  for (std::size_t b = 0; b < 3; ++b) {
    const std::size_t id = r.value().assignments[b * 30];
    ids.insert(id);
    for (std::size_t i = 0; i < 30; ++i) {
      EXPECT_EQ(r.value().assignments[b * 30 + i], id);
    }
  }
  EXPECT_EQ(ids.size(), 3u);
}

TEST(KMeans, DeterministicGivenSeed) {
  Rng rng1(42), rng2(42);
  la::Matrix pts = Blobs(20, &rng1);
  Rng data_rng(7);
  la::Matrix pts2 = Blobs(20, &rng2);
  KMeansOptions opts;
  opts.k = 3;
  Rng a(9), b(9);
  Result<KMeansResult> r1 = KMeans(pts, opts, &a);
  Result<KMeansResult> r2 = KMeans(pts2, opts, &b);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().assignments, r2.value().assignments);
  EXPECT_DOUBLE_EQ(r1.value().inertia, r2.value().inertia);
}

TEST(KMeans, InertiaDecreasesWithMoreClusters) {
  Rng rng(3);
  la::Matrix pts = la::Matrix::RandomNormal(100, 3, &rng);
  double prev = 1e300;
  for (std::size_t k : {1u, 2u, 4u, 8u}) {
    KMeansOptions opts;
    opts.k = k;
    opts.restarts = 4;
    Rng local(11);
    Result<KMeansResult> r = KMeans(pts, opts, &local);
    ASSERT_TRUE(r.ok());
    EXPECT_LE(r.value().inertia, prev + 1e-9) << "k=" << k;
    prev = r.value().inertia;
  }
}

TEST(KMeans, SingleClusterCentroidIsMean) {
  la::Matrix pts = la::Matrix::FromRows({{0, 0}, {2, 0}, {0, 2}, {2, 2}});
  KMeansOptions opts;
  opts.k = 1;
  Rng rng(5);
  Result<KMeansResult> r = KMeans(pts, opts, &rng);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().centroids(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(r.value().centroids(0, 1), 1.0, 1e-12);
}

TEST(KMeans, KEqualsNPutsEachPointAlone) {
  la::Matrix pts = la::Matrix::FromRows({{0.0}, {5.0}, {10.0}});
  KMeansOptions opts;
  opts.k = 3;
  opts.restarts = 5;
  Rng rng(6);
  Result<KMeansResult> r = KMeans(pts, opts, &rng);
  ASSERT_TRUE(r.ok());
  std::set<std::size_t> ids(r.value().assignments.begin(),
                            r.value().assignments.end());
  EXPECT_EQ(ids.size(), 3u);
  EXPECT_NEAR(r.value().inertia, 0.0, 1e-12);
}

TEST(KMeans, ValidationErrors) {
  Rng rng(7);
  la::Matrix pts = la::Matrix::RandomNormal(5, 2, &rng);
  KMeansOptions opts;
  opts.k = 0;
  EXPECT_FALSE(KMeans(pts, opts, &rng).ok());
  opts.k = 10;  // More clusters than points.
  EXPECT_FALSE(KMeans(pts, opts, &rng).ok());
  opts.k = 2;
  opts.max_iterations = 0;
  EXPECT_FALSE(KMeans(pts, opts, &rng).ok());
  opts.max_iterations = 10;
  opts.restarts = 0;
  EXPECT_FALSE(KMeans(pts, opts, &rng).ok());
  opts.restarts = 1;
  opts.tolerance = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(KMeans(pts, opts, &rng).ok());
  opts.tolerance = -1e-6;
  EXPECT_FALSE(KMeans(pts, opts, &rng).ok());
  opts.tolerance = 0.0;
  EXPECT_TRUE(KMeans(pts, opts, &rng).ok());
}

TEST(KMeans, DenseCentroidUpdateIsTheSerialRowLoopAtAnyPoolSize) {
  // Dense points wide enough that the column-range update spans several
  // chunks. A tolerance below any nonzero inertia change stops only on an
  // unchanged inertia, so the returned centroids are the update of the
  // returned assignments; they must be that update as the serial loop
  // computes it (each column adds its rows in ascending order), bit for
  // bit, and the same at pool sizes 1 and 4.
  Rng data_rng(41);
  const la::Matrix pts = la::Matrix::RandomNormal(300, 700, &data_rng);
  KMeansOptions opts;
  opts.k = 4;
  opts.restarts = 1;
  opts.tolerance = 1e-300;
  std::vector<KMeansResult> results;
  for (int threads : {1, 4}) {
    ScopedNumThreads pool(threads);
    Rng rng(42);
    Result<KMeansResult> r = KMeans(pts, opts, &rng);
    ASSERT_TRUE(r.ok());
    results.push_back(std::move(r).value());
  }
  const KMeansResult& r = results[0];
  ASSERT_LT(r.iterations, opts.max_iterations);
  la::Matrix want(opts.k, pts.cols());
  std::vector<std::size_t> count(opts.k, 0);
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    double* cr = want.row_ptr(r.assignments[i]);
    const double* pr = pts.row_ptr(i);
    for (std::size_t j = 0; j < pts.cols(); ++j) cr[j] += pr[j];
    ++count[r.assignments[i]];
  }
  for (std::size_t c = 0; c < opts.k; ++c) {
    ASSERT_GT(count[c], 0u);
    const double inv = 1.0 / static_cast<double>(count[c]);
    for (std::size_t j = 0; j < pts.cols(); ++j) {
      ASSERT_EQ(r.centroids(c, j), want(c, j) * inv) << c << "," << j;
      ASSERT_EQ(results[1].centroids(c, j), r.centroids(c, j));
    }
  }
  EXPECT_EQ(results[1].assignments, r.assignments);
  EXPECT_EQ(results[1].inertia, r.inertia);
}

TEST(KMeans, ReseedOscillationTerminatesAndStaysConsistent) {
  // Four duplicate points and one outlier with k = 3: after seeding, the
  // third centroid always duplicates an existing location, its cluster
  // stays empty, and every update step reseeds it — the reseed
  // oscillation. The solver must still terminate promptly (the fit is
  // exact, so the empty-cluster escape applies) instead of spinning to
  // the iteration cap, and the returned assignments must be consistent
  // with the returned centroids — convergence is never declared on a
  // reseed that the assignment step has not re-evaluated.
  la::Matrix pts = la::Matrix::FromRows({{1.0}, {1.0}, {1.0}, {1.0}, {5.0}});
  KMeansOptions opts;
  opts.k = 3;
  opts.restarts = 2;
  for (uint64_t seed = 0; seed < 25; ++seed) {
    Rng rng(seed);
    Result<KMeansResult> r = KMeans(pts, opts, &rng);
    ASSERT_TRUE(r.ok()) << "seed " << seed;
    EXPECT_NEAR(r.value().inertia, 0.0, 1e-12) << "seed " << seed;
    EXPECT_LT(r.value().iterations, opts.max_iterations) << "seed " << seed;
    RecomputeInertiaCheckingAssignments(pts, r.value(),
                                        "seed " + std::to_string(seed));
  }
}

TEST(KMeans, LooseToleranceDoesNotStopOnAnUnevaluatedReseed) {
  // With a tolerance far larger than any real improvement, the solver
  // would previously break on the first small delta even when that very
  // update step had just reseeded an empty cluster. The guard keeps
  // iterating until an update with no reseed (or an exact fit), so the
  // final inertia must never exceed a freshly recomputed assignment cost.
  Rng data_rng(17);
  la::Matrix pts = la::Matrix::RandomNormal(40, 2, &data_rng);
  KMeansOptions opts;
  opts.k = 8;
  opts.restarts = 1;
  opts.tolerance = 100.0;
  for (uint64_t seed = 0; seed < 25; ++seed) {
    Rng rng(seed);
    Result<KMeansResult> r = KMeans(pts, opts, &rng);
    ASSERT_TRUE(r.ok()) << "seed " << seed;
    const double recomputed = RecomputeInertiaCheckingAssignments(
        pts, r.value(), "seed " + std::to_string(seed));
    // The returned inertia was measured against pre-update centroids;
    // the update (means, no unevaluated reseed) can only improve it.
    EXPECT_LE(recomputed, r.value().inertia + 1e-9) << "seed " << seed;
  }
}

TEST(KMeans, IterationCapExitReturnsConsistentBundle) {
  // tolerance = 0 on noisy data forces the iteration-cap exit. The update
  // step must not run after the final assignment, so the returned
  // assignments, centroids and inertia describe the same state: each
  // point sits on a nearest returned centroid and the inertia is exactly
  // the recomputed assignment cost.
  Rng data_rng(19);
  la::Matrix pts = la::Matrix::RandomNormal(30, 2, &data_rng);
  KMeansOptions opts;
  opts.k = 6;
  opts.restarts = 1;
  opts.max_iterations = 3;
  opts.tolerance = 0.0;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    Result<KMeansResult> r = KMeans(pts, opts, &rng);
    ASSERT_TRUE(r.ok()) << "seed " << seed;
    const double total = RecomputeInertiaCheckingAssignments(
        pts, r.value(), "seed " + std::to_string(seed));
    EXPECT_NEAR(total, r.value().inertia, 1e-9) << "seed " << seed;
  }
}

TEST(KMeans, DuplicatePointsDoNotCrash) {
  la::Matrix pts(10, 2, 1.0);  // All identical.
  KMeansOptions opts;
  opts.k = 3;
  Rng rng(8);
  Result<KMeansResult> r = KMeans(pts, opts, &rng);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().inertia, 0.0, 1e-12);
}

// ---- Assignment helpers ----------------------------------------------------

TEST(Assignments, HardAssignmentsFullMatrix) {
  la::Matrix g = la::Matrix::FromRows({{0.1, 0.9}, {0.8, 0.2}});
  EXPECT_EQ(HardAssignments(g), (std::vector<std::size_t>{1, 0}));
}

TEST(Assignments, HardAssignmentsSubrange) {
  la::Matrix g = la::Matrix::FromRows(
      {{0.9, 0.1, 0.0, 0.0}, {0.1, 0.9, 0.0, 0.0}, {0.0, 0.0, 0.3, 0.7}});
  // Columns [2,4) of row [2,3): labels relative to column 2.
  EXPECT_EQ(HardAssignments(g, 2, 3, 2, 4), (std::vector<std::size_t>{1}));
}

TEST(Assignments, MembershipFromLabelsProperties) {
  la::Matrix g = MembershipFromLabels({0, 2, 1}, 3, 0.3);
  EXPECT_EQ(g.rows(), 3u);
  EXPECT_EQ(g.cols(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_GT(g(i, j), 0.0);  // Never exactly zero (MU requirement).
      sum += g(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
  // Arg-max recovers the label.
  EXPECT_EQ(HardAssignments(g), (std::vector<std::size_t>{0, 2, 1}));
}

TEST(Assignments, MembershipSingleCluster) {
  la::Matrix g = MembershipFromLabels({0, 0}, 1, 0.0);
  EXPECT_DOUBLE_EQ(g(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(g(1, 0), 1.0);
}

TEST(Assignments, RandomMembershipIsRowStochastic) {
  Rng rng(9);
  la::Matrix g = RandomMembership(20, 4, &rng);
  for (std::size_t i = 0; i < 20; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_GT(g(i, j), 0.0);
      sum += g(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

}  // namespace
}  // namespace cluster
}  // namespace rhchme
