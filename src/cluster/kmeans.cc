#include "cluster/kmeans.h"

#include <cmath>
#include <limits>

#include "la/gemm.h"
#include "la/simd.h"
#include "util/parallel.h"

namespace rhchme {
namespace cluster {
namespace {

double SquaredDistance(const double* a, const double* b, std::size_t d) {
  return la::simd::SquaredDistance(a, b, d);
}

/// k-means++: first centre uniform, then proportional to D².
la::Matrix SeedPlusPlus(const la::Matrix& points, std::size_t k, Rng* rng) {
  const std::size_t n = points.rows(), d = points.cols();
  // KMeans() validates this for callers; the check here keeps the seeding
  // from silently sampling duplicate centres if it is ever reached on a
  // path that skipped validation.
  RHCHME_CHECK(k >= 1 && k <= n, "SeedPlusPlus: requires 1 <= k <= n");
  la::Matrix centroids(k, d);
  std::size_t first = rng->UniformInt(n);
  centroids.SetBlock(0, 0, points.Block(first, 0, 1, d));

  std::vector<double> dist2(n, std::numeric_limits<double>::max());
  for (std::size_t c = 1; c < k; ++c) {
    // D² refresh against the newest centre; rows are independent.
    util::ParallelFor(0, n, util::GrainForWork(2 * d + 1),
                      [&](std::size_t r0, std::size_t r1) {
                        for (std::size_t i = r0; i < r1; ++i) {
                          double v = SquaredDistance(
                              points.row_ptr(i), centroids.row_ptr(c - 1), d);
                          if (v < dist2[i]) dist2[i] = v;
                        }
                      });
    double total = 0.0;
    for (double v : dist2) total += v;
    std::size_t chosen;
    if (total <= 0.0) {
      chosen = rng->UniformInt(n);  // All points identical to a centre.
    } else {
      chosen = rng->Categorical(dist2);
    }
    centroids.SetBlock(c, 0, points.Block(chosen, 0, 1, d));
  }
  return centroids;
}

/// Column indices of each row's nonzeros (row i at [offsets[i],
/// offsets[i + 1]) of idx), for the centroid update over nonzeros. Built
/// once per KMeans call, and only when the points are mostly zero
/// (la::MostlyZero): on denser points the dense row add is faster. The
/// count and the build are row-parallel.
struct RowNonZeros {
  std::vector<std::size_t> offsets, idx;
};

RowNonZeros MakeRowNonZeros(const la::Matrix& points) {
  const std::size_t n = points.rows(), d = points.cols();
  const std::size_t grain = util::GrainForWork(d + 1);
  auto row_nonzeros = [&](std::size_t i) {
    const double* pr = points.row_ptr(i);
    std::size_t nz = 0;
    for (std::size_t j = 0; j < d; ++j) nz += (pr[j] != 0.0);
    return nz;
  };
  // Exact: a count below 2^53 is a whole double, whatever the chunking.
  const auto nonzeros = static_cast<std::size_t>(util::ParallelSum(
      0, n, grain, [&](std::size_t r0, std::size_t r1) {
        std::size_t nz = 0;
        for (std::size_t i = r0; i < r1; ++i) nz += row_nonzeros(i);
        return static_cast<double>(nz);
      }));
  RowNonZeros nz;
  if (!la::MostlyZero(n * d - nonzeros, n * d)) return nz;
  nz.offsets.assign(n + 1, 0);
  util::ParallelFor(0, n, grain, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) nz.offsets[i + 1] = row_nonzeros(i);
  });
  for (std::size_t i = 0; i < n; ++i) nz.offsets[i + 1] += nz.offsets[i];
  nz.idx.resize(nz.offsets[n]);
  util::ParallelFor(0, n, grain, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) {
      const double* pr = points.row_ptr(i);
      std::size_t at = nz.offsets[i];
      for (std::size_t j = 0; j < d; ++j) {
        if (pr[j] != 0.0) nz.idx[at++] = j;
      }
    }
  });
  return nz;
}

struct LloydOutcome {
  std::vector<std::size_t> assignments;
  la::Matrix centroids;
  double inertia;
  int iterations;
};

LloydOutcome RunLloyd(const la::Matrix& points, const RowNonZeros& nonzeros,
                      la::Matrix centroids, const KMeansOptions& opts,
                      Rng* rng) {
  const std::size_t n = points.rows(), d = points.cols(), k = opts.k;
  std::vector<std::size_t> assign(n, 0);
  std::vector<double> best_dist(n, 0.0);
  double prev_inertia = std::numeric_limits<double>::max();
  double inertia = prev_inertia;
  int it = 0;
  for (; it < opts.max_iterations; ++it) {
    // Assignment step: each point's nearest centre is independent, so the
    // scan parallelises over rows. Per-point best distances are staged in
    // best_dist and summed serially in row order afterwards, which keeps
    // the inertia bit-identical for any thread count.
    util::ParallelFor(
        0, n, util::GrainForWork(2 * d * k + 1),
        [&](std::size_t r0, std::size_t r1) {
          for (std::size_t i = r0; i < r1; ++i) {
            double best = std::numeric_limits<double>::max();
            std::size_t best_c = 0;
            for (std::size_t c = 0; c < k; ++c) {
              double v =
                  SquaredDistance(points.row_ptr(i), centroids.row_ptr(c), d);
              if (v < best) {
                best = v;
                best_c = c;
              }
            }
            assign[i] = best_c;
            best_dist[i] = best;
          }
        });
    inertia = 0.0;
    for (std::size_t i = 0; i < n; ++i) inertia += best_dist[i];
    // Convergence needs a *nonnegative* improvement below the tolerance:
    // a rise (delta < 0) must keep iterating, not satisfy
    // `delta < tolerance` through a large negative value.
    const double delta = prev_inertia - inertia;
    if (delta >= 0.0 && delta < opts.tolerance) {
      ++it;
      break;
    }
    prev_inertia = inertia;
    // Update step; empty clusters are re-seeded on a random point. The
    // update runs only when another assignment pass will re-evaluate it,
    // so every exit — convergence break or iteration cap — returns the
    // exact (assignments, centroids, inertia) triple the assignment step
    // measured, and a reseeded centre is never returned sight-unseen.
    if (it + 1 >= opts.max_iterations) continue;  // Cap: no trailing update.
    // Skipping a row's zeros is exact: every sum starts at +0.0, and a sum
    // of nonzero doubles is never −0.0, so adding ±0.0 changes no bit.
    centroids.Fill(0.0);
    std::vector<std::size_t> count(k, 0);
    for (std::size_t i = 0; i < n; ++i) ++count[assign[i]];
    if (nonzeros.offsets.empty()) {
      // Every column adds its rows in ascending order whatever the column
      // range, so ranges of columns run on the pool.
      util::ParallelFor(0, d, util::GrainForWork(n + 1),
                        [&](std::size_t j0, std::size_t j1) {
                          for (std::size_t i = 0; i < n; ++i) {
                            double* cr = centroids.row_ptr(assign[i]);
                            const double* pr = points.row_ptr(i);
                            for (std::size_t j = j0; j < j1; ++j) {
                              cr[j] += pr[j];
                            }
                          }
                        });
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        double* cr = centroids.row_ptr(assign[i]);
        const double* pr = points.row_ptr(i);
        for (std::size_t e = nonzeros.offsets[i]; e < nonzeros.offsets[i + 1];
             ++e) {
          cr[nonzeros.idx[e]] += pr[nonzeros.idx[e]];
        }
      }
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (count[c] == 0) {
        centroids.SetBlock(c, 0, points.Block(rng->UniformInt(n), 0, 1, d));
        continue;
      }
      double inv = 1.0 / static_cast<double>(count[c]);
      double* cr = centroids.row_ptr(c);
      for (std::size_t j = 0; j < d; ++j) cr[j] *= inv;
    }
  }
  return {std::move(assign), std::move(centroids), inertia, it};
}

}  // namespace

Status KMeansOptions::Validate() const {
  if (k == 0) return Status::InvalidArgument("k-means needs k >= 1");
  if (max_iterations <= 0) {
    return Status::InvalidArgument("k-means needs max_iterations >= 1");
  }
  if (restarts <= 0) {
    return Status::InvalidArgument("k-means needs restarts >= 1");
  }
  // Negated: NaN fails it. A NaN or negative tolerance never satisfies
  // the convergence test, so every restart would run to max_iterations.
  if (!(tolerance >= 0.0)) {
    return Status::InvalidArgument("k-means needs tolerance >= 0, not NaN");
  }
  return Status::OK();
}

Result<KMeansResult> KMeans(const la::Matrix& points,
                            const KMeansOptions& opts, Rng* rng) {
  RHCHME_RETURN_IF_ERROR(opts.Validate());
  if (points.rows() < opts.k) {
    return Status::InvalidArgument("k-means: fewer points than clusters");
  }

  const RowNonZeros nonzeros = MakeRowNonZeros(points);
  KMeansResult best;
  best.inertia = std::numeric_limits<double>::max();
  for (int r = 0; r < opts.restarts; ++r) {
    LloydOutcome out = RunLloyd(points, nonzeros,
                                SeedPlusPlus(points, opts.k, rng), opts, rng);
    if (out.inertia < best.inertia) {
      best.assignments = std::move(out.assignments);
      best.centroids = std::move(out.centroids);
      best.inertia = out.inertia;
      best.iterations = out.iterations;
    }
  }
  return best;
}

}  // namespace cluster
}  // namespace rhchme
