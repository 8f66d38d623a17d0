#include "graph/knn_graph.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "la/simd.h"
#include "util/parallel.h"

namespace rhchme {
namespace graph {
namespace {

/// Folded triangular row mapping: unit m owns rows {m, n−1−m}, so every
/// unit costs exactly (n−1) upper-triangle cells — uniform-grain chunking
/// then balances perfectly, unlike plain row chunks where row i costs
/// (n−1−i) and early chunks get ~2x the work. Ownership is exclusive
/// (units own disjoint row pairs; the middle row of odd n pairs with
/// itself), and per-cell arithmetic is untouched, so output values are
/// bit-identical to the unfolded loop for any pool size.
template <typename RowFn>
void ForEachRowFolded(std::size_t n, std::size_t cost_per_unit,
                      const RowFn& fn) {
  const std::size_t units = (n + 1) / 2;
  util::ParallelFor(0, units, util::GrainForWork(cost_per_unit),
                    [&](std::size_t m0, std::size_t m1) {
                      for (std::size_t m = m0; m < m1; ++m) {
                        fn(m);
                        const std::size_t mate = n - 1 - m;
                        if (mate != m) fn(mate);
                      }
                    });
}

/// Copies the strict upper triangle of `m` onto the lower one. Each unit
/// writes only its own rows; the upper triangle was fully written before
/// the ParallelFor barrier that precedes this call.
void MirrorUpperToLower(la::Matrix* m) {
  const std::size_t n = m->rows();
  if (n == 0) return;
  ForEachRowFolded(n, n, [&](std::size_t i) {
    for (std::size_t j = 0; j < i; ++j) {
      (*m)(i, j) = (*m)(j, i);
    }
  });
}

}  // namespace

const char* WeightSchemeName(WeightScheme scheme) {
  switch (scheme) {
    case WeightScheme::kBinary: return "binary";
    case WeightScheme::kHeatKernel: return "heat";
    case WeightScheme::kCosine: return "cosine";
  }
  return "?";
}

const char* KnnBackendName(KnnBackend backend) {
  switch (backend) {
    case KnnBackend::kExact: return "exact";
    case KnnBackend::kNNDescent: return "nn-descent";
    case KnnBackend::kAuto: return "auto";
  }
  return "?";
}

Status KnnGraphOptions::Validate() const {
  if (p == 0) return Status::InvalidArgument("pNN graph needs p >= 1");
  // Negated so that NaN fails it: a NaN sigma would skip the auto
  // bandwidth (NaN < 0 is false) and turn every weight into NaN.
  if (scheme == WeightScheme::kHeatKernel &&
      !(heat_sigma < 0.0 || heat_sigma > 0.0)) {
    return Status::InvalidArgument(
        "heat_sigma must be nonzero and not NaN; use < 0 for auto bandwidth");
  }
  return descent.Validate();
}

la::Matrix PairwiseSquaredDistances(const la::Matrix& points) {
  const std::size_t n = points.rows(), d = points.cols();
  std::vector<double> sq(n, 0.0);
  util::ParallelFor(0, n, util::GrainForWork(2 * d + 1),
                    [&](std::size_t r0, std::size_t r1) {
                      for (std::size_t i = r0; i < r1; ++i) {
                        const double* r = points.row_ptr(i);
                        sq[i] = la::simd::Dot(r, r, d);
                      }
                    });
  la::Matrix dist(n, n);
  if (n == 0) return dist;
  // Upper triangle only, folded row units: every chunk write lands in the
  // chunk's own rows, and the mirror pass runs after the barrier.
  ForEachRowFolded(n, d * (n - 1) + 1, [&](std::size_t i) {
    const double* ri = points.row_ptr(i);
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dot = la::simd::Dot(ri, points.row_ptr(j), d);
      // max() guards the tiny negatives produced by cancellation.
      dist(i, j) = std::max(0.0, sq[i] + sq[j] - 2.0 * dot);
    }
  });
  MirrorUpperToLower(&dist);
  return dist;
}

la::Matrix PairwiseCosine(const la::Matrix& points) {
  const std::size_t n = points.rows(), d = points.cols();
  std::vector<double> norm(n, 0.0);
  util::ParallelFor(0, n, util::GrainForWork(2 * d + 1),
                    [&](std::size_t r0, std::size_t r1) {
                      for (std::size_t i = r0; i < r1; ++i) {
                        const double* r = points.row_ptr(i);
                        norm[i] = std::sqrt(la::simd::Dot(r, r, d));
                      }
                    });
  la::Matrix cos(n, n);
  if (n == 0) return cos;
  // Same folded upper-triangle + mirror structure as the distance kernel.
  ForEachRowFolded(n, d * (n - 1) + 1, [&](std::size_t i) {
    if (norm[i] == 0.0) return;
    const double* ri = points.row_ptr(i);
    for (std::size_t j = i + 1; j < n; ++j) {
      if (norm[j] == 0.0) continue;
      const double dot = la::simd::Dot(ri, points.row_ptr(j), d);
      cos(i, j) = std::max(0.0, dot / (norm[i] * norm[j]));
    }
  });
  MirrorUpperToLower(&cos);
  return cos;
}

Result<KnnNeighborLists> BuildKnnNeighbors(const la::Matrix& points,
                                           const KnnGraphOptions& opts) {
  RHCHME_RETURN_IF_ERROR(opts.Validate());
  const std::size_t n = points.rows();
  if (n < 2) {
    return Status::InvalidArgument("pNN graph needs at least two points");
  }
  const std::size_t p = std::min(opts.p, n - 1);
  const bool use_descent =
      opts.backend == KnnBackend::kNNDescent ||
      (opts.backend == KnnBackend::kAuto && n > opts.auto_backend_threshold);
  if (use_descent) {
    return NnDescent(points, p, KnnMetric::kSquaredEuclidean, opts.descent);
  }
  return ExactKnnNeighbors(points, p, KnnMetric::kSquaredEuclidean);
}

Result<la::SparseMatrix> BuildKnnGraph(const la::Matrix& points,
                                       const KnnGraphOptions& opts) {
  Result<KnnNeighborLists> lists = BuildKnnNeighbors(points, opts);
  if (!lists.ok()) return lists.status();
  const KnnNeighborLists& nbrs = lists.value();
  const std::size_t n = points.rows(), d = points.cols();
  const std::size_t p = std::min(opts.p, n - 1);

  // Directed adjacency flags for the symmetrisation rule of Eq. 3.
  // Lists hold p entries; a linear scan beats any index for paper-scale p.
  auto is_neighbour = [&](std::size_t i, std::size_t j) {
    for (const KnnNeighbor& e : nbrs[i]) {
      if (e.index == j) return true;
    }
    return false;
  };

  // Auto bandwidth: mean squared distance over all directed edges.
  double sigma = opts.heat_sigma;
  if (opts.scheme == WeightScheme::kHeatKernel && sigma < 0.0) {
    double acc = 0.0;
    std::size_t cnt = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (const KnnNeighbor& e : nbrs[i]) {
        acc += e.distance;
        ++cnt;
      }
    }
    sigma = cnt > 0 ? std::max(acc / static_cast<double>(cnt), 1e-12) : 1.0;
  }

  // Row norms, needed only to weight cosine edges (the edge set itself is
  // selected by Euclidean proximity for every scheme).
  std::vector<double> norm;
  if (opts.scheme == WeightScheme::kCosine) {
    norm.assign(n, 0.0);
    util::ParallelFor(0, n, util::GrainForWork(2 * d + 1),
                      [&](std::size_t r0, std::size_t r1) {
                        for (std::size_t i = r0; i < r1; ++i) {
                          const double* r = points.row_ptr(i);
                          norm[i] = std::sqrt(la::simd::Dot(r, r, d));
                        }
                      });
  }

  auto weight = [&](std::size_t i, std::size_t j, double dist) -> double {
    switch (opts.scheme) {
      case WeightScheme::kBinary:
        return 1.0;
      case WeightScheme::kHeatKernel:
        return std::exp(-dist / sigma);
      case WeightScheme::kCosine: {
        if (norm[i] == 0.0 || norm[j] == 0.0) return 0.0;
        const double dot =
            la::simd::Dot(points.row_ptr(i), points.row_ptr(j), d);
        return std::max(0.0, dot / (norm[i] * norm[j]));
      }
    }
    return 0.0;
  };

  // Edge weighting per source row is independent (reads only the shared
  // neighbour lists), so rows run as parallel chunks writing their own
  // edge lists; the row-ordered concatenation below keeps the triplet
  // sequence — and the summed duplicates — identical to a serial build.
  std::vector<std::vector<la::Triplet>> row_edges(n);
  util::ParallelFor(
      0, n, util::GrainForWork((2 * d + 8) * p + 1),
      [&](std::size_t r0, std::size_t r1) {
        for (std::size_t i = r0; i < r1; ++i) {
          row_edges[i].reserve(2 * p);
          for (const KnnNeighbor& e : nbrs[i]) {
            const std::size_t j = e.index;
            bool keep = opts.mutual ? is_neighbour(j, i) : true;
            if (!keep) continue;
            double w = weight(i, j, e.distance);
            if (w <= 0.0) continue;
            // Insert both directions; FromTriplets sums duplicates, so
            // halve edges that both endpoints list.
            bool both = is_neighbour(j, i);
            double v = both ? 0.5 * w : w;
            row_edges[i].push_back({i, j, v});
            row_edges[i].push_back({j, i, v});
          }
        }
      });
  std::vector<la::Triplet> trips;
  trips.reserve(2 * n * p);
  for (std::size_t i = 0; i < n; ++i) {
    trips.insert(trips.end(), row_edges[i].begin(), row_edges[i].end());
  }
  return la::SparseMatrix::FromTriplets(n, n, std::move(trips));
}

}  // namespace graph
}  // namespace rhchme
