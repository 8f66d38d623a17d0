#include "graph/knn_graph.h"

#include <algorithm>
#include <cmath>

#include "la/simd.h"
#include "util/parallel.h"

namespace rhchme {
namespace graph {

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
  return Status::OK();
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
      (opts.backend == KnnBackend::kAuto && n > kKnnAutoBackendThreshold);
  if (use_descent) {
    return NnDescent(points, p, opts.descent);
  }
  return ExactKnnNeighbors(points, p);
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

  // Heat bandwidth: mean squared distance over all directed edges.
  double sigma = 1.0;
  if (opts.scheme == WeightScheme::kHeatKernel) {
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
