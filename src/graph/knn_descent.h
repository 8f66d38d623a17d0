// Approximate and exact p-nearest-neighbour *lists* — the construction
// engines behind graph::BuildKnnGraph (ROADMAP: "break the O(n²)
// construction wall").
//
// Two engines produce the same artefact, a per-row list of the p closest
// other rows by squared Euclidean distance, with those distances:
//
//  * ExactKnnNeighbors — the reference. Blocked row-panel distance tiles
//    feed per-row top-p heaps, so the dense n x n distance matrix of the
//    old path is never allocated: peak memory is O(n·p) (per-chunk heap
//    scratch, bounded chunk count) instead of O(n²). The triangular pair
//    set (j > i) is split into cost-balanced row ranges — row i does
//    (n−1−i) distance dots, so uniform row chunks would give early chunks
//    ~2x the work — and each chunk's candidates are merged in fixed chunk
//    order, keeping results bit-identical across thread counts.
//  * NnDescent — NN-descent (Dong, Moses & Li, WWW 2011) seeded by a
//    random-projection forest (the pynndescent/LargeVis recipe): a few
//    hyperplane-split trees partition the rows into small leaves, each
//    leaf is joined exhaustively to form near-good initial lists, then
//    descent rounds repeatedly examine neighbours-of-neighbours (forward
//    and sampled reverse edges, pair-once generator-side join), keep the
//    closest p, and stop when the update rate collapses. Empirically
//    ~n^1.1 distance evaluations on clustered data vs the exact engine's
//    O(n²). The ensemble combiner is designed to downweight imperfect
//    manifolds (paper §III.B), which is exactly what makes a high-recall
//    approximate pNN member a drop-in replacement.
//
// NN-descent determinism: every stochastic choice (tree splits, reverse
// samples, forward thinning) draws from util DeriveStreamSeed streams
// keyed by (seed, tree, split) or (seed, round, node), fixed before any
// chunk is scheduled. Leaves of one tree own disjoint node sets, the join
// emits improvement proposals into per-chunk buffers over a shape-only
// chunk layout, and proposals are applied per target in fixed
// (chunk, emission) order — so results are bit-identical for any pool
// size (covered by tests/knn_descent_test.cc). Top-p heap contents are
// insertion-order-independent under dedup-on-arrival because an evicted
// candidate can never re-enter: eviction implies the surviving worst
// entry is strictly closer in the (distance, index) total order.

#ifndef RHCHME_GRAPH_KNN_DESCENT_H_
#define RHCHME_GRAPH_KNN_DESCENT_H_

#include <cstdint>
#include <vector>

#include "la/matrix.h"

namespace rhchme {
namespace graph {

struct KnnDescentOptions {
  /// Stream seed for tree splits and join samples.
  /// Ensemble members derive per-member streams from it (see
  /// core::BuildEnsemble).
  uint64_t seed = 0x9e3779b9;
};

/// One neighbour of a row: its index and its squared Euclidean distance.
struct KnnNeighbor {
  std::size_t index;
  double distance;
};

/// Per-row neighbour lists, each sorted ascending by (distance, index).
using KnnNeighborLists = std::vector<std::vector<KnnNeighbor>>;

/// Exact p-nearest-neighbour lists in O(n·p) memory (never the dense
/// n x n distance matrix). Requires points.rows() >= 2; p is clamped to
/// n − 1. Bit-identical across thread counts.
KnnNeighborLists ExactKnnNeighbors(const la::Matrix& points, std::size_t p);

/// Approximate p-nearest-neighbour lists via NN-descent. p is clamped to
/// n − 1 (at which point the result is exact). Bit-identical across
/// thread counts for a fixed seed.
KnnNeighborLists NnDescent(const la::Matrix& points, std::size_t p,
                                   const KnnDescentOptions& opts);

}  // namespace graph
}  // namespace rhchme

#endif  // RHCHME_GRAPH_KNN_DESCENT_H_
