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
#include "util/status.h"

namespace rhchme {
namespace graph {

struct KnnDescentOptions {
  /// Refinement-round cap. Recall plateaus within a handful of rounds on
  /// clustered data; the update-rate test below usually stops earlier.
  int max_iterations = 15;
  /// Early termination: stop when a round improves fewer than
  /// `termination_delta * n * p` list entries.
  double termination_delta = 1e-3;
  /// Join sample cap as a multiple of p (rho in the paper): each round a
  /// node contributes at most ceil(sample_rate * p) of its fresh forward
  /// edges to the join (unsampled fresh edges stay fresh and wait for a
  /// later round) and at most twice that many reverse edges.
  double sample_rate = 0.5;
  /// Random-projection trees used to seed the initial lists (>= 1). Each
  /// tree recursively splits the rows by a hyperplane through two sampled
  /// points and joins every leaf exhaustively.
  int rp_trees = 4;
  /// Target leaf size of the projection trees; the effective value is
  /// max(leaf_size, 2·(p+1)) so median splits always leave >= p + 1 rows
  /// per leaf and every initial list is full.
  std::size_t leaf_size = 64;
  /// Stream seed for tree splits and join samples.
  /// Ensemble members derive per-member streams from it (see
  /// core::BuildEnsemble).
  uint64_t seed = 0x9e3779b9;

  /// InvalidArgument when a field is out of range, NaN, or (for
  /// termination_delta) infinite.
  Status Validate() const;
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

/// Approximate p-nearest-neighbour lists via NN-descent. Requires
/// points.rows() >= 2; p is clamped to n − 1 (at which point the result
/// is exact). Bit-identical across thread counts for a fixed seed.
Result<KnnNeighborLists> NnDescent(const la::Matrix& points, std::size_t p,
                                   const KnnDescentOptions& opts);

}  // namespace graph
}  // namespace rhchme

#endif  // RHCHME_GRAPH_KNN_DESCENT_H_
