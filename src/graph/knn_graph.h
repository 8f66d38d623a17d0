// p-nearest-neighbour affinity graphs (paper Eq. 3).
//
// Existing HOCC methods estimate intra-type relationships W_E from a pNN
// graph over each type's feature vectors; RHCHME keeps one small-p cosine
// pNN graph as the "local" member of its heterogeneous ensemble, and the
// RMC baseline uses six of them (p ∈ {5,10} × three weighting schemes).
//
// Construction is two-phase: a backend (exact or NN-descent, see
// graph/knn_descent.h) produces per-row neighbour lists, then a shared
// symmetrise/weight step turns the lists into the sparse affinity matrix.
// Neither phase materialises a dense n x n matrix — peak memory is O(n·p).

#ifndef RHCHME_GRAPH_KNN_GRAPH_H_
#define RHCHME_GRAPH_KNN_GRAPH_H_

#include "graph/knn_descent.h"
#include "la/matrix.h"
#include "la/sparse.h"
#include "util/status.h"

namespace rhchme {
namespace graph {

/// Edge weighting for the pNN graph (paper §II.A lists all three).
enum class WeightScheme {
  kBinary,      ///< w_ij = 1 when a neighbour edge exists.
  kHeatKernel,  ///< w_ij = exp(-||x_i - x_j||² / sigma).
  kCosine,      ///< w_ij = <x_i, x_j> / (||x_i|| ||x_j||), floored at 0.
};

const char* WeightSchemeName(WeightScheme scheme);

/// Neighbour-list construction engine.
enum class KnnBackend {
  kExact,      ///< Blocked exact scan: O(n²·d) time, O(n·p) memory.
  kNNDescent,  ///< NN-descent approximation: ~O(n^1.14) distance evals.
  kAuto,       ///< kExact below auto_backend_threshold points, else descent.
};

const char* KnnBackendName(KnnBackend backend);

struct KnnGraphOptions {
  /// Neighbour count p. The paper uses p = 5 for SNMTF/RHCHME and
  /// p ∈ {5, 10} for the RMC candidates.
  std::size_t p = 5;
  WeightScheme scheme = WeightScheme::kCosine;
  /// Heat-kernel bandwidth sigma; < 0 selects the mean squared neighbour
  /// distance automatically. Exactly zero and NaN are rejected by
  /// Validate() — they would divide by zero or poison every weight.
  double heat_sigma = -1.0;
  /// Eq. 3 keeps an edge when either endpoint lists the other (union
  /// symmetrisation). Set to true for the stricter mutual-kNN variant.
  bool mutual = false;
  /// Neighbour-list engine. kAuto keeps the exact reference for small
  /// inputs (all paper-scale datasets and the test corpora) and switches
  /// to NN-descent where the O(n²·d) scan starts to dominate.
  KnnBackend backend = KnnBackend::kAuto;
  /// kAuto uses NN-descent when points.rows() exceeds this.
  std::size_t auto_backend_threshold = 2048;
  /// NN-descent tuning; ignored by the exact backend. Ensemble members
  /// derive per-member seeds from descent.seed (see core::BuildEnsemble).
  KnnDescentOptions descent;

  /// InvalidArgument when p == 0, when heat_sigma is zero or NaN with
  /// kHeatKernel, or when the descent options are malformed.
  Status Validate() const;
};

/// Builds the symmetric pNN affinity matrix for `points` (one object per
/// row). The diagonal is zero; the result has at most 2·n·p nonzeros.
/// Requires points.rows() >= 2 and p < points.rows().
Result<la::SparseMatrix> BuildKnnGraph(const la::Matrix& points,
                                       const KnnGraphOptions& opts);

/// The backend dispatcher behind BuildKnnGraph: per-row neighbour lists
/// selected by squared Euclidean distance (every weight scheme selects by
/// Euclidean proximity, matching the historical dense path) under
/// opts.backend. Exposed for recall evaluation (eval::RecallAgainstExact)
/// and benches.
Result<KnnNeighborLists> BuildKnnNeighbors(const la::Matrix& points,
                                           const KnnGraphOptions& opts);

/// Pairwise squared Euclidean distances between rows of `points`
/// (exposed for tests and for the subspace demo).
la::Matrix PairwiseSquaredDistances(const la::Matrix& points);

/// Pairwise cosine similarities between rows, floored at zero so the
/// affinity stays nonnegative. Zero rows get zero similarity.
la::Matrix PairwiseCosine(const la::Matrix& points);

}  // namespace graph
}  // namespace rhchme

#endif  // RHCHME_GRAPH_KNN_GRAPH_H_
