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
  kHeatKernel,  ///< w_ij = exp(-||x_i - x_j||² / sigma), sigma automatic.
  kCosine,      ///< w_ij = <x_i, x_j> / (||x_i|| ||x_j||), floored at 0.
};

const char* WeightSchemeName(WeightScheme scheme);

/// Neighbour-list construction engine.
enum class KnnBackend {
  kExact,      ///< Blocked exact scan: O(n²·d) time, O(n·p) memory.
  kNNDescent,  ///< NN-descent approximation: ~O(n^1.14) distance evals.
  kAuto,       ///< kExact up to kKnnAutoBackendThreshold points, else descent.
};

const char* KnnBackendName(KnnBackend backend);

/// Point count above which KnnBackend::kAuto switches from the exact scan
/// to NN-descent: every paper-scale dataset and test corpus stays on the
/// exact reference.
constexpr std::size_t kKnnAutoBackendThreshold = 2048;

/// Edges are kept when either endpoint lists the other (Eq. 3's union
/// symmetrisation). The heat kernel's bandwidth sigma is the mean squared
/// neighbour distance over all directed edges.
struct KnnGraphOptions {
  /// Neighbour count p. The paper uses p = 5 for SNMTF/RHCHME and
  /// p ∈ {5, 10} for the RMC candidates.
  std::size_t p = 5;
  WeightScheme scheme = WeightScheme::kCosine;
  /// Neighbour-list engine. kAuto keeps the exact reference for small
  /// inputs and switches to NN-descent where the O(n²·d) scan starts to
  /// dominate.
  KnnBackend backend = KnnBackend::kAuto;
  /// NN-descent seed; ignored by the exact backend. Ensemble members
  /// derive per-member seeds from descent.seed (see core::BuildEnsemble).
  KnnDescentOptions descent;

  /// InvalidArgument when p == 0.
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

}  // namespace graph
}  // namespace rhchme

#endif  // RHCHME_GRAPH_KNN_GRAPH_H_
