// DRCC — Dual-Regularised Co-Clustering baseline (paper §IV.B; Gu &
// Zhou, "Co-clustering on manifolds", KDD 2009 [1]).
//
// The two-way (documents x features) reference point of Tables III–V:
//
//   min_{G >= 0, F >= 0}  ||X − G·S·Fᵀ||²_F + lambda·tr(Fᵀ·L_F·F)
//                                            + mu·tr(Gᵀ·L_G·G)
//
// with symmetric-normalised pNN-graph Laplacians on BOTH the sample and
// the feature side, the ridge and update floor of the RHCHME core
// (fact::kRidge, fact::kMuEps) and k-means initialisation. The
// paper evaluates three variants that differ only in X:
//   DR-T  — document–term block,
//   DR-C  — document–concept block,
//   DR-TC — [document–term | document–concept] concatenated.

#ifndef RHCHME_BASELINES_DRCC_H_
#define RHCHME_BASELINES_DRCC_H_

#include <cstdint>
#include <vector>

#include "graph/knn_graph.h"
#include "la/matrix.h"
#include "util/status.h"

namespace rhchme {
namespace baselines {

struct DrccOptions {
  std::size_t row_clusters = 2;   ///< Document clusters.
  std::size_t col_clusters = 2;   ///< Feature clusters.
  double lambda = 1.0;            ///< Feature-graph strength.
  double mu = 1.0;                ///< Sample-graph strength.
  graph::KnnGraphOptions knn;     ///< Used for both graphs (p=5 default).
  int max_iterations = 100;
  double tolerance = 1e-5;
  uint64_t seed = 0;

  Status Validate() const;
};

struct DrccResult {
  la::Matrix g;                          ///< n x row_clusters memberships.
  la::Matrix f;                          ///< m x col_clusters memberships.
  la::Matrix s;                          ///< row_clusters x col_clusters.
  std::vector<std::size_t> row_labels;   ///< Hard document labels.
  std::vector<std::size_t> col_labels;   ///< Hard feature labels.
  std::vector<double> objective_trace;
  int iterations = 0;
  bool converged = false;
  double seconds = 0.0;
};

/// Fits DRCC on a nonnegative data matrix X (samples x features).
/// Requires x.rows() >= row_clusters and x.cols() >= col_clusters.
Result<DrccResult> RunDrcc(const la::Matrix& x, const DrccOptions& opts);

}  // namespace baselines
}  // namespace rhchme

#endif  // RHCHME_BASELINES_DRCC_H_
