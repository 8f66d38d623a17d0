// Lloyd's k-means with k-means++ seeding.
//
// Algorithm 2 of the paper initialises the cluster-membership matrix G by
// k-means on each type's feature vectors; the DRCC baseline and several
// tests use it directly.

#ifndef RHCHME_CLUSTER_KMEANS_H_
#define RHCHME_CLUSTER_KMEANS_H_

#include <vector>

#include "la/matrix.h"
#include "util/rng.h"
#include "util/status.h"

namespace rhchme {
namespace cluster {

struct KMeansOptions {
  std::size_t k = 2;         ///< Number of clusters (>= 1).
  int max_iterations = 100;  ///< Lloyd iteration cap.
  double tolerance = 1e-6;   ///< Stop when inertia improves less (>= 0).
  int restarts = 3;          ///< Independent k-means++ restarts; best kept.

  Status Validate() const;
};

struct KMeansResult {
  std::vector<std::size_t> assignments;  ///< Cluster id per input row.
  la::Matrix centroids;                  ///< k x d centroid matrix.
  double inertia = 0.0;                  ///< Sum of squared distances.
  int iterations = 0;                    ///< Lloyd iterations of best run.
};

/// Clusters the rows of `points` into k groups. Deterministic given `rng`
/// state. Requires points.rows() >= k >= 1. On mostly-zero points the
/// centroid update adds only each row's nonzeros, with the same bits.
Result<KMeansResult> KMeans(const la::Matrix& points,
                            const KMeansOptions& opts, Rng* rng);

}  // namespace cluster
}  // namespace rhchme

#endif  // RHCHME_CLUSTER_KMEANS_H_
