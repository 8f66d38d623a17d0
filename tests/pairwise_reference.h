// Dense n x n pairwise matrices over the rows of a point set, a test-only
// reference.
//
// The library's pNN graphs never materialise a dense n x n matrix
// (graph/knn_graph.h); the tests use these to check hand-computed
// distances and similarities.

#ifndef RHCHME_TESTS_PAIRWISE_REFERENCE_H_
#define RHCHME_TESTS_PAIRWISE_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <vector>

#include "la/matrix.h"
#include "la/simd.h"

namespace rhchme {
namespace testing_reference {

/// Copies the strict upper triangle of `m` onto the lower one.
inline void MirrorUpperToLower(la::Matrix* m) {
  for (std::size_t i = 0; i < m->rows(); ++i) {
    for (std::size_t j = 0; j < i; ++j) (*m)(i, j) = (*m)(j, i);
  }
}

/// Pairwise squared Euclidean distances between rows of `points`, from
/// the sq[i] + sq[j] − 2·dot grouping of the pNN engines.
inline la::Matrix PairwiseSquaredDistances(const la::Matrix& points) {
  const std::size_t n = points.rows(), d = points.cols();
  std::vector<double> sq(n);
  for (std::size_t i = 0; i < n; ++i) {
    sq[i] = la::simd::Dot(points.row_ptr(i), points.row_ptr(i), d);
  }
  la::Matrix dist(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dot = la::simd::Dot(points.row_ptr(i), points.row_ptr(j), d);
      // max() guards the tiny negatives produced by cancellation.
      dist(i, j) = std::max(0.0, sq[i] + sq[j] - 2.0 * dot);
    }
  }
  MirrorUpperToLower(&dist);
  return dist;
}

/// Pairwise cosine similarities between rows, floored at zero so the
/// affinity stays nonnegative. Zero rows get zero similarity; the
/// diagonal stays zero.
inline la::Matrix PairwiseCosine(const la::Matrix& points) {
  const std::size_t n = points.rows(), d = points.cols();
  std::vector<double> norm(n);
  for (std::size_t i = 0; i < n; ++i) {
    norm[i] = std::sqrt(la::simd::Dot(points.row_ptr(i), points.row_ptr(i), d));
  }
  la::Matrix cos(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (norm[i] == 0.0) continue;
    for (std::size_t j = i + 1; j < n; ++j) {
      if (norm[j] == 0.0) continue;
      const double dot = la::simd::Dot(points.row_ptr(i), points.row_ptr(j), d);
      cos(i, j) = std::max(0.0, dot / (norm[i] * norm[j]));
    }
  }
  MirrorUpperToLower(&cos);
  return cos;
}

}  // namespace testing_reference
}  // namespace rhchme

#endif  // RHCHME_TESTS_PAIRWISE_REFERENCE_H_
