// Manifold sampler for the Fig. 1 demo.
//
// The paper motivates subspace learning with two intersecting circles
// (Fig. 1): points near the intersection share pNN neighbours across
// manifolds, while subspace membership separates them. This sampler
// recreates that scene.

#ifndef RHCHME_DATA_MANIFOLDS_H_
#define RHCHME_DATA_MANIFOLDS_H_

#include <vector>

#include "la/matrix.h"
#include "util/rng.h"

namespace rhchme {
namespace data {

/// Labelled point set sampled from a union of manifolds.
struct ManifoldSample {
  la::Matrix points;                 ///< n x d, one point per row.
  std::vector<std::size_t> labels;   ///< Manifold id per point.
};

struct TwoCirclesOptions {
  std::size_t points_per_circle = 100;
  double radius = 1.0;
  /// Centre distance; < 2*radius makes the circles intersect (Fig. 1).
  double center_distance = 1.2;
  double noise_sigma = 0.02;         ///< Radial jitter.
  std::size_t ambient_noise = 0;     ///< Extra uniform outliers (label = 2).
  uint64_t seed = 1;
};

/// Two (possibly intersecting) circles in R², plus optional outliers.
ManifoldSample SampleTwoCircles(const TwoCirclesOptions& opts);

}  // namespace data
}  // namespace rhchme

#endif  // RHCHME_DATA_MANIFOLDS_H_
