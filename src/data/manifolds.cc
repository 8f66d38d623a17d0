#include "data/manifolds.h"

#include <cmath>

namespace rhchme {
namespace data {

ManifoldSample SampleTwoCircles(const TwoCirclesOptions& opts) {
  Rng rng(opts.seed);
  const std::size_t n = 2 * opts.points_per_circle + opts.ambient_noise;
  ManifoldSample out;
  out.points.Resize(n, 2);
  out.labels.resize(n);

  const double cx[2] = {-0.5 * opts.center_distance,
                        0.5 * opts.center_distance};
  std::size_t row = 0;
  for (std::size_t circle = 0; circle < 2; ++circle) {
    for (std::size_t i = 0; i < opts.points_per_circle; ++i, ++row) {
      const double theta = 2.0 * M_PI * rng.Uniform();
      const double r = opts.radius + rng.Normal(0.0, opts.noise_sigma);
      out.points(row, 0) = cx[circle] + r * std::cos(theta);
      out.points(row, 1) = r * std::sin(theta);
      out.labels[row] = circle;
    }
  }
  const double span = opts.center_distance + 2.0 * opts.radius;
  for (std::size_t i = 0; i < opts.ambient_noise; ++i, ++row) {
    out.points(row, 0) = rng.Uniform(-span, span);
    out.points(row, 1) = rng.Uniform(-span, span);
    out.labels[row] = 2;
  }
  return out;
}

}  // namespace data
}  // namespace rhchme
