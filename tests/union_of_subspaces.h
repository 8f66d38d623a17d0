// Union-of-subspaces sampler, a test-only data generator.
//
// Points drawn from a union of random linear subspaces are the setting in
// which the self-expressive model X = X·W of the subspace member is
// exact, so the subspace and manifold tests use them as ground truth.

#ifndef RHCHME_TESTS_UNION_OF_SUBSPACES_H_
#define RHCHME_TESTS_UNION_OF_SUBSPACES_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "data/manifolds.h"
#include "la/matrix.h"
#include "util/rng.h"
#include "util/status.h"

namespace rhchme {
namespace testing_reference {

struct UnionOfSubspacesOptions {
  /// Intrinsic dimension of each subspace; length = number of subspaces.
  std::vector<std::size_t> subspace_dims = {2, 2};
  std::size_t ambient_dim = 10;
  std::size_t points_per_subspace = 60;
  double noise_sigma = 0.01;
  /// When true, subspace coefficients are nonnegative (documents are
  /// nonnegative mixtures of topics).
  bool nonnegative = true;
  uint64_t seed = 2;
};

/// Points drawn from a union of random linear subspaces; InvalidArgument
/// when there is no subspace or a dimension is outside [1, ambient_dim).
inline Result<data::ManifoldSample> SampleUnionOfSubspaces(
    const UnionOfSubspacesOptions& opts) {
  if (opts.subspace_dims.empty()) {
    return Status::InvalidArgument("need at least one subspace");
  }
  for (std::size_t d : opts.subspace_dims) {
    if (d == 0 || d >= opts.ambient_dim) {
      return Status::InvalidArgument(
          "subspace dims must be in [1, ambient_dim)");
    }
  }
  Rng rng(opts.seed);
  const std::size_t n_sub = opts.subspace_dims.size();
  const std::size_t n = n_sub * opts.points_per_subspace;

  data::ManifoldSample out;
  out.points.Resize(n, opts.ambient_dim);
  out.labels.resize(n);

  std::size_t row = 0;
  for (std::size_t s = 0; s < n_sub; ++s) {
    // Random basis: ambient_dim x d with N(0,1) entries. Entries of the
    // basis are not orthogonalised — span is what matters.
    la::Matrix basis = la::Matrix::RandomNormal(
        opts.ambient_dim, opts.subspace_dims[s], &rng);
    if (opts.nonnegative) basis.Apply([](double v) { return std::fabs(v); });
    for (std::size_t i = 0; i < opts.points_per_subspace; ++i, ++row) {
      // Draw the coefficient vector once per point, then project.
      std::vector<double> coeff(opts.subspace_dims[s]);
      for (double& c : coeff) {
        c = opts.nonnegative ? 0.2 + rng.Uniform() : rng.Normal();
      }
      for (std::size_t a = 0; a < opts.ambient_dim; ++a) {
        double v = 0.0;
        for (std::size_t dd = 0; dd < opts.subspace_dims[s]; ++dd) {
          v += basis(a, dd) * coeff[dd];
        }
        out.points(row, a) = v + rng.Normal(0.0, opts.noise_sigma);
      }
      out.labels[row] = s;
    }
  }
  return out;
}

}  // namespace testing_reference
}  // namespace rhchme

#endif  // RHCHME_TESTS_UNION_OF_SUBSPACES_H_
