#include "baselines/src_clustering.h"

#include "baselines/core_options.h"
#include "core/ensemble.h"

namespace rhchme {
namespace baselines {

Status SrcOptions::Validate() const {
  return internal::CoreOptions(*this, /*lambda=*/0.0).Validate();
}

Result<fact::HoccResult> RunSrc(const data::MultiTypeRelationalData& data,
                                const SrcOptions& opts) {
  Stopwatch watch;
  // No manifold term: at lambda = 0 the core never walks the (empty)
  // n x n Laplacian.
  const std::size_t n = data.TotalObjects();
  core::HeterogeneousEnsemble none;
  none.laplacian = la::SparseMatrix::FromTriplets(n, n, {});
  core::Rhchme solver(internal::CoreOptions(opts, /*lambda=*/0.0));
  return internal::BaselineResult(solver.FitWithEnsemble(data, none), watch);
}

}  // namespace baselines
}  // namespace rhchme
