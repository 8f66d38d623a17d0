// The RHCHME solver core as the SRC, SNMTF and RMC baselines run it.
//
// All three are the symmetric NMTF R ≈ G·S·Gᵀ of core::Rhchme with the
// sparse error matrix E_R and the row normalisation of Eq. 22 off. They
// differ only in the Laplacian: none (SRC), one pNN graph (SNMTF) or a
// learned convex mix of pNN candidates (RMC).

#ifndef RHCHME_BASELINES_CORE_OPTIONS_H_
#define RHCHME_BASELINES_CORE_OPTIONS_H_

#include <utility>

#include "core/rhchme_solver.h"
#include "factorization/hocc_common.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace rhchme {
namespace baselines {
namespace internal {

/// Core options for a baseline: its shared solver fields, regulariser
/// strength `lambda`, E_R and Eq. 22 off. Their Validate() is the
/// baseline's.
template <typename BaselineOptions>
core::RhchmeOptions CoreOptions(const BaselineOptions& o, double lambda) {
  core::RhchmeOptions core;
  core.lambda = lambda;
  core.max_iterations = o.max_iterations;
  core.tolerance = o.tolerance;
  core.seed = o.seed;
  core.use_error_matrix = false;
  core.normalize_rows = false;
  return core;
}

/// The core's factors as a baseline result, timed over the whole baseline
/// run from `watch`'s start (Laplacian construction included).
inline Result<fact::HoccResult> BaselineResult(Result<core::RhchmeResult> fit,
                                               const Stopwatch& watch) {
  if (!fit.ok()) return fit.status();
  fact::HoccResult res = std::move(fit).value().hocc;
  res.seconds = watch.ElapsedSeconds();
  return res;
}

}  // namespace internal
}  // namespace baselines
}  // namespace rhchme

#endif  // RHCHME_BASELINES_CORE_OPTIONS_H_
