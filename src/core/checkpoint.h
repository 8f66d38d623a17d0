// Solver checkpoint/resume (fault tolerance).
//
// A SolverSnapshot captures everything the RHCHME iteration loop needs to
// continue a fit bit-identically after a crash: the factors G and S, the
// E_R scales, the objective trace, the RNG stream position and the
// recovery counters. The determinism contract (bit-identical traces across
// thread counts, chunk-ordered reductions) is what makes resume exact
// rather than approximate — replaying iteration t+1 from a snapshot at t
// performs the same floating-point operations in the same order as the
// uninterrupted fit.
//
// On-disk format: magic "RHS1", format version 2 (host endianness, like
// the RHM1 matrix format):
//
//   magic "RHS1" | uint32 version | payload | uint64 FNV-1a checksum
//
// where the payload is fixed-width scalars (options fingerprint,
// iteration, previous objective, RNG state, diagnostics counters) followed
// by the G and S matrices in the RHM1 payload layout and two
// length-prefixed double vectors (er_scale, objective_trace). The
// checksum covers everything before it, so any truncation or bit flip is
// a clean non-OK Status on load — never UB, never a silently wrong
// resume. Writes go to path + ".tmp" and land with std::rename, so the
// snapshot file is always a complete snapshot (the previous one until the
// rename commits). Version 1 snapshots also carried a solver-core id;
// with one solver core left they fail to load with FailedPrecondition.

#ifndef RHCHME_CORE_CHECKPOINT_H_
#define RHCHME_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/rhchme_solver.h"
#include "la/matrix.h"
#include "util/rng.h"
#include "util/status.h"

namespace rhchme {
namespace core {

/// Mid-fit solver state, captured after iteration `iteration` completed
/// (its objective is objective_trace.back()).
struct SolverSnapshot {
  /// Fingerprint of the trajectory-affecting options + problem shape (see
  /// OptionsFingerprint). A mismatch on load is FailedPrecondition.
  uint64_t options_fingerprint = 0;
  int iteration = 0;               ///< Completed iterations (1-based count).
  double prev_objective = 0.0;     ///< Objective after `iteration`.
  bool have_error = false;         ///< E_R scales valid (use_error_matrix).
  Rng::State rng_state;            ///< Solver RNG stream position.
  FitDiagnostics diagnostics;      ///< Counters accumulated so far.
  la::Matrix g;                    ///< Joint n x c membership.
  la::Matrix s;                    ///< Joint c x c association.
  std::vector<double> er_scale;    ///< Per-row E_R scales (may be empty).
  std::vector<double> objective_trace;
};

/// FNV-1a over the options that determine the fit trajectory (lambda,
/// beta, tolerance, ridge, mu_eps, l21_zeta, init, seed, normalize_rows,
/// use_error_matrix) plus the problem shape (n, c). ridge, mu_eps,
/// l21_zeta and init are constants now; they stay in the hash so that
/// snapshots written while they were options still resume. Deliberately
/// EXCLUDES max_iterations and the
/// checkpoint options themselves: resuming a killed 7-iteration run with
/// a larger budget is the intended use, and where a snapshot lands must
/// not affect whether it can be loaded. The ensemble is not fingerprinted
/// (FitWithEnsemble takes it as an argument); resuming against a
/// different ensemble of the same shape is the caller's responsibility.
uint64_t OptionsFingerprint(const RhchmeOptions& opts, std::size_t n,
                            std::size_t c);

/// Serialises and atomically replaces `path` (write path + ".tmp", then
/// rename). Any failure — including the io.snapshot.* injection sites —
/// leaves the previous snapshot file untouched.
Status SaveSolverSnapshot(const std::string& path, const SolverSnapshot& snap);

/// Loads and verifies a snapshot. NotFound when the file does not exist
/// (callers treat that as "fresh fit" under resume); InvalidArgument for
/// truncation, checksum mismatch, bad magic or implausible shapes; any
/// version this build does not understand is FailedPrecondition.
Result<SolverSnapshot> LoadSolverSnapshot(const std::string& path);

}  // namespace core
}  // namespace rhchme

#endif  // RHCHME_CORE_CHECKPOINT_H_
