// Multiple-subspace affinity learning (paper §III.A, Algorithm 1).
//
// Learns the self-expressive affinity W solving
//
//   min_{W >= 0, diag(W) = 0}  gamma * ||X - W·X||²_F + ||W·Wᵀ||₁      (Eq. 9)
//
// by the nonmonotone Spectral Projected Gradient method of Birgin,
// Martínez & Raydan [25]. Objects are ROWS of X here (the paper uses
// columns), so self-expression reads X ≈ W·X. For nonnegative W the
// SSQP-style regulariser satisfies ||W·Wᵀ||₁ = ||1ᵀW||²₂, giving the
// gradient 2γ(W·Q − Q) + 2·1·(1ᵀW) with Q = X·Xᵀ (DESIGN.md §5.1/5.2
// documents the deviations from the paper's typo'd formulas).
//
// Each SPG step costs one product d·Q (W·Q is carried forward) and three
// fused row-parallel passes over a fixed workspace, so the learned W is
// bit-identical for any pool size under a given kernel table. The step
// direction d is kept as its nonzeros: once W turns sparse (Eq. 5), the
// product's mostly-zero panels and most of the passes cost O(nnz(d)),
// and W is bit-identical to running every pass densely.
//
// The point of this learner (Fig. 1): two objects far apart in Euclidean
// space but on the same low-dimensional subspace obtain a nonzero
// affinity, which a p-nearest-neighbour graph cannot deliver.

#ifndef RHCHME_CORE_SUBSPACE_H_
#define RHCHME_CORE_SUBSPACE_H_

#include <cstdint>
#include <vector>

#include "la/matrix.h"
#include "util/status.h"

namespace rhchme {
namespace core {

/// Spectral Projected Gradient solver knobs.
struct SpgOptions {
  int max_iterations = 80;
  /// Stop when the projected-gradient step has infinity norm below this.
  double tolerance = 1e-5;
  /// Barzilai–Borwein steplength clamp (standard SPG safeguards).
  double step_min = 1e-10;
  double step_max = 1e10;

  Status Validate() const;
};

struct SubspaceOptions {
  /// Noise-tolerance gamma of Eq. 9 — larger means "trust the
  /// reconstruction more" (cleaner data). The paper reports gamma ∈
  /// [10, 50] on its corpora (Fig. 2); the value scales with data
  /// magnitude and our synthetic corpora sit best around 5 (the Fig. 2
  /// bench re-derives this sweep).
  double gamma = 5.0;
  /// Keep only the k strongest affinities per row (0 = keep all).
  /// Eq. 5 wants W zero across subspaces; on noisy data the solved W
  /// carries cross-subspace dust, and keeping the top-k entries per
  /// object restores that sparsity pattern.
  std::size_t keep_top_k = 0;
  /// Weight of the affine-combination penalty eta·||W·1 − 1||²₂.
  /// Eq. 4/6 of the paper constrain each object's coefficients to sum
  /// to one (affine self-expression) but Eq. 9 drops the constraint; a
  /// positive eta restores it softly. Needed when the manifolds are
  /// affine rather than linear subspaces (e.g. the Fig. 1 circles in
  /// monomial coordinates). 0 reproduces Eq. 9 exactly.
  double affine_penalty = 0.0;
  SpgOptions spg;
  /// Symmetrise the learned affinity to (W + Wᵀ)/2 — a graph Laplacian
  /// needs a symmetric affinity.
  bool symmetrize = true;
  /// L2-normalise each object row before learning (standard practice in
  /// the SSC/LRR/SSQP family): subspace membership is direction, not
  /// magnitude, so corrupted high-magnitude rows stop dominating the
  /// self-expression.
  bool normalize_rows = true;
  /// Zero out affinities below this fraction of the matrix max
  /// (suppresses numerical dust; 0 disables; negative or NaN is
  /// rejected).
  double prune_rel_tol = 1e-6;
  uint64_t seed = 12345;  ///< Random initialisation of W (paper Algorithm 1).

  Status Validate() const;
};

struct SubspaceResult {
  /// Learned affinity W: nonnegative, zero diagonal, symmetric when
  /// requested. This is the paper's W^S for one object type.
  la::Matrix affinity;
  std::vector<double> objective_trace;  ///< J₂ after each SPG iteration.
  int iterations = 0;
  bool converged = false;
};

/// Runs Algorithm 1 on one object type. `objects` holds one object per
/// row (n x D). Requires n >= 2.
Result<SubspaceResult> LearnSubspaceAffinity(const la::Matrix& objects,
                                             const SubspaceOptions& opts);

/// The objective J₂ of Eq. 9 at W (exposed for tests: descent property,
/// optimality checks). `gram` is X·Xᵀ.
double SubspaceObjective(const la::Matrix& w, const la::Matrix& gram,
                         double gamma);

/// Projection of Eq. 11: zero diagonal, negatives clamped to zero.
void ProjectFeasible(la::Matrix* w);

/// Number of row chunks the SPG passes of an n-object type split into
/// (util::GrainForWork(n) rows each; a shape-only layout). BuildEnsemble
/// runs a subspace member on the caller, with the whole pool, once this
/// reaches the pool size.
std::size_t SpgRowChunks(std::size_t n);

}  // namespace core
}  // namespace rhchme

#endif  // RHCHME_CORE_SUBSPACE_H_
