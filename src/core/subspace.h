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
// gradient 2γ(W·Q − Q) + 2·1·(1ᵀW) with Q = X̂·X̂ᵀ (docs/ARCHITECTURE.md
// "Ensemble construction: the SPG workspace"). X̂ is X with each object
// row L2-normalised, as in the SSC/LRR/SSQP family: subspace membership
// is direction, not magnitude, so corrupted high-magnitude rows do not
// dominate the self-expression. Eq. 9 is solved as printed: the affine
// constraint of Eq. 4/6 (each row of W sums to one) is not imposed.
//
// Each SPG step costs one product d·Q (W·Q is carried forward) and two
// row-parallel passes over a fixed workspace, so the learned W is
// bit-identical for any pool size under a given kernel table. The step
// direction d is kept as its nonzeros: once W turns sparse (Eq. 5), the
// product's mostly-zero panels and most of the passes cost O(nnz(d)),
// and W is bit-identical to running every pass densely.
//
// Sparse features (SpgFactoredProducts): Q, the first W·Q and every d·Q
// panel that would cost more run through the features as (A·X̂)·X̂ᵀ, two
// CSR row products per 32-row panel of A (FactoredGramProduct). That
// costs 2·nnz(X̂) multiply-adds per row instead of the GEMM's n, so the
// dense first steps (random W₀, d 14–99% full) no longer pay n³. Those
// products use spmm_rows alone, so W stays bit-identical across kernel
// tables and pool sizes on this path too.
//
// Stop rules, checked in this order: after a step, the objective plateau
// (J₂'s relative change |J₂ₖ − J₂ₖ₋₁| / max(1, |J₂ₖ₋₁|) at most
// kSpgPlateauTolerance on kSpgPlateauSteps consecutive steps); before a
// step, the stationarity test ||P(W − grad) − W||_∞ <= spg.tolerance; and
// the cap of spg.max_iterations steps. The line search makes every step a
// descent, but the Barzilai–Borwein steps are nonmonotone in size, so a
// single flat step does not stop the loop. The stop reads only the
// objective trace, so it is bit-identical across pool sizes too.
//
// The point of this learner (Fig. 1): two objects far apart in Euclidean
// space but on the same low-dimensional subspace obtain a nonzero
// affinity, which a p-nearest-neighbour graph cannot deliver.

#ifndef RHCHME_CORE_SUBSPACE_H_
#define RHCHME_CORE_SUBSPACE_H_

#include <cstdint>
#include <vector>

#include "la/matrix.h"
#include "la/sparse.h"
#include "util/status.h"

namespace rhchme {
namespace core {

/// Relative change of J₂ per step at or below which a step counts as flat.
constexpr double kSpgPlateauTolerance = 1e-6;
/// Consecutive flat steps that stop the SPG loop (the objective plateau).
constexpr int kSpgPlateauSteps = 3;
/// Barzilai–Borwein steplength clamp (the standard SPG safeguards).
constexpr double kSpgStepMin = 1e-10;
constexpr double kSpgStepMax = 1e10;

/// Why an SPG run stopped.
enum class StopReason {
  kTolerance,      ///< The stationarity test met spg.tolerance.
  kPlateau,        ///< J₂ stayed flat for kSpgPlateauSteps steps.
  kMaxIterations,  ///< spg.max_iterations steps ran without either.
};

/// True when the last kSpgPlateauSteps steps of `trace` (J₂ after each
/// step) were all flat: the objective plateau that stops the SPG loop.
bool ObjectivePlateaued(const std::vector<double>& trace);

/// Spectral Projected Gradient solver knobs. The loop stops at the first
/// of three rules: the objective plateau (kSpgPlateauTolerance over
/// kSpgPlateauSteps steps, fixed), the stationarity `tolerance`, or
/// `max_iterations` steps.
struct SpgOptions {
  int max_iterations = 80;
  /// Stop when the projected-gradient step has infinity norm below this.
  double tolerance = 1e-5;

  Status Validate() const;
};

struct SubspaceOptions {
  /// Noise-tolerance gamma of Eq. 9 — larger means "trust the
  /// reconstruction more" (cleaner data). The paper reports gamma ∈
  /// [10, 50] on its corpora (Fig. 2); the value scales with data
  /// magnitude and our synthetic corpora sit best around 5 (the Fig. 2
  /// bench re-derives this sweep).
  double gamma = 5.0;
  SpgOptions spg;
  uint64_t seed = 12345;  ///< Random initialisation of W (paper Algorithm 1).

  Status Validate() const;
};

/// Post-processing of the learned W: affinities below this fraction of
/// its largest entry are zeroed (numerical dust), then W becomes
/// (W + Wᵀ)/2, the symmetric affinity a graph Laplacian needs.
constexpr double kSpgPruneRelTol = 1e-6;

struct SubspaceResult {
  /// Learned affinity W: nonnegative, zero diagonal, symmetric. This is
  /// the paper's W^S for one object type. Stored as CSR (the learned W is
  /// a few percent full): the prune and symmetrise passes run on the
  /// dense W of the SPG loop, and converting it (la::SparseMatrix::
  /// FromDense, zeros dropped) is the last step.
  la::SparseMatrix affinity;
  std::vector<double> objective_trace;  ///< J₂ after each SPG iteration.
  int iterations = 0;
  StopReason stop = StopReason::kMaxIterations;
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

/// Multiply-adds the packed GEMM runs in the time the per-nonzero CSR row
/// kernel (spmm_rows) runs one. It prices the GEMM path of a Q product at
/// n² / kSpgGemmAdvantage per row of A against the factored path's
/// 2·nnz(X̂). Measured on a 4-core AVX-512 host with the W₀·Q product of
/// the tf-idf and D4 members: 3.9–7.6 at 4 threads, 2.3–5.1 at 1. Whole
/// members with n²/(2·nnz) of 4.3–5.1 ran equally fast either way at 4
/// threads, so 6 keeps them on the GEMM path.
constexpr std::size_t kSpgGemmAdvantage = 6;

/// True when an n-object member whose features hold `feature_nnz`
/// nonzeros forms its products with Q = X̂·X̂ᵀ as (A·X̂)·X̂ᵀ:
/// 2·feature_nnz·kSpgGemmAdvantage < n². LearnSubspaceAffinity takes that
/// path when this holds and every feature is finite. On it, Q and the
/// first W·Q are factored products, and a d·Q panel of r rows is one when
/// 2·feature_nnz·r is below its current cost: n per nonzero of the
/// panel's d on the zero-skipping path, or (always, by this rule) the
/// GEMM's r·n² / kSpgGemmAdvantage.
///
/// The rule reads the shape alone, never the pool size, although the
/// GEMM's advantage grows with threads. The factored path moves W at
/// rounding level against the GEMM path, so a pool-dependent choice would
/// give a type a different W^S at 1 and at 4 threads and break the
/// per-table bit-identity across thread counts. It would also misjudge
/// the schedule: a member fanned out by PlanMemberSchedule runs its
/// kernels on one thread whatever the pool size.
bool SpgFactoredProducts(std::size_t n, std::size_t feature_nnz);

/// A·Q for Q = X̂·X̂ᵀ, where X̂ is `objects` with each row L2-normalised
/// (a zero row stays zero), or Q itself when `a` is null. A is n×n. Runs
/// the factored product of the SPG learner whatever SpgFactoredProducts
/// says: per output row r and column i,
/// v_k = Σ_j X̂(j,k)·A(r,j) in ascending j, then Σ_k X̂(i,k)·v_k in
/// ascending k, each from +0.0 with one unfused multiply-add per nonzero
/// of X̂. Requires finite `objects`.
la::Matrix FactoredGramProduct(const la::Matrix& objects,
                               const la::Matrix* a);

/// Number of row chunks the SPG passes of an n-object type split into
/// (util::GrainForWork(n) rows each; a shape-only layout), so at most
/// this many threads share a member's row passes. PlanMemberSchedule
/// (core/ensemble.h) divides a member's cost on the caller by
/// min(pool, SpgRowChunks(n)).
std::size_t SpgRowChunks(std::size_t n);

}  // namespace core
}  // namespace rhchme

#endif  // RHCHME_CORE_SUBSPACE_H_
