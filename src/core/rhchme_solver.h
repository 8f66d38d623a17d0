// RHCHME: Robust High-order Co-clustering via Heterogeneous Manifold
// Ensemble (paper §III, Algorithm 2) — the library's primary contribution.
//
// Solves
//
//   min_{G >= 0, G·1_c = 1_n}  ||R − G·S·Gᵀ − E_R||²_F + beta·||E_R||₂,₁
//                              + lambda·tr(Gᵀ·L·G)               (Eq. 15)
//
// by alternating:
//   1. closed-form S           (Eq. 18)
//   2. multiplicative G update (Eq. 21) + row ℓ1 normalisation (Eq. 22)
//   3. closed-form E_R via the reweighted-ℓ₂ surrogate of the L2,1 norm
//      (Eq. 25–27) — the sample-wise sparse error matrix absorbs
//      corrupted rows of R.
//
// L is the heterogeneous manifold ensemble of Eq. 12 (see ensemble.h).
// Theorem 1 (monotone descent of Eq. 15 under updates 1–3, without the
// normalisation step) is covered by property tests. The SRC, SNMTF and
// RMC baselines (src/baselines) run this same loop with E_R and Eq. 22
// off; RMC re-weights its Laplacian through SetLaplacianHook.
//
// Memory model (docs/ARCHITECTURE.md §Memory model): one solver core.
// The joint R stays a la::SparseMatrix in CSR form for the whole fit and
// **no dense n x n matrix is allocated at any fill** — O(nnz + n·c) per
// fit. R is symmetric by construction (data::MultiTypeRelationalData
// mirrors every relation into its transpose), so Rᵀ·G = R·G and every
// product the updates need is a forward SpMM. With H = G·S and K = R·G
// the products of M = R − E_R with E_R = diag(s)·(R − H·Gᵀ) are
// low-rank:
//
//   M·G  = K − diag(s)·(K − H·(GᵀG))
//   Mᵀ·G = K − R·(diag(s)·G) + G·(Hᵀ·diag(s)·G)
//
// The Eq. 25–27 update makes E_R = diag(s)·Q with per-row scales
// s_i = 1/(beta·d_ii + 1), so only the n scales are stored. The residual
// row norms follow from ‖q_i‖² = ‖r_i‖² − 2·h_i·k_iᵀ + h_i·(GᵀG)·h_iᵀ
// with cached sparse row norms ‖r_i‖² (clamped at zero: the identity
// cancels when the reconstruction is near-exact), and the objective terms
// are analytic — ‖Q − E_R‖²_F = Σ(1−s_i)²‖q_i‖², ‖E_R‖₂,₁ = Σ s_i‖q_i‖.
// The ensemble Laplacian stays sparse end-to-end; its Eq. 21 ± parts are
// never built.
//
// An iteration is the two SpMMs with R (K and R·(diag(s)·G)) inside a
// few row-parallel passes over a workspace allocated once per fit, and it
// reproduces the unfused loop bit for bit (docs/ARCHITECTURE.md "Solver
// iteration").

#ifndef RHCHME_CORE_RHCHME_SOLVER_H_
#define RHCHME_CORE_RHCHME_SOLVER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/ensemble.h"
#include "data/multitype_data.h"
#include "factorization/hocc_common.h"
#include "la/sparse.h"
#include "util/status.h"

namespace rhchme {
namespace core {

struct RhchmeOptions {
  /// Manifold regularisation strength lambda. The paper tunes on
  /// {0.001 .. 1500}; best around 250 on R-Min20Max200 (Fig. 2).
  double lambda = 250.0;
  /// Error-matrix trade-off beta of Eq. 15; larger beta = sparser E_R
  /// (cleaner data). The paper's best is 50 on its corpora; beta scales
  /// with the residual row norms 2·||q_i|| and the synthetic corpora here
  /// sit best around 300 (the Fig. 2 bench re-derives this sweep).
  double beta = 300.0;
  /// Heterogeneous ensemble settings (alpha, pNN, subspace learning).
  EnsembleOptions ensemble;
  int max_iterations = 100;
  /// Stop when the relative objective change falls below this.
  double tolerance = 1e-5;
  /// Ridge added to GᵀG before inversion (empty-cluster guard, Eq. 18).
  static constexpr double ridge = fact::kRidge;
  /// Denominator floor of the multiplicative update (Eq. 21).
  static constexpr double mu_eps = fact::kMuEps;
  /// The paper's zeta: perturbation regularising D_ii = 1/(2||q_i|| + zeta)
  /// when a row of Q vanishes (§III.D.3).
  static constexpr double l21_zeta = 1e-8;
  /// k-means initialisation of G (Algorithm 2).
  static constexpr fact::MembershipInit init = fact::MembershipInit::kKMeans;
  uint64_t seed = 0;
  /// Row ℓ1 normalisation of Eq. 22 (trivial-solution guard). On by
  /// default; exposed for the ablation bench.
  bool normalize_rows = true;
  /// Sparse error matrix E_R (robust term). On by default; exposed for
  /// the ablation bench — disabling recovers a plain graph-regularised
  /// symmetric NMTF with an ensemble Laplacian.
  bool use_error_matrix = true;
  /// Joint-R density (nnz / n²) at or below which the fit runs on the
  /// CSR joint R. Fixed at 1.0: every fill runs the one CSR core. Kept as
  /// a constant for callers that report which representation ran.
  static constexpr double sparse_r_density_threshold = 1.0;

  // ---- Checkpoint/resume (fault tolerance) -------------------------------
  /// Snapshot file for periodic solver-state checkpoints. Written with
  /// write-temp-then-rename semantics, so the file is always a complete
  /// snapshot (the previous one until the rename lands). Empty = disabled.
  std::string checkpoint_path;
  /// Write a snapshot every this many completed iterations (0 = never).
  /// Requires checkpoint_path.
  int checkpoint_every = 0;
  /// Resume from checkpoint_path when the file exists: the fit restores
  /// G, S, the E_R scales, the objective trace and the RNG stream, then
  /// continues bit-identically with the uninterrupted trajectory (the
  /// determinism contract makes this exact, not approximate). A missing
  /// file means a fresh fit; a corrupt or mismatched snapshot (different
  /// options fingerprint, shapes or format version) is a clean non-OK
  /// Status, never a silent restart.
  bool resume = false;

  Status Validate() const;
};

/// Recovery-event counters for one fit. Every numerical guard and
/// checkpoint event increments a counter instead of (or in addition to)
/// logging, so robustness is observable: the scenario grid sums
/// RecoveryEvents() into its per-cell JSON and tests assert exact counts
/// under fault injection. All counters are zero on a healthy fit.
struct FitDiagnostics {
  /// NaN/Inf entries zeroed in the joint R (and feature copies) on input.
  std::size_t nonfinite_input_entries = 0;
  /// NaN/Inf entries zeroed in G by the post-update tripwire.
  std::size_t nonfinite_g_entries = 0;
  /// Iterations where the post-update G tripwire fired.
  int nan_guard_trips = 0;
  /// Boosted-ridge retries of the central c x c solve (fact::SolveStats).
  int solve_ridge_retries = 0;
  /// Iterations rolled back by the objective-divergence guard.
  int backtracks = 0;
  /// Fits stopped early on an unrecoverable mid-fit failure, keeping the
  /// last accepted iterate (result is valid but converged == false).
  int degraded_stops = 0;
  /// Snapshots successfully written (temp + rename completed).
  int snapshots_written = 0;
  /// Snapshot writes that failed; the fit continues, the previous
  /// snapshot file stays intact.
  int snapshot_failures = 0;
  /// Iteration the fit resumed from (0 = fresh fit).
  int resumed_from_iteration = 0;

  /// Total guard activations — the scenario grid's per-cell
  /// "recovery_events" field. Snapshot writes are bookkeeping, not
  /// recoveries, so they are excluded; resuming counts as one event.
  std::size_t RecoveryEvents() const {
    return nonfinite_input_entries + nonfinite_g_entries +
           static_cast<std::size_t>(nan_guard_trips) +
           static_cast<std::size_t>(solve_ridge_retries) +
           static_cast<std::size_t>(backtracks) +
           static_cast<std::size_t>(degraded_stops) +
           static_cast<std::size_t>(snapshot_failures) +
           (resumed_from_iteration > 0 ? 1u : 0u);
  }
};

/// Per-iteration hook: receives the 1-based iteration index and the
/// current joint membership matrix (used by the Fig. 3 convergence bench
/// to score FScore/NMI against ground truth each iteration).
using IterationCallback =
    std::function<void(int iteration, const la::Matrix& g)>;

/// Per-iteration Laplacian hook: called at the start of every iteration
/// (a rolled-back iteration's replay included) with the 1-based iteration
/// index, the accepted membership G and the values of the fit's own copy
/// of the ensemble Laplacian, in its CSR order. The hook rewrites those
/// values in place; the pattern is fixed, so it must keep their count.
/// The iteration then runs on the rewritten L. RMC (baselines/rmc.h)
/// re-weights its candidate Laplacians here.
using LaplacianHook = std::function<void(
    int iteration, const la::Matrix& g, std::vector<double>* values)>;

/// Result bundle: fact::HoccResult plus the learned error matrix (kept
/// factored) and the ensemble that produced it.
struct RhchmeResult {
  fact::HoccResult hocc;
  HeterogeneousEnsemble ensemble;    ///< The Laplacian ensemble used.
  /// Final E_R in factored form: E_R = diag(error_scale)·(R − G·S·Gᵀ) with
  /// the per-row scales s_i of Eq. 25–27, G = hocc.g and S = hocc.s. The
  /// dense matrix is never stored; ErrorMatrix() builds it on demand.
  /// Empty when the robust term is disabled.
  std::vector<double> error_scale;
  /// Guard/recovery counters for this fit (all zero on a healthy run).
  FitDiagnostics diagnostics;

  /// True when a robust E_R was learned.
  bool HasErrorMatrix() const { return !error_scale.empty(); }
};

/// Dense E_R = diag(s)·(R − G·S·Gᵀ) of a fit, built on demand from the
/// fit's factors and the data it was fitted on (R is rebuilt from `data`
/// with the fit's input sanitisation: non-finite entries read as zero).
/// Allocates one n x n matrix; returns an empty matrix when the robust
/// term was disabled.
la::Matrix ErrorMatrix(const data::MultiTypeRelationalData& data,
                       const RhchmeResult& fit);

/// RHCHME driver. Typical use:
///
///   core::RhchmeOptions opts;                   // paper defaults
///   core::Rhchme solver(opts);
///   auto result = solver.Fit(data);
///   if (result.ok()) { use result.value().hocc.labels[0] ... }
class Rhchme {
 public:
  explicit Rhchme(RhchmeOptions opts) : opts_(std::move(opts)) {}

  /// Builds the ensemble (stage 1 + 2 of the paper) and solves Eq. 15.
  Result<RhchmeResult> Fit(const data::MultiTypeRelationalData& data) const;

  /// Solves Eq. 15 against a caller-provided ensemble — used by parameter
  /// sweeps that vary lambda/beta without re-learning subspaces.
  Result<RhchmeResult> FitWithEnsemble(
      const data::MultiTypeRelationalData& data,
      const HeterogeneousEnsemble& ensemble) const;

  void SetIterationCallback(IterationCallback cb) { callback_ = std::move(cb); }
  /// Without a hook the fit reads the ensemble Laplacian in place and
  /// keeps no copy of it.
  void SetLaplacianHook(LaplacianHook hook) {
    laplacian_hook_ = std::move(hook);
  }

  const RhchmeOptions& options() const { return opts_; }

 private:
  /// Body of FitWithEnsemble, separated so the public entry point can
  /// convert a std::bad_alloc into a clean Status.
  Result<RhchmeResult> FitCsr(const data::MultiTypeRelationalData& data,
                              const HeterogeneousEnsemble& ensemble,
                              const fact::BlockStructure& blocks) const;

  RhchmeOptions opts_;
  IterationCallback callback_;
  LaplacianHook laplacian_hook_;
};

/// The full objective J₄ of Eq. 15, evaluated against a sparse R and the
/// factored E_R = diag(error_scale)·(R − G·S·Gᵀ) without materialising
/// any dense n x n matrix: the residual row norms come from the analytic
/// identity ‖q_i‖² = ‖r_i‖² − 2·h_i·k_iᵀ + h_i·(GᵀG)·h_iᵀ (clamped at
/// zero), so the data and ℓ2,1 terms are O(nnz + n·c²). Pass an empty
/// `error_scale` for E_R = 0 (robust term disabled). Reproduces the fit's
/// objective_trace entry for the same factors.
double RhchmeObjective(const la::SparseMatrix& r, const la::Matrix& g,
                       const la::Matrix& s,
                       const std::vector<double>& error_scale,
                       const la::SparseMatrix& laplacian, double lambda,
                       double beta);

}  // namespace core
}  // namespace rhchme

#endif  // RHCHME_CORE_RHCHME_SOLVER_H_
