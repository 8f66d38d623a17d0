// Heterogeneous manifold ensemble (paper §III.B, Eq. 12).
//
// Per object type, two intra-type relationship estimates are combined:
//
//   L = alpha · L_S + L_E
//
// where L_S is the Laplacian of the subspace-membership affinity W^S
// (distant but within-manifold neighbours; §III.A) and L_E the Laplacian
// of a small-p cosine pNN graph W^E (close Euclidean neighbours; Eq. 3).
// Two *diverse* members give the accuracy that RMC's many same-type
// members cannot (§III.B). The joint Laplacian is block-diagonal across
// types and plugs into the regulariser tr(Gᵀ L G) of Eq. 15.
//
// Threading model: every (type, member) pair is an independent
// construction task — one candidate manifold per task. PlanMemberSchedule
// sends the largest members (subspace or pNN) to the caller, one after
// another with the whole pool for their inner kernels, when its cost
// estimate says that shortens the build; the other members fan out one
// per pool task (util/parallel.h), where their inner parallel regions run
// inline (nested-region rule). Each member's subspace seed is derived
// upfront via util DeriveStreamSeed(seed, type), tasks write only their
// own output slots, and the joint Laplacian's rows are assembled in
// parallel from those slots, so the ensemble is bit-identical for any
// pool size or schedule (covered by ensemble_test).

#ifndef RHCHME_CORE_ENSEMBLE_H_
#define RHCHME_CORE_ENSEMBLE_H_

#include <vector>

#include "core/subspace.h"
#include "data/multitype_data.h"
#include "factorization/hocc_common.h"
#include "graph/knn_graph.h"
#include "graph/laplacian.h"
#include "la/matrix.h"
#include "util/status.h"

namespace rhchme {
namespace core {

struct EnsembleOptions {
  /// Trade-off alpha of Eq. 12. Fig. 2: stable in [0.25, 2], best at 1.
  double alpha = 1.0;
  /// pNN member W^E: the paper uses p = 5 with cosine weighting.
  /// knn.backend selects the construction engine (kAuto: exact below the
  /// threshold, NN-descent above); per-type descent seeds are derived
  /// from knn.descent.seed inside BuildEnsemble.
  graph::KnnGraphOptions knn;
  /// Subspace member W^S (Algorithm 1 settings).
  SubspaceOptions subspace;
  /// Both members' Laplacians are symmetric-normalised. A constant that
  /// e2ebench still passes to graph::BuildSparseLaplacian.
  static constexpr graph::LaplacianKind laplacian =
      graph::LaplacianKind::kSymmetric;
  /// Ablation switches: drop a member entirely (at least one must stay).
  bool include_subspace = true;
  bool include_knn = true;

  Status Validate() const;
};

/// The assembled ensemble plus its per-type ingredients (kept for
/// inspection, tests and the subspace demo). ReweightEnsemble copies every
/// field but `laplacian` one by one, so a field added here must be copied
/// there too; Ensemble.ReweightMatchesFreshBuild compares each field with
/// a fresh build.
struct HeterogeneousEnsemble {
  /// Joint block-diagonal n x n Laplacian, alpha·L_S + L_E per block.
  /// Stored sparse: each block's pattern is the union of its members'
  /// patterns plus the diagonal, so the footprint is at most Σ_k
  /// (nnz(W^S_k) + nnz(W^E_k) + n_k) — never the dense n². The solver
  /// consumes it sparse end-to-end (sign-split SpMM rows, Sandwich),
  /// without building its ± parts; call ToDense() only for inspection.
  la::SparseMatrix laplacian;
  /// Per-type subspace affinities W^S as CSR (0 x 0 when disabled).
  std::vector<la::SparseMatrix> subspace_affinity;
  /// Per-type pNN affinities W^E (empty when disabled).
  std::vector<la::SparseMatrix> knn_affinity;
  /// Per-type SPG steps of the subspace member and why it stopped
  /// (SubspaceResult::iterations and ::stop); both empty when the member
  /// is disabled. StopReason::kMaxIterations marks a member that stopped
  /// at its cap.
  std::vector<int> subspace_iterations;
  std::vector<StopReason> subspace_stop;
  double alpha = 1.0;
};

/// The shape of one ensemble member, all the schedule looks at.
struct MemberShape {
  std::size_t objects = 0;   ///< n: objects of the member's type.
  std::size_t features = 0;  ///< D: feature columns of the type.
  bool subspace = false;     ///< Subspace member W^S; false = pNN W^E.
  /// Nonzero feature entries; with n it says whether a subspace member
  /// forms its Q products through the features (SpgFactoredProducts).
  std::size_t feature_nnz = 0;
};

/// BuildEnsemble's member schedule: entry t is true when member t runs on
/// the caller (with the whole pool) and false when it fans out as one
/// pool task. Each member's cost is estimated from its shape alone
/// (subspace: n, D, the feature nonzeros and `spg_iterations`; pNN: n and
/// D). A member on the
/// caller takes cost / min(pool, SpgRowChunks(n)) (subspace) or
/// cost / pool (pNN); the fan-out takes max(largest task, Σ tasks / pool)
/// and runs first. Of the plans that put the k = 0…m largest members of
/// either kind on the caller, the one with the lowest estimate wins, ties
/// going to the smaller k. With one thread there is no fan-out: every
/// member runs on the caller. A pure function of its arguments; no plan
/// changes a bit of the ensemble. `spg_iterations` is the step cap: the
/// estimate does not foresee a plateau stop.
std::vector<bool> PlanMemberSchedule(const std::vector<MemberShape>& members,
                                     int spg_iterations, std::size_t pool);

/// The joint sparse Laplacian alpha·L_S + L_E from per-type member
/// Laplacians (CSR blocks; either member's block may be 0 x 0), each
/// block at its type offset. Row r merges the two sorted member rows. An
/// entry is the sum of its one or two member terms (alpha·L_S only where
/// nonzero), dropped when that sum is zero; two addends commute, so each
/// entry is order-free. Rows are written straight into CSR,
/// row-parallel, with the same bits as summing the entries as triplets
/// (la::SparseMatrix::FromTriplets).
la::SparseMatrix AssembleJointLaplacian(
    const fact::BlockStructure& blocks,
    const std::vector<la::SparseMatrix>& subspace_lap,
    const std::vector<la::SparseMatrix>& knn_lap, double alpha);

/// Builds the ensemble for every type of `data` using each type's feature
/// matrix. Types must have nonempty features. Members are constructed in
/// parallel (PlanMemberSchedule) with schedule-independent results; the
/// first failing member's status (in type order, subspace before pNN) is
/// returned on error.
Result<HeterogeneousEnsemble> BuildEnsemble(
    const data::MultiTypeRelationalData& data,
    const fact::BlockStructure& blocks, const EnsembleOptions& opts);

/// Re-assembles the joint Laplacian from an ensemble's stored members at a
/// different alpha — the expensive subspace learning is NOT repeated.
/// Used by alpha sweeps (Fig. 2) and the blockworld-sweep workload of
/// e2ebench. Per-type Laplacian rebuilds run as parallel tasks (the
/// diagonal blocks occupy disjoint rows of the joint Laplacian).
Result<HeterogeneousEnsemble> ReweightEnsemble(
    const HeterogeneousEnsemble& base, const fact::BlockStructure& blocks,
    double alpha);

}  // namespace core
}  // namespace rhchme

#endif  // RHCHME_CORE_ENSEMBLE_H_
