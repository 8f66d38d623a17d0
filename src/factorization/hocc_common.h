// Shared machinery for NMTF-based HOCC solvers.
//
// RHCHME and the SRC/SNMTF/RMC baselines all decompose the joint inter-type
// matrix R ≈ G·S·Gᵀ with block-diagonal G and zero-diagonal-block S (paper
// §I.A / Eq. 1). This module holds the block-structure bookkeeping, the
// closed-form central-factor update (Eq. 18), the multiplicative ±-split
// G update (Eq. 21) and the shared result type.

#ifndef RHCHME_FACTORIZATION_HOCC_COMMON_H_
#define RHCHME_FACTORIZATION_HOCC_COMMON_H_

#include <string>
#include <vector>

#include "data/multitype_data.h"
#include "la/matrix.h"
#include "la/sparse.h"
#include "util/rng.h"
#include "util/status.h"

namespace rhchme {
namespace fact {

/// Row/column offsets describing the block layout of the joint matrices.
struct BlockStructure {
  std::vector<std::size_t> type_offset;     ///< Row offset per type (+ n).
  std::vector<std::size_t> cluster_offset;  ///< Column offset per type (+ c).

  std::size_t num_types() const { return type_offset.size() - 1; }
  std::size_t total_objects() const { return type_offset.back(); }
  std::size_t total_clusters() const { return cluster_offset.back(); }
  std::size_t objects(std::size_t k) const {
    return type_offset[k + 1] - type_offset[k];
  }
  std::size_t clusters(std::size_t k) const {
    return cluster_offset[k + 1] - cluster_offset[k];
  }
};

/// Derives the block layout from the data's type/cluster counts.
BlockStructure BuildBlockStructure(const data::MultiTypeRelationalData& data);

/// How the membership matrix G is initialised: k-means, Algorithm 2's
/// choice. The one value stays for callers that pass it.
enum class MembershipInit { kKMeans };

/// Ridge added to GᵀG (and to FᵀF in DRCC) before inversion: the
/// empty-cluster guard of the central solve (Eq. 18).
constexpr double kRidge = 1e-9;
/// Denominator floor of the multiplicative updates (Eq. 21).
constexpr double kMuEps = 1e-12;

/// Block-diagonal initial G: type k's block is filled by k-means on the
/// type's features (a type without features gets a random membership),
/// rows L1-normalised, never exactly zero inside the block
/// (multiplicative updates cannot leave zeros).
Result<la::Matrix> InitMembership(const data::MultiTypeRelationalData& data,
                                  const BlockStructure& blocks,
                                  MembershipInit init, Rng* rng);

/// Counters surfaced by the central-solve guard (folded into the solver's
/// FitDiagnostics). Optional everywhere — passing nullptr skips counting.
struct SolveStats {
  int ridge_retries = 0;  ///< Boosted-ridge attempts after a failed solve.
};

/// Closed-form S (paper Eq. 18): S = P·Gᵀ·M·G·P with
/// P = (GᵀG + ridge·I)⁻¹, from the precomputed c x c factors `gtg` = GᵀG
/// and `gtmg` = Gᵀ·M·G (M = R, or R − E_R for the robust variant). The
/// RHCHME solver evaluates Gᵀ·M·G from low-rank identities without ever
/// forming M, then hands the c x c pieces here.
///
/// Numerical guard: when the base solve fails or produces a non-finite S
/// (singular GᵀG, injected fault), the solve is retried up the ridge
/// ladder {ridge, ~1e-8·d̄, ~1e-4·d̄} with d̄ the mean |diagonal| of GᵀG,
/// counting each retry in `stats`. Only after the whole ladder fails does
/// the last error surface. The first attempt is byte-for-byte the
/// unguarded computation, so healthy fits keep their exact trajectory.
Result<la::Matrix> SolveCentralSFromProducts(const la::Matrix& gtg,
                                             const la::Matrix& gtmg,
                                             double ridge = kRidge,
                                             SolveStats* stats = nullptr);

/// One multiplicative update of G (paper Eq. 21) for the objective
///   ‖M − G·S·Gᵀ‖²_F + lambda·tr(Gᵀ·L·G):
///   G ← G ∘ sqrt( (lambda·L⁻·G + A⁺ + G·B⁻) / (lambda·L⁺·G + A⁻ + G·B⁺) )
/// with the symmetrised gradient halves A = ½(M·G·Sᵀ + Mᵀ·G·S) and
/// B = ½(Sᵀ·GᵀG·S + S·GᵀG·Sᵀ), which reduce to the paper's A = M·G·Sᵀ,
/// B = Sᵀ·GᵀG·S when M and S are symmetric. `eps` floors
/// the denominator. Zero entries of G stay zero, so the block-diagonal
/// structure is preserved.
///
/// Product form: M enters only through `mg` = M·G and `mtg` = Mᵀ·G (both
/// n x c), with `gtg` = GᵀG. `g` must be the same membership every
/// product was formed against. The Laplacian ± parts stay in CSR and the
/// L±·G terms run as SpMM (O(nnz·c)); pass nullptr (with lambda = 0) when
/// there is no manifold regulariser. This is the whole-matrix form of GUpdateRows,
/// the row kernel the RHCHME solver runs inside its fused passes, so the
/// two agree bit for bit. Returns InvalidArgument on shape mismatch
/// instead of aborting — this is a fit-pipeline seam, and bad shapes here
/// can come from corrupted snapshots, not only programmer error.
Status MultiplicativeGUpdateFromProducts(const la::Matrix& mg,
                                         const la::Matrix& mtg,
                                         const la::Matrix& s,
                                         const la::Matrix& gtg, double lambda,
                                         const la::SparseMatrix* laplacian_pos,
                                         const la::SparseMatrix* laplacian_neg,
                                         double eps, la::Matrix* g);

/// The c x c term of Eq. 21 every row shares: B = ½(Sᵀ·GᵀG·S + S·GᵀG·Sᵀ)
/// split into `b_pos` = B⁺ and `b_neg` = B⁻ (both entrywise
/// nonnegative).
void GUpdateGramTerms(const la::Matrix& s, const la::Matrix& gtg,
                      la::Matrix* b_pos, la::Matrix* b_neg);

/// Read-only operands of the Eq. 21 row kernel. Every n x c operand is
/// read at the rows being updated; `lg_neg`/`lg_pos` are lambda·L⁻·G and
/// lambda·L⁺·G (each product entry times lambda), or both null when there
/// is no manifold term.
struct GUpdateOperands {
  const la::Matrix* mg = nullptr;   ///< M·G
  const la::Matrix* mtg = nullptr;  ///< Mᵀ·G
  const la::Matrix* s = nullptr;    ///< S (c x c)
  const la::Matrix* b_pos = nullptr;  ///< B⁺ from GUpdateGramTerms
  const la::Matrix* b_neg = nullptr;  ///< B⁻ from GUpdateGramTerms
  const la::Matrix* lg_neg = nullptr;
  const la::Matrix* lg_pos = nullptr;
  double eps = 0.0;  ///< Denominator floor.
};

/// n x c scratch of GUpdateRows; only the rows being updated are written.
struct GUpdateScratch {
  la::Matrix a, num, den;
  void Resize(std::size_t n, std::size_t c) {
    a.Resize(n, c);
    num.Resize(n, c);
    den.Resize(n, c);
  }
};

/// Rows [r0, r1) of the Eq. 21 update: row i of `g_out` becomes
///   g_i ∘ sqrt( max(0, A⁺ + G·B⁻ + lambda·L⁻·G) / (A⁻ + G·B⁺ + lambda·L⁺·G + eps) )
/// at row i, with A = ½(M·G·Sᵀ + Mᵀ·G·S). The row products go through
/// la::MultiplyRowsInto and M·G·Sᵀ through the dispatched dot, so any
/// tiling of the rows gives the same bits. The range must consist of
/// whole la::kGemmRowPanel panels (r0 a multiple of it, r1 too or
/// r1 == n) — the products probe whole panels of `mtg` and `g` — and
/// `g_out` may then alias `g`. Serial; the caller owns the parallelism.
void GUpdateRows(const GUpdateOperands& op, const la::Matrix& g,
                 std::size_t r0, std::size_t r1, GUpdateScratch* scratch,
                 la::Matrix* g_out);

/// G ∘= sqrt(num/(den+eps)) — the bare ratio update (used by DRCC, whose
/// factor matrices are not symmetric).
void RatioUpdate(const la::Matrix& num, const la::Matrix& den, double eps,
                 la::Matrix* g);

/// Row-wise L1 normalisation applied block-by-block: each row of type k is
/// normalised within its own cluster columns (paper Eq. 22; all-zero rows
/// become uniform over the block).
void NormalizeMembershipRows(const BlockStructure& blocks, la::Matrix* g);

/// Eq. 22 for one row whose type owns cluster columns [c0, c1): scales
/// them to unit ℓ1 mass, or sets them uniform when the mass is zero.
/// NormalizeMembershipRows applies exactly this to every row.
void NormalizeMembershipRow(std::size_t c0, std::size_t c1, double* row);

/// Shared outcome of a HOCC solver.
struct HoccResult {
  la::Matrix g;                         ///< Joint n x c membership matrix.
  la::Matrix s;                         ///< Joint c x c association matrix.
  /// Hard labels per type (labels[k][i] in [0, c_k)).
  std::vector<std::vector<std::size_t>> labels;
  std::vector<double> objective_trace;  ///< Objective after each iteration.
  int iterations = 0;
  bool converged = false;
  double seconds = 0.0;                 ///< Wall-clock fit time.
};

/// Extracts hard per-type labels from the joint G.
std::vector<std::vector<std::size_t>> ExtractLabels(
    const BlockStructure& blocks, const la::Matrix& g);

}  // namespace fact
}  // namespace rhchme

#endif  // RHCHME_FACTORIZATION_HOCC_COMMON_H_
