// Compressed-sparse-row matrix with a lazily built CSC mirror.
//
// The inter-type relationship matrix R and pNN affinity graphs are sparse
// (tf-idf blocks, p edges per object). CSR keeps graph construction and
// sparse-dense products cheap; the RHCHME solver keeps its joint R in
// CSR at every fill.
//
// Transposed products (Aᵀ·B, Aᵀ·x) are the awkward case for CSR: the
// natural loop scatters into output rows indexed by the nonzeros'
// columns, which cannot be split across threads without races. The CSC
// mirror — the same nonzeros regrouped by column, rows ascending within
// each column — turns those scatters into gathers that thread cleanly
// over output rows. See BuildCscMirror() for the caching/invalidation
// contract.

#ifndef RHCHME_LA_SPARSE_H_
#define RHCHME_LA_SPARSE_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "la/matrix.h"
#include "util/status.h"

namespace rhchme {
namespace la {

/// One (row, col, value) entry used to build a SparseMatrix.
struct Triplet {
  std::size_t row;
  std::size_t col;
  double value;
};

/// Column-compressed view of a SparseMatrix: the same nonzeros grouped by
/// column, with row indices ascending within each column. Column j owns
/// the slice [col_ptr[j], col_ptr[j+1]) of row_idx/values. Immutable once
/// built — SparseMatrix shares mirrors across copies via shared_ptr.
struct CscMirror {
  std::vector<std::size_t> col_ptr;  // size cols+1
  std::vector<std::size_t> row_idx;  // size nnz
  std::vector<double> values;        // size nnz
};

/// CSR matrix. FromTriplets sums duplicates and drops explicit zeros;
/// FromCsr adopts validated arrays as given. The structure is fixed after
/// construction; the only mutators are value-level (Scale, PruneSmall),
/// and both invalidate the CSC mirror.
///
/// Thread-safety: concurrent const access is safe, including the lazy
/// CSC build (internally synchronised; at most one thread builds, the
/// rest reuse the cached mirror). Mutators require exclusive access, the
/// usual const/non-const contract.
///
/// Determinism: every product accumulates each output element in
/// ascending source-row order with thread-count-independent chunking, so
/// results are bit-identical for any pool size (see
/// MultiplyTransposedDenseInto for the two code paths).
class SparseMatrix {
 public:
  /// Empty 0x0 matrix.
  SparseMatrix() : rows_(0), cols_(0), row_ptr_(1, 0) {}

  // The CSC cache adds a mutex, so the rule-of-five members are spelled
  // out: copies share the (immutable) mirror, moves steal it.
  SparseMatrix(const SparseMatrix& other);
  SparseMatrix& operator=(const SparseMatrix& other);
  SparseMatrix(SparseMatrix&& other) noexcept;
  SparseMatrix& operator=(SparseMatrix&& other) noexcept;
  ~SparseMatrix() = default;

  /// Builds from triplets (any order; duplicates summed; zeros pruned).
  static SparseMatrix FromTriplets(std::size_t rows, std::size_t cols,
                                   std::vector<Triplet> triplets);

  /// Adopts ready-made CSR arrays: row i owns the slice
  /// [row_offsets[i], row_offsets[i+1]) of col_indices/values. Validated
  /// in O(rows + nnz): row_offsets must have rows+1 entries, start at 0,
  /// never decrease and end at nnz; col_indices and values must both have
  /// nnz entries; columns must be < cols and strictly ascending within
  /// each row. Values are stored as given (zeros and non-finite values
  /// included). InvalidArgument on any violation.
  static Result<SparseMatrix> FromCsr(std::size_t rows, std::size_t cols,
                                      std::vector<std::size_t> row_offsets,
                                      std::vector<std::size_t> col_indices,
                                      std::vector<double> values);

  /// Converts a dense matrix, dropping entries with |v| <= prune_tol.
  static SparseMatrix FromDense(const Matrix& dense, double prune_tol = 0.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  /// Fraction of entries stored: nnz / (rows*cols); 0 for empty shapes.
  double Density() const;

  const std::vector<std::size_t>& row_offsets() const { return row_ptr_; }
  const std::vector<std::size_t>& col_indices() const { return cols_idx_; }
  const std::vector<double>& values() const { return values_; }

  /// Builds (first call) or returns the cached CSC mirror. O(nnz)
  /// counting sort; later transposed products and Transposed() calls
  /// become gather-style and thread over output rows. Call it once on
  /// matrices that feed repeated transposed products; skip it for
  /// one-shot products, which use the deterministic per-chunk-accumulator
  /// fallback instead. The returned reference stays valid until the next
  /// mutation of this matrix.
  ///
  /// Invalidation: Scale() and PruneSmall() drop the cached mirror (the
  /// next BuildCscMirror() rebuilds it). Copies made while a mirror
  /// exists share it; mutating the original later does not affect them.
  const CscMirror& BuildCscMirror() const;

  /// True when a CSC mirror is currently cached (no build is triggered).
  bool HasCscMirror() const;

  /// In-place value mutators. Both invalidate the CSC mirror.
  /// Multiplies every stored value by s (structure unchanged; explicit
  /// zeros may appear when s == 0).
  void Scale(double s);
  /// Removes entries with |v| <= tol; returns how many were dropped.
  std::size_t PruneSmall(double tol);
  /// Replaces NaN/Inf stored values with `value`; returns how many were
  /// replaced (structure unchanged; invalidates the mirror only when a
  /// replacement happened).
  std::size_t ReplaceNonFinite(double value);

  /// Value at (i, j) — binary search within the row; O(log nnz_row).
  double At(std::size_t i, std::size_t j) const;

  /// Dense copy.
  Matrix ToDense() const;

  /// Transposed copy (CSR of the transpose). O(nnz): builds (and
  /// caches) this matrix's CSC mirror, whose arrays are exactly the
  /// transpose's CSR; the result carries this matrix's CSR as its own
  /// ready-made CSC mirror.
  SparseMatrix Transposed() const;

  /// y = A·x.
  std::vector<double> MultiplyVec(const std::vector<double>& x) const;

  /// y = Aᵀ·x (no explicit transpose formed). Gather loop over the CSC
  /// mirror when cached; per-chunk accumulators merged in chunk order
  /// otherwise. Both paths are bit-stable across thread counts.
  std::vector<double> MultiplyTVec(const std::vector<double>& x) const;

  /// C = A·B for dense B (resizes `c`).
  void MultiplyDenseInto(const Matrix& b, Matrix* c) const;
  Matrix MultiplyDense(const Matrix& b) const;
  /// Rows [r0, r1) of C = A·B, written into `c`, which must already be
  /// rows() x b.cols(); other rows are left alone. Bit-identical to the
  /// same rows of MultiplyDenseInto. Serial, for callers that fuse the
  /// product into their own row-parallel passes.
  void MultiplyDenseRows(const Matrix& b, std::size_t r0, std::size_t r1,
                         Matrix* c) const;

  /// C = Aᵀ·B for dense B (resizes `c`; no explicit transpose formed).
  ///
  /// With a cached CSC mirror, output rows (columns of A) are
  /// independent gathers and the loop threads over them. Without one,
  /// source-row chunks scatter into per-chunk dense accumulators that
  /// are merged in chunk order; chunk boundaries depend only on the
  /// matrix shape, never the pool size, so either path is bit-identical
  /// across thread counts (the two paths may differ from each other in
  /// the last bit — per call site the path is fixed).
  void MultiplyTransposedDenseInto(const Matrix& b, Matrix* c) const;

  /// Per-row sums (degree vector when A is an affinity matrix).
  std::vector<double> RowSums() const;

  /// Per-row squared Euclidean norms: out[i] = Σ_j a_ij². The solver
  /// caches these once per fit — the analytic residual row
  /// norms ‖q_i‖² = ‖r_i‖² − 2·h_i·k_iᵀ + h_i·(GᵀG)·h_iᵀ start from them.
  std::vector<double> RowNormsSquared() const;

  /// Per-column sums (in-degrees). Ascending-row accumulation per
  /// column on both the CSC and the scan path, so the result is
  /// path-independent.
  std::vector<double> ColSums() const;

  double FrobeniusNorm() const;
  double Sum() const;

  /// True when A equals its transpose up to `tol`.
  bool IsSymmetric(double tol = 1e-12) const;

 private:
  std::shared_ptr<const CscMirror> ComputeCsc() const;
  /// Cached mirror if present, nullptr otherwise (does not build).
  std::shared_ptr<const CscMirror> CscIfBuilt() const;
  void InvalidateCscMirror();

  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::size_t> row_ptr_;   // size rows_+1
  std::vector<std::size_t> cols_idx_;  // size nnz
  std::vector<double> values_;         // size nnz

  // Lazily built CSC mirror. The mutex only guards the pointer slot;
  // the pointed-to mirror is immutable.
  mutable std::mutex csc_mu_;
  mutable std::shared_ptr<const CscMirror> csc_;
};

/// Entrywise positive part (|M| + M)/2 of a sparse matrix: keeps the
/// strictly positive entries, drops the rest. A structure-level filter —
/// the ±-split of the multiplicative update (paper Eq. 21) stays sparse,
/// with patterns contained in M's.
SparseMatrix PositivePart(const SparseMatrix& m);

/// Entrywise negative part (|M| - M)/2: the negated strictly negative
/// entries (result is entrywise nonnegative).
SparseMatrix NegativePart(const SparseMatrix& m);

/// tr(Gᵀ L G) against a sparse L — the ensemble-regulariser term of the
/// RHCHME objective evaluated in O(nnz · c). Per-row traces are staged
/// row-indexed and reduced in fixed chunk order, so the value is
/// bit-identical for any pool size. Requires L square with
/// l.rows() == g.rows().
double Sandwich(const Matrix& g, const SparseMatrix& l);

/// Rows per chunk of Sandwich's reduction grid for a `c`-column G. A
/// caller that folds tr(Gᵀ L G) into its own row pass reproduces Sandwich
/// bit for bit by chunking rows on this grid, summing each chunk as
/// acc += l_ik · Dot(g_i, g_k) in CSR order from 0.0, and adding the
/// chunk partials in chunk order from 0.0.
std::size_t SandwichChunkRows(const SparseMatrix& l, std::size_t c);

}  // namespace la
}  // namespace rhchme

#endif  // RHCHME_LA_SPARSE_H_
