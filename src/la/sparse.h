// Compressed-sparse-row matrix.
//
// The inter-type relationship matrix R, the pNN affinity graphs and the
// ensemble Laplacian are sparse (tf-idf blocks, p edges per object). The
// joint R and the Laplacian are symmetric, so every product the solver
// needs is a forward CSR product: rows of the output are independent and
// thread cleanly.

#ifndef RHCHME_LA_SPARSE_H_
#define RHCHME_LA_SPARSE_H_

#include <cstddef>
#include <vector>

#include "la/matrix.h"
#include "util/parallel.h"
#include "util/status.h"

namespace rhchme {
namespace la {

/// One (row, col, value) entry used to build a SparseMatrix.
struct Triplet {
  std::size_t row;
  std::size_t col;
  double value;
};

/// CSR matrix. FromTriplets sums duplicates and drops explicit zeros;
/// FromCsr adopts validated arrays as given; FromRows writes the rows a
/// caller's row rule emits, FromRowRanges those of a row-range rule. The
/// structure is fixed after construction;
/// the only mutators are value-level (Scale, ReplaceNonFinite). Copies
/// and moves are plain member-wise ones.
///
/// Thread-safety: concurrent const access is safe; mutators require
/// exclusive access, the usual const/non-const contract.
///
/// Determinism: every product and reduction accumulates each output
/// element in ascending CSR order with thread-count-independent
/// chunking, so results are bit-identical for any pool size.
class SparseMatrix {
 public:
  /// Empty 0x0 matrix.
  SparseMatrix() : rows_(0), cols_(0), row_ptr_(1, 0) {}

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

  /// Builds a rows x cols matrix row-parallel from a row rule:
  /// `emit_row(i, put)` calls put(j, v) for each entry of row i, columns
  /// strictly ascending and < cols; v is stored as given. The rule runs
  /// twice per row, once to count the entries and once to write them at
  /// the row's final offset, so it must emit the same entries both times
  /// and be safe to call concurrently for different rows. Arrays are
  /// allocated once at their final size, and each row is written by one
  /// call, so the result is the same for any pool size. `work_per_row`
  /// sizes the chunks (util::GrainForWork). Rows are not validated.
  template <typename EmitRow>
  static SparseMatrix FromRows(std::size_t rows, std::size_t cols,
                               std::size_t work_per_row,
                               const EmitRow& emit_row);

  /// FromRows for sources read fastest a range of rows at a time.
  /// `count(r0, r1, n)` stores the entry count of each row i in [r0, r1)
  /// at n[i]. Once the offsets are laid out, `fill(r0, r1, at, col, val)`
  /// writes each row i's entries to col[at[i]] and val[at[i]] onwards,
  /// columns strictly ascending and < cols, advancing at[i] past each
  /// one; every row must end exactly where its count said. Both rules run
  /// on disjoint chunks of `grain` rows, concurrently. Each row's slots
  /// belong to the chunk that holds the row, so the result is the same for
  /// any pool size. Rows are not validated.
  template <typename CountRows, typename FillRows>
  static SparseMatrix FromRowRanges(std::size_t rows, std::size_t cols,
                                    std::size_t grain, const CountRows& count,
                                    const FillRows& fill);

  /// Converts a dense matrix, dropping zeros and entries with
  /// |v| <= prune_tol; row-parallel.
  static SparseMatrix FromDense(const Matrix& dense, double prune_tol = 0.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  /// Fraction of entries stored: nnz / (rows*cols); 0 for empty shapes.
  double Density() const;

  const std::vector<std::size_t>& row_offsets() const { return row_ptr_; }
  const std::vector<std::size_t>& col_indices() const { return cols_idx_; }
  const std::vector<double>& values() const { return values_; }

  /// In-place value mutators (structure unchanged).
  /// Multiplies every stored value by s (explicit zeros may appear when
  /// s == 0).
  void Scale(double s);
  /// Replaces NaN/Inf stored values with `value`; returns how many were
  /// replaced.
  std::size_t ReplaceNonFinite(double value);

  /// Value at (i, j) — binary search within the row; O(log nnz_row).
  double At(std::size_t i, std::size_t j) const;

  /// Dense copy.
  Matrix ToDense() const;

  /// C = A·B for dense B (resizes `c`).
  void MultiplyDenseInto(const Matrix& b, Matrix* c) const;
  Matrix MultiplyDense(const Matrix& b) const;
  /// Rows [r0, r1) of C = A·B, written into `c`, which must already be
  /// rows() x b.cols(); other rows are left alone. Bit-identical to the
  /// same rows of MultiplyDenseInto. Serial, for callers that fuse the
  /// product into their own row-parallel passes.
  void MultiplyDenseRows(const Matrix& b, std::size_t r0, std::size_t r1,
                         Matrix* c) const;

  /// Per-row sums (degree vector when A is an affinity matrix).
  std::vector<double> RowSums() const;

  /// Per-row squared Euclidean norms: out[i] = Σ_j a_ij². The solver
  /// caches these once per fit — the analytic residual row
  /// norms ‖q_i‖² = ‖r_i‖² − 2·h_i·k_iᵀ + h_i·(GᵀG)·h_iᵀ start from them.
  std::vector<double> RowNormsSquared() const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::size_t> row_ptr_;   // size rows_+1
  std::vector<std::size_t> cols_idx_;  // size nnz
  std::vector<double> values_;         // size nnz
};

template <typename CountRows, typename FillRows>
SparseMatrix SparseMatrix::FromRowRanges(std::size_t rows, std::size_t cols,
                                         std::size_t grain,
                                         const CountRows& count,
                                         const FillRows& fill) {
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  util::ParallelFor(0, rows, grain, [&](std::size_t r0, std::size_t r1) {
    count(r0, r1, m.row_ptr_.data() + 1);
  });
  for (std::size_t i = 0; i < rows; ++i) m.row_ptr_[i + 1] += m.row_ptr_[i];
  m.cols_idx_.resize(m.row_ptr_[rows]);
  m.values_.resize(m.row_ptr_[rows]);
  std::vector<std::size_t> at(m.row_ptr_.begin(), m.row_ptr_.end() - 1);
  util::ParallelFor(0, rows, grain, [&](std::size_t r0, std::size_t r1) {
    fill(r0, r1, at.data(), m.cols_idx_.data(), m.values_.data());
  });
  return m;
}

template <typename EmitRow>
SparseMatrix SparseMatrix::FromRows(std::size_t rows, std::size_t cols,
                                    std::size_t work_per_row,
                                    const EmitRow& emit_row) {
  return FromRowRanges(
      rows, cols, util::GrainForWork(work_per_row),
      [&](std::size_t r0, std::size_t r1, std::size_t* n) {
        for (std::size_t i = r0; i < r1; ++i) {
          std::size_t count = 0;
          emit_row(i, [&count](std::size_t, double) { ++count; });
          n[i] = count;
        }
      },
      [&](std::size_t r0, std::size_t r1, std::size_t* at, std::size_t* col,
          double* val) {
        for (std::size_t i = r0; i < r1; ++i) {
          emit_row(i, [&](std::size_t j, double v) {
            col[at[i]] = j;
            val[at[i]] = v;
            ++at[i];
          });
        }
      });
}

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
