// Dense row-major matrix of doubles.
//
// This is the workhorse type of the library. It is a concrete value type
// (no expression templates): clusters of a few thousand objects fit easily
// in memory and the solvers are dominated by GEMM, which lives in gemm.h.

#ifndef RHCHME_LA_MATRIX_H_
#define RHCHME_LA_MATRIX_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "la/aligned.h"
#include "util/rng.h"
#include "util/status.h"

namespace rhchme {
namespace la {

/// Global accounting of large dense allocations, used by the solver
/// memory tests to prove the implicit-E_R core never materialises a
/// dense n x n error matrix or Laplacian part. Off by default; when
/// tracking, every Matrix construction or Resize that acquires at least
/// `min_elements` doubles bumps a counter (relaxed atomics, thread-safe).
/// Counted elements are logical (rows * cols) — row padding introduced by
/// the aligned storage layout is excluded, so thresholds keyed to problem
/// sizes (n²) keep their meaning.
/// Copies count too: a copy-constructed matrix, and a copy-assigned one
/// whose footprint changes (it needs a new buffer), are acquisitions of
/// their logical size. Moves hand a buffer over and are not counted.
namespace memstats {
/// Starts counting allocations of >= `min_elements` doubles; resets the
/// counter.
void StartTracking(std::size_t min_elements);
/// Stops counting. The counter keeps its value for reading.
void StopTracking();
/// Number of tracked allocations since the last StartTracking().
std::size_t LargeAllocations();
namespace internal {
/// Allocation hook called by Matrix; no-op unless tracking is on.
void NoteAlloc(std::size_t elements);
}  // namespace internal
}  // namespace memstats

/// Divisor floor for Matrix::ScaleRows: rows whose scale entry has
/// magnitude below this are left untouched instead of dividing by a
/// (near-)zero and flushing the row to ±Inf. Degree vectors and row
/// norms in this library are either exactly zero or of sane magnitude,
/// so the floor only needs to sit far below any legitimate divisor;
/// 1e-300 filters exact zeros and underflow debris while remaining ~8
/// decades above the smallest normal double (~2.2e-308).
constexpr double kScaleRowsEps = 1e-300;

/// Row-mass threshold for Matrix::NormalizeRowsL1: a row whose L1 mass is
/// at or below this is treated as all-zero and (when a column range is
/// given) replaced by the uniform distribution over that range — the
/// fallback used for objects with no membership signal (paper Eq. 22).
constexpr double kNormalizeRowsZeroTol = 0.0;

/// Dense row-major matrix with aligned, padded row storage: the buffer is
/// 64-byte aligned and the leading dimension (`stride()`) is `cols()`
/// rounded up to a whole cache line of doubles, so every row starts on a
/// 64-byte boundary. Indices are 0-based; element (i,j) is
/// `data()[i * stride() + j]` — use `row_ptr(i)` / `operator()` rather
/// than flat `data()` indexing. Padding columns (`cols() <= j < stride()`)
/// are always zero; no consumer of logical values may read them.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0), stride_(0) {}

  /// rows x cols matrix, zero-initialised.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows),
        cols_(cols),
        stride_(PaddedStride(cols)),
        data_(rows * stride_, 0.0) {
    memstats::internal::NoteAlloc(rows * cols);
  }

  /// rows x cols matrix with every entry set to `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill)
      : rows_(rows),
        cols_(cols),
        stride_(PaddedStride(cols)),
        data_(rows * stride_, 0.0) {
    memstats::internal::NoteAlloc(rows * cols);
    Fill(fill);
  }

  /// Copies are memstats acquisitions (see la::memstats); moves are not.
  Matrix(const Matrix& other);
  Matrix& operator=(const Matrix& other);
  Matrix(Matrix&& other) noexcept = default;
  Matrix& operator=(Matrix&& other) noexcept = default;
  ~Matrix() = default;

  /// Builds from nested initialiser-style rows; all rows must agree in size.
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  /// Identity matrix of size n.
  static Matrix Identity(std::size_t n);

  /// Diagonal matrix from a vector.
  static Matrix Diagonal(const std::vector<double>& diag);

  /// Matrix with i.i.d. Uniform[lo, hi) entries.
  static Matrix RandomUniform(std::size_t rows, std::size_t cols, Rng* rng,
                              double lo = 0.0, double hi = 1.0);

  /// Matrix with i.i.d. standard normal entries.
  static Matrix RandomNormal(std::size_t rows, std::size_t cols, Rng* rng,
                             double mean = 0.0, double stddev = 1.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  /// Number of logical elements (rows * cols), excluding row padding.
  std::size_t size() const { return rows_ * cols_; }
  /// Leading dimension in doubles: cols() padded to a whole cache line.
  std::size_t stride() const { return stride_; }
  /// Total buffer length in doubles (rows * stride), including padding.
  std::size_t padded_size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t i, std::size_t j) {
    return data_[i * stride_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    return data_[i * stride_ + j];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* row_ptr(std::size_t i) { return data_.data() + i * stride_; }
  const double* row_ptr(std::size_t i) const {
    return data_.data() + i * stride_;
  }

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// Sets every entry to `v`.
  void Fill(double v);

  /// Resizes to rows x cols, zero-initialised (contents discarded).
  void Resize(std::size_t rows, std::size_t cols);

  /// Returns the transpose.
  Matrix Transposed() const;

  /// Copy of rows [r0, r0+nr) x cols [c0, c0+nc).
  Matrix Block(std::size_t r0, std::size_t c0, std::size_t nr,
               std::size_t nc) const;

  /// Writes `src` into the block with top-left corner (r0, c0).
  void SetBlock(std::size_t r0, std::size_t c0, const Matrix& src);

  /// Returns row i as a vector.
  std::vector<double> Row(std::size_t i) const;

  /// Returns column j as a vector.
  std::vector<double> Col(std::size_t j) const;

  // ---- In-place elementwise operations ----------------------------------

  void Add(const Matrix& other);            ///< this += other
  void Sub(const Matrix& other);            ///< this -= other
  void Scale(double s);                     ///< this *= s
  void AddScaled(const Matrix& other, double s);  ///< this += s * other
  void Hadamard(const Matrix& other);       ///< this ∘= other
  void Apply(const std::function<double(double)>& f);  ///< entrywise map

  /// Clamps negatives to zero (projection onto the nonnegative orthant).
  void ClampNonNegative();

  // ---- Reductions --------------------------------------------------------

  double FrobeniusNorm() const;             ///< sqrt(sum of squares)
  double FrobeniusNormSquared() const;
  double L1Norm() const;                    ///< sum of |entries|
  /// L2,1 norm: sum over rows of the row's Euclidean norm (paper Eq. 14).
  double L21Norm() const;
  double Sum() const;
  double MaxAbs() const;
  double Min() const;
  double Max() const;
  std::vector<double> RowSums() const;
  std::vector<double> ColSums() const;
  /// Trace; requires a square matrix.
  double Trace() const;

  /// True if all entries are finite (no NaN/Inf).
  bool AllFinite() const;
  /// Replaces every NaN/Inf entry with `value`; returns how many were
  /// replaced. The graceful-degradation seam for corrupted inputs: a
  /// poisoned entry becomes missing data instead of propagating through
  /// every downstream kernel.
  std::size_t ReplaceNonFinite(double value);
  /// True if all entries are >= -tol.
  bool IsNonNegative(double tol = 0.0) const;
  /// Max |this - other| entry; requires same shape.
  double MaxAbsDiff(const Matrix& other) const;

  // ---- Row/column scaling -----------------------------------------------

  /// Divides each row by `d[i]` (no-op for rows with |d[i]| < kScaleRowsEps).
  void ScaleRows(const std::vector<double>& d);
  /// Multiplies each column by `d[j]`.
  void ScaleCols(const std::vector<double>& d);
  /// Normalises each row to unit L1 mass; rows with mass <=
  /// kNormalizeRowsZeroTol become uniform over [c0, c1) if a nonempty
  /// range is given, else stay zero.
  void NormalizeRowsL1(std::size_t c0 = 0, std::size_t c1 = 0);

  /// Short human-readable dump (for debugging / error messages).
  std::string DebugString(std::size_t max_rows = 8,
                          std::size_t max_cols = 8) const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::size_t stride_;
  AlignedVector<double> data_;
};

// ---- Free-function helpers (value-returning) -----------------------------

/// C = A + B. Shapes must match.
Matrix Add(const Matrix& a, const Matrix& b);
/// C = A - B. Shapes must match.
Matrix Sub(const Matrix& a, const Matrix& b);
/// C = s * A.
Matrix Scaled(const Matrix& a, double s);
/// C = A ∘ B (entrywise). Shapes must match.
Matrix Hadamard(const Matrix& a, const Matrix& b);
/// Splits M into the positive part (|M|+M)/2 — used by multiplicative
/// updates (paper Eq. 21).
Matrix PositivePart(const Matrix& m);
/// Splits M into the negative part (|M|-M)/2 (entrywise nonnegative).
Matrix NegativePart(const Matrix& m);
/// Max |a(i,j) - b(i,j)|.
double MaxAbsDiff(const Matrix& a, const Matrix& b);
/// [A | B] side by side. Row counts must match.
Matrix HConcat(const Matrix& a, const Matrix& b);
/// [A; B] stacked. Column counts must match.
Matrix VConcat(const Matrix& a, const Matrix& b);

}  // namespace la
}  // namespace rhchme

#endif  // RHCHME_LA_MATRIX_H_
