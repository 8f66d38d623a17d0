#include "la/sparse.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "la/simd.h"
#include "util/parallel.h"

namespace rhchme {
namespace la {
namespace {

/// Upper bound on the per-chunk dense accumulators the scatter fallback
/// of the transposed products may allocate. The cap bounds the merge
/// memory to kMaxScatterChunks copies of the output and — because it
/// depends only on the matrix shape — keeps chunk boundaries (and with
/// them the floating-point merge order) independent of the pool size.
constexpr std::size_t kMaxScatterChunks = 16;

/// Grain for chunking `rows` source rows so that at most
/// kMaxScatterChunks chunks exist and each chunk carries at least
/// `work_per_row`-sized work per index.
std::size_t ScatterGrain(std::size_t rows, std::size_t work_per_row) {
  const std::size_t cap_grain = (rows + kMaxScatterChunks - 1) / kMaxScatterChunks;
  return std::max(util::GrainForWork(work_per_row), cap_grain);
}

}  // namespace

SparseMatrix::SparseMatrix(const SparseMatrix& other)
    : rows_(other.rows_),
      cols_(other.cols_),
      row_ptr_(other.row_ptr_),
      cols_idx_(other.cols_idx_),
      values_(other.values_),
      csc_(other.CscIfBuilt()) {}

SparseMatrix& SparseMatrix::operator=(const SparseMatrix& other) {
  if (this == &other) return *this;
  std::shared_ptr<const CscMirror> mirror = other.CscIfBuilt();
  rows_ = other.rows_;
  cols_ = other.cols_;
  row_ptr_ = other.row_ptr_;
  cols_idx_ = other.cols_idx_;
  values_ = other.values_;
  std::lock_guard<std::mutex> lock(csc_mu_);
  csc_ = std::move(mirror);
  return *this;
}

// Moves assume exclusive access to `other` (standard move contract), so
// its mirror slot is read without locking.
SparseMatrix::SparseMatrix(SparseMatrix&& other) noexcept
    : rows_(other.rows_),
      cols_(other.cols_),
      row_ptr_(std::move(other.row_ptr_)),
      cols_idx_(std::move(other.cols_idx_)),
      values_(std::move(other.values_)),
      csc_(std::move(other.csc_)) {
  other.rows_ = 0;
  other.cols_ = 0;
  other.row_ptr_.assign(1, 0);
}

SparseMatrix& SparseMatrix::operator=(SparseMatrix&& other) noexcept {
  if (this == &other) return *this;
  rows_ = other.rows_;
  cols_ = other.cols_;
  row_ptr_ = std::move(other.row_ptr_);
  cols_idx_ = std::move(other.cols_idx_);
  values_ = std::move(other.values_);
  csc_ = std::move(other.csc_);
  other.rows_ = 0;
  other.cols_ = 0;
  other.row_ptr_.assign(1, 0);
  return *this;
}

SparseMatrix SparseMatrix::FromTriplets(std::size_t rows, std::size_t cols,
                                        std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets) {
    RHCHME_CHECK(t.row < rows && t.col < cols, "triplet out of range");
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.cols_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());

  std::size_t i = 0;
  while (i < triplets.size()) {
    std::size_t j = i;
    double sum = 0.0;
    while (j < triplets.size() && triplets[j].row == triplets[i].row &&
           triplets[j].col == triplets[i].col) {
      sum += triplets[j].value;
      ++j;
    }
    if (sum != 0.0) {
      m.cols_idx_.push_back(triplets[i].col);
      m.values_.push_back(sum);
      ++m.row_ptr_[triplets[i].row + 1];
    }
    i = j;
  }
  for (std::size_t r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  return m;
}

Result<SparseMatrix> SparseMatrix::FromCsr(std::size_t rows,
                                           std::size_t cols,
                                           std::vector<std::size_t> row_offsets,
                                           std::vector<std::size_t> col_indices,
                                           std::vector<double> values) {
  if (row_offsets.size() != rows + 1 || row_offsets.front() != 0) {
    return Status::InvalidArgument(
        "FromCsr: row_offsets needs rows+1 entries starting at 0");
  }
  const std::size_t nnz = row_offsets.back();
  if (col_indices.size() != nnz || values.size() != nnz) {
    return Status::InvalidArgument(
        "FromCsr: col_indices/values length != row_offsets.back()");
  }
  // Non-decreasing offsets ending at nnz keep every row slice in bounds;
  // settle that before any column is read.
  for (std::size_t i = 0; i < rows; ++i) {
    if (row_offsets[i] > row_offsets[i + 1]) {
      return Status::InvalidArgument("FromCsr: row_offsets decrease");
    }
  }
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t k = row_offsets[i]; k < row_offsets[i + 1]; ++k) {
      if (col_indices[k] >= cols) {
        return Status::InvalidArgument("FromCsr: column index out of range");
      }
      if (k > row_offsets[i] && col_indices[k] <= col_indices[k - 1]) {
        return Status::InvalidArgument(
            "FromCsr: columns not strictly ascending within a row");
      }
    }
  }
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_offsets);
  m.cols_idx_ = std::move(col_indices);
  m.values_ = std::move(values);
  return m;
}

SparseMatrix SparseMatrix::FromDense(const Matrix& dense, double prune_tol) {
  std::vector<Triplet> trips;
  for (std::size_t i = 0; i < dense.rows(); ++i) {
    for (std::size_t j = 0; j < dense.cols(); ++j) {
      if (std::fabs(dense(i, j)) > prune_tol) {
        trips.push_back({i, j, dense(i, j)});
      }
    }
  }
  return FromTriplets(dense.rows(), dense.cols(), std::move(trips));
}

double SparseMatrix::Density() const {
  if (rows_ == 0 || cols_ == 0) return 0.0;
  return static_cast<double>(nnz()) /
         (static_cast<double>(rows_) * static_cast<double>(cols_));
}

std::shared_ptr<const CscMirror> SparseMatrix::ComputeCsc() const {
  auto csc = std::make_shared<CscMirror>();
  csc->col_ptr.assign(cols_ + 1, 0);
  csc->row_idx.resize(nnz());
  csc->values.resize(nnz());
  for (std::size_t k = 0; k < nnz(); ++k) ++csc->col_ptr[cols_idx_[k] + 1];
  for (std::size_t c = 0; c < cols_; ++c) {
    csc->col_ptr[c + 1] += csc->col_ptr[c];
  }
  // Row-major CSR traversal writes each column's slots in ascending row
  // order — the property the deterministic gather loops rely on.
  std::vector<std::size_t> next(csc->col_ptr.begin(), csc->col_ptr.end() - 1);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const std::size_t pos = next[cols_idx_[k]]++;
      csc->row_idx[pos] = i;
      csc->values[pos] = values_[k];
    }
  }
  return csc;
}

const CscMirror& SparseMatrix::BuildCscMirror() const {
  std::lock_guard<std::mutex> lock(csc_mu_);
  if (!csc_) csc_ = ComputeCsc();
  return *csc_;
}

bool SparseMatrix::HasCscMirror() const {
  std::lock_guard<std::mutex> lock(csc_mu_);
  return csc_ != nullptr;
}

std::shared_ptr<const CscMirror> SparseMatrix::CscIfBuilt() const {
  std::lock_guard<std::mutex> lock(csc_mu_);
  return csc_;
}

void SparseMatrix::InvalidateCscMirror() {
  std::lock_guard<std::mutex> lock(csc_mu_);
  csc_.reset();
}

void SparseMatrix::Scale(double s) {
  for (double& v : values_) v *= s;
  InvalidateCscMirror();
}

std::size_t SparseMatrix::ReplaceNonFinite(double value) {
  std::size_t replaced = 0;
  for (double& v : values_) {
    if (!std::isfinite(v)) {
      v = value;
      ++replaced;
    }
  }
  if (replaced > 0) InvalidateCscMirror();
  return replaced;
}

std::size_t SparseMatrix::PruneSmall(double tol) {
  std::vector<std::size_t> new_row_ptr(rows_ + 1, 0);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      if (std::fabs(values_[k]) > tol) {
        cols_idx_[kept] = cols_idx_[k];
        values_[kept] = values_[k];
        ++kept;
      }
    }
    new_row_ptr[i + 1] = kept;
  }
  const std::size_t dropped = values_.size() - kept;
  cols_idx_.resize(kept);
  values_.resize(kept);
  row_ptr_ = std::move(new_row_ptr);
  InvalidateCscMirror();
  return dropped;
}

double SparseMatrix::At(std::size_t i, std::size_t j) const {
  RHCHME_CHECK(i < rows_ && j < cols_, "At: index out of range");
  const auto begin = cols_idx_.begin() + row_ptr_[i];
  const auto end = cols_idx_.begin() + row_ptr_[i + 1];
  auto it = std::lower_bound(begin, end, j);
  if (it == end || *it != j) return 0.0;
  return values_[static_cast<std::size_t>(it - cols_idx_.begin())];
}

Matrix SparseMatrix::ToDense() const {
  Matrix d(rows_, cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      d(i, cols_idx_[k]) = values_[k];
    }
  }
  return d;
}

SparseMatrix SparseMatrix::Transposed() const {
  BuildCscMirror();  // Cached for later transposed products too.
  std::shared_ptr<const CscMirror> csc = CscIfBuilt();
  SparseMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  // The CSC arrays of A are exactly the CSR arrays of Aᵀ (and vice
  // versa), so the transpose ships with its own mirror for free.
  t.row_ptr_ = csc->col_ptr;
  t.cols_idx_ = csc->row_idx;
  t.values_ = csc->values;
  auto mirror = std::make_shared<CscMirror>();
  mirror->col_ptr = row_ptr_;
  mirror->row_idx = cols_idx_;
  mirror->values = values_;
  t.csc_ = std::move(mirror);
  return t;
}

std::vector<double> SparseMatrix::MultiplyVec(
    const std::vector<double>& x) const {
  RHCHME_CHECK(x.size() == cols_, "MultiplyVec: dims mismatch");
  std::vector<double> y(rows_, 0.0);
  const std::size_t nnz_per_row = rows_ > 0 ? nnz() / rows_ + 1 : 1;
  util::ParallelFor(0, rows_, util::GrainForWork(2 * nnz_per_row),
                    [&](std::size_t r0, std::size_t r1) {
                      for (std::size_t i = r0; i < r1; ++i) {
                        double acc = 0.0;
                        for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1];
                             ++k) {
                          acc += values_[k] * x[cols_idx_[k]];
                        }
                        y[i] = acc;
                      }
                    });
  return y;
}

std::vector<double> SparseMatrix::MultiplyTVec(
    const std::vector<double>& x) const {
  RHCHME_CHECK(x.size() == rows_, "MultiplyTVec: dims mismatch");
  std::vector<double> y(cols_, 0.0);
  std::shared_ptr<const CscMirror> csc = CscIfBuilt();
  if (csc) {
    // Gather: y[c] sums column c's entries in ascending row order.
    const std::size_t nnz_per_col = cols_ > 0 ? nnz() / cols_ + 1 : 1;
    util::ParallelFor(0, cols_, util::GrainForWork(2 * nnz_per_col),
                      [&](std::size_t c0, std::size_t c1) {
                        for (std::size_t c = c0; c < c1; ++c) {
                          double acc = 0.0;
                          for (std::size_t k = csc->col_ptr[c];
                               k < csc->col_ptr[c + 1]; ++k) {
                            acc += csc->values[k] * x[csc->row_idx[k]];
                          }
                          y[c] = acc;
                        }
                      });
    return y;
  }
  // Scatter fallback: source-row chunks accumulate into per-chunk
  // vectors, merged in chunk order. Chunking depends only on the shape,
  // so the summation tree — and the result — is thread-count invariant.
  const std::size_t nnz_per_row = rows_ > 0 ? nnz() / rows_ + 1 : 1;
  const std::size_t grain = ScatterGrain(rows_, 2 * nnz_per_row);
  const std::size_t nchunks = rows_ > 0 ? (rows_ + grain - 1) / grain : 0;
  if (nchunks <= 1) {
    for (std::size_t i = 0; i < rows_; ++i) {
      for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        y[cols_idx_[k]] += values_[k] * x[i];
      }
    }
    return y;
  }
  std::vector<std::vector<double>> partial(nchunks);
  util::ParallelFor(0, rows_, grain, [&](std::size_t b, std::size_t e) {
    // Chunk starts are grain-aligned even when the inline path fuses the
    // whole range, so the slot index is recoverable from the start.
    for (std::size_t cb = b; cb < e; cb += grain) {
      std::vector<double>& slot = partial[cb / grain];
      slot.assign(cols_, 0.0);
      const std::size_t ce = std::min(e, cb + grain);
      for (std::size_t i = cb; i < ce; ++i) {
        for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
          slot[cols_idx_[k]] += values_[k] * x[i];
        }
      }
    }
  });
  for (const std::vector<double>& slot : partial) {
    for (std::size_t c = 0; c < cols_; ++c) y[c] += slot[c];
  }
  return y;
}

void SparseMatrix::MultiplyDenseInto(const Matrix& b, Matrix* c) const {
  RHCHME_CHECK(b.rows() == cols_, "MultiplyDense: dims mismatch");
  c->Resize(rows_, b.cols());
  // Output rows are independent; each chunk gathers its own rows' nonzeros
  // into register strips (la/kernels.h spmm_rows).
  const std::size_t nnz_per_row = rows_ > 0 ? nnz() / rows_ + 1 : 1;
  util::ParallelFor(0, rows_,
                    util::GrainForWork(2 * nnz_per_row * (b.cols() + 1)),
                    [&](std::size_t r0, std::size_t r1) {
                      MultiplyDenseRows(b, r0, r1, c);
                    });
}

void SparseMatrix::MultiplyDenseRows(const Matrix& b, std::size_t r0,
                                     std::size_t r1, Matrix* c) const {
  RHCHME_CHECK(b.rows() == cols_ && c->rows() == rows_ &&
                   c->cols() == b.cols() && r0 <= r1 && r1 <= rows_,
               "MultiplyDenseRows: dims mismatch");
  const double* bd = b.data();  // lint:stride-ok(kernel uses ldb = stride())
  double* cd = c->data();       // lint:stride-ok(kernel uses ldc = stride())
  simd::Table().spmm_rows(row_ptr_.data(), cols_idx_.data(), values_.data(),
                          r0, r1, bd, b.stride(), b.cols(), cd, c->stride());
}

Matrix SparseMatrix::MultiplyDense(const Matrix& b) const {
  Matrix c;
  MultiplyDenseInto(b, &c);
  return c;
}

void SparseMatrix::MultiplyTransposedDenseInto(const Matrix& b,
                                               Matrix* c) const {
  RHCHME_CHECK(b.rows() == rows_, "MultiplyTransposedDense: dims mismatch");
  c->Resize(cols_, b.cols());
  const std::size_t n = b.cols();
  const simd::KernelTable& kt = simd::Table();
  std::shared_ptr<const CscMirror> csc = CscIfBuilt();
  if (csc) {
    // Gather path: output row r of C is column r of A dotted against the
    // corresponding rows of B — rows of C are independent and thread
    // cleanly; ascending row order within each column fixes the
    // accumulation order.
    const double* bd = b.data();  // lint:stride-ok(kernel uses ldb = stride())
    double* cd = c->data();       // lint:stride-ok(kernel uses ldc = stride())
    const std::size_t nnz_per_col = cols_ > 0 ? nnz() / cols_ + 1 : 1;
    util::ParallelFor(
        0, cols_, util::GrainForWork(2 * nnz_per_col * (n + 1)),
        [&](std::size_t c0, std::size_t c1) {
          kt.spmm_rows(csc->col_ptr.data(), csc->row_idx.data(),
                       csc->values.data(), c0, c1, bd, b.stride(), n, cd,
                       c->stride());
        });
    return;
  }
  // Scatter fallback for one-shot products (no mirror built): source-row
  // chunks scatter into per-chunk dense accumulators, merged in chunk
  // order afterwards. The chunk layout derives from the shape only (see
  // ScatterGrain), so results are bit-identical across thread counts.
  const std::size_t nnz_per_row = rows_ > 0 ? nnz() / rows_ + 1 : 1;
  const std::size_t grain = ScatterGrain(rows_, 2 * nnz_per_row * (n + 1));
  const std::size_t nchunks = rows_ > 0 ? (rows_ + grain - 1) / grain : 0;
  if (nchunks <= 1) {
    for (std::size_t i = 0; i < rows_; ++i) {
      const double* bi = b.row_ptr(i);
      for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        kt.axpy(values_[k], bi, c->row_ptr(cols_idx_[k]), n);
      }
    }
    return;
  }
  std::vector<Matrix> partial(nchunks);
  util::ParallelFor(0, rows_, grain, [&](std::size_t b0, std::size_t e0) {
    for (std::size_t cb = b0; cb < e0; cb += grain) {
      Matrix& slot = partial[cb / grain];
      slot.Resize(cols_, n);  // Zero-initialised accumulator.
      const std::size_t ce = std::min(e0, cb + grain);
      for (std::size_t i = cb; i < ce; ++i) {
        const double* bi = b.row_ptr(i);
        for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
          kt.axpy(values_[k], bi, slot.row_ptr(cols_idx_[k]), n);
        }
      }
    }
  });
  for (const Matrix& slot : partial) c->Add(slot);
}

std::vector<double> SparseMatrix::RowSums() const {
  std::vector<double> s(rows_, 0.0);
  const std::size_t nnz_per_row = rows_ > 0 ? nnz() / rows_ + 1 : 1;
  util::ParallelFor(0, rows_, util::GrainForWork(nnz_per_row),
                    [&](std::size_t r0, std::size_t r1) {
                      for (std::size_t i = r0; i < r1; ++i) {
                        double acc = 0.0;
                        for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1];
                             ++k) {
                          acc += values_[k];
                        }
                        s[i] = acc;
                      }
                    });
  return s;
}

std::vector<double> SparseMatrix::RowNormsSquared() const {
  std::vector<double> s(rows_, 0.0);
  const std::size_t nnz_per_row = rows_ > 0 ? nnz() / rows_ + 1 : 1;
  util::ParallelFor(0, rows_, util::GrainForWork(2 * nnz_per_row),
                    [&](std::size_t r0, std::size_t r1) {
                      for (std::size_t i = r0; i < r1; ++i) {
                        double acc = 0.0;
                        for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1];
                             ++k) {
                          acc += values_[k] * values_[k];
                        }
                        s[i] = acc;
                      }
                    });
  return s;
}

std::vector<double> SparseMatrix::ColSums() const {
  std::vector<double> s(cols_, 0.0);
  std::shared_ptr<const CscMirror> csc = CscIfBuilt();
  if (csc) {
    const std::size_t nnz_per_col = cols_ > 0 ? nnz() / cols_ + 1 : 1;
    util::ParallelFor(0, cols_, util::GrainForWork(nnz_per_col),
                      [&](std::size_t c0, std::size_t c1) {
                        for (std::size_t c = c0; c < c1; ++c) {
                          double acc = 0.0;
                          for (std::size_t k = csc->col_ptr[c];
                               k < csc->col_ptr[c + 1]; ++k) {
                            acc += csc->values[k];
                          }
                          s[c] = acc;
                        }
                      });
    return s;
  }
  // Serial scatter adds each column's entries in ascending row order —
  // the same summation order as the gather above, so both paths agree
  // bit for bit.
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      s[cols_idx_[k]] += values_[k];
    }
  }
  return s;
}

double SparseMatrix::FrobeniusNorm() const {
  double s = 0.0;
  for (double v : values_) s += v * v;
  return std::sqrt(s);
}

double SparseMatrix::Sum() const {
  double s = 0.0;
  for (double v : values_) s += v;
  return s;
}

bool SparseMatrix::IsSymmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      if (std::fabs(values_[k] - At(cols_idx_[k], i)) > tol) return false;
    }
  }
  return true;
}

namespace {

/// Shared filter behind the ± parts: keeps entries selected by `keep`,
/// storing `map(v)`. The CSR scan preserves the (row, col) order, so the
/// triplets arrive pre-sorted and FromTriplets' sort is near-free.
template <typename Keep, typename Map>
SparseMatrix FilterEntries(const SparseMatrix& m, Keep keep, Map map) {
  const auto& offsets = m.row_offsets();
  const auto& cols = m.col_indices();
  const auto& vals = m.values();
  std::vector<Triplet> trips;
  trips.reserve(m.nnz());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      if (keep(vals[k])) trips.push_back({i, cols[k], map(vals[k])});
    }
  }
  return SparseMatrix::FromTriplets(m.rows(), m.cols(), std::move(trips));
}

}  // namespace

SparseMatrix PositivePart(const SparseMatrix& m) {
  return FilterEntries(
      m, [](double v) { return v > 0.0; }, [](double v) { return v; });
}

SparseMatrix NegativePart(const SparseMatrix& m) {
  return FilterEntries(
      m, [](double v) { return v < 0.0; }, [](double v) { return -v; });
}

std::size_t SandwichChunkRows(const SparseMatrix& l, std::size_t c) {
  const std::size_t nnz_per_row = l.rows() > 0 ? l.nnz() / l.rows() + 1 : 1;
  return util::GrainForWork(2 * nnz_per_row * c + 1);
}

double Sandwich(const Matrix& g, const SparseMatrix& l) {
  RHCHME_CHECK(l.rows() == l.cols() && l.rows() == g.rows(),
               "Sandwich: shape mismatch");
  const std::size_t n = g.rows(), c = g.cols();
  if (n == 0 || c == 0 || l.nnz() == 0) return 0.0;
  const auto& offsets = l.row_offsets();
  const auto& cols = l.col_indices();
  const auto& vals = l.values();
  // tr(Gᵀ L G) = Σ_i Σ_{k ∈ row i} l_ik · (g_i · g_k). Rows are
  // independent; ParallelSum combines per-chunk partials in chunk order,
  // and chunk boundaries depend only on (n, grain), so the reduction tree
  // — and the result — is thread-count invariant.
  const std::size_t grain = SandwichChunkRows(l, c);
  const simd::KernelTable& kt = simd::Table();
  return util::ParallelSum(0, n, grain, [&](std::size_t r0, std::size_t r1) {
    // Row dots in batches (dot_rows, bit-identical to one dot each), then
    // added to the chunk's chain in CSR order.
    constexpr std::size_t kBatch = 64;
    double dots[kBatch];
    double acc = 0.0;
    for (std::size_t i = r0; i < r1; ++i) {
      for (std::size_t k0 = offsets[i]; k0 < offsets[i + 1]; k0 += kBatch) {
        const std::size_t len = std::min(kBatch, offsets[i + 1] - k0);
        kt.dot_rows(g.row_ptr(i), g.row_ptr(0), g.stride(), cols.data() + k0,
                    len, c, dots);
        for (std::size_t t = 0; t < len; ++t) acc += vals[k0 + t] * dots[t];
      }
    }
    return acc;
  });
}

}  // namespace la
}  // namespace rhchme
