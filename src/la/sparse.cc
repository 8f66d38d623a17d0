#include "la/sparse.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "la/simd.h"
#include "util/parallel.h"

namespace rhchme {
namespace la {

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
  return FromRows(dense.rows(), dense.cols(), dense.cols(),
                  [&](std::size_t i, const auto& put) {
                    const double* row = dense.row_ptr(i);
                    for (std::size_t j = 0; j < dense.cols(); ++j) {
                      if (row[j] != 0.0 && std::fabs(row[j]) > prune_tol) {
                        put(j, row[j]);
                      }
                    }
                  });
}

double SparseMatrix::Density() const {
  if (rows_ == 0 || cols_ == 0) return 0.0;
  return static_cast<double>(nnz()) /
         (static_cast<double>(rows_) * static_cast<double>(cols_));
}

void SparseMatrix::Scale(double s) {
  for (double& v : values_) v *= s;
}

std::size_t SparseMatrix::ReplaceNonFinite(double value) {
  std::size_t replaced = 0;
  for (double& v : values_) {
    if (!std::isfinite(v)) {
      v = value;
      ++replaced;
    }
  }
  return replaced;
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

namespace {

/// Shared filter behind the ± parts: keeps entries selected by `keep`,
/// storing `map(v)`, in M's (row, col) order.
template <typename Keep, typename Map>
SparseMatrix FilterEntries(const SparseMatrix& m, Keep keep, Map map) {
  const auto& offsets = m.row_offsets();
  const auto& cols = m.col_indices();
  const auto& vals = m.values();
  const std::size_t nnz_per_row = m.rows() > 0 ? m.nnz() / m.rows() + 1 : 1;
  return SparseMatrix::FromRows(
      m.rows(), m.cols(), nnz_per_row, [&](std::size_t i, const auto& put) {
        for (std::size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
          if (keep(vals[k])) put(cols[k], map(vals[k]));
        }
      });
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
