#include "la/matrix.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "la/simd.h"
#include "util/parallel.h"

namespace rhchme {
namespace la {

namespace memstats {
namespace {
std::atomic<bool> g_tracking{false};
std::atomic<std::size_t> g_threshold{0};
std::atomic<std::size_t> g_count{0};
}  // namespace

void StartTracking(std::size_t min_elements) {
  g_threshold.store(min_elements, std::memory_order_relaxed);
  g_count.store(0, std::memory_order_relaxed);
  g_tracking.store(true, std::memory_order_release);
}

void StopTracking() { g_tracking.store(false, std::memory_order_release); }

std::size_t LargeAllocations() {
  return g_count.load(std::memory_order_relaxed);
}

namespace internal {
void NoteAlloc(std::size_t elements) {
  if (!g_tracking.load(std::memory_order_acquire)) return;
  if (elements >= g_threshold.load(std::memory_order_relaxed)) {
    g_count.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace internal
}  // namespace memstats

// Storage invariant: rows are stride_-spaced and the padding columns
// [cols_, stride_) of every row stay zero. Whole-buffer passes are legal
// only for operations that map zeros to zeros (+, -, *s, clamp); every
// other loop walks rows and touches logical columns only.

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    RHCHME_CHECK(rows[i].size() == rows[0].size(), "ragged row lengths");
    std::copy(rows[i].begin(), rows[i].end(), m.row_ptr(i));
  }
  return m;
}

Matrix Matrix::Identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Diagonal(const std::vector<double>& diag) {
  Matrix m(diag.size(), diag.size());
  for (std::size_t i = 0; i < diag.size(); ++i) m(i, i) = diag[i];
  return m;
}

Matrix Matrix::RandomUniform(std::size_t rows, std::size_t cols, Rng* rng,
                             double lo, double hi) {
  Matrix m(rows, cols);
  // Row-major logical order keeps the draw sequence identical to the
  // unpadded layout (seeded tests depend on it).
  for (std::size_t i = 0; i < rows; ++i) {
    double* r = m.row_ptr(i);
    for (std::size_t j = 0; j < cols; ++j) r[j] = rng->Uniform(lo, hi);
  }
  return m;
}

Matrix Matrix::RandomNormal(std::size_t rows, std::size_t cols, Rng* rng,
                            double mean, double stddev) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    double* r = m.row_ptr(i);
    for (std::size_t j = 0; j < cols; ++j) r[j] = rng->Normal(mean, stddev);
  }
  return m;
}

Matrix::Matrix(const Matrix& other)
    : rows_(other.rows_),
      cols_(other.cols_),
      stride_(other.stride_),
      data_(other.data_) {
  memstats::internal::NoteAlloc(rows_ * cols_);
}

Matrix& Matrix::operator=(const Matrix& other) {
  if (this == &other) return *this;
  // Same rule as Resize: only a change of footprint is a fresh buffer.
  if (other.data_.size() != data_.size()) {
    memstats::internal::NoteAlloc(other.rows_ * other.cols_);
  }
  rows_ = other.rows_;
  cols_ = other.cols_;
  stride_ = other.stride_;
  data_ = other.data_;
  return *this;
}

void Matrix::Fill(double v) {
  for (std::size_t i = 0; i < rows_; ++i) {
    double* r = row_ptr(i);
    std::fill(r, r + cols_, v);
  }
}

void Matrix::Resize(std::size_t rows, std::size_t cols) {
  // A same-footprint Resize reuses the buffer (hot *Into kernels call it
  // every iteration); only a buffer change is a fresh acquisition. The
  // tracked element count is logical (padding excluded).
  const std::size_t stride = PaddedStride(cols);
  if (rows * stride != data_.size()) {
    memstats::internal::NoteAlloc(rows * cols);
  }
  rows_ = rows;
  cols_ = cols;
  stride_ = stride;
  data_.assign(rows * stride, 0.0);
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  // Blocked transpose keeps both source row and destination row in cache;
  // chunks own disjoint destination row panels, so they parallelise cleanly.
  constexpr std::size_t kBlock = 32;
  util::ParallelFor(0, cols_, kBlock, [&](std::size_t j0, std::size_t j1) {
    for (std::size_t ib = 0; ib < rows_; ib += kBlock) {
      const std::size_t imax = std::min(rows_, ib + kBlock);
      for (std::size_t j = j0; j < j1; ++j) {
        for (std::size_t i = ib; i < imax; ++i) {
          t(j, i) = (*this)(i, j);
        }
      }
    }
  });
  return t;
}

Matrix Matrix::Block(std::size_t r0, std::size_t c0, std::size_t nr,
                     std::size_t nc) const {
  RHCHME_CHECK(r0 + nr <= rows_ && c0 + nc <= cols_, "block out of range");
  Matrix b(nr, nc);
  for (std::size_t i = 0; i < nr; ++i) {
    const double* src = row_ptr(r0 + i) + c0;
    std::copy(src, src + nc, b.row_ptr(i));
  }
  return b;
}

void Matrix::SetBlock(std::size_t r0, std::size_t c0, const Matrix& src) {
  RHCHME_CHECK(r0 + src.rows() <= rows_ && c0 + src.cols() <= cols_,
               "block out of range");
  for (std::size_t i = 0; i < src.rows(); ++i) {
    std::copy(src.row_ptr(i), src.row_ptr(i) + src.cols(),
              row_ptr(r0 + i) + c0);
  }
}

std::vector<double> Matrix::Row(std::size_t i) const {
  RHCHME_CHECK(i < rows_, "row out of range");
  return std::vector<double>(row_ptr(i), row_ptr(i) + cols_);
}

std::vector<double> Matrix::Col(std::size_t j) const {
  RHCHME_CHECK(j < cols_, "col out of range");
  std::vector<double> c(rows_);
  for (std::size_t i = 0; i < rows_; ++i) c[i] = (*this)(i, j);
  return c;
}

void Matrix::Add(const Matrix& other) {
  RHCHME_CHECK(SameShape(other), "Add: shape mismatch");
  // Same shape implies same stride; 0+0 keeps the padding zero, so the
  // whole padded buffer goes through one vector pass.
  simd::Add(data_.data(), other.data_.data(), data_.size());
}

void Matrix::Sub(const Matrix& other) {
  RHCHME_CHECK(SameShape(other), "Sub: shape mismatch");
  simd::Sub(data_.data(), other.data_.data(), data_.size());
}

void Matrix::Scale(double s) { simd::Scale(data_.data(), s, data_.size()); }

void Matrix::Apply(const std::function<double(double)>& f) {
  // f(0) may be nonzero, so only logical columns may be touched.
  for (std::size_t i = 0; i < rows_; ++i) {
    double* r = row_ptr(i);
    for (std::size_t j = 0; j < cols_; ++j) r[j] = f(r[j]);
  }
}

void Matrix::ClampNonNegative() {
  for (double& v : data_) v = v < 0.0 ? 0.0 : v;  // Padding: 0 -> 0.
}

double Matrix::FrobeniusNormSquared() const {
  double s = 0.0;
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* r = row_ptr(i);
    s += simd::Dot(r, r, cols_);
  }
  return s;
}

double Matrix::FrobeniusNorm() const {
  return std::sqrt(FrobeniusNormSquared());
}

double Matrix::MaxAbs() const {
  double m = 0.0;
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* r = row_ptr(i);
    for (std::size_t j = 0; j < cols_; ++j) m = std::max(m, std::fabs(r[j]));
  }
  return m;
}

std::vector<double> Matrix::RowSums() const {
  std::vector<double> s(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* r = row_ptr(i);
    double acc = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) acc += r[j];
    s[i] = acc;
  }
  return s;
}

std::vector<double> Matrix::ColSums() const {
  std::vector<double> s(cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* r = row_ptr(i);
    for (std::size_t j = 0; j < cols_; ++j) s[j] += r[j];
  }
  return s;
}

double Matrix::Trace() const {
  RHCHME_CHECK(rows_ == cols_, "Trace: matrix must be square");
  double t = 0.0;
  for (std::size_t i = 0; i < rows_; ++i) t += (*this)(i, i);
  return t;
}

bool Matrix::AllFinite() const {
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* r = row_ptr(i);
    for (std::size_t j = 0; j < cols_; ++j) {
      if (!std::isfinite(r[j])) return false;
    }
  }
  return true;
}

std::size_t Matrix::NonZeros() const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* r = row_ptr(i);
    for (std::size_t j = 0; j < cols_; ++j) count += (r[j] != 0.0);
  }
  return count;
}

std::size_t Matrix::ReplaceNonFinite(double value) {
  std::size_t replaced = 0;
  for (std::size_t i = 0; i < rows_; ++i) {
    double* r = row_ptr(i);
    for (std::size_t j = 0; j < cols_; ++j) {
      if (!std::isfinite(r[j])) {
        r[j] = value;
        ++replaced;
      }
    }
  }
  return replaced;
}

void Matrix::NormalizeRowsL1(std::size_t c0, std::size_t c1) {
  for (std::size_t i = 0; i < rows_; ++i) {
    double* r = row_ptr(i);
    double s = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) s += std::fabs(r[j]);
    if (s > kNormalizeRowsZeroTol) {
      simd::Scale(r, 1.0 / s, cols_);
    } else if (c1 > c0) {
      double u = 1.0 / static_cast<double>(c1 - c0);
      for (std::size_t j = c0; j < c1; ++j) r[j] = u;
    }
  }
}

Matrix PositivePart(const Matrix& m) {
  Matrix p(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const double* src = m.row_ptr(i);
    double* dst = p.row_ptr(i);
    for (std::size_t j = 0; j < m.cols(); ++j) {
      dst[j] = src[j] > 0.0 ? src[j] : 0.0;
    }
  }
  return p;
}

Matrix NegativePart(const Matrix& m) {
  Matrix p(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const double* src = m.row_ptr(i);
    double* dst = p.row_ptr(i);
    for (std::size_t j = 0; j < m.cols(); ++j) {
      dst[j] = src[j] < 0.0 ? -src[j] : 0.0;
    }
  }
  return p;
}

Matrix HConcat(const Matrix& a, const Matrix& b) {
  RHCHME_CHECK(a.rows() == b.rows(), "HConcat: row mismatch");
  Matrix c(a.rows(), a.cols() + b.cols());
  c.SetBlock(0, 0, a);
  c.SetBlock(0, a.cols(), b);
  return c;
}

}  // namespace la
}  // namespace rhchme
