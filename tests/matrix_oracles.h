// Plain-loop matrix checks and oracles, test-only.
//
// The library's value types expose only what a fit or a tool uses; the
// reductions and comparisons the tests assert with live here, written as
// the obvious loops over logical entries (never the padded storage), so
// each one is its own reference.

#ifndef RHCHME_TESTS_MATRIX_ORACLES_H_
#define RHCHME_TESTS_MATRIX_ORACLES_H_

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "la/matrix.h"
#include "la/sparse.h"
#include "util/status.h"

namespace rhchme {
namespace testing_reference {

/// Max |a(i,j) − b(i,j)| over two same-shape matrices.
inline double MaxAbsDiff(const la::Matrix& a, const la::Matrix& b) {
  RHCHME_CHECK(a.SameShape(b), "MaxAbsDiff: shape mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      m = std::max(m, std::fabs(a(i, j) - b(i, j)));
    }
  }
  return m;
}

/// y += s·x entrywise, one multiply then one add per entry.
inline void AddScaled(la::Matrix* y, const la::Matrix& x, double s) {
  RHCHME_CHECK(y->SameShape(x), "AddScaled: shape mismatch");
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) (*y)(i, j) += s * x(i, j);
  }
}

/// True when every entry is >= −tol (NaN entries pass, as a NaN is not
/// below anything).
inline bool IsNonNegative(const la::Matrix& m, double tol = 0.0) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      if (m(i, j) < -tol) return false;
    }
  }
  return true;
}

/// L2,1 norm: the sum over rows of each row's Euclidean norm (paper
/// Eq. 14).
inline double L21Norm(const la::Matrix& m) {
  double total = 0.0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    double sq = 0.0;
    for (std::size_t j = 0; j < m.cols(); ++j) sq += m(i, j) * m(i, j);
    total += std::sqrt(sq);
  }
  return total;
}

/// Sum of all entries.
inline double Sum(const la::Matrix& m) {
  double s = 0.0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) s += m(i, j);
  }
  return s;
}

/// Sum of all stored values.
inline double Sum(const la::SparseMatrix& m) {
  double s = 0.0;
  for (double v : m.values()) s += v;
  return s;
}

/// Smallest and largest entry (0 for an empty matrix).
inline double Min(const la::Matrix& m) {
  double v = m.empty() ? 0.0 : m(0, 0);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) v = std::min(v, m(i, j));
  }
  return v;
}
inline double Max(const la::Matrix& m) {
  double v = m.empty() ? 0.0 : m(0, 0);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) v = std::max(v, m(i, j));
  }
  return v;
}

/// True when the sparse matrix is square and equals its transpose up to
/// `tol` entrywise.
inline bool IsSymmetric(const la::SparseMatrix& m, double tol = 1e-12) {
  if (m.rows() != m.cols()) return false;
  const auto& offsets = m.row_offsets();
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      const std::size_t j = m.col_indices()[k];
      if (std::fabs(m.values()[k] - m.At(j, i)) > tol) return false;
    }
  }
  return true;
}

/// tr(Gᵀ L G) for a dense L, as the triple loop Σ_i Σ_t L(i,t)·⟨G_t, G_i⟩:
/// the oracle for la::Sandwich's sparse-L evaluation.
inline double TraceGtLG(const la::Matrix& g, const la::Matrix& l) {
  RHCHME_CHECK(l.rows() == l.cols() && l.rows() == g.rows(),
               "TraceGtLG: shape mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < g.rows(); ++i) {
    for (std::size_t t = 0; t < g.rows(); ++t) {
      if (l(i, t) == 0.0) continue;
      double dot = 0.0;
      for (std::size_t c = 0; c < g.cols(); ++c) dot += g(t, c) * g(i, c);
      acc += l(i, t) * dot;
    }
  }
  return acc;
}

}  // namespace testing_reference
}  // namespace rhchme

#endif  // RHCHME_TESTS_MATRIX_ORACLES_H_
