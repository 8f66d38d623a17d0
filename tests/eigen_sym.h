// Symmetric eigensolver (cyclic Jacobi), a test-only reference.
//
// The tests need eigenpairs of small graph Laplacians and Gram matrices
// (Laplacian PSD-ness, Fiedler vectors, eigenvalue spectra); the library
// itself never decomposes a matrix. Jacobi is O(n³) with a small constant
// and numerically robust, which is sufficient for the small matrices the
// tests decompose.

#ifndef RHCHME_TESTS_EIGEN_SYM_H_
#define RHCHME_TESTS_EIGEN_SYM_H_

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "la/matrix.h"
#include "util/status.h"

namespace rhchme {
namespace la {

/// Eigen-decomposition A = V·diag(w)·Vᵀ of a symmetric matrix.
struct EigenSymResult {
  /// Eigenvalues in ascending order.
  std::vector<double> eigenvalues;
  /// Column j of `eigenvectors` is the unit eigenvector for eigenvalues[j].
  Matrix eigenvectors;
};

/// Options for the Jacobi sweep loop.
struct EigenSymOptions {
  int max_sweeps = 64;      ///< Hard cap; convergence is usually < 15 sweeps.
  double tolerance = 1e-12; ///< Stop when off-diagonal Frobenius mass is
                            ///< below tolerance * ||A||_F.
};

namespace eigen_sym_detail {

/// Frobenius mass of the strict off-diagonal part.
inline double OffDiagonalNorm(const Matrix& a) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = i + 1; j < a.cols(); ++j) {
      s += 2.0 * a(i, j) * a(i, j);
    }
  }
  return std::sqrt(s);
}

}  // namespace eigen_sym_detail

/// Full eigen-decomposition of symmetric `a`. Symmetry is enforced by
/// averaging (A+Aᵀ)/2; returns InvalidArgument for non-square input and
/// NotConverged if the sweep cap is hit (pairs computed so far returned
/// in the error-free case only).
inline Result<EigenSymResult> EigenSym(const Matrix& a,
                                       const EigenSymOptions& opts = {}) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("EigenSym: matrix must be square");
  }
  const std::size_t n = a.rows();

  // Work on the symmetrised copy; V accumulates the rotations.
  Matrix w(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      w(i, j) = 0.5 * (a(i, j) + a(j, i));
    }
  }
  Matrix v = Matrix::Identity(n);

  const double stop = opts.tolerance * std::max(w.FrobeniusNorm(), 1e-300);
  bool converged = (n <= 1) || eigen_sym_detail::OffDiagonalNorm(w) <= stop;
  for (int sweep = 0; sweep < opts.max_sweeps && !converged; ++sweep) {
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = w(p, q);
        if (std::fabs(apq) < 1e-300) continue;
        const double app = w(p, p), aqq = w(q, q);
        const double theta = 0.5 * (aqq - app) / apq;
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // Apply the rotation to rows/cols p,q of W and columns p,q of V.
        for (std::size_t i = 0; i < n; ++i) {
          const double wip = w(i, p), wiq = w(i, q);
          w(i, p) = c * wip - s * wiq;
          w(i, q) = s * wip + c * wiq;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double wpi = w(p, i), wqi = w(q, i);
          w(p, i) = c * wpi - s * wqi;
          w(q, i) = s * wpi + c * wqi;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double vip = v(i, p), viq = v(i, q);
          v(i, p) = c * vip - s * viq;
          v(i, q) = s * vip + c * viq;
        }
      }
    }
    converged = eigen_sym_detail::OffDiagonalNorm(w) <= stop;
  }
  if (!converged) {
    return Status::NotConverged("EigenSym: Jacobi sweep cap reached");
  }

  // Sort ascending by eigenvalue and permute eigenvector columns.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return w(x, x) < w(y, y); });

  EigenSymResult out;
  out.eigenvalues.resize(n);
  out.eigenvectors.Resize(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.eigenvalues[j] = w(order[j], order[j]);
    for (std::size_t i = 0; i < n; ++i) {
      out.eigenvectors(i, j) = v(i, order[j]);
    }
  }
  return out;
}

/// The k smallest eigenpairs (e.g. the spectral embedding of a Laplacian).
/// Computes the full decomposition and slices it.
inline Result<EigenSymResult> EigenSymSmallest(
    const Matrix& a, std::size_t k, const EigenSymOptions& opts = {}) {
  if (k > a.rows()) {
    return Status::InvalidArgument("EigenSymSmallest: k exceeds dimension");
  }
  Result<EigenSymResult> full = EigenSym(a, opts);
  if (!full.ok()) return full.status();
  EigenSymResult sliced;
  sliced.eigenvalues.assign(full.value().eigenvalues.begin(),
                            full.value().eigenvalues.begin() + k);
  sliced.eigenvectors = full.value().eigenvectors.Block(0, 0, a.rows(), k);
  return sliced;
}

}  // namespace la
}  // namespace rhchme

#endif  // RHCHME_TESTS_EIGEN_SYM_H_
