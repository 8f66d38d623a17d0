#include "la/solve.h"

#include <cmath>
#include <numeric>
#include <vector>

namespace rhchme {
namespace la {
namespace {

/// Lower-triangular factor L of A = L·Lᵀ for square A, or NumericalError
/// if A is not (numerically) positive definite.
Result<Matrix> Cholesky(const Matrix& a) {
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) {
      return Status::NumericalError("Cholesky: matrix not positive definite");
    }
    l(j, j) = std::sqrt(diag);
    const double inv = 1.0 / l(j, j);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = s * inv;
    }
  }
  return l;
}

/// Solves A·X = B for SPD A via Cholesky.
Result<Matrix> SolveSPD(const Matrix& a, const Matrix& b) {
  Result<Matrix> chol = Cholesky(a);
  if (!chol.ok()) return chol.status();
  const Matrix& l = chol.value();
  const std::size_t n = a.rows(), m = b.cols();

  // Forward substitution L·Y = B.
  Matrix y(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < m; ++c) {
      double s = b(i, c);
      for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * y(k, c);
      y(i, c) = s / l(i, i);
    }
  }
  // Backward substitution Lᵀ·X = Y.
  Matrix x(n, m);
  for (std::size_t ii = n; ii-- > 0;) {
    for (std::size_t c = 0; c < m; ++c) {
      double s = y(ii, c);
      for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x(k, c);
      x(ii, c) = s / l(ii, ii);
    }
  }
  return x;
}

/// LU with partial pivoting, in place. Returns the pivot permutation, or
/// an error on (numerical) singularity.
Status LuFactor(Matrix* a, std::vector<std::size_t>* perm) {
  const std::size_t n = a->rows();
  perm->resize(n);
  std::iota(perm->begin(), perm->end(), std::size_t{0});
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t p = k;
    double best = std::fabs((*a)(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      double v = std::fabs((*a)(i, k));
      if (v > best) {
        best = v;
        p = i;
      }
    }
    if (best < 1e-300 || !std::isfinite(best)) {
      return Status::NumericalError("LU: matrix is singular");
    }
    if (p != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap((*a)(k, j), (*a)(p, j));
      std::swap((*perm)[k], (*perm)[p]);
    }
    const double inv = 1.0 / (*a)(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double f = (*a)(i, k) * inv;
      (*a)(i, k) = f;
      if (f == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) (*a)(i, j) -= f * (*a)(k, j);
    }
  }
  return Status::OK();
}

/// Solves A·X = B for square A via LU with partial pivoting.
Result<Matrix> SolveLU(const Matrix& a, const Matrix& b) {
  Matrix lu = a;
  std::vector<std::size_t> perm;
  RHCHME_RETURN_IF_ERROR(LuFactor(&lu, &perm));
  const std::size_t n = a.rows(), m = b.cols();

  // Apply permutation to B, then forward/backward substitute.
  Matrix x(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < m; ++c) x(i, c) = b(perm[i], c);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < m; ++c) {
      double s = x(i, c);
      for (std::size_t k = 0; k < i; ++k) s -= lu(i, k) * x(k, c);
      x(i, c) = s;
    }
  }
  for (std::size_t ii = n; ii-- > 0;) {
    const double inv = 1.0 / lu(ii, ii);
    for (std::size_t c = 0; c < m; ++c) {
      double s = x(ii, c);
      for (std::size_t k = ii + 1; k < n; ++k) s -= lu(ii, k) * x(k, c);
      x(ii, c) = s * inv;
    }
  }
  return x;
}

}  // namespace

Result<Matrix> SolveRidged(const Matrix& a, const Matrix& b, double ridge) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("SolveRidged: matrix must be square");
  }
  if (a.rows() != b.rows()) {
    return Status::InvalidArgument("SolveRidged: rhs rows mismatch");
  }
  Matrix reg = a;
  for (std::size_t i = 0; i < reg.rows(); ++i) reg(i, i) += ridge;
  Result<Matrix> spd = SolveSPD(reg, b);
  if (spd.ok()) return spd;
  return SolveLU(reg, b);  // Fall back for indefinite inputs.
}

}  // namespace la
}  // namespace rhchme
