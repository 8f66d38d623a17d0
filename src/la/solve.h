// Direct solver for small dense systems.
//
// The solvers in this library only ever invert c x c matrices (c = total
// cluster count, tens at most) — e.g. (GᵀG)⁻¹ in the S-update (paper
// Eq. 18). Cholesky covers the SPD case; LU with partial pivoting is the
// fallback for indefinite inputs.

#ifndef RHCHME_LA_SOLVE_H_
#define RHCHME_LA_SOLVE_H_

#include "la/matrix.h"

namespace rhchme {
namespace la {

/// (A + ridge·I)⁻¹·B for symmetric A — the regularised solve used by the
/// S-update where GᵀG may be singular when a cluster empties out. Solves
/// by Cholesky, and by LU with partial pivoting when A + ridge·I is not
/// (numerically) positive definite. InvalidArgument on a non-square A or
/// a row mismatch with B; NumericalError when both factorisations fail.
Result<Matrix> SolveRidged(const Matrix& a, const Matrix& b, double ridge);

}  // namespace la
}  // namespace rhchme

#endif  // RHCHME_LA_SOLVE_H_
