// Straight-line dense reference for RHCHME (paper Algorithm 2): the test
// oracle for the library's CSR solver core.
//
// Everything here is the textbook form of the updates, with every O(n²)
// quantity materialised: dense R, dense M = R − E_R, the closed-form S of
// Eq. 18 (fact::SolveCentralS), the dense-Laplacian multiplicative G
// update of Eq. 21, a dense E_R from Eq. 25–27 and the objective of
// Eq. 15 evaluated entry by entry. It shares the initialisation with the
// library (fact::InitMembership from the same seed), so its objective
// trace is the library's up to rounding.

#ifndef RHCHME_TESTS_DENSE_REFERENCE_SOLVER_H_
#define RHCHME_TESTS_DENSE_REFERENCE_SOLVER_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/ensemble.h"
#include "core/rhchme_solver.h"
#include "data/multitype_data.h"
#include "factorization/hocc_common.h"
#include "la/gemm.h"
#include "la/matrix.h"
#include "util/rng.h"

namespace rhchme {
namespace testing_reference {

struct DenseReferenceFit {
  la::Matrix g;
  la::Matrix s;
  la::Matrix error;  ///< Dense E_R; empty when the robust term is off.
  std::vector<double> objective_trace;
};

/// Dense joint R with the fit's input sanitisation (NaN/Inf read as 0).
inline la::Matrix DenseJointR(const data::MultiTypeRelationalData& d) {
  la::Matrix r = d.BuildJointR();
  r.ReplaceNonFinite(0.0);
  return r;
}

/// Q = R − G·S·Gᵀ.
inline la::Matrix DenseResidual(const la::Matrix& r, const la::Matrix& g,
                                const la::Matrix& s) {
  la::Matrix q = la::MultiplyNT(la::Multiply(g, s), g);
  q.Scale(-1.0);
  q.Add(r);
  return q;
}

/// Eq. 25–27: row i of E_R is s_i·q_i with s_i = 1/(beta·d_ii + 1) and
/// d_ii = 1/(2‖q_i‖ + zeta).
inline la::Matrix DenseErrorUpdate(const la::Matrix& q, double beta,
                                   double zeta) {
  la::Matrix e(q.rows(), q.cols());
  for (std::size_t i = 0; i < q.rows(); ++i) {
    double norm_sq = 0.0;
    for (std::size_t j = 0; j < q.cols(); ++j) norm_sq += q(i, j) * q(i, j);
    const double d_ii = 1.0 / (2.0 * std::sqrt(norm_sq) + zeta);
    const double scale = 1.0 / (beta * d_ii + 1.0);
    for (std::size_t j = 0; j < q.cols(); ++j) e(i, j) = scale * q(i, j);
  }
  return e;
}

/// Eq. 15 entry by entry: ‖R − G·S·Gᵀ − E‖²_F + beta·‖E‖₂,₁
/// + lambda·tr(Gᵀ·L·G). An empty `error` means E_R = 0.
inline double DenseObjective(const la::Matrix& r, const la::Matrix& g,
                             const la::Matrix& s, const la::Matrix& error,
                             const la::Matrix& laplacian, double lambda,
                             double beta) {
  la::Matrix resid = DenseResidual(r, g, s);
  double l21 = 0.0;
  if (!error.empty()) {
    resid.Sub(error);
    l21 = error.L21Norm();
  }
  const double smooth = la::FrobeniusInner(la::Multiply(laplacian, g), g);
  return resid.FrobeniusNormSquared() + beta * l21 + lambda * smooth;
}

/// Algorithm 2 against a prebuilt ensemble, with the library's stopping
/// rule. No numerical guards: the oracle runs on healthy data only.
inline DenseReferenceFit DenseReferenceSolve(
    const data::MultiTypeRelationalData& data,
    const core::HeterogeneousEnsemble& ensemble,
    const core::RhchmeOptions& opts) {
  const fact::BlockStructure blocks = fact::BuildBlockStructure(data);
  const la::Matrix r = DenseJointR(data);
  const la::Matrix lap = ensemble.laplacian.ToDense();
  const la::Matrix lap_pos = la::PositivePart(lap);
  const la::Matrix lap_neg = la::NegativePart(lap);

  DenseReferenceFit fit;
  Rng rng(opts.seed);
  fit.g = fact::InitMembership(data, blocks, opts.init, &rng).value();
  double prev = std::numeric_limits<double>::infinity();
  for (int t = 1; t <= opts.max_iterations; ++t) {
    la::Matrix m = r;
    if (!fit.error.empty()) m.Sub(fit.error);
    fit.s = fact::SolveCentralS(fit.g, m, opts.ridge).value();
    fact::MultiplicativeGUpdate(m, fit.s, opts.lambda, &lap_pos, &lap_neg,
                                opts.mu_eps, &fit.g);
    if (opts.normalize_rows) fact::NormalizeMembershipRows(blocks, &fit.g);
    if (opts.use_error_matrix) {
      fit.error = DenseErrorUpdate(DenseResidual(r, fit.g, fit.s), opts.beta,
                                   opts.l21_zeta);
    }
    const double objective = DenseObjective(r, fit.g, fit.s, fit.error, lap,
                                            opts.lambda, opts.beta);
    fit.objective_trace.push_back(objective);
    const double rel =
        std::fabs(prev - objective) / std::max(1.0, std::fabs(prev));
    if (std::isfinite(prev) && rel < opts.tolerance) break;
    prev = objective;
  }
  return fit;
}

}  // namespace testing_reference
}  // namespace rhchme

#endif  // RHCHME_TESTS_DENSE_REFERENCE_SOLVER_H_
