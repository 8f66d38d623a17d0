// Straight-line dense reference for RHCHME (paper Algorithm 2): the test
// oracle for the library's CSR solver core.
//
// Everything here is the textbook form of the updates, with every O(n²)
// quantity materialised: dense R, dense M = R − E_R, the closed-form S of
// Eq. 18 (SolveCentralS), the dense-Laplacian multiplicative G update of
// Eq. 21 (MultiplicativeGUpdate), a dense E_R from Eq. 25–27 and the
// objective of Eq. 15 evaluated entry by entry. It shares the
// initialisation with the library (fact::InitMembership from the same
// seed), so its objective trace is the library's up to rounding. With
// E_R and Eq. 22 off it is also the oracle of the SRC, SNMTF and RMC
// baselines, which run the library's core.

#ifndef RHCHME_TESTS_DENSE_REFERENCE_SOLVER_H_
#define RHCHME_TESTS_DENSE_REFERENCE_SOLVER_H_

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "core/ensemble.h"
#include "core/rhchme_solver.h"
#include "data/multitype_data.h"
#include "factorization/hocc_common.h"
#include "la/gemm.h"
#include "la/matrix.h"
#include "multiply_tn_stream.h"
#include "util/rng.h"

namespace rhchme {
namespace testing_reference {

struct DenseReferenceFit {
  la::Matrix g;
  la::Matrix s;
  la::Matrix error;  ///< Dense E_R; empty when the robust term is off.
  std::vector<double> objective_trace;
};

/// Closed-form S given G (paper Eq. 18): S = P·Gᵀ·M·G·P with
/// P = (GᵀG + ridge·I)⁻¹, through the library's product form.
inline Result<la::Matrix> SolveCentralS(const la::Matrix& g,
                                        const la::Matrix& m, double ridge) {
  return fact::SolveCentralSFromProducts(
      la::Gram(g), la::MultiplyTN(g, la::Multiply(m, g)), ridge);
}

/// One multiplicative update of G (paper Eq. 21) against a dense M and
/// the dense ± parts of L (nullptr with lambda = 0 for no manifold term):
/// the library's row kernel over every row, on dense products.
inline void MultiplicativeGUpdate(const la::Matrix& m, const la::Matrix& s,
                                  double lambda,
                                  const la::Matrix* laplacian_pos,
                                  const la::Matrix* laplacian_neg, double eps,
                                  la::Matrix* g) {
  const la::Matrix mg = la::Multiply(m, *g);
  la::Matrix mtg;
  MultiplyTNStreamInto(m, *g, &mtg);
  la::Matrix lg_neg, lg_pos;
  const bool manifold =
      lambda != 0.0 && laplacian_pos != nullptr && laplacian_neg != nullptr;
  if (manifold) {
    lg_neg = la::Multiply(*laplacian_neg, *g);
    lg_neg.Scale(lambda);
    lg_pos = la::Multiply(*laplacian_pos, *g);
    lg_pos.Scale(lambda);
  }
  la::Matrix b_pos, b_neg;
  fact::GUpdateGramTerms(s, la::Gram(*g), &b_pos, &b_neg);
  fact::GUpdateOperands op;
  op.mg = &mg;
  op.mtg = &mtg;
  op.s = &s;
  op.b_pos = &b_pos;
  op.b_neg = &b_neg;
  op.lg_neg = manifold ? &lg_neg : nullptr;
  op.lg_pos = manifold ? &lg_pos : nullptr;
  op.eps = eps;
  fact::GUpdateScratch scratch;
  scratch.Resize(g->rows(), g->cols());
  fact::GUpdateRows(op, *g, 0, g->rows(), &scratch, g);
}

/// Reconstruction ‖M − G·S·Gᵀ‖²_F.
inline double ReconstructionError(const la::Matrix& m, const la::Matrix& g,
                                  const la::Matrix& s) {
  la::Matrix approx = la::MultiplyNT(la::Multiply(g, s), g);
  approx.Sub(m);
  return approx.FrobeniusNormSquared();
}

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

/// The dense counterpart of core::LaplacianHook: rewrites the dense L
/// from the iteration index and the accepted G.
using DenseLaplacianHook =
    std::function<void(int iteration, const la::Matrix& g, la::Matrix* lap)>;

/// Algorithm 2 against a prebuilt ensemble, with the library's stopping
/// rule. No numerical guards: the oracle runs on healthy data only. A
/// `hook` rewrites L at the start of every iteration, as the core's
/// Laplacian hook does.
inline DenseReferenceFit DenseReferenceSolve(
    const data::MultiTypeRelationalData& data,
    const core::HeterogeneousEnsemble& ensemble,
    const core::RhchmeOptions& opts,
    const DenseLaplacianHook& hook = nullptr) {
  const fact::BlockStructure blocks = fact::BuildBlockStructure(data);
  const la::Matrix r = DenseJointR(data);
  la::Matrix lap = ensemble.laplacian.ToDense();
  la::Matrix lap_pos = la::PositivePart(lap);
  la::Matrix lap_neg = la::NegativePart(lap);

  DenseReferenceFit fit;
  Rng rng(opts.seed);
  fit.g = fact::InitMembership(data, blocks, opts.init, &rng).value();
  double prev = std::numeric_limits<double>::infinity();
  for (int t = 1; t <= opts.max_iterations; ++t) {
    if (hook) {
      hook(t, fit.g, &lap);
      lap_pos = la::PositivePart(lap);
      lap_neg = la::NegativePart(lap);
    }
    la::Matrix m = r;
    if (!fit.error.empty()) m.Sub(fit.error);
    fit.s = SolveCentralS(fit.g, m, opts.ridge).value();
    MultiplicativeGUpdate(m, fit.s, opts.lambda, &lap_pos, &lap_neg,
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
