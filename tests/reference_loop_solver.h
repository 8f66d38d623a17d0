// The unfused RHCHME iteration loop: the bit-identity reference for the
// library's fused solver passes.
//
// This is Algorithm 2 on the CSR joint R written one whole-matrix
// product at a time: K = R·G and R·(diag(s)·G) as SpMMs, M·G and Mᵀ·G
// from the low-rank identities of core/rhchme_solver.h, GᵀMG and
// Hᵀ·diag(s)·G through la::MultiplyTN, the Eq. 21 update through
// separate la::Matrix temporaries and fact::RatioUpdate, the ± parts of
// the ensemble Laplacian copied once per fit, and tr(GᵀLG) through
// la::Sandwich. Every kernel it calls is the library's, in the library's
// order, so the fused loop must reproduce its G, S, E_R scales, labels,
// objective trace and diagnostics bit for bit — per dispatched kernel
// table and pool size — including the NaN tripwire, divergence rollback
// and checkpoint resume paths driven by the fault sites.

#ifndef RHCHME_TESTS_REFERENCE_LOOP_SOLVER_H_
#define RHCHME_TESTS_REFERENCE_LOOP_SOLVER_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/ensemble.h"
#include "core/rhchme_solver.h"
#include "data/multitype_data.h"
#include "factorization/hocc_common.h"
#include "la/gemm.h"
#include "la/matrix.h"
#include "la/sparse.h"
#include "util/fault.h"
#include "util/rng.h"

namespace rhchme {
namespace testing_reference {

/// Resume probe with the fused solver's contract: OK + *loaded=false
/// means no snapshot yet; any mismatch is an error.
inline Status ReferenceTryLoadResume(const std::string& path,
                                     uint64_t fingerprint, std::size_t n,
                                     std::size_t c, std::size_t er_size,
                                     core::SolverSnapshot* snap,
                                     bool* loaded) {
  *loaded = false;
  Result<core::SolverSnapshot> r = core::LoadSolverSnapshot(path);
  if (!r.ok()) {
    if (r.status().code() == StatusCode::kNotFound) return Status::OK();
    return r.status();
  }
  core::SolverSnapshot s = std::move(r).value();
  if (s.options_fingerprint != fingerprint) {
    return Status::FailedPrecondition("snapshot options fingerprint mismatch");
  }
  if (s.g.rows() != n || s.g.cols() != c || s.s.rows() != c ||
      s.s.cols() != c) {
    return Status::FailedPrecondition("snapshot factor shape mismatch");
  }
  if (s.er_scale.size() != er_size) {
    return Status::FailedPrecondition("snapshot E_R state mismatch");
  }
  if (s.iteration < 1 ||
      s.objective_trace.size() != static_cast<std::size_t>(s.iteration)) {
    return Status::FailedPrecondition("snapshot iteration/trace inconsistency");
  }
  *snap = std::move(s);
  *loaded = true;
  return Status::OK();
}

/// ‖q_i‖ from the clamped identity ‖r_i‖² − 2·h_i·k_iᵀ + h_i·(GᵀG)·h_iᵀ.
inline void ReferenceResidualRowNorms(const std::vector<double>& r_norm_sq,
                                      const la::Matrix& h, const la::Matrix& k,
                                      const la::Matrix& hg,
                                      std::vector<double>* row_norm) {
  const std::size_t n = h.rows();
  const std::size_t c = h.cols();
  row_norm->resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double* hi = h.row_ptr(i);
    const double* ki = k.row_ptr(i);
    const double* hgi = hg.row_ptr(i);
    double hk = 0.0, hh = 0.0;
    for (std::size_t j = 0; j < c; ++j) {
      hk += hi[j] * ki[j];
      hh += hi[j] * hgi[j];
    }
    const double nsq = r_norm_sq[i] - 2.0 * hk + hh;
    (*row_norm)[i] = nsq > 0.0 ? std::sqrt(nsq) : 0.0;
  }
}

/// Data and ℓ2,1 terms of Eq. 15 from the row norms and E_R scales.
inline double ReferenceDataTerms(const std::vector<double>& row_norm,
                                 const std::vector<double>& scale,
                                 double beta) {
  double data_term = 0.0;
  double l21 = 0.0;
  for (std::size_t i = 0; i < row_norm.size(); ++i) {
    const double norm = row_norm[i];
    if (scale.empty()) {
      data_term += norm * norm;
    } else {
      const double keep = 1.0 - scale[i];
      data_term += keep * keep * norm * norm;
      l21 += scale[i] * norm;
    }
  }
  return data_term + beta * l21;
}

/// Eq. 21 from M·G and Mᵀ·G one whole-matrix temporary at a time.
inline void ReferenceGUpdate(const la::Matrix& mg, const la::Matrix& mtg,
                             const la::Matrix& s, const la::Matrix& gtg,
                             double lambda, const la::SparseMatrix* lap_pos,
                             const la::SparseMatrix* lap_neg, double eps,
                             la::Matrix* g) {
  la::Matrix a = la::MultiplyNT(mg, s);
  a.Add(la::Multiply(mtg, s));
  a.Scale(0.5);
  la::Matrix gtgs = la::Multiply(gtg, s);
  la::Matrix b = la::MultiplyTN(s, gtgs);
  la::Matrix gtgst = la::MultiplyNT(gtg, s);
  b.Add(la::Multiply(s, gtgst));
  b.Scale(0.5);
  la::Matrix num = la::PositivePart(a);
  num.Add(la::Multiply(*g, la::NegativePart(b)));
  la::Matrix den = la::NegativePart(a);
  den.Add(la::Multiply(*g, la::PositivePart(b)));
  if (lambda != 0.0 && lap_pos != nullptr && lap_neg != nullptr) {
    la::Matrix lg;
    lap_neg->MultiplyDenseInto(*g, &lg);
    lg.Scale(lambda);
    num.Add(lg);
    lap_pos->MultiplyDenseInto(*g, &lg);
    lg.Scale(lambda);
    den.Add(lg);
  }
  fact::RatioUpdate(num, den, eps, g);
  if (util::FaultShouldFail(util::fault_site::kGUpdatePoison) && !g->empty()) {
    (*g)(0, 0) = std::numeric_limits<double>::quiet_NaN();
  }
}

/// Algorithm 2 on the CSR joint R, unfused. Same contract as
/// core::Rhchme::FitWithEnsemble (without its bad_alloc seam).
inline Result<core::RhchmeResult> ReferenceLoopFit(
    const core::RhchmeOptions& opts, const data::MultiTypeRelationalData& data,
    const core::HeterogeneousEnsemble& ensemble,
    const core::IterationCallback& callback = nullptr) {
  RHCHME_RETURN_IF_ERROR(opts.Validate());
  RHCHME_RETURN_IF_ERROR(data.Validate());
  const fact::BlockStructure blocks = fact::BuildBlockStructure(data);
  if (ensemble.laplacian.rows() != blocks.total_objects()) {
    return Status::InvalidArgument("ensemble Laplacian size mismatch");
  }
  const std::size_t n = blocks.total_objects();
  const std::size_t c = blocks.total_clusters();
  const bool robust = opts.use_error_matrix;
  constexpr double kDivergenceFactor = 10.0;
  constexpr int kMaxConsecutiveBacktracks = 2;
  auto looks_bad = [&](double objective, double prev) {
    if (!std::isfinite(objective)) return true;
    return std::isfinite(prev) &&
           std::fabs(objective) >
               kDivergenceFactor * std::max(1.0, std::fabs(prev));
  };

  core::RhchmeResult out;
  out.ensemble = ensemble;
  fact::HoccResult& res = out.hocc;
  res.objective_trace.reserve(opts.max_iterations);
  core::FitDiagnostics& diag = out.diagnostics;

  if (util::FaultShouldFail(util::fault_site::kAllocJointR)) {
    return Status::Internal("allocation failure during fit (out of memory)");
  }
  la::SparseMatrix r = data.BuildJointRSparse();
  diag.nonfinite_input_entries += r.ReplaceNonFinite(0.0);
  const std::vector<double> r_norm_sq = r.RowNormsSquared();

  la::SparseMatrix lap_pos, lap_neg;
  if (opts.lambda != 0.0) {
    lap_pos = la::PositivePart(ensemble.laplacian);
    lap_neg = la::NegativePart(ensemble.laplacian);
  }

  std::vector<double> er_scale(robust ? n : 0, 0.0);
  std::vector<double> row_norm;
  bool have_error = false;

  Rng rng(opts.seed);
  const uint64_t fingerprint = core::OptionsFingerprint(opts, n, c);

  la::Matrix g, s, h, k, hg, gtg;
  la::Matrix mg, mtg, gs_scaled, rgs;
  double prev_objective = std::numeric_limits<double>::infinity();
  int start_t = 1;

  auto rebuild_derived_state = [&]() {
    if (have_error) la::MultiplyInto(g, s, &h);
    r.MultiplyDenseInto(g, &k);
    gtg = la::Gram(g);
    if (have_error) la::MultiplyInto(h, gtg, &hg);
  };

  if (opts.resume) {
    core::SolverSnapshot snap;
    bool resumed = false;
    RHCHME_RETURN_IF_ERROR(ReferenceTryLoadResume(opts.checkpoint_path,
                                                  fingerprint, n, c,
                                                  er_scale.size(), &snap,
                                                  &resumed));
    if (resumed) {
      g = std::move(snap.g);
      s = std::move(snap.s);
      er_scale = std::move(snap.er_scale);
      have_error = snap.have_error;
      prev_objective = snap.prev_objective;
      res.objective_trace = std::move(snap.objective_trace);
      rng.RestoreState(snap.rng_state);
      diag = snap.diagnostics;
      diag.resumed_from_iteration = snap.iteration;
      res.iterations = snap.iteration;
      start_t = snap.iteration + 1;
    }
  }
  if (start_t == 1) {
    Result<la::Matrix> init =
        fact::InitMembership(data, blocks, opts.init, &rng);
    if (!init.ok()) return init.status();
    g = std::move(init).value();
    if (!g.AllFinite()) {
      ++diag.nan_guard_trips;
      diag.nonfinite_g_entries += g.ReplaceNonFinite(0.0);
      fact::NormalizeMembershipRows(blocks, &g);
    }
  }
  if (util::FaultShouldFail(util::fault_site::kAllocWorkspace)) {
    return Status::Internal("allocation failure during fit (out of memory)");
  }
  rebuild_derived_state();

  auto write_checkpoint = [&](int t) {
    if (opts.checkpoint_every <= 0 || t % opts.checkpoint_every != 0) return;
    core::SolverSnapshot snap;
    snap.options_fingerprint = fingerprint;
    snap.iteration = t;
    snap.prev_objective = prev_objective;
    snap.have_error = have_error;
    snap.rng_state = rng.SaveState();
    snap.diagnostics = diag;
    snap.g = g;
    snap.s = s;
    snap.er_scale = er_scale;
    snap.objective_trace = res.objective_trace;
    if (core::SaveSolverSnapshot(opts.checkpoint_path, snap).ok()) {
      ++diag.snapshots_written;
    } else {
      ++diag.snapshot_failures;
    }
  };

  la::Matrix g_prev, s_prev;
  std::vector<double> er_prev;
  bool have_error_prev = false;
  int consecutive_backtracks = 0;
  fact::SolveStats solve_stats;

  auto restore_accepted = [&]() {
    g = g_prev;
    s = s_prev;
    if (robust) er_scale = er_prev;
    have_error = have_error_prev;
    rebuild_derived_state();
  };

  for (int t = start_t; t <= opts.max_iterations; ++t) {
    g_prev = g;
    s_prev = s;
    if (robust) er_prev = er_scale;
    have_error_prev = have_error;
    const la::Matrix* m_g = &k;
    const la::Matrix* mt_g = &k;
    if (robust && have_error) {
      mg.Resize(n, c);
      for (std::size_t i = 0; i < n; ++i) {
        const double si = er_scale[i];
        const double* ki = k.row_ptr(i);
        const double* hgi = hg.row_ptr(i);
        double* mi = mg.row_ptr(i);
        for (std::size_t j = 0; j < c; ++j) {
          mi[j] = ki[j] - si * (ki[j] - hgi[j]);
        }
      }
      gs_scaled.Resize(n, c);
      for (std::size_t i = 0; i < n; ++i) {
        const double si = er_scale[i];
        const double* gi = g.row_ptr(i);
        double* oi = gs_scaled.row_ptr(i);
        for (std::size_t j = 0; j < c; ++j) oi[j] = si * gi[j];
      }
      r.MultiplyDenseInto(gs_scaled, &rgs);
      mtg = k;
      mtg.Sub(rgs);
      la::Matrix hts = la::MultiplyTN(h, gs_scaled);
      mtg.Add(la::Multiply(g, hts));
      m_g = &mg;
      mt_g = &mtg;
    }

    la::Matrix gtmg = la::MultiplyTN(g, *m_g);
    Result<la::Matrix> s_new =
        fact::SolveCentralSFromProducts(gtg, gtmg, opts.ridge, &solve_stats);
    diag.solve_ridge_retries += solve_stats.ridge_retries;
    solve_stats.ridge_retries = 0;
    if (!s_new.ok()) {
      if (res.objective_trace.empty()) return s_new.status();
      ++diag.degraded_stops;
      restore_accepted();
      break;
    }
    s = std::move(s_new).value();

    ReferenceGUpdate(*m_g, *mt_g, s, gtg, opts.lambda, &lap_pos, &lap_neg,
                     opts.mu_eps, &g);

    if (!g.AllFinite()) {
      ++diag.nan_guard_trips;
      diag.nonfinite_g_entries += g.ReplaceNonFinite(0.0);
      fact::NormalizeMembershipRows(blocks, &g);
    }
    if (opts.normalize_rows) fact::NormalizeMembershipRows(blocks, &g);

    la::MultiplyInto(g, s, &h);
    r.MultiplyDenseInto(g, &k);
    gtg = la::Gram(g);
    la::MultiplyInto(h, gtg, &hg);

    ReferenceResidualRowNorms(r_norm_sq, h, k, hg, &row_norm);
    if (util::FaultShouldFail(util::fault_site::kResidualPoison) && n > 0) {
      row_norm[0] = std::numeric_limits<double>::quiet_NaN();
    }
    if (robust) {
      have_error = true;
      for (std::size_t i = 0; i < n; ++i) {
        const double d_ii = 1.0 / (2.0 * row_norm[i] + opts.l21_zeta);
        er_scale[i] = 1.0 / (opts.beta * d_ii + 1.0);
      }
    }

    const double smooth =
        opts.lambda != 0.0 ? la::Sandwich(g, ensemble.laplacian) : 0.0;
    double objective = ReferenceDataTerms(row_norm, er_scale, opts.beta) +
                       opts.lambda * smooth;
    if (util::FaultShouldFail(util::fault_site::kObjectivePoison)) {
      objective = std::numeric_limits<double>::quiet_NaN();
    }

    if (looks_bad(objective, prev_objective)) {
      if (consecutive_backtracks < kMaxConsecutiveBacktracks) {
        ++consecutive_backtracks;
        ++diag.backtracks;
        restore_accepted();
        --t;
        continue;
      }
      if (res.objective_trace.empty()) {
        return Status::NumericalError(
            "objective non-finite at the first iteration");
      }
      ++diag.degraded_stops;
      restore_accepted();
      break;
    }
    consecutive_backtracks = 0;

    res.objective_trace.push_back(objective);
    res.iterations = t;
    if (callback) callback(t, g);

    const double rel = std::fabs(prev_objective - objective) /
                       std::max(1.0, std::fabs(prev_objective));
    if (std::isfinite(prev_objective) && rel < opts.tolerance) {
      res.converged = true;
      break;
    }
    prev_objective = objective;
    write_checkpoint(t);
  }

  res.g = std::move(g);
  res.s = std::move(s);
  res.labels = fact::ExtractLabels(blocks, res.g);
  out.error_scale = std::move(er_scale);
  return out;
}

}  // namespace testing_reference
}  // namespace rhchme

#endif  // RHCHME_TESTS_REFERENCE_LOOP_SOLVER_H_
