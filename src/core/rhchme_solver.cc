#include "core/rhchme_solver.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <new>
#include <string>
#include <utility>

#include "core/checkpoint.h"
#include "la/gemm.h"
#include "la/simd.h"
#include "util/fault.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace rhchme {
namespace core {

Status RhchmeOptions::Validate() const {
  // Negated comparisons: NaN fails every one of them. A NaN tolerance, for
  // one, would otherwise run every fit silently to the iteration cap.
  const std::pair<const char*, double> nonnegative[] = {
      {"lambda", lambda}, {"beta", beta},     {"tolerance", tolerance},
      {"ridge", ridge},   {"mu_eps", mu_eps}, {"l21_zeta", l21_zeta}};
  for (const auto& [name, value] : nonnegative) {
    if (!(value >= 0.0)) {
      return Status::InvalidArgument(std::string(name) +
                                     " must be >= 0 and not NaN");
    }
  }
  if (max_iterations <= 0) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  if (checkpoint_every < 0) {
    return Status::InvalidArgument("checkpoint_every must be >= 0");
  }
  if (checkpoint_every > 0 && checkpoint_path.empty()) {
    return Status::InvalidArgument("checkpoint_every requires checkpoint_path");
  }
  if (resume && checkpoint_path.empty()) {
    return Status::InvalidArgument("resume requires checkpoint_path");
  }
  return ensemble.Validate();
}

namespace {

/// Objective-divergence guard: multiplicative updates descend
/// monotonically on healthy data (Theorem 1), so an accepted objective
/// jumping more than this factor above the previous one is a numerical
/// blow-up, not progress — roll it back.
constexpr double kDivergenceFactor = 10.0;
/// A rolled-back iteration replays deterministically, so a second
/// consecutive failure means the blow-up is persistent (not a one-shot
/// fault): stop degraded instead of spinning.
constexpr int kMaxConsecutiveBacktracks = 2;

bool ObjectiveLooksBad(double objective, double prev) {
  if (!std::isfinite(objective)) return true;
  return std::isfinite(prev) &&
         std::fabs(objective) >
             kDivergenceFactor * std::max(1.0, std::fabs(prev));
}

/// Resume probe: loads opts.checkpoint_path and validates it against this
/// fit's identity. OK + *loaded=false means no snapshot yet (fresh fit);
/// OK + *loaded=true hands the snapshot back; anything else — corruption,
/// an old format version, fingerprint/shape mismatch — is a real error
/// (never a silent restart).
Status TryLoadResume(const std::string& path, uint64_t fingerprint,
                     std::size_t n, std::size_t c, std::size_t er_size,
                     SolverSnapshot* snap, bool* loaded) {
  *loaded = false;
  Result<SolverSnapshot> r = LoadSolverSnapshot(path);
  if (!r.ok()) {
    if (r.status().code() == StatusCode::kNotFound) return Status::OK();
    return r.status();
  }
  SolverSnapshot s = std::move(r).value();
  if (s.options_fingerprint != fingerprint) {
    return Status::FailedPrecondition(
        "snapshot options fingerprint mismatch: " + path);
  }
  if (s.g.rows() != n || s.g.cols() != c || s.s.rows() != c ||
      s.s.cols() != c) {
    return Status::FailedPrecondition("snapshot factor shape mismatch: " +
                                      path);
  }
  if (s.er_scale.size() != er_size) {
    return Status::FailedPrecondition("snapshot E_R state mismatch: " + path);
  }
  if (s.iteration < 1 ||
      s.objective_trace.size() != static_cast<std::size_t>(s.iteration)) {
    return Status::FailedPrecondition(
        "snapshot iteration/trace inconsistency: " + path);
  }
  *snap = std::move(s);
  *loaded = true;
  return Status::OK();
}

/// Residual row norm ‖q_i‖ of Q = R − H·Gᵀ from the analytic identity
/// ‖q_i‖² = ‖r_i‖² − 2·h_i·k_iᵀ + h_i·(GᵀG)·h_iᵀ, with k_i a row of
/// K = R·G and hg_i a row of HG = H·(GᵀG). The identity cancels
/// catastrophically when the reconstruction is near-exact and can then dip
/// below zero by rounding, so it is clamped at zero before the square
/// root.
double ResidualRowNorm(double r_norm_sq, const double* hi, const double* ki,
                       const double* hgi, std::size_t c) {
  double hk = 0.0, hh = 0.0;
  for (std::size_t j = 0; j < c; ++j) {
    hk += hi[j] * ki[j];
    hh += hi[j] * hgi[j];
  }
  const double nsq = r_norm_sq - 2.0 * hk + hh;
  return nsq > 0.0 ? std::sqrt(nsq) : 0.0;
}

/// Eq. 25–27: (beta·D + I)⁻¹ is diagonal, so row i of E_R is row i of Q
/// scaled by s_i = 1 / (beta/(2‖q_i‖ + zeta) + 1).
double ErrorScale(double row_norm, double beta, double zeta) {
  const double d_ii = 1.0 / (2.0 * row_norm + zeta);
  return 1.0 / (beta * d_ii + 1.0);
}

/// ResidualRowNorm over every row. Rows are independent, so the norms are
/// bit-identical for any pool size.
void ResidualRowNorms(const std::vector<double>& r_norm_sq,
                      const la::Matrix& h, const la::Matrix& k,
                      const la::Matrix& hg, std::vector<double>* row_norm) {
  const std::size_t n = h.rows();
  const std::size_t c = h.cols();
  row_norm->resize(n);
  util::ParallelFor(0, n, util::GrainForWork(4 * c + 1),
                    [&](std::size_t r0, std::size_t r1) {
                      for (std::size_t i = r0; i < r1; ++i) {
                        (*row_norm)[i] =
                            ResidualRowNorm(r_norm_sq[i], h.row_ptr(i),
                                            k.row_ptr(i), hg.row_ptr(i), c);
                      }
                    });
}

/// Data and ℓ2,1 terms of Eq. 15 from the residual row norms and the
/// factored E_R = diag(s)·Q: ‖Q − E_R‖²_F + beta·‖E_R‖₂,₁ with
/// ‖Q − E_R‖²_F = Σ(1−s_i)²‖q_i‖² and ‖E_R‖₂,₁ = Σ s_i‖q_i‖. Empty
/// scales mean E_R = 0. Reduced serially in row order.
double AnalyticDataTerms(const std::vector<double>& row_norm,
                         const std::vector<double>& scale, double beta) {
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

/// Copies rows [r0, r1) of `src` into columns [r0, r1) of `dst` = srcᵀ.
void TransposeRows(const la::Matrix& src, std::size_t r0, std::size_t r1,
                   la::Matrix* dst) {
  for (std::size_t j = 0; j < src.cols(); ++j) {
    double* dj = dst->row_ptr(j);
    for (std::size_t i = r0; i < r1; ++i) dj[i] = src(i, j);
  }
}

std::size_t RoundUp(std::size_t x, std::size_t multiple) {
  return (x + multiple - 1) / multiple * multiple;
}

/// The iteration-carried state and fixed workspace of one fit, with the
/// passes that advance it (docs/ARCHITECTURE.md "Solver iteration").
/// Every buffer is allocated here, once: n x c, c x n or c x c. The
/// passes reuse them, so a fit's allocations do not grow with its
/// iteration count.
///
/// Derived state of the current G (the accepted iterate, or the update's
/// output once StatePass has run on it): K = R·G, GᵀG, Gᵀ, and with an
/// E_R H = G·S, Hᵀ and HG = H·(GᵀG); with lambda ≠ 0 lambda·L⁻·G and
/// lambda·L⁺·G; with the robust term diag(s)·G and
/// M·G = K − diag(s)·(K − HG).
///
/// Bit-identity with the unfused loop: row products go through
/// la::MultiplyRowsInto, the CSR products through spmm_rows, dot-form
/// products through the dispatched dot, the trace partials on
/// la::Sandwich's chunk grid, and each element-wise step keeps the
/// unfused loop's expression. Every output element's arithmetic is
/// therefore the same whatever the row tiling and pool size.
class FusedIteration {
 public:
  /// `lap_values` are the values walked on `laplacian`'s pattern: its own,
  /// or a Laplacian hook's rewritable copy of them.
  FusedIteration(const la::SparseMatrix& r,
                 const std::vector<double>& r_norm_sq,
                 const la::SparseMatrix& laplacian,
                 const std::vector<double>& lap_values,
                 const fact::BlockStructure& blocks, const RhchmeOptions& opts)
      : r_(r),
        r_norm_sq_(r_norm_sq),
        lap_(laplacian),
        lap_values_(lap_values),
        blocks_(blocks),
        opts_(opts),
        n_(blocks.total_objects()),
        c_(blocks.total_clusters()),
        robust_(opts.use_error_matrix),
        manifold_(opts.lambda != 0.0) {
    for (la::Matrix* m : {&g_next_, &k_, &h_, &hg_, &mtg_}) m->Resize(n_, c_);
    upd_.Resize(n_, c_);
    gt_.Resize(c_, n_);
    ht_.Resize(c_, n_);
    gtg_.Resize(c_, c_);
    gtmg_.Resize(c_, c_);
    hts_.Resize(c_, c_);
    row_norm_.assign(n_, 0.0);
    if (robust_) {
      mg_.Resize(n_, c_);
      gs_.Resize(n_, c_);
      er_next_.assign(n_, 0.0);
    }
    const std::size_t r_row = n_ > 0 ? r.nnz() / n_ + 1 : 1;
    const std::size_t l_row = n_ > 0 ? laplacian.nnz() / n_ + 1 : 1;
    // Whole GEMM panels per update chunk: the pass multiplies rows it has
    // just produced (Mᵀ·G, the new G), and the products probe whole panels.
    update_grain_ = RoundUp(util::GrainForWork(2 * r_row * c_ + 12 * c_ * c_),
                            la::kGemmRowPanel);
    state_grain_ = util::GrainForWork(
        2 * r_row * c_ + (manifold_ ? 4 * l_row * c_ : 0) + 2 * c_ * c_);
    if (manifold_) {
      trace_grain_ = la::SandwichChunkRows(laplacian, c_);
      state_grain_ = RoundUp(state_grain_, trace_grain_);
      lg_neg_.Resize(n_, c_);
      lg_pos_.Resize(n_, c_);
      trace_partial_.assign((n_ + trace_grain_ - 1) / trace_grain_, 0.0);
    }
    // One chunk per product: every chunk of a product would repeat its
    // density probes and B packing over all n rows, which cost about as
    // much as the product itself at small c.
    cross_grain_ = c_;
    gram_grain_ = util::GrainForWork(n_ * (c_ / 2 + 1));
  }

  const la::Matrix& gtg() const { return gtg_; }
  const la::Matrix& gtmg() const { return gtmg_; }
  const std::vector<double>& row_norm() const { return row_norm_; }
  const std::vector<double>& er_next() const { return er_next_; }

  /// tr(Gᵀ·L·G) of the G the last StatePass ran on: the chunk partials
  /// added in chunk order, as la::Sandwich does.
  double Smooth() const {
    double total = 0.0;
    for (double v : trace_partial_) total += v;
    return total;
  }

  /// Rebuilds the derived state from an accepted iterate: the fresh or
  /// resumed start, and the divergence guard's rollback. `s` is read only
  /// when `have_error`; the E_R scales are kept as given.
  void Rebuild(const la::Matrix& g, const la::Matrix& s,
               const std::vector<double>& er_scale, bool have_error) {
    TransposeRows(g, 0, n_, &gt_);
    Gram();
    if (have_error) {
      la::MultiplyInto(g, s, &h_);
      TransposeRows(h_, 0, n_, &ht_);
    }
    StatePass(g, er_scale, have_error, /*update=*/false, /*poison=*/false);
  }

  /// One region for the c x c reductions over n of Eq. 18 and Mᵀ·G:
  /// GᵀMG, and Hᵀ·diag(s)·G when M carries an E_R (`robust_m`) — each
  /// la::MultiplyTN's product, on the kept transposes, in its own chunk.
  void CrossProducts(bool robust_m) {
    const la::Matrix& m_g = robust_m ? mg_ : k_;
    const std::size_t products = robust_m ? 2 : 1;
    util::ParallelFor(
        0, products * c_, cross_grain_, [&](std::size_t b, std::size_t e) {
          const std::size_t b0 = std::min(b, c_), e0 = std::min(e, c_);
          if (b0 < e0) la::MultiplyRowsInto(gt_, m_g, &gtmg_, b0, e0);
          if (e > c_) {
            la::MultiplyRowsInto(ht_, gs_, &hts_, std::max(b, c_) - c_,
                                 e - c_);
          }
        });
  }

  /// Steps 4–5 of Algorithm 2 in one pass over row chunks: Mᵀ·G (the
  /// iteration's first SpMM, R·(diag(s)·G), when `robust_m`), the Eq. 21
  /// update of `g` with the new `s` into the second G buffer, the NaN
  /// tripwire probe, Eq. 22, H = G·S and the transposes of the new G and H.
  /// A tripped wire replays the update unnormalised over the whole matrix
  /// and sanitises it the way the tripwire always has.
  void Update(const la::Matrix& g, const la::Matrix& s, bool robust_m,
              bool poison, FitDiagnostics* diag) {
    fact::GUpdateGramTerms(s, gtg_, &b_pos_, &b_neg_);
    fact::GUpdateOperands op;
    op.mg = robust_m ? &mg_ : &k_;
    op.mtg = robust_m ? &mtg_ : &k_;
    op.s = &s;
    op.b_pos = &b_pos_;
    op.b_neg = &b_neg_;
    op.lg_neg = manifold_ ? &lg_neg_ : nullptr;
    op.lg_pos = manifold_ ? &lg_pos_ : nullptr;
    op.eps = opts_.mu_eps;
    std::atomic<bool> nonfinite{false};
    util::ParallelFor(0, n_, update_grain_, [&](std::size_t r0,
                                                std::size_t r1) {
      if (robust_m) {
        // Mᵀ·G = K − R·(diag(s)·G) + G·(Hᵀ·diag(s)·G): R is symmetric, so
        // Rᵀ·diag(s)·G is a forward SpMM.
        r_.MultiplyDenseRows(gs_, r0, r1, &mtg_);
        la::MultiplyRowsInto(g, hts_, &upd_.a, r0, r1);
        for (std::size_t i = r0; i < r1; ++i) {
          const double* ki = k_.row_ptr(i);
          const double* ti = upd_.a.row_ptr(i);
          double* mi = mtg_.row_ptr(i);
          for (std::size_t j = 0; j < c_; ++j) mi[j] = (ki[j] - mi[j]) + ti[j];
        }
      }
      fact::GUpdateRows(op, g, r0, r1, &upd_, &g_next_);
      if (poison && r0 == 0) {
        g_next_(0, 0) = std::numeric_limits<double>::quiet_NaN();
      }
      for (std::size_t i = r0; i < r1; ++i) {
        const double* gi = g_next_.row_ptr(i);
        for (std::size_t j = 0; j < c_; ++j) {
          if (!std::isfinite(gi[j])) nonfinite.store(true);
        }
      }
      if (opts_.normalize_rows) NormalizeRows(r0, r1);
      la::MultiplyRowsInto(g_next_, s, &h_, r0, r1);
      TransposeRows(g_next_, r0, r1, &gt_);
      TransposeRows(h_, r0, r1, &ht_);
    });
    if (!nonfinite.load()) return;
    // NaN tripwire: a poisoned or overflowed update must not propagate
    // into the next iteration. Bad entries are zeroed and the rows
    // renormalised — an all-zero row becomes uniform over its block, a
    // valid membership — BEFORE Eq. 22, whose zero-row uniform fallback
    // would otherwise absorb a NaN row and hide the recovery. The replay
    // reads only inputs the pass left intact (G, Mᵀ·G, M·G, the c x c
    // terms).
    util::ParallelFor(0, n_, update_grain_,
                      [&](std::size_t r0, std::size_t r1) {
                        fact::GUpdateRows(op, g, r0, r1, &upd_, &g_next_);
                      });
    if (poison) g_next_(0, 0) = std::numeric_limits<double>::quiet_NaN();
    ++diag->nan_guard_trips;
    diag->nonfinite_g_entries += g_next_.ReplaceNonFinite(0.0);
    fact::NormalizeMembershipRows(blocks_, &g_next_);
    if (opts_.normalize_rows) fact::NormalizeMembershipRows(blocks_, &g_next_);
    la::MultiplyInto(g_next_, s, &h_);
    TransposeRows(g_next_, 0, n_, &gt_);
    TransposeRows(h_, 0, n_, &ht_);
  }

  /// GᵀG of the G whose transpose is in the workspace, in one region:
  /// each index owns an upper-triangle row and its mirror, each entry the
  /// dispatched dot of two columns (as la::Gram).
  void Gram() {
    const la::simd::KernelTable& kt = la::simd::Table();
    util::ParallelFor(0, c_, gram_grain_, [&](std::size_t r0,
                                              std::size_t r1) {
      for (std::size_t i = r0; i < r1; ++i) {
        double* gi = gtg_.row_ptr(i);
        kt.dot_rows(gt_.row_ptr(i), gt_.row_ptr(i), gt_.stride(), nullptr,
                    c_ - i, n_, gi + i);
        for (std::size_t j = i + 1; j < c_; ++j) gtg_(j, i) = gi[j];
      }
    });
  }

  /// Steps 6–7 on the update's output (needs Update and Gram first): the
  /// iteration's second SpMM K = R·G, one walk over the Laplacian's CSR
  /// rows for lambda·L∓·G and the tr(GᵀLG) partials, HG, the residual row
  /// norms and E_R scales into the second scale buffer, and — for the
  /// next iteration — diag(s)·G and M·G.
  void StateAfterUpdate(bool poison_residual) {
    StatePass(g_next_, er_next_, /*have_h=*/true, /*update=*/true,
              poison_residual);
  }

  /// lambda·L∓·G of the accepted `g` again, after a Laplacian hook
  /// rewrote L's values.
  void RewalkLaplacian(const la::Matrix& g) {
    if (!manifold_) return;
    util::ParallelFor(0, n_, state_grain_, [&](std::size_t r0,
                                               std::size_t r1) {
      LaplacianProducts(g, r0, r1);
    });
  }

  /// Makes the update's output the accepted iterate: swaps G buffers and
  /// (robust term) E_R scale buffers. The derived state already belongs to
  /// it.
  void Accept(la::Matrix* g, std::vector<double>* er_scale) {
    std::swap(*g, g_next_);
    if (robust_) er_scale->swap(er_next_);
  }

 private:
  /// Eq. 22 on rows [r0, r1) of the new G, each within its type's block.
  void NormalizeRows(std::size_t r0, std::size_t r1) {
    for (std::size_t t = 0; t < blocks_.num_types(); ++t) {
      const std::size_t lo = std::max(r0, blocks_.type_offset[t]);
      const std::size_t hi = std::min(r1, blocks_.type_offset[t + 1]);
      for (std::size_t i = lo; i < hi; ++i) {
        fact::NormalizeMembershipRow(blocks_.cluster_offset[t],
                                     blocks_.cluster_offset[t + 1],
                                     g_next_.row_ptr(i));
      }
    }
  }

  /// Laplacian rows [r0, r1) against G: lambda·L⁻·G and lambda·L⁺·G
  /// (spmm_sign_rows — spmm_rows on the ± parts without building them —
  /// then scaled).
  void LaplacianProducts(const la::Matrix& g, std::size_t r0, std::size_t r1) {
    const la::simd::KernelTable& kt = la::simd::Table();
    kt.spmm_sign_rows(lap_.row_offsets().data(), lap_.col_indices().data(),
                      lap_values_.data(), r0, r1, g.row_ptr(0), g.stride(),
                      c_, lg_neg_.row_ptr(0), lg_pos_.row_ptr(0),
                      lg_neg_.stride());
    for (std::size_t i = r0; i < r1; ++i) {
      kt.scale(lg_neg_.row_ptr(i), opts_.lambda, c_);
      kt.scale(lg_pos_.row_ptr(i), opts_.lambda, c_);
    }
  }

  /// LaplacianProducts plus the Sandwich chunk partial Σ l_ik·(g_i·g_k)
  /// of rows [r0, r1), its dots batched through dot_rows.
  double LaplacianRows(const la::Matrix& g, std::size_t r0, std::size_t r1) {
    const la::simd::KernelTable& kt = la::simd::Table();
    const std::vector<std::size_t>& offsets = lap_.row_offsets();
    const std::vector<std::size_t>& cols = lap_.col_indices();
    const std::vector<double>& vals = lap_values_;
    constexpr std::size_t kBatch = 64;
    double dots[kBatch];
    double acc = 0.0;
    for (std::size_t i = r0; i < r1; ++i) {
      for (std::size_t k0 = offsets[i]; k0 < offsets[i + 1]; k0 += kBatch) {
        const std::size_t len = std::min(kBatch, offsets[i + 1] - k0);
        kt.dot_rows(g.row_ptr(i), g.row_ptr(0), g.stride(), cols.data() + k0,
                    len, c_, dots);
        for (std::size_t t = 0; t < len; ++t) acc += vals[k0 + t] * dots[t];
      }
    }
    LaplacianProducts(g, r0, r1);
    return acc;
  }

  /// The row pass behind Rebuild and StateAfterUpdate, on G = `g` with
  /// E_R scales `er`. `have_h`: H holds G·S (an E_R exists), so HG and —
  /// with the robust term — diag(s)·G and M·G are formed. `update`: also
  /// computes the residual norms and the new scales into `er` (which is
  /// then er_next_), poisoning row 0's norm when `poison`.
  void StatePass(const la::Matrix& g, const std::vector<double>& er,
                 bool have_h, bool update, bool poison) {
    util::ParallelFor(0, n_, state_grain_, [&](std::size_t r0,
                                               std::size_t r1) {
      r_.MultiplyDenseRows(g, r0, r1, &k_);
      if (manifold_) {
        // Chunk starts are multiples of trace_grain_ even when the inline
        // path fuses chunks, so each partial lands in its Sandwich slot.
        for (std::size_t cb = r0; cb < r1; cb += trace_grain_) {
          trace_partial_[cb / trace_grain_] =
              LaplacianRows(g, cb, std::min(r1, cb + trace_grain_));
        }
      }
      if (!have_h) return;
      la::MultiplyRowsInto(h_, gtg_, &hg_, r0, r1);
      for (std::size_t i = r0; i < r1; ++i) {
        const double* ki = k_.row_ptr(i);
        const double* hgi = hg_.row_ptr(i);
        if (update) {
          double norm =
              ResidualRowNorm(r_norm_sq_[i], h_.row_ptr(i), ki, hgi, c_);
          if (poison && i == 0) norm = std::numeric_limits<double>::quiet_NaN();
          row_norm_[i] = norm;
          if (robust_) {
            er_next_[i] = ErrorScale(norm, opts_.beta, opts_.l21_zeta);
          }
        }
        if (!robust_) continue;
        // mg_i = k_i − s_i·(k_i − hg_i): the E_R fold of M·G.
        const double si = er[i];
        const double* gi = g.row_ptr(i);
        double* gsi = gs_.row_ptr(i);
        double* mi = mg_.row_ptr(i);
        for (std::size_t j = 0; j < c_; ++j) {
          gsi[j] = si * gi[j];
          mi[j] = ki[j] - si * (ki[j] - hgi[j]);
        }
      }
    });
  }

  const la::SparseMatrix& r_;
  const std::vector<double>& r_norm_sq_;
  const la::SparseMatrix& lap_;  // the pattern; values from lap_values_
  const std::vector<double>& lap_values_;
  const fact::BlockStructure& blocks_;
  const RhchmeOptions& opts_;
  const std::size_t n_, c_;
  const bool robust_, manifold_;
  std::size_t update_grain_ = 1, state_grain_ = 1, trace_grain_ = 1;
  std::size_t cross_grain_ = 1, gram_grain_ = 1;

  la::Matrix g_next_;           // the update's output (second G buffer)
  la::Matrix k_, h_, hg_;       // R·G, G·S, H·(GᵀG)
  la::Matrix mg_, gs_, mtg_;    // M·G, diag(s)·G, Mᵀ·G
  la::Matrix lg_neg_, lg_pos_;  // lambda·L⁻·G, lambda·L⁺·G
  la::Matrix gt_, ht_;          // Gᵀ, Hᵀ (c x n)
  la::Matrix gtg_, gtmg_, hts_, b_pos_, b_neg_;  // c x c
  fact::GUpdateScratch upd_;
  std::vector<double> row_norm_, er_next_, trace_partial_;
};

}  // namespace

la::Matrix ErrorMatrix(const data::MultiTypeRelationalData& data,
                       const RhchmeResult& fit) {
  if (fit.error_scale.empty()) return la::Matrix();
  const la::Matrix& g = fit.hocc.g;
  la::SparseMatrix r = data.BuildJointRSparse();
  r.ReplaceNonFinite(0.0);  // The fit's input sanitisation.
  RHCHME_CHECK(r.rows() == g.rows() && fit.error_scale.size() == g.rows(),
               "ErrorMatrix: data does not match the fit");
  la::Matrix q = la::MultiplyNT(la::Multiply(g, fit.hocc.s), g);  // G S Gᵀ
  q.Scale(-1.0);
  const std::vector<std::size_t>& offsets = r.row_offsets();
  const std::vector<std::size_t>& cols = r.col_indices();
  const std::vector<double>& vals = r.values();
  util::ParallelFor(0, q.rows(), util::GrainForWork(2 * q.cols() + 1),
                    [&](std::size_t r0, std::size_t r1) {
                      for (std::size_t i = r0; i < r1; ++i) {
                        double* qi = q.row_ptr(i);
                        for (std::size_t k = offsets[i]; k < offsets[i + 1];
                             ++k) {
                          qi[cols[k]] += vals[k];
                        }
                        const double s = fit.error_scale[i];
                        for (std::size_t j = 0; j < q.cols(); ++j) {
                          qi[j] *= s;
                        }
                      }
                    });
  return q;
}

double RhchmeObjective(const la::SparseMatrix& r, const la::Matrix& g,
                       const la::Matrix& s,
                       const std::vector<double>& error_scale,
                       const la::SparseMatrix& laplacian, double lambda,
                       double beta) {
  const std::size_t n = g.rows();
  RHCHME_CHECK(r.rows() == n && r.cols() == n,
               "RhchmeObjective: R shape mismatch");
  RHCHME_CHECK(error_scale.empty() || error_scale.size() == n,
               "RhchmeObjective: error_scale size mismatch");
  la::Matrix h = la::Multiply(g, s);
  la::Matrix k = r.MultiplyDense(g);
  la::Matrix hg = la::Multiply(h, la::Gram(g));
  std::vector<double> row_norm;
  ResidualRowNorms(r.RowNormsSquared(), h, k, hg, &row_norm);
  const double smooth = lambda != 0.0 ? la::Sandwich(g, laplacian) : 0.0;
  return AnalyticDataTerms(row_norm, error_scale, beta) + lambda * smooth;
}

Result<RhchmeResult> Rhchme::Fit(
    const data::MultiTypeRelationalData& data) const {
  RHCHME_RETURN_IF_ERROR(opts_.Validate());
  RHCHME_RETURN_IF_ERROR(data.Validate());
  const fact::BlockStructure blocks = fact::BuildBlockStructure(data);
  Result<HeterogeneousEnsemble> ensemble =
      BuildEnsemble(data, blocks, opts_.ensemble);
  if (!ensemble.ok()) return ensemble.status();
  return FitWithEnsemble(data, ensemble.value());
}

Result<RhchmeResult> Rhchme::FitWithEnsemble(
    const data::MultiTypeRelationalData& data,
    const HeterogeneousEnsemble& ensemble) const {
  RHCHME_RETURN_IF_ERROR(opts_.Validate());
  RHCHME_RETURN_IF_ERROR(data.Validate());

  const fact::BlockStructure blocks = fact::BuildBlockStructure(data);
  if (ensemble.laplacian.rows() != blocks.total_objects()) {
    return Status::InvalidArgument("ensemble Laplacian size mismatch");
  }

  // An allocation failure anywhere in the fit — the joint R, the n x c
  // state, any kernel temporary — surfaces as a clean Status instead of
  // an abort: the fit entry point is a recovery seam, not a crash seam.
  try {
    return FitCsr(data, ensemble, blocks);
  } catch (const std::bad_alloc&) {
    return Status::Internal("allocation failure during fit (out of memory)");
  }
}

Result<RhchmeResult> Rhchme::FitCsr(const data::MultiTypeRelationalData& data,
                                    const HeterogeneousEnsemble& ensemble,
                                    const fact::BlockStructure& blocks) const {
  Stopwatch watch;
  const std::size_t n = blocks.total_objects();
  const std::size_t c = blocks.total_clusters();
  const bool robust = opts_.use_error_matrix;

  RhchmeResult out;
  out.ensemble = ensemble;
  fact::HoccResult& res = out.hocc;
  res.objective_trace.reserve(opts_.max_iterations);
  FitDiagnostics& diag = out.diagnostics;

  // Step 1 of Algorithm 2: the joint R in CSR form, symmetric by
  // construction. Non-finite stored entries (kNonFinite row corruption,
  // bad upstream data) are zeroed and counted before anything derives
  // from them; the row norms ‖r_i‖² anchor the analytic residual norms
  // all fit long.
  if (util::FaultShouldFail(util::fault_site::kAllocJointR)) {
    throw std::bad_alloc();
  }
  la::SparseMatrix r = data.BuildJointRSparse();
  diag.nonfinite_input_entries += r.ReplaceNonFinite(0.0);
  const std::vector<double> r_norm_sq = r.RowNormsSquared();

  // The accepted iterate. E_R stays doubly implicit: per-row scales s_i
  // with E_R = diag(s)·(R − H·Gᵀ) — neither the error matrix nor the
  // residual is ever formed.
  la::Matrix g, s;
  std::vector<double> er_scale(robust ? n : 0, 0.0);
  bool have_error = false;  // True once the first E_R update has run.

  Rng rng(opts_.seed);
  const uint64_t fingerprint = OptionsFingerprint(opts_, n, c);
  double prev_objective = std::numeric_limits<double>::infinity();
  int start_t = 1;

  // ---- Resume (or fresh initialisation) ---------------------------------
  if (opts_.resume) {
    SolverSnapshot snap;
    bool resumed = false;
    RHCHME_RETURN_IF_ERROR(TryLoadResume(opts_.checkpoint_path, fingerprint,
                                         n, c, er_scale.size(), &snap,
                                         &resumed));
    if (resumed) {
      g = std::move(snap.g);
      s = std::move(snap.s);
      er_scale = std::move(snap.er_scale);
      have_error = snap.have_error;
      prev_objective = snap.prev_objective;
      res.objective_trace = std::move(snap.objective_trace);
      rng.RestoreState(snap.rng_state);
      diag = snap.diagnostics;  // Counters resume too (incl. input count).
      diag.resumed_from_iteration = snap.iteration;
      res.iterations = snap.iteration;
      start_t = snap.iteration + 1;
    }
  }
  if (start_t == 1) {
    // Initialise G (k-means by default) and E_R = 0.
    Result<la::Matrix> init =
        fact::InitMembership(data, blocks, opts_.init, &rng);
    if (!init.ok()) return init.status();
    g = std::move(init).value();
    // Init tripwire: a poisoned initial membership is cleaned like a
    // poisoned update — zeroed rows become uniform over their block.
    if (!g.AllFinite()) {
      ++diag.nan_guard_trips;
      diag.nonfinite_g_entries += g.ReplaceNonFinite(0.0);
      fact::NormalizeMembershipRows(blocks, &g);
    }
  }
  if (util::FaultShouldFail(util::fault_site::kAllocWorkspace)) {
    throw std::bad_alloc();
  }
  // A Laplacian hook rewrites values on the ensemble's fixed pattern, so
  // the fit walks its own copy of them; without one it reads L in place.
  std::vector<double> hooked_values;
  if (laplacian_hook_) hooked_values = ensemble.laplacian.values();
  // The whole iteration workspace, allocated once. Resume and rollback
  // rebuild its derived state from the accepted iterate with the passes'
  // own kernels, so they continue bit-identically with an uninterrupted
  // fit.
  FusedIteration it(r, r_norm_sq, ensemble.laplacian,
                    laplacian_hook_ ? hooked_values
                                    : ensemble.laplacian.values(),
                    blocks, opts_);
  it.Rebuild(g, s, er_scale, have_error);

  // Periodic snapshot after an accepted iteration t; failures count and
  // the fit keeps going (the previous snapshot file stays intact).
  auto write_checkpoint = [&](int t) {
    if (opts_.checkpoint_every <= 0 || t % opts_.checkpoint_every != 0) return;
    SolverSnapshot snap;
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
    const Status st = SaveSolverSnapshot(opts_.checkpoint_path, snap);
    if (st.ok()) {
      ++diag.snapshots_written;
    } else {
      ++diag.snapshot_failures;
    }
  };

  int consecutive_backtracks = 0;
  fact::SolveStats solve_stats;

  for (int t = start_t; t <= opts_.max_iterations; ++t) {
    // E_R = 0 (first iteration, or robust term disabled): M = R, and since
    // R is symmetric both M·G and Mᵀ·G are exactly the cached K.
    const bool robust_m = robust && have_error;

    if (laplacian_hook_) {
      laplacian_hook_(t, g, &hooked_values);
      if (hooked_values.size() != ensemble.laplacian.nnz()) {
        return Status::InvalidArgument(
            "Laplacian hook changed the number of values");
      }
      it.RewalkLaplacian(g);
    }

    // ---- Step 3: S update (Eq. 18) from the c x c products --------------
    it.CrossProducts(robust_m);
    Result<la::Matrix> s_new = fact::SolveCentralSFromProducts(
        it.gtg(), it.gtmg(), opts_.ridge, &solve_stats);
    diag.solve_ridge_retries += solve_stats.ridge_retries;
    solve_stats.ridge_retries = 0;
    if (!s_new.ok()) {
      // The ridge ladder inside the solve already retried, so the failure
      // is persistent. With no accepted iterate there is nothing to fall
      // back to; otherwise keep the last accepted iterate, stop degraded.
      if (res.objective_trace.empty()) return s_new.status();
      ++diag.degraded_stops;
      break;
    }
    la::Matrix s_next = std::move(s_new).value();

    // ---- Steps 4–5: G update (Eq. 21), tripwire, Eq. 22, H = G·S --------
    const bool poison_g =
        util::FaultShouldFail(util::fault_site::kGUpdatePoison) && !g.empty();
    it.Update(g, s_next, robust_m, poison_g, &diag);
    it.Gram();

    // ---- Steps 6–7: E_R update (Eq. 25–27) and objective ----------------
    it.StateAfterUpdate(
        util::FaultShouldFail(util::fault_site::kResidualPoison) && n > 0);
    const double smooth = opts_.lambda != 0.0 ? it.Smooth() : 0.0;
    double objective = AnalyticDataTerms(it.row_norm(), it.er_next(),
                                         opts_.beta) +
                       opts_.lambda * smooth;
    if (util::FaultShouldFail(util::fault_site::kObjectivePoison)) {
      objective = std::numeric_limits<double>::quiet_NaN();
    }

    // ---- Divergence guard -----------------------------------------------
    // A non-finite or blown-up objective never lands in the trace. The
    // iteration is rolled back and replayed (a one-shot fault vanishes on
    // the deterministic replay); a persistent blow-up stops the fit on the
    // last accepted iterate.
    if (ObjectiveLooksBad(objective, prev_objective)) {
      if (consecutive_backtracks < kMaxConsecutiveBacktracks) {
        ++consecutive_backtracks;
        ++diag.backtracks;
        it.Rebuild(g, s, er_scale, have_error);
        --t;  // Replay this iteration from the accepted state.
        continue;
      }
      if (res.objective_trace.empty()) {
        return Status::NumericalError(
            "objective non-finite at the first iteration");
      }
      ++diag.degraded_stops;
      break;
    }
    consecutive_backtracks = 0;
    it.Accept(&g, &er_scale);
    s = std::move(s_next);
    if (robust) have_error = true;

    res.objective_trace.push_back(objective);
    res.iterations = t;
    if (callback_) callback_(t, g);

    const double rel = std::fabs(prev_objective - objective) /
                       std::max(1.0, std::fabs(prev_objective));
    if (std::isfinite(prev_objective) && rel < opts_.tolerance) {
      res.converged = true;
      break;
    }
    prev_objective = objective;
    write_checkpoint(t);
  }

  res.g = std::move(g);
  res.s = std::move(s);
  res.labels = fact::ExtractLabels(blocks, res.g);
  res.seconds = watch.ElapsedSeconds();
  out.error_scale = std::move(er_scale);
  return out;
}

}  // namespace core
}  // namespace rhchme
