#include "core/subspace.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "la/gemm.h"
#include "la/simd.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace rhchme {
namespace core {

Status SpgOptions::Validate() const {
  if (max_iterations <= 0) {
    return Status::InvalidArgument("SPG needs max_iterations >= 1");
  }
  // Comparisons are negated so that NaN fails them.
  if (!(tolerance > 0.0)) {
    return Status::InvalidArgument("SPG tolerance must be positive");
  }
  if (!(step_min > 0.0) || !(step_max > step_min)) {
    return Status::InvalidArgument("SPG step clamp invalid");
  }
  return Status::OK();
}

Status SubspaceOptions::Validate() const {
  // Comparisons are negated so that NaN fails them.
  if (!(gamma > 0.0)) {
    return Status::InvalidArgument("subspace gamma must be positive");
  }
  if (!(affine_penalty >= 0.0)) {
    return Status::InvalidArgument("affine_penalty must be nonnegative");
  }
  if (!(prune_rel_tol >= 0.0)) {
    return Status::InvalidArgument("prune_rel_tol must be nonnegative");
  }
  return spg.Validate();
}

void ProjectFeasible(la::Matrix* w) {
  w->ClampNonNegative();
  const std::size_t n = std::min(w->rows(), w->cols());
  for (std::size_t i = 0; i < n; ++i) (*w)(i, i) = 0.0;
}

std::size_t SpgRowChunks(std::size_t n) {
  const std::size_t grain = util::GrainForWork(n);
  return (n + grain - 1) / grain;
}

double SubspaceObjective(const la::Matrix& w, const la::Matrix& gram,
                         double gamma) {
  // gamma * tr((I-W) Q (I-W)ᵀ) + ||1ᵀW||².
  const la::Matrix wq = la::Multiply(w, gram);
  double tr_wq = 0.0;
  for (std::size_t i = 0; i < w.rows(); ++i) tr_wq += wq(i, i);
  double sparsity = 0.0;
  for (double cs : w.ColSums()) sparsity += cs * cs;
  return gamma * (gram.Trace() - 2.0 * tr_wq + la::FrobeniusInner(wq, w)) +
         sparsity;
}

namespace {

/// Runs fn(chunk, r0, r1) over the GrainForWork(n)-row chunks of [0, n).
/// The layout depends on n only and chunk starts stay grain-aligned when
/// the inline path fuses a range, so per-chunk partials merged in chunk
/// order are bit-identical for any pool size (pattern (c) in
/// util/parallel.h).
template <typename Fn>
void ForEachRowChunk(std::size_t n, const Fn& fn) {
  const std::size_t grain = util::GrainForWork(n);
  util::ParallelFor(0, n, grain, [&](std::size_t b, std::size_t e) {
    for (std::size_t r0 = b; r0 < e; r0 += grain) {
      fn(r0 / grain, r0, std::min(e, r0 + grain));
    }
  });
}

/// Entry (i, j) of the gradient 2γ(W·Q − Q) + 2·1·(1ᵀW) + 2η(W·1 − 1)·1ᵀ
/// from W·Q(i,j), Q(i,j), the column sum j of W and the row's affine term
/// 2η(rs_i − 1). One expression everywhere, so a recomputed entry has the
/// bits of the stored one.
double GradientEntry(double two_gamma, double wq, double q, double cs,
                     double affine) {
  return two_gamma * (wq - q) + (2.0 * cs + affine);
}

/// The SPG iterate of Algorithm 1 and its fixed workspace: W, W·Q, the
/// projected direction d as per-row compacted nonzeros, and d·Q next to
/// the caller's Q, plus the row and column sums of W and d. Nothing n×n
/// is allocated after construction. A step is pass A (Direction), the
/// d·Q product with pass B (LineSearch), and pass C (Advance); W·Q is
/// carried forward as W·Q += t·d·Q, since W_new = W + t·d. The gradient
/// is never stored: each pass recomputes the entries it needs with
/// GradientEntry.
///
/// J₂ is γ(tr Q − 2 tr(W·Q) + <W·Q, W>) + ||1ᵀW||² + η||W·1 − 1||².
///
/// d is ≥ 97% exact zeros after about ten steps, so per-step work other
/// than W·Q's update and ⟨W·Q, W⟩ follows d's nonzeros. Every sum keeps
/// the term order of the dense passes (tests/reference_spg.h), and a
/// skipped term is an exact zero, so W and the objective trace are
/// bit-identical to them.
class SpgState {
 public:
  SpgState(const la::Matrix& gram, la::Matrix w, double gamma, double eta)
      : n_(gram.rows()),
        q_(gram),
        two_gamma_(2.0 * gamma),
        gamma_(gamma),
        eta_(eta),
        tr_q_(gram.Trace()),
        kt_(la::simd::Table()),
        w_(std::move(w)),
        wq_(la::Multiply(w_, q_)),
        d_(n_, n_),
        dq_(n_, n_),
        idx_(n_ * n_),
        nnz_(n_, 0),
        cs_w_(w_.ColSums()),
        rs_w_(w_.RowSums()),
        cs_prev_(n_, 0.0),
        rs_prev_(n_, 0.0),
        cs_d_(n_, 0.0),
        rs_d_(n_, 0.0),
        row_terms_(n_, kRowTerms),
        scratch_(SpgRowChunks(n_), n_),
        col_partial_(SpgRowChunks(n_), n_),
        partial_(SpgRowChunks(n_), kSlots) {
    // The column indices of d take the place of the dense gradient of the
    // dense passes: same bytes, so memstats counts them like that matrix.
    la::memstats::internal::NoteAlloc(n_ * n_);
  }

  /// Pass A: writes the nonzeros of the projected direction
  /// d = P(W − step·grad) − W with its row and column sums, and returns
  /// the stationarity measure ||P(W − grad) − W||_∞.
  double Direction(double step) {
    ForEachRowChunk(n_, [&](std::size_t c, std::size_t r0, std::size_t r1) {
      double* cs = col_partial_.row_ptr(c);
      std::fill(cs, cs + n_, 0.0);
      double* d = scratch_.row_ptr(c);
      // A running max in registers, skipping NaN like the dense pass.
      double probe = 0.0;
      for (std::size_t i = r0; i < r1; ++i) {
        const double* w = w_.row_ptr(i);
        const double* wq = wq_.row_ptr(i);
        const double* q = q_.row_ptr(i);
        const double affine = Affine(rs_w_[i]);
        // P's zero diagonal is set between the two halves of the row.
        auto half = [&](std::size_t j0, std::size_t j1) {
          for (std::size_t j = j0; j < j1; ++j) {
            const double g =
                GradientEntry(two_gamma_, wq[j], q[j], cs_w_[j], affine);
            const double p = w[j] - g;
            const double r = std::fabs((p < 0.0 ? 0.0 : p) - w[j]);
            probe = r > probe ? r : probe;
            const double v = w[j] + -step * g;
            d[j] = (v < 0.0 ? 0.0 : v) - w[j];
          }
        };
        half(0, i);
        const double r = std::fabs(0.0 - w[i]);
        probe = r > probe ? r : probe;
        d[i] = 0.0 - w[i];
        half(i + 1, n_);
        // Compact the nonzeros to the front of d_'s row; the store always
        // lands at or before j.
        double* vals = d_.row_ptr(i);
        std::size_t* idx = RowIdx(i);
        std::size_t count = 0;
        for (std::size_t j = 0; j < n_; ++j) {
          vals[count] = d[j];
          idx[count] = j;
          count += (d[j] != 0.0);
        }
        nnz_[i] = count;
        double rs = 0.0;
        for (std::size_t k = 0; k < count; ++k) {
          rs += vals[k];
          cs[idx[k]] += vals[k];
        }
        rs_d_[i] = rs;
      }
      partial_(c, 0) = probe;
    });
    std::fill(cs_d_.begin(), cs_d_.end(), 0.0);
    double probe = 0.0;
    for (std::size_t c = 0; c < partial_.rows(); ++c) {
      const double* cs = col_partial_.row_ptr(c);
      for (std::size_t j = 0; j < n_; ++j) cs_d_[j] += cs[j];
      probe = std::max(probe, partial_(c, 0));
    }
    return probe;
  }

  /// d·Q with the row terms of pass B, then the step. J₂ is a convex
  /// quadratic, so the line objective
  ///   f(W + t·d) = f(W) + b·t + a·t²
  /// is exact; its clamped minimiser replaces the Armijo search of
  /// Algorithm 1 and guarantees monotone descent. Returns that t.
  ///
  /// The product runs per 32-row panel of the product kernels' grid. A
  /// panel whose every (panel × kGemmBlockK) tile la::MostlyZero calls
  /// sparse is exactly what la::MultiplyInto sends down its zero-skipping
  /// path, whose terms are spmm_rows' (one unfused multiply-add per
  /// nonzero, in ascending order); it runs spmm_rows on the compacted
  /// rows. Any other panel is expanded to dense rows in place for
  /// la::MultiplyRowsInto and compacted again after it.
  double LineSearch() {
    const std::size_t panels =
        (n_ + la::kGemmRowPanel - 1) / la::kGemmRowPanel;
    util::ParallelFor(0, panels, 1, [&](std::size_t p0, std::size_t p1) {
      std::vector<std::size_t> tile_nnz(
          (n_ + la::kGemmBlockK - 1) / la::kGemmBlockK);
      for (std::size_t p = p0; p < p1; ++p) {
        const std::size_t lo = p * la::kGemmRowPanel;
        const std::size_t hi = std::min(n_, lo + la::kGemmRowPanel);
        if (PanelMostlyZero(lo, hi, &tile_nnz)) {
          for (std::size_t i = lo; i < hi; ++i) {
            const std::size_t offsets[2] = {0, nnz_[i]};
            kt_.spmm_rows(offsets, RowIdx(i), d_.row_ptr(i), 0, 1,
                          q_.row_ptr(0), q_.stride(), n_, dq_.row_ptr(i),
                          dq_.stride());
          }
        } else {
          for (std::size_t i = lo; i < hi; ++i) ExpandRow(i);
          la::MultiplyRowsInto(d_, q_, &dq_, lo, hi);
          for (std::size_t i = lo; i < hi; ++i) CompactRow(i);
        }
        for (std::size_t i = lo; i < hi; ++i) {
          const double* dq = dq_.row_ptr(i);
          row_terms_(i, 0) = dq[i];
          row_terms_(i, 1) = kt_.dot(dq, w_.row_ptr(i), n_);
          row_terms_(i, 2) = kt_.dot_sparse(RowIdx(i), d_.row_ptr(i),
                                            nnz_[i], dq, n_);
        }
      }
    });
    const double tr_dq = RowTermSum(0);
    const double fi_dq_w = RowTermSum(1);
    const double fi_dq_d = RowTermSum(2);
    double dot_cs = 0.0, cs_d_sq = 0.0;
    for (std::size_t j = 0; j < n_; ++j) {
      dot_cs += cs_w_[j] * cs_d_[j];
      cs_d_sq += cs_d_[j] * cs_d_[j];
    }
    double b = -2.0 * gamma_ * (tr_dq - fi_dq_w) + 2.0 * dot_cs;
    double a = gamma_ * fi_dq_d + cs_d_sq;
    if (eta_ > 0.0) {
      // Affine term: eta·||(W + t·d)·1 − 1||² adds eta·(2t·<u, v> + t²·|v|²)
      // with u = W·1 − 1, v = d·1.
      double uv = 0.0, vv = 0.0;
      for (std::size_t i = 0; i < n_; ++i) {
        uv += (rs_w_[i] - 1.0) * rs_d_[i];
        vv += rs_d_[i] * rs_d_[i];
      }
      b += 2.0 * eta_ * uv;
      a += eta_ * vv;
    }
    return a > 0.0 ? std::clamp(-b / (2.0 * a), 1e-6, 1.0) : 1.0;
  }

  /// Pass C: takes the step W += t·d (so s = t·d), carries W·Q and the
  /// sums forward and returns the Barzilai–Borwein steplength s·s / s·y
  /// for the next step, with y = grad_new − grad. W, s·s and s·y touch
  /// only d's support; there y is the gradient from the new W·Q and sums
  /// minus the one from the old. Objective() then holds J₂ at the new W.
  double Advance(double t, const SpgOptions& spg) {
    cs_prev_ = cs_w_;
    rs_prev_ = rs_w_;
    for (std::size_t j = 0; j < n_; ++j) cs_w_[j] += t * cs_d_[j];
    for (std::size_t i = 0; i < n_; ++i) rs_w_[i] += t * rs_d_[i];
    ForEachRowChunk(n_, [&](std::size_t c, std::size_t r0, std::size_t r1) {
      // y by column, read only on d's support.
      double* y = scratch_.row_ptr(c);
      double sy = 0.0, ss = 0.0, tr = 0.0, wq_w = 0.0;
      for (std::size_t i = r0; i < r1; ++i) {
        const std::size_t* idx = RowIdx(i);
        const double* d = d_.row_ptr(i);
        const std::size_t count = nnz_[i];
        const double* q = q_.row_ptr(i);
        double* dq = dq_.row_ptr(i);
        double* w = w_.row_ptr(i);
        double* wq = wq_.row_ptr(i);
        const double affine_old = Affine(rs_prev_[i]);
        for (std::size_t k = 0; k < count; ++k) {
          const std::size_t j = idx[k];
          y[j] = GradientEntry(two_gamma_, wq[j], q[j], cs_prev_[j],
                               affine_old);
        }
        kt_.axpy(t, dq, wq, n_);
        // W·Q has absorbed the d·Q row, which now takes d by column.
        const double affine = Affine(rs_w_[i]);
        for (std::size_t k = 0; k < count; ++k) {
          const std::size_t j = idx[k];
          w[j] += t * d[k];
          y[j] = GradientEntry(two_gamma_, wq[j], q[j], cs_w_[j], affine) -
                 y[j];
          dq[j] = d[k];
        }
        sy += t * kt_.dot_sparse(idx, d, count, y, n_);
        ss += t * t * kt_.dot_sparse(idx, d, count, dq, n_);
        tr += wq[i];
        wq_w += kt_.dot(wq, w, n_);
      }
      partial_(c, 0) = sy;
      partial_(c, 1) = ss;
      partial_(c, 2) = tr;
      partial_(c, 3) = wq_w;
    });
    const double sy = ChunkSum(0);
    const double ss = ChunkSum(1);
    double sparsity = 0.0;
    for (double cs : cs_w_) sparsity += cs * cs;
    double affine = 0.0;
    if (eta_ > 0.0) {
      for (double rs : rs_w_) affine += (rs - 1.0) * (rs - 1.0);
    }
    objective_ = gamma_ * (tr_q_ - 2.0 * ChunkSum(2) + ChunkSum(3)) +
                 sparsity + eta_ * affine;
    return sy > 0.0 ? std::clamp(ss / sy, spg.step_min, spg.step_max)
                    : spg.step_max;
  }

  double Objective() const { return objective_; }
  la::Matrix TakeAffinity() { return std::move(w_); }

 private:
  static constexpr std::size_t kSlots = 4;     ///< Scalar partials per chunk.
  static constexpr std::size_t kRowTerms = 3;  ///< dq(i,i), ⟨dq, W⟩, ⟨dq, d⟩.

  /// The gradient's affine term 2η(rs − 1) of a row with W-row sum rs.
  double Affine(double rs) const {
    return eta_ > 0.0 ? 2.0 * eta_ * (rs - 1.0) : 0.0;
  }
  /// Column indices of row i's compacted nonzeros.
  std::size_t* RowIdx(std::size_t i) { return idx_.data() + i * n_; }

  /// True when every (rows [lo, hi) × kGemmBlockK) tile of d is mostly
  /// zero by la::MostlyZero: the predicate GemmPanelNN applies to the
  /// panel, counted from the nonzeros instead of read from dense rows.
  bool PanelMostlyZero(std::size_t lo, std::size_t hi,
                       std::vector<std::size_t>* tile_nnz) {
    std::fill(tile_nnz->begin(), tile_nnz->end(), 0);
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t* idx = RowIdx(i);
      for (std::size_t k = 0; k < nnz_[i]; ++k) {
        ++(*tile_nnz)[idx[k] / la::kGemmBlockK];
      }
    }
    for (std::size_t tile = 0; tile < tile_nnz->size(); ++tile) {
      const std::size_t kb = tile * la::kGemmBlockK;
      const std::size_t klen = std::min(n_, kb + la::kGemmBlockK) - kb;
      const std::size_t total = (hi - lo) * klen;
      if (!la::MostlyZero(total - (*tile_nnz)[tile], total)) return false;
    }
    return true;
  }
  /// Spreads row i's compacted nonzeros over the dense row, in place:
  /// from the back, idx[k] >= k, so every read precedes the write over it.
  void ExpandRow(std::size_t i) {
    double* row = d_.row_ptr(i);
    const std::size_t* idx = RowIdx(i);
    std::size_t k = nnz_[i];
    for (std::size_t j = n_; j-- > 0;) {
      if (k > 0 && idx[k - 1] == j) {
        row[j] = row[--k];
      } else {
        row[j] = 0.0;
      }
    }
  }
  /// Inverse of ExpandRow: from the front, idx[k] >= k again.
  void CompactRow(std::size_t i) {
    double* row = d_.row_ptr(i);
    const std::size_t* idx = RowIdx(i);
    for (std::size_t k = 0; k < nnz_[i]; ++k) row[k] = row[idx[k]];
  }

  /// Slot `slot` of the per-chunk partials, summed in chunk order.
  double ChunkSum(std::size_t slot) const {
    double s = 0.0;
    for (std::size_t c = 0; c < partial_.rows(); ++c) s += partial_(c, slot);
    return s;
  }
  /// Column `term` of the row terms, summed per ForEachRowChunk chunk in
  /// row order and then in chunk order, like a ChunkSum of chunk partials.
  double RowTermSum(std::size_t term) const {
    const std::size_t grain = util::GrainForWork(n_);
    double s = 0.0;
    for (std::size_t r0 = 0; r0 < n_; r0 += grain) {
      double chunk = 0.0;
      for (std::size_t i = r0; i < std::min(n_, r0 + grain); ++i) {
        chunk += row_terms_(i, term);
      }
      s += chunk;
    }
    return s;
  }

  const std::size_t n_;
  const la::Matrix& q_;
  const double two_gamma_;
  const double gamma_;
  const double eta_;
  const double tr_q_;
  const la::simd::KernelTable& kt_;
  /// d_ row i holds d's nonzeros of row i in its first nnz_[i] entries,
  /// with their columns at idx_[i·n, i·n + nnz_[i]).
  la::Matrix w_, wq_, d_, dq_;
  std::vector<std::size_t> idx_, nnz_;
  std::vector<double> cs_w_, rs_w_, cs_prev_, rs_prev_, cs_d_, rs_d_;
  la::Matrix row_terms_;    ///< Per-row terms of pass B (n × kRowTerms).
  la::Matrix scratch_;      ///< One dense row per chunk (chunks × n).
  la::Matrix col_partial_;  ///< Column sums of d per chunk (chunks × n).
  la::Matrix partial_;      ///< Scalar partials per chunk (chunks × kSlots).
  double objective_ = 0.0;
};

/// Gram of the object rows; all reconstruction algebra runs through it,
/// so the ambient dimension D only costs this one product. Normalising
/// the rows scales it by the row norms.
la::Matrix ObjectGram(const la::Matrix& objects, bool normalize_rows) {
  const std::size_t n = objects.rows();
  la::Matrix gram = la::MultiplyNT(objects, objects);
  if (normalize_rows) {
    std::vector<double> inv_norm(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const double d = std::sqrt(gram(i, i));
      inv_norm[i] = d > 0.0 ? 1.0 / d : 0.0;
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        gram(i, j) *= inv_norm[i] * inv_norm[j];
      }
    }
  }
  return gram;
}

}  // namespace

Result<SubspaceResult> LearnSubspaceAffinity(const la::Matrix& objects,
                                             const SubspaceOptions& opts) {
  RHCHME_RETURN_IF_ERROR(opts.Validate());
  const std::size_t n = objects.rows();
  if (n < 2) {
    return Status::InvalidArgument(
        "subspace learning needs at least two objects");
  }

  SubspaceResult out;
  bool converged = false;
  int it = 0;
  la::Matrix w;
  {
    // Q and the SPG workspace are freed before post-processing allocates.
    const la::Matrix gram = ObjectGram(objects, opts.normalize_rows);
    Rng rng(opts.seed);
    la::Matrix w0 = la::Matrix::RandomUniform(n, n, &rng, 0.0,
                                              1.0 / static_cast<double>(n));
    ProjectFeasible(&w0);
    SpgState spg(gram, std::move(w0), opts.gamma, opts.affine_penalty);
    double step = 1.0;  // Initial BB steplength guess.
    for (; it < opts.spg.max_iterations; ++it) {
      // Stationarity check ||P(W - grad) - W||_inf, in the same pass as
      // the projected direction d = P(W - step·grad) - W.
      if (spg.Direction(step) <= opts.spg.tolerance) {
        converged = true;
        break;
      }
      const double t = spg.LineSearch();
      step = spg.Advance(t, opts.spg);
      out.objective_trace.push_back(spg.Objective());
    }
    w = spg.TakeAffinity();
  }

  // Post-processing: prune dust, symmetrise for Laplacian use.
  if (opts.prune_rel_tol > 0.0) {
    const double cut = opts.prune_rel_tol * w.MaxAbs();
    w.Apply([cut](double v) { return v < cut ? 0.0 : v; });
  }
  if (opts.keep_top_k > 0 && opts.keep_top_k < n - 1) {
    std::vector<std::pair<double, std::size_t>> row;
    for (std::size_t i = 0; i < n; ++i) {
      row.clear();
      for (std::size_t j = 0; j < n; ++j) {
        if (w(i, j) > 0.0) row.push_back({w(i, j), j});
      }
      if (row.size() <= opts.keep_top_k) continue;
      std::nth_element(row.begin(),
                       row.begin() + static_cast<std::ptrdiff_t>(
                                         opts.keep_top_k - 1),
                       row.end(), std::greater<>());
      const double cut = row[opts.keep_top_k - 1].first;
      for (std::size_t j = 0; j < n; ++j) {
        if (w(i, j) < cut) w(i, j) = 0.0;
      }
    }
  }
  if (opts.symmetrize) {
    la::Matrix wt = w.Transposed();
    w.Add(wt);
    w.Scale(0.5);
  }

  out.affinity = std::move(w);
  out.iterations = it;
  out.converged = converged;
  return out;
}

}  // namespace core
}  // namespace rhchme
