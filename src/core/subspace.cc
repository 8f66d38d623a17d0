#include "core/subspace.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <vector>

#include "la/gemm.h"
#include "la/simd.h"
#include "la/sparse.h"
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
  return Status::OK();
}

Status SubspaceOptions::Validate() const {
  // Comparisons are negated so that NaN fails them.
  if (!(gamma > 0.0)) {
    return Status::InvalidArgument("subspace gamma must be positive");
  }
  return spg.Validate();
}

void ProjectFeasible(la::Matrix* w) {
  w->ClampNonNegative();
  const std::size_t n = std::min(w->rows(), w->cols());
  for (std::size_t i = 0; i < n; ++i) (*w)(i, i) = 0.0;
}

bool ObjectivePlateaued(const std::vector<double>& trace) {
  const std::size_t steps = static_cast<std::size_t>(kSpgPlateauSteps);
  if (trace.size() <= steps) return false;
  for (std::size_t k = trace.size() - steps; k < trace.size(); ++k) {
    const double prev = trace[k - 1];
    // Negated so that a NaN objective never counts as flat.
    if (!(std::fabs(trace[k] - prev) / std::max(1.0, std::fabs(prev)) <=
          kSpgPlateauTolerance)) {
      return false;
    }
  }
  return true;
}

bool SpgFactoredProducts(std::size_t n, std::size_t feature_nnz) {
  return 2 * feature_nnz * kSpgGemmAdvantage < n * n;
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

/// Workers of ForEachPanel over n rows: one per thread, at most one per
/// kGemmRowPanel-row panel. Sizes the per-worker scratch.
std::size_t PanelSlots(std::size_t n) {
  const std::size_t panels = (n + la::kGemmRowPanel - 1) / la::kGemmRowPanel;
  return std::max<std::size_t>(
      1, std::min(static_cast<std::size_t>(util::NumThreads()), panels));
}

/// Runs fn(lo, hi, slot) for every kGemmRowPanel-row panel [lo, hi) of
/// [0, n) on PanelSlots(n) workers. `slot` names the worker, so scratch
/// indexed by it is never shared; workers claim panels from a shared
/// counter. A panel's rows depend on its own inputs alone, so which
/// worker runs it never changes a bit.
template <typename Fn>
void ForEachPanel(std::size_t n, const Fn& fn) {
  const std::size_t panels = (n + la::kGemmRowPanel - 1) / la::kGemmRowPanel;
  std::atomic<std::size_t> next{0};
  util::ParallelFor(0, PanelSlots(n), 1, [&](std::size_t s0, std::size_t s1) {
    for (std::size_t slot = s0; slot < s1; ++slot) {
      for (std::size_t p = next++; p < panels; p = next++) {
        const std::size_t lo = p * la::kGemmRowPanel;
        fn(lo, std::min(n, lo + la::kGemmRowPanel), slot);
      }
    }
  });
}

/// Q = X̂·X̂ᵀ held as the CSR factors X̂ (n × D, the object rows,
/// L2-normalised) and X̂ᵀ, for products A·Q = (A·X̂)·X̂ᵀ. A
/// panel of A's rows is written transposed into an n × kGemmRowPanel
/// buffer Aᵀ (PanelInput); PanelProduct then forms Vᵀ = X̂ᵀ·Aᵀ and X̂·Vᵀ
/// with two SparseMatrix::MultiplyDenseRows and transposes the result into
/// the panel's output rows. Both products are spmm_rows (one unfused
/// multiply-add per nonzero in ascending order, from +0.0), so a row of
/// A·Q has the same bits on every kernel table, in any panel and on any
/// worker. A row costs 2·nnz(X̂) multiply-adds.
class FactoredGram {
 public:
  explicit FactoredGram(const la::Matrix& objects)
      : n_(objects.rows()), scratch_(PanelSlots(n_)) {
    const std::size_t d = objects.cols();
    // X̂ row by row, then X̂ᵀ by a counting sort on the column, which
    // keeps each of its rows in ascending object order.
    std::vector<std::size_t> offsets(n_ + 1, 0), cols, t_offsets(d + 1, 0);
    std::vector<double> vals;
    for (std::size_t i = 0; i < n_; ++i) {
      const double* row = objects.row_ptr(i);
      double norm_sq = 0.0;
      for (std::size_t k = 0; k < d; ++k) norm_sq += row[k] * row[k];
      const double scale = norm_sq > 0.0 ? 1.0 / std::sqrt(norm_sq) : 0.0;
      // A zero row stays zero: it keeps no entries.
      for (std::size_t k = 0; k < d && scale > 0.0; ++k) {
        if (row[k] == 0.0) continue;
        cols.push_back(k);
        vals.push_back(row[k] * scale);
        ++t_offsets[k + 1];
      }
      offsets[i + 1] = cols.size();
    }
    for (std::size_t k = 0; k < d; ++k) t_offsets[k + 1] += t_offsets[k];
    std::vector<std::size_t> t_rows(cols.size()), fill(t_offsets.begin(),
                                                       t_offsets.end() - 1);
    std::vector<double> t_vals(cols.size());
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e) {
        const std::size_t slot = fill[cols[e]]++;
        t_rows[slot] = i;
        t_vals[slot] = vals[e];
      }
    }
    x_ = la::SparseMatrix::FromCsr(n_, d, std::move(offsets), std::move(cols),
                                   std::move(vals))
             .value();
    xt_ = la::SparseMatrix::FromCsr(d, n_, std::move(t_offsets),
                                    std::move(t_rows), std::move(t_vals))
              .value();
  }

  std::size_t nnz() const { return x_.nnz(); }

  /// The Aᵀ buffer of worker `slot`: column r takes row lo + r of A.
  /// Columns past the panel's height are never read back.
  la::Matrix& PanelInput(std::size_t slot) {
    Scratch& s = scratch_[slot];
    if (s.at.empty()) {
      s.at = la::Matrix(n_, la::kGemmRowPanel);
      s.vt = la::Matrix(xt_.rows(), la::kGemmRowPanel);
      s.ut = la::Matrix(n_, la::kGemmRowPanel);
    }
    return s.at;
  }

  /// Rows [lo, hi) of A·Q into `out` (n × n), from PanelInput(slot).
  void PanelProduct(std::size_t slot, std::size_t lo, std::size_t hi,
                    la::Matrix* out) {
    Scratch& s = scratch_[slot];
    xt_.MultiplyDenseRows(s.at, 0, xt_.rows(), &s.vt);
    x_.MultiplyDenseRows(s.vt, 0, n_, &s.ut);
    // Transposed in blocks of kTransposeBlock rows of X̂·Vᵀ, so each output
    // row takes whole cache lines.
    for (std::size_t i0 = 0; i0 < n_; i0 += kTransposeBlock) {
      const std::size_t i1 = std::min(n_, i0 + kTransposeBlock);
      for (std::size_t r = 0; r < hi - lo; ++r) {
        double* o = out->row_ptr(lo + r);
        for (std::size_t i = i0; i < i1; ++i) o[i] = s.ut(i, r);
      }
    }
  }

  /// A·Q for a dense n×n A, or Q itself (A = I) when `a` is null.
  la::Matrix Multiply(const la::Matrix* a) {
    la::Matrix out(n_, n_);
    ForEachPanel(n_, [&](std::size_t lo, std::size_t hi, std::size_t slot) {
      la::Matrix& at = PanelInput(slot);
      if (a == nullptr) {
        at.Fill(0.0);
        for (std::size_t r = 0; r < hi - lo; ++r) at(lo + r, r) = 1.0;
      } else {
        for (std::size_t i0 = 0; i0 < n_; i0 += kTransposeBlock) {
          const std::size_t i1 = std::min(n_, i0 + kTransposeBlock);
          for (std::size_t r = 0; r < hi - lo; ++r) {
            const double* row = a->row_ptr(lo + r);
            for (std::size_t i = i0; i < i1; ++i) at(i, r) = row[i];
          }
        }
      }
      PanelProduct(slot, lo, hi, &out);
    });
    return out;
  }

 private:
  /// Rows of X̂·Vᵀ (or of Aᵀ) per block of the panel transposes: one
  /// cache line of an output row.
  static constexpr std::size_t kTransposeBlock = 8;
  struct Scratch {
    la::Matrix at, vt, ut;  ///< Aᵀ (n × 32), Vᵀ (D × 32), X̂·Vᵀ (n × 32).
  };

  const std::size_t n_;
  la::SparseMatrix x_, xt_;
  std::vector<Scratch> scratch_;  ///< One per ForEachPanel worker.
};

/// Entry (i, j) of the gradient 2γ(W·Q − Q) + 2·1·(1ᵀW) from W·Q(i,j),
/// Q(i,j) and the column sum j of W. One expression everywhere (la::simd's
/// spg_direction_row included), so a recomputed entry has the bits of the
/// stored one.
double GradientEntry(double two_gamma, double wq, double q, double cs) {
  return two_gamma * (wq - q) + 2.0 * cs;
}

/// The SPG iterate of Algorithm 1 and its fixed workspace: W, W·Q, the
/// projected direction d as per-row compacted nonzeros, and d·Q next to
/// the caller's Q, plus the column sums of W and d. Nothing n×n
/// is allocated after construction. The first direction is pass A alone
/// (Direction); a step is then the d·Q product with pass B (LineSearch),
/// the s·s and s·y pre-pass over d's support (StepLength), and one row
/// pass (AdvanceAndDirection) that takes the step and writes the next
/// direction's row while W and W·Q are still in cache. W·Q is carried
/// forward as W·Q += t·d·Q, since W_new = W + t·d. The gradient is never
/// stored: each pass recomputes the entries it needs with GradientEntry.
///
/// J₂ is γ(tr Q − 2 tr(W·Q) + <W·Q, W>) + ||1ᵀW||².
///
/// A step streams seven n×n arrays: d·Q written and W read in pass B;
/// d·Q, W·Q (read and written), W and Q in the row pass. d is ≥ 97% exact
/// zeros after about ten steps, so the rest of the per-step work follows
/// d's nonzeros. Every sum keeps the term order of the dense passes
/// (tests/reference_spg.h), and a skipped term is an exact zero, so W and
/// the objective trace are bit-identical to them.
class SpgState {
 public:
  /// `factored` (null off the factored path) must outlive the state.
  SpgState(const la::Matrix& gram, FactoredGram* factored, la::Matrix w,
           double gamma)
      : n_(gram.rows()),
        q_(gram),
        factored_(factored),
        two_gamma_(2.0 * gamma),
        gamma_(gamma),
        tr_q_(gram.Trace()),
        kt_(la::simd::Table()),
        w_(std::move(w)),
        wq_(factored_ != nullptr ? factored_->Multiply(&w_)
                                 : la::Multiply(w_, q_)),
        d_(n_, n_),
        dq_(n_, n_),
        idx_(n_ * n_),
        nnz_(n_, 0),
        cs_w_(w_.ColSums()),
        cs_prev_(n_, 0.0),
        cs_d_(n_, 0.0),
        row_terms_(n_, kRowTerms),
        y_(SpgRowChunks(n_), n_),
        s_(SpgRowChunks(n_), n_),
        col_partial_(SpgRowChunks(n_), n_),
        partial_(SpgRowChunks(n_), kSlots) {
    // The column indices of d take the place of the dense gradient of the
    // dense passes: same bytes, so memstats counts them like that matrix.
    la::memstats::internal::NoteAlloc(n_ * n_);
  }

  /// Pass A on its own, for the first step: see DirectionRow. Returns the
  /// stationarity measure ||P(W − grad) − W||_∞.
  double Direction(double step) {
    ForEachRowChunk(n_, [&](std::size_t c, std::size_t r0, std::size_t r1) {
      double* cs = col_partial_.row_ptr(c);
      std::fill(cs, cs + n_, 0.0);
      double probe = 0.0;
      for (std::size_t i = r0; i < r1; ++i) DirectionRow(i, step, cs, &probe);
      partial_(c, kProbe) = probe;
    });
    return MergeDirection();
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
  /// la::MultiplyRowsInto and compacted again after it. On the factored
  /// path a panel for which FactoredPanel says so runs (d·X̂)·X̂ᵀ instead.
  double LineSearch() {
    const std::size_t tiles = (n_ + la::kGemmBlockK - 1) / la::kGemmBlockK;
    ForEachPanel(n_, [&](std::size_t lo, std::size_t hi, std::size_t slot) {
      std::vector<std::size_t> tile_nnz(tiles);
      const bool sparse = PanelMostlyZero(lo, hi, &tile_nnz);
      if (factored_ != nullptr && FactoredPanel(lo, hi, sparse)) {
        la::Matrix& at = factored_->PanelInput(slot);
        at.Fill(0.0);
        for (std::size_t i = lo; i < hi; ++i) {
          const std::size_t* idx = RowIdx(i);
          const double* d = d_.row_ptr(i);
          for (std::size_t k = 0; k < nnz_[i]; ++k) at(idx[k], i - lo) = d[k];
        }
        factored_->PanelProduct(slot, lo, hi, &dq_);
      } else if (sparse) {
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
        row_terms_(i, 2) =
            kt_.dot_sparse(RowIdx(i), d_.row_ptr(i), nnz_[i], dq, n_);
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
    const double b = -2.0 * gamma_ * (tr_dq - fi_dq_w) + 2.0 * dot_cs;
    const double a = gamma_ * fi_dq_d + cs_d_sq;
    return a > 0.0 ? std::clamp(-b / (2.0 * a), 1e-6, 1.0) : 1.0;
  }

  /// Carries the column sums over the step W += t·d (so s = t·d)
  /// and returns the Barzilai–Borwein steplength s·s / s·y of the next
  /// step, with y = grad_new − grad, before any dense work: s·s and s·y
  /// touch only d's support, and there the new gradient needs only the
  /// new W·Q entry W·Q + t·d·Q, the expression of the row pass's axpy.
  double StepLength(double t) {
    cs_prev_ = cs_w_;
    for (std::size_t j = 0; j < n_; ++j) cs_w_[j] += t * cs_d_[j];
    ForEachRowChunk(n_, [&](std::size_t c, std::size_t r0, std::size_t r1) {
      // y and d by column, read only on d's support.
      double* y = y_.row_ptr(c);
      double* s = s_.row_ptr(c);
      double sy = 0.0, ss = 0.0;
      for (std::size_t i = r0; i < r1; ++i) {
        const std::size_t* idx = RowIdx(i);
        const double* d = d_.row_ptr(i);
        const std::size_t count = nnz_[i];
        const double* q = q_.row_ptr(i);
        const double* dq = dq_.row_ptr(i);
        const double* wq = wq_.row_ptr(i);
        for (std::size_t k = 0; k < count; ++k) {
          const std::size_t j = idx[k];
          const double old =
              GradientEntry(two_gamma_, wq[j], q[j], cs_prev_[j]);
          y[j] = GradientEntry(two_gamma_, wq[j] + t * dq[j], q[j], cs_w_[j]) -
                 old;
          s[j] = d[k];
        }
        sy += t * kt_.dot_sparse(idx, d, count, y, n_);
        ss += t * t * kt_.dot_sparse(idx, d, count, s, n_);
      }
      partial_(c, kSy) = sy;
      partial_(c, kSs) = ss;
    });
    const double sy = ChunkSum(kSy);
    const double ss = ChunkSum(kSs);
    return sy > 0.0 ? std::clamp(ss / sy, kSpgStepMin, kSpgStepMax)
                    : kSpgStepMax;
  }

  /// Pass C fused with the next pass A, per row: W·Q += t·d·Q, W += t·d
  /// on d's support, the tr(W·Q) and <W·Q, W> terms of J₂, then (when
  /// `direction` is set) the row of the next direction at steplength
  /// `next_step`. Call after StepLength(t). Objective() then holds J₂ at
  /// the new W; returns the next direction's stationarity measure (0
  /// without one).
  double AdvanceAndDirection(double t, double next_step, bool direction) {
    ForEachRowChunk(n_, [&](std::size_t c, std::size_t r0, std::size_t r1) {
      double* cs = col_partial_.row_ptr(c);
      if (direction) std::fill(cs, cs + n_, 0.0);
      double tr = 0.0, wq_w = 0.0, probe = 0.0;
      for (std::size_t i = r0; i < r1; ++i) {
        const std::size_t* idx = RowIdx(i);
        const double* d = d_.row_ptr(i);
        double* w = w_.row_ptr(i);
        double* wq = wq_.row_ptr(i);
        kt_.axpy(t, dq_.row_ptr(i), wq, n_);
        for (std::size_t k = 0; k < nnz_[i]; ++k) w[idx[k]] += t * d[k];
        tr += wq[i];
        wq_w += kt_.dot(wq, w, n_);
        // The row's old d is spent: the next one may overwrite it.
        if (direction) DirectionRow(i, next_step, cs, &probe);
      }
      partial_(c, kTrace) = tr;
      partial_(c, kWqW) = wq_w;
      partial_(c, kProbe) = probe;
    });
    double sparsity = 0.0;
    for (double cs : cs_w_) sparsity += cs * cs;
    objective_ = gamma_ * (tr_q_ - 2.0 * ChunkSum(kTrace) + ChunkSum(kWqW)) +
                 sparsity;
    return direction ? MergeDirection() : 0.0;
  }

  double Objective() const { return objective_; }
  la::Matrix TakeAffinity() { return std::move(w_); }

 private:
  /// Scalar partials per chunk: s·y, s·s, tr(W·Q), <W·Q, W> and the
  /// stationarity probe.
  enum Slot : std::size_t { kSy, kSs, kTrace, kWqW, kProbe, kSlots };
  static constexpr std::size_t kRowTerms = 3;  ///< dq(i,i), ⟨dq, W⟩, ⟨dq, d⟩.

  /// Pass A for row i: writes the nonzeros of the projected direction
  /// d = P(W − step·grad) − W, adds the row to the
  /// chunk's column sums `cs` and raises *probe to the row's part of
  /// ||P(W − grad) − W||_∞. The table's spg_direction_row computes the
  /// entries with GradientEntry's expression (P's zero diagonal included)
  /// and compacts the nonzeros to the front of d_'s row.
  void DirectionRow(std::size_t i, double step, double* cs, double* probe) {
    double* vals = d_.row_ptr(i);
    std::size_t* idx = RowIdx(i);
    const std::size_t count = kt_.spg_direction_row(
        w_.row_ptr(i), wq_.row_ptr(i), q_.row_ptr(i), cs_w_.data(), two_gamma_,
        step, i, n_, vals, idx, probe);
    nnz_[i] = count;
    for (std::size_t k = 0; k < count; ++k) cs[idx[k]] += vals[k];
  }
  /// Merges the chunks' column sums of d in chunk order and returns the
  /// largest chunk probe.
  double MergeDirection() {
    std::fill(cs_d_.begin(), cs_d_.end(), 0.0);
    double probe = 0.0;
    for (std::size_t c = 0; c < partial_.rows(); ++c) {
      const double* cs = col_partial_.row_ptr(c);
      for (std::size_t j = 0; j < n_; ++j) cs_d_[j] += cs[j];
      probe = std::max(probe, partial_(c, kProbe));
    }
    return probe;
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
  /// Whether the d·Q panel [lo, hi) runs factored (SpgFactoredProducts):
  /// 2·nnz(X̂) multiply-adds per row against n per nonzero of d on the
  /// zero-skipping path. A dense panel always does: the member is on the
  /// factored path because 2·nnz(X̂) is below the GEMM's n² /
  /// kSpgGemmAdvantage.
  bool FactoredPanel(std::size_t lo, std::size_t hi, bool sparse) const {
    if (!sparse) return true;
    std::size_t d_nnz = 0;
    for (std::size_t i = lo; i < hi; ++i) d_nnz += nnz_[i];
    return 2 * factored_->nnz() * (hi - lo) < d_nnz * n_;
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
  FactoredGram* const factored_;
  const double two_gamma_;
  const double gamma_;
  const double tr_q_;
  const la::simd::KernelTable& kt_;
  /// d_ row i holds d's nonzeros of row i in its first nnz_[i] entries,
  /// with their columns at idx_[i·n, i·n + nnz_[i]).
  la::Matrix w_, wq_, d_, dq_;
  std::vector<std::size_t> idx_, nnz_;
  std::vector<double> cs_w_, cs_prev_, cs_d_;
  la::Matrix row_terms_;    ///< Per-row terms of pass B (n × kRowTerms).
  la::Matrix y_, s_;        ///< StepLength's y and d, chunks × n.
  la::Matrix col_partial_;  ///< Column sums of d per chunk (chunks × n).
  la::Matrix partial_;      ///< Scalar partials per chunk (chunks × kSlots).
  double objective_ = 0.0;
};

/// Gram X̂·X̂ᵀ of the L2-normalised object rows; all reconstruction
/// algebra runs through it, so the ambient dimension D only costs this one
/// product. Formed as X·Xᵀ scaled by the inverse row norms.
la::Matrix ObjectGram(const la::Matrix& objects) {
  const std::size_t n = objects.rows();
  la::Matrix gram = la::MultiplyNT(objects, objects);
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
  return gram;
}

/// Post-processing: prune dust below kSpgPruneRelTol of the largest
/// entry, symmetrise for Laplacian use.
/// Row-parallel; every entry is one expression of its own inputs (the max
/// is exact and order-free), so the result is the same for any pool size
/// and equal to the serial passes in tests/reference_spg.h.
void PostProcessAffinity(la::Matrix* w) {
  const std::size_t n = w->rows();
  const std::size_t grain = util::GrainForWork(n);
  // la::Matrix::MaxAbs per row, then over the rows.
  std::vector<double> row_max(n, 0.0);
  util::ParallelFor(0, n, grain, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) {
      const double* row = w->row_ptr(i);
      double m = 0.0;
      for (std::size_t j = 0; j < n; ++j) m = std::max(m, std::fabs(row[j]));
      row_max[i] = m;
    }
  });
  double max_abs = 0.0;
  for (double m : row_max) max_abs = std::max(max_abs, m);
  const double cut = kSpgPruneRelTol * max_abs;
  util::ParallelFor(0, n, grain, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) {
      double* row = w->row_ptr(i);
      for (std::size_t j = 0; j < n; ++j) row[j] = row[j] < cut ? 0.0 : row[j];
    }
  });
  // (W + Wᵀ)/2 in place: the task of tile row b owns every pair (i, j)
  // with i in b and j >= i, and writes both of its entries.
  constexpr std::size_t kTile = 32;
  const std::size_t tiles = (n + kTile - 1) / kTile;
  util::ParallelFor(0, tiles, 1, [&](std::size_t b0, std::size_t b1) {
    for (std::size_t b = b0; b < b1; ++b) {
      const std::size_t i0 = b * kTile, i1 = std::min(n, i0 + kTile);
      for (std::size_t j0 = i0; j0 < n; j0 += kTile) {
        const std::size_t j1 = std::min(n, j0 + kTile);
        for (std::size_t i = i0; i < i1; ++i) {
          double* row = w->row_ptr(i);
          for (std::size_t j = std::max(i, j0); j < j1; ++j) {
            const double v = (row[j] + (*w)(j, i)) * 0.5;
            row[j] = v;
            (*w)(j, i) = v;
          }
        }
      }
    }
  });
}

}  // namespace

la::Matrix FactoredGramProduct(const la::Matrix& objects,
                               const la::Matrix* a) {
  RHCHME_CHECK(a == nullptr ||
                   (a->rows() == objects.rows() && a->cols() == objects.rows()),
               "FactoredGramProduct: A must be n x n");
  FactoredGram factored(objects);
  return factored.Multiply(a);
}

Result<SubspaceResult> LearnSubspaceAffinity(const la::Matrix& objects,
                                             const SubspaceOptions& opts) {
  RHCHME_RETURN_IF_ERROR(opts.Validate());
  const std::size_t n = objects.rows();
  if (n < 2) {
    return Status::InvalidArgument(
        "subspace learning needs at least two objects");
  }

  SubspaceResult out;
  int it = 0;
  la::Matrix w;
  {
    // Q and the SPG workspace are freed before post-processing allocates.
    std::unique_ptr<FactoredGram> factored;
    if (SpgFactoredProducts(n, objects.NonZeros()) && objects.AllFinite()) {
      factored = std::make_unique<FactoredGram>(objects);
    }
    const la::Matrix gram = factored != nullptr ? factored->Multiply(nullptr)
                                                : ObjectGram(objects);
    Rng rng(opts.seed);
    la::Matrix w0 = la::Matrix::RandomUniform(n, n, &rng, 0.0,
                                              1.0 / static_cast<double>(n));
    ProjectFeasible(&w0);
    SpgState spg(gram, factored.get(), std::move(w0), opts.gamma);
    // Stationarity check ||P(W - grad) - W||_inf, in the same pass as the
    // projected direction d = P(W - step·grad) - W; 1 is the initial BB
    // steplength guess.
    double probe = spg.Direction(1.0);
    while (it < opts.spg.max_iterations) {
      if (probe <= opts.spg.tolerance) {
        out.stop = StopReason::kTolerance;
        break;
      }
      const double t = spg.LineSearch();
      const double step = spg.StepLength(t);
      ++it;
      probe = spg.AdvanceAndDirection(t, step, it < opts.spg.max_iterations);
      out.objective_trace.push_back(spg.Objective());
      if (ObjectivePlateaued(out.objective_trace)) {
        out.stop = StopReason::kPlateau;
        break;
      }
    }
    w = spg.TakeAffinity();
  }
  PostProcessAffinity(&w);

  out.affinity = la::SparseMatrix::FromDense(w);
  out.iterations = it;
  return out;
}

}  // namespace core
}  // namespace rhchme
