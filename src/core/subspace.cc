#include "core/subspace.h"

#include <algorithm>
#include <cmath>

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

/// The SPG iterate of Algorithm 1 and its fixed workspace: W, W·Q, the
/// gradient, the projected direction d and d·Q next to the caller's Q,
/// plus the row and column sums of W and d. Nothing n×n is allocated
/// after construction. A step is pass A (Direction), one n×n·n×n product
/// and pass B (LineSearch), and pass C (Advance); W·Q is carried forward
/// as W·Q += t·d·Q, since W_new = W + t·d.
///
/// The gradient is 2γ(W·Q − Q) + 2·1·(1ᵀW) + 2η(W·1 − 1)·1ᵀ and J₂ is
/// γ(tr Q − 2 tr(W·Q) + <W·Q, W>) + ||1ᵀW||² + η||W·1 − 1||².
class SpgState {
 public:
  SpgState(const la::Matrix& gram, la::Matrix w, double gamma, double eta)
      : n_(gram.rows()),
        q_(gram),
        gamma_(gamma),
        eta_(eta),
        tr_q_(gram.Trace()),
        kt_(la::simd::Table()),
        w_(std::move(w)),
        wq_(la::Multiply(w_, q_)),
        grad_(n_, n_),
        d_(n_, n_),
        dq_(n_, n_),
        cs_w_(w_.ColSums()),
        rs_w_(w_.RowSums()),
        cs_d_(n_, 0.0),
        rs_d_(n_, 0.0),
        col_partial_(SpgRowChunks(n_), n_),
        partial_(SpgRowChunks(n_), kSlots) {
    // grad_ starts at zero; the y rows this writes to d·Q are unused.
    ForEachRowChunk(n_, [&](std::size_t, std::size_t r0, std::size_t r1) {
      for (std::size_t i = r0; i < r1; ++i) {
        UpdateGradientRow(i, dq_.row_ptr(i));
      }
    });
  }

  /// Pass A: writes the projected direction d = P(W − step·grad) − W with
  /// its row and column sums, and returns the stationarity measure
  /// ||P(W − grad) − W||_∞.
  double Direction(double step) {
    ForEachRowChunk(n_, [&](std::size_t c, std::size_t r0, std::size_t r1) {
      double* cs = col_partial_.row_ptr(c);
      std::fill(cs, cs + n_, 0.0);
      double chunk_probe = 0.0;
      for (std::size_t i = r0; i < r1; ++i) {
        const double* w = w_.row_ptr(i);
        const double* g = grad_.row_ptr(i);
        double* d = d_.row_ptr(i);
        // d·Q is dead until the next product, so its row holds the probe.
        double* probe = dq_.row_ptr(i);
        // Branch-free so the loop vectorises; P's zero diagonal is patched
        // after it.
        for (std::size_t j = 0; j < n_; ++j) {
          const double p = w[j] - g[j];
          probe[j] = std::fabs((p < 0.0 ? 0.0 : p) - w[j]);
          const double v = w[j] + -step * g[j];
          d[j] = (v < 0.0 ? 0.0 : v) - w[j];
        }
        probe[i] = std::fabs(0.0 - w[i]);
        d[i] = 0.0 - w[i];
        kt_.add(cs, d, n_);
        double rs = 0.0;
        for (std::size_t j = 0; j < n_; ++j) {
          rs += d[j];
          chunk_probe = probe[j] > chunk_probe ? probe[j] : chunk_probe;
        }
        rs_d_[i] = rs;
      }
      partial_(c, 0) = chunk_probe;
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

  /// d·Q, then pass B. J₂ is a convex quadratic, so the line objective
  ///   f(W + t·d) = f(W) + b·t + a·t²
  /// is exact; its clamped minimiser replaces the Armijo search of
  /// Algorithm 1 and guarantees monotone descent. Returns that t.
  double LineSearch() {
    la::MultiplyInto(d_, q_, &dq_);
    ForEachRowChunk(n_, [&](std::size_t c, std::size_t r0, std::size_t r1) {
      double tr = 0.0, dq_w = 0.0, dq_d = 0.0;
      for (std::size_t i = r0; i < r1; ++i) {
        const double* dq = dq_.row_ptr(i);
        tr += dq[i];
        dq_w += kt_.dot(dq, w_.row_ptr(i), n_);
        dq_d += kt_.dot(dq, d_.row_ptr(i), n_);
      }
      partial_(c, 0) = tr;
      partial_(c, 1) = dq_w;
      partial_(c, 2) = dq_d;
    });
    const double tr_dq = ChunkSum(0);
    const double fi_dq_w = ChunkSum(1);
    const double fi_dq_d = ChunkSum(2);
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
  /// sums forward, rewrites the gradient in place and returns the
  /// Barzilai–Borwein steplength s·s / s·y for the next step, with
  /// y = grad_new − grad. Objective() then holds J₂ at the new W.
  double Advance(double t, const SpgOptions& spg) {
    for (std::size_t j = 0; j < n_; ++j) cs_w_[j] += t * cs_d_[j];
    for (std::size_t i = 0; i < n_; ++i) rs_w_[i] += t * rs_d_[i];
    ForEachRowChunk(n_, [&](std::size_t c, std::size_t r0, std::size_t r1) {
      double sy = 0.0, ss = 0.0, tr = 0.0, wq_w = 0.0;
      for (std::size_t i = r0; i < r1; ++i) {
        const double* d = d_.row_ptr(i);
        double* dq = dq_.row_ptr(i);
        double* w = w_.row_ptr(i);
        double* wq = wq_.row_ptr(i);
        kt_.axpy(t, d, w, n_);
        kt_.axpy(t, dq, wq, n_);
        // W·Q has absorbed the d·Q row, which now takes y.
        UpdateGradientRow(i, dq);
        sy += t * kt_.dot(d, dq, n_);
        ss += t * t * kt_.dot(d, d, n_);
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
  static constexpr std::size_t kSlots = 4;  ///< Scalar partials per chunk.

  /// Rewrites gradient row i from the current W·Q and sums, and writes
  /// y = grad_new − grad_old to `y`.
  void UpdateGradientRow(std::size_t i, double* y) {
    const double* wq = wq_.row_ptr(i);
    const double* q = q_.row_ptr(i);
    const double* cs = cs_w_.data();
    double* g = grad_.row_ptr(i);
    const double two_gamma = 2.0 * gamma_;
    const double affine = eta_ > 0.0 ? 2.0 * eta_ * (rs_w_[i] - 1.0) : 0.0;
    for (std::size_t j = 0; j < n_; ++j) {
      const double g_new = two_gamma * (wq[j] - q[j]) + (2.0 * cs[j] + affine);
      y[j] = g_new - g[j];
      g[j] = g_new;
    }
  }
  /// Slot `slot` of the per-chunk partials, summed in chunk order.
  double ChunkSum(std::size_t slot) const {
    double s = 0.0;
    for (std::size_t c = 0; c < partial_.rows(); ++c) s += partial_(c, slot);
    return s;
  }

  const std::size_t n_;
  const la::Matrix& q_;
  const double gamma_;
  const double eta_;
  const double tr_q_;
  const la::simd::KernelTable& kt_;
  la::Matrix w_, wq_, grad_, d_, dq_;
  std::vector<double> cs_w_, rs_w_, cs_d_, rs_d_;
  la::Matrix col_partial_;  ///< Column sums of d per chunk (chunks × n).
  la::Matrix partial_;      ///< Scalar partials per chunk (chunks × kSlots).
  double objective_ = 0.0;
};

}  // namespace

Result<SubspaceResult> LearnSubspaceAffinity(const la::Matrix& objects,
                                             const SubspaceOptions& opts) {
  RHCHME_RETURN_IF_ERROR(opts.Validate());
  const std::size_t n = objects.rows();
  if (n < 2) {
    return Status::InvalidArgument(
        "subspace learning needs at least two objects");
  }

  // Gram of object rows; all reconstruction algebra runs through it, so
  // the ambient dimension D only costs one n²D product here.
  la::Matrix gram = la::MultiplyNT(objects, objects);
  if (opts.normalize_rows) {
    // Scale Gram by the row norms: equivalent to normalising X's rows.
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

  Rng rng(opts.seed);
  la::Matrix w0 = la::Matrix::RandomUniform(n, n, &rng, 0.0,
                                            1.0 / static_cast<double>(n));
  ProjectFeasible(&w0);

  SubspaceResult out;
  SpgState spg(gram, std::move(w0), opts.gamma, opts.affine_penalty);
  double step = 1.0;  // Initial BB steplength guess.
  bool converged = false;
  int it = 0;
  for (; it < opts.spg.max_iterations; ++it) {
    // Stationarity check ||P(W - grad) - W||_inf, in the same pass as the
    // projected direction d = P(W - step·grad) - W.
    if (spg.Direction(step) <= opts.spg.tolerance) {
      converged = true;
      break;
    }
    const double t = spg.LineSearch();
    step = spg.Advance(t, opts.spg);
    out.objective_trace.push_back(spg.Objective());
  }
  la::Matrix w = spg.TakeAffinity();

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
