// The dense-direction SPG loop of Algorithm 1: the bit-identity reference
// for the library's sparse-support subspace learner
// (core::LearnSubspaceAffinity).
//
// Every step here runs whole n×n passes: the gradient is stored as a dense
// matrix and rewritten in place, the projected direction d is written
// densely, and d·Q is la::MultiplyInto's rows. The Gram Q = X·Xᵀ is taken
// entry by entry with the dispatched table's dense dot. Each pass sums its
// scalar and column partials over the same shape-only row chunks as the
// library, so the library must reproduce this W and objective trace bit
// for bit — per dispatched kernel table and pool size.
//
// A member with sparse features takes the factored path instead, by the
// rule of core::SpgFactoredProducts restated here: Q, W₀·Q and the d·Q
// panels the rule picks are (A·X̂)·X̂ᵀ, written below as plain loops over
// X̂'s nonzeros (ReferenceFactoredRow).

#ifndef RHCHME_TESTS_REFERENCE_SPG_H_
#define RHCHME_TESTS_REFERENCE_SPG_H_

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/subspace.h"
#include "la/gemm.h"
#include "la/matrix.h"
#include "la/simd.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace rhchme {
namespace testing_reference {

/// Runs fn(chunk, r0, r1) over the GrainForWork(n)-row chunks of [0, n).
template <typename Fn>
void ReferenceForEachRowChunk(std::size_t n, const Fn& fn) {
  const std::size_t grain = util::GrainForWork(n);
  util::ParallelFor(0, n, grain, [&](std::size_t b, std::size_t e) {
    for (std::size_t r0 = b; r0 < e; r0 += grain) {
      fn(r0 / grain, r0, std::min(e, r0 + grain));
    }
  });
}

/// X̂, the object rows L2-normalised (a zero row stays zero), as per-row
/// and per-column lists of its nonzeros, each in ascending order.
struct ReferenceFactors {
  std::vector<std::vector<std::pair<std::size_t, double>>> rows, cols;
  std::size_t nnz = 0;
};

inline ReferenceFactors BuildReferenceFactors(const la::Matrix& x) {
  ReferenceFactors f;
  f.rows.resize(x.rows());
  f.cols.resize(x.cols());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    double norm_sq = 0.0;
    for (std::size_t k = 0; k < x.cols(); ++k) norm_sq += x(i, k) * x(i, k);
    const double scale = norm_sq > 0.0 ? 1.0 / std::sqrt(norm_sq) : 0.0;
    if (scale == 0.0) continue;
    for (std::size_t k = 0; k < x.cols(); ++k) {
      if (x(i, k) == 0.0) continue;
      f.rows[i].push_back({k, x(i, k) * scale});
      f.cols[k].push_back({i, x(i, k) * scale});
      ++f.nnz;
    }
  }
  return f;
}

/// Whether the learner takes the factored path on `x`: finite features
/// with 2·nnz(X)·kSpgGemmAdvantage < n².
inline bool ReferenceFactoredPath(const la::Matrix& x) {
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t k = 0; k < x.cols(); ++k) nnz += x(i, k) != 0.0;
  }
  return x.AllFinite() &&
         2 * nnz * core::kSpgGemmAdvantage < x.rows() * x.rows();
}

/// Row r of A·Q = (A·X̂)·X̂ᵀ from row r of A: v_k = Σ_j X̂(j,k)·A(r,j),
/// then out_i = Σ_k X̂(i,k)·v_k, each sum from +0.0 in ascending order.
inline void ReferenceFactoredRow(const ReferenceFactors& f, const double* a,
                                 double* out) {
  std::vector<double> v(f.cols.size(), 0.0);
  for (std::size_t k = 0; k < f.cols.size(); ++k) {
    double acc = 0.0;
    for (const auto& [j, x] : f.cols[k]) acc += x * a[j];
    v[k] = acc;
  }
  for (std::size_t i = 0; i < f.rows.size(); ++i) {
    double acc = 0.0;
    for (const auto& [k, x] : f.rows[i]) acc += x * v[k];
    out[i] = acc;
  }
}

/// A·Q for n×n A, or Q itself when `a` is null.
inline la::Matrix ReferenceFactoredProduct(const ReferenceFactors& f,
                                           const la::Matrix* a) {
  const std::size_t n = f.rows.size();
  la::Matrix out(n, n);
  std::vector<double> e(n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    e[r] = 1.0;
    ReferenceFactoredRow(f, a != nullptr ? a->row_ptr(r) : e.data(),
                         out.row_ptr(r));
    e[r] = 0.0;
  }
  return out;
}

/// The SPG iterate with a dense gradient and a dense direction: pass A
/// (Direction), d·Q and pass B (LineSearch), pass C (Advance).
class ReferenceSpgState {
 public:
  /// `factors` is null off the factored path.
  ReferenceSpgState(const la::Matrix& gram, const ReferenceFactors* factors,
                    la::Matrix w, double gamma)
      : n_(gram.rows()),
        q_(gram),
        factors_(factors),
        gamma_(gamma),
        tr_q_(gram.Trace()),
        kt_(la::simd::Table()),
        w_(std::move(w)),
        wq_(factors != nullptr ? ReferenceFactoredProduct(*factors, &w_)
                               : la::Multiply(w_, q_)),
        grad_(n_, n_),
        d_(n_, n_),
        dq_(n_, n_),
        cs_w_(w_.ColSums()),
        cs_d_(n_, 0.0),
        col_partial_(core::SpgRowChunks(n_), n_),
        partial_(core::SpgRowChunks(n_), kSlots) {
    ReferenceForEachRowChunk(
        n_, [&](std::size_t, std::size_t r0, std::size_t r1) {
          for (std::size_t i = r0; i < r1; ++i) {
            UpdateGradientRow(i, dq_.row_ptr(i));
          }
        });
  }

  double Direction(double step) {
    ReferenceForEachRowChunk(
        n_, [&](std::size_t c, std::size_t r0, std::size_t r1) {
          double* cs = col_partial_.row_ptr(c);
          std::fill(cs, cs + n_, 0.0);
          double chunk_probe = 0.0;
          for (std::size_t i = r0; i < r1; ++i) {
            const double* w = w_.row_ptr(i);
            const double* g = grad_.row_ptr(i);
            double* d = d_.row_ptr(i);
            double* probe = dq_.row_ptr(i);
            for (std::size_t j = 0; j < n_; ++j) {
              const double p = w[j] - g[j];
              probe[j] = std::fabs((p < 0.0 ? 0.0 : p) - w[j]);
              const double v = w[j] + -step * g[j];
              d[j] = (v < 0.0 ? 0.0 : v) - w[j];
            }
            probe[i] = std::fabs(0.0 - w[i]);
            d[i] = 0.0 - w[i];
            kt_.add(cs, d, n_);
            for (std::size_t j = 0; j < n_; ++j) {
              chunk_probe = probe[j] > chunk_probe ? probe[j] : chunk_probe;
            }
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

  /// d·Q per 32-row panel: la::MultiplyInto's rows, or on the factored
  /// path the factored rows when 2·nnz(X̂) per row is below the panel's
  /// cost: n per nonzero of d when every (panel × kGemmBlockK) tile is
  /// mostly zero, else the GEMM's, which the factored path always beats.
  double LineSearch() {
    for (std::size_t lo = 0; lo < n_; lo += la::kGemmRowPanel) {
      const std::size_t hi = std::min(n_, lo + la::kGemmRowPanel);
      if (factors_ != nullptr && FactoredPanel(lo, hi)) {
        for (std::size_t i = lo; i < hi; ++i) {
          ReferenceFactoredRow(*factors_, d_.row_ptr(i), dq_.row_ptr(i));
        }
      } else {
        la::MultiplyRowsInto(d_, q_, &dq_, lo, hi);
      }
    }
    ReferenceForEachRowChunk(
        n_, [&](std::size_t c, std::size_t r0, std::size_t r1) {
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
    const double b = -2.0 * gamma_ * (tr_dq - fi_dq_w) + 2.0 * dot_cs;
    const double a = gamma_ * fi_dq_d + cs_d_sq;
    return a > 0.0 ? std::clamp(-b / (2.0 * a), 1e-6, 1.0) : 1.0;
  }

  double Advance(double t) {
    for (std::size_t j = 0; j < n_; ++j) cs_w_[j] += t * cs_d_[j];
    ReferenceForEachRowChunk(
        n_, [&](std::size_t c, std::size_t r0, std::size_t r1) {
          double sy = 0.0, ss = 0.0, tr = 0.0, wq_w = 0.0;
          for (std::size_t i = r0; i < r1; ++i) {
            const double* d = d_.row_ptr(i);
            double* dq = dq_.row_ptr(i);
            double* w = w_.row_ptr(i);
            double* wq = wq_.row_ptr(i);
            kt_.axpy(t, d, w, n_);
            kt_.axpy(t, dq, wq, n_);
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
    objective_ =
        gamma_ * (tr_q_ - 2.0 * ChunkSum(2) + ChunkSum(3)) + sparsity;
    return sy > 0.0
               ? std::clamp(ss / sy, core::kSpgStepMin, core::kSpgStepMax)
               : core::kSpgStepMax;
  }

  double Objective() const { return objective_; }
  la::Matrix TakeAffinity() { return std::move(w_); }

 private:
  static constexpr std::size_t kSlots = 4;

  void UpdateGradientRow(std::size_t i, double* y) {
    const double* wq = wq_.row_ptr(i);
    const double* q = q_.row_ptr(i);
    const double* cs = cs_w_.data();
    double* g = grad_.row_ptr(i);
    const double two_gamma = 2.0 * gamma_;
    for (std::size_t j = 0; j < n_; ++j) {
      const double g_new = two_gamma * (wq[j] - q[j]) + 2.0 * cs[j];
      y[j] = g_new - g[j];
      g[j] = g_new;
    }
  }
  double ChunkSum(std::size_t slot) const {
    double s = 0.0;
    for (std::size_t c = 0; c < partial_.rows(); ++c) s += partial_(c, slot);
    return s;
  }
  bool FactoredPanel(std::size_t lo, std::size_t hi) const {
    std::size_t d_nnz = 0;
    bool mostly_zero = true;
    for (std::size_t kb = 0; kb < n_; kb += la::kGemmBlockK) {
      const std::size_t ke = std::min(n_, kb + la::kGemmBlockK);
      std::size_t tile_nnz = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        for (std::size_t j = kb; j < ke; ++j) tile_nnz += d_(i, j) != 0.0;
      }
      const std::size_t total = (hi - lo) * (ke - kb);
      mostly_zero = mostly_zero && 2 * (total - tile_nnz) >= total;
      d_nnz += tile_nnz;
    }
    return !mostly_zero || 2 * factors_->nnz * (hi - lo) < d_nnz * n_;
  }

  const std::size_t n_;
  const la::Matrix& q_;
  const ReferenceFactors* const factors_;
  const double gamma_;
  const double tr_q_;
  const la::simd::KernelTable& kt_;
  la::Matrix w_, wq_, grad_, d_, dq_;
  std::vector<double> cs_w_, cs_d_;
  la::Matrix col_partial_;
  la::Matrix partial_;
  double objective_ = 0.0;
};

/// Gram X·Xᵀ, one dense dot per entry.
inline la::Matrix ReferenceGram(const la::Matrix& x) {
  const la::simd::KernelTable& kt = la::simd::Table();
  la::Matrix g(x.rows(), x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.rows(); ++j) {
      g(i, j) = kt.dot(x.row_ptr(i), x.row_ptr(j), x.cols());
    }
  }
  return g;
}

/// core::SubspaceResult with the learned W kept dense.
struct ReferenceSubspaceResult {
  la::Matrix affinity;
  std::vector<double> objective_trace;
  int iterations = 0;
  core::StopReason stop = core::StopReason::kMaxIterations;
};

/// core::LearnSubspaceAffinity on the dense-direction loop, with the same
/// stop rules (the objective plateau restated as a count of consecutive
/// flat steps). Requires valid options and n >= 2. The library's CSR W
/// is la::SparseMatrix::FromDense of this W.
inline ReferenceSubspaceResult ReferenceLearnSubspaceAffinity(
    const la::Matrix& objects, const core::SubspaceOptions& opts) {
  const std::size_t n = objects.rows();
  ReferenceFactors factors;
  const bool factored = ReferenceFactoredPath(objects);
  if (factored) factors = BuildReferenceFactors(objects);
  la::Matrix gram = factored ? ReferenceFactoredProduct(factors, nullptr)
                             : ReferenceGram(objects);
  if (!factored) {
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
  core::ProjectFeasible(&w0);

  ReferenceSubspaceResult out;
  ReferenceSpgState spg(gram, factored ? &factors : nullptr, std::move(w0),
                        opts.gamma);
  double step = 1.0;
  out.stop = core::StopReason::kMaxIterations;
  int it = 0;
  int flat_steps = 0;  // Consecutive steps with a flat objective.
  while (it < opts.spg.max_iterations) {
    if (spg.Direction(step) <= opts.spg.tolerance) {
      out.stop = core::StopReason::kTolerance;
      break;
    }
    const double t = spg.LineSearch();
    step = spg.Advance(t);
    ++it;
    const double objective = spg.Objective();
    if (!out.objective_trace.empty()) {
      const double prev = out.objective_trace.back();
      const double change =
          std::fabs(objective - prev) / std::max(1.0, std::fabs(prev));
      flat_steps = change <= core::kSpgPlateauTolerance ? flat_steps + 1 : 0;
    }
    out.objective_trace.push_back(objective);
    if (flat_steps == core::kSpgPlateauSteps) {
      out.stop = core::StopReason::kPlateau;
      break;
    }
  }
  la::Matrix w = spg.TakeAffinity();

  const double cut = core::kSpgPruneRelTol * w.MaxAbs();
  w.Apply([cut](double v) { return v < cut ? 0.0 : v; });
  la::Matrix wt = w.Transposed();
  w.Add(wt);
  w.Scale(0.5);

  out.affinity = std::move(w);
  out.iterations = it;
  return out;
}

}  // namespace testing_reference
}  // namespace rhchme

#endif  // RHCHME_TESTS_REFERENCE_SPG_H_
