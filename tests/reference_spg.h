// The dense-direction SPG loop of Algorithm 1: the bit-identity reference
// for the library's sparse-support subspace learner
// (core::LearnSubspaceAffinity).
//
// Every step here runs whole n×n passes: the gradient is stored as a dense
// matrix and rewritten in place, the projected direction d is written
// densely, and d·Q is one la::MultiplyInto. The Gram Q = X·Xᵀ is taken
// entry by entry with the dispatched table's dense dot. Each pass sums its
// scalar and column partials over the same shape-only row chunks as the
// library, so the library must reproduce this W and objective trace bit
// for bit — per dispatched kernel table and pool size.

#ifndef RHCHME_TESTS_REFERENCE_SPG_H_
#define RHCHME_TESTS_REFERENCE_SPG_H_

#include <algorithm>
#include <cmath>
#include <functional>
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

/// The SPG iterate with a dense gradient and a dense direction: pass A
/// (Direction), d·Q and pass B (LineSearch), pass C (Advance).
class ReferenceSpgState {
 public:
  ReferenceSpgState(const la::Matrix& gram, la::Matrix w, double gamma,
                    double eta)
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

  double LineSearch() {
    la::MultiplyInto(d_, q_, &dq_);
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
    double b = -2.0 * gamma_ * (tr_dq - fi_dq_w) + 2.0 * dot_cs;
    double a = gamma_ * fi_dq_d + cs_d_sq;
    if (eta_ > 0.0) {
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

  double Advance(double t, const core::SpgOptions& spg) {
    for (std::size_t j = 0; j < n_; ++j) cs_w_[j] += t * cs_d_[j];
    for (std::size_t i = 0; i < n_; ++i) rs_w_[i] += t * rs_d_[i];
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
  static constexpr std::size_t kSlots = 4;

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

/// core::LearnSubspaceAffinity on the dense-direction loop. Requires
/// valid options and n >= 2.
inline core::SubspaceResult ReferenceLearnSubspaceAffinity(
    const la::Matrix& objects, const core::SubspaceOptions& opts) {
  const std::size_t n = objects.rows();
  la::Matrix gram = ReferenceGram(objects);
  if (opts.normalize_rows) {
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

  core::SubspaceResult out;
  ReferenceSpgState spg(gram, std::move(w0), opts.gamma, opts.affine_penalty);
  double step = 1.0;
  bool converged = false;
  int it = 0;
  for (; it < opts.spg.max_iterations; ++it) {
    if (spg.Direction(step) <= opts.spg.tolerance) {
      converged = true;
      break;
    }
    const double t = spg.LineSearch();
    step = spg.Advance(t, opts.spg);
    out.objective_trace.push_back(spg.Objective());
  }
  la::Matrix w = spg.TakeAffinity();

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

}  // namespace testing_reference
}  // namespace rhchme

#endif  // RHCHME_TESTS_REFERENCE_SPG_H_
