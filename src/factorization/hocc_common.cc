#include "factorization/hocc_common.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "cluster/assignments.h"
#include "cluster/kmeans.h"
#include "la/gemm.h"
#include "la/simd.h"
#include "la/solve.h"
#include "util/fault.h"
#include "util/parallel.h"

namespace rhchme {
namespace fact {

BlockStructure BuildBlockStructure(const data::MultiTypeRelationalData& data) {
  BlockStructure b;
  b.type_offset.assign(1, 0);
  b.cluster_offset.assign(1, 0);
  for (std::size_t k = 0; k < data.NumTypes(); ++k) {
    b.type_offset.push_back(b.type_offset.back() + data.Type(k).count);
    b.cluster_offset.push_back(b.cluster_offset.back() +
                               data.Type(k).clusters);
  }
  return b;
}

Result<la::Matrix> InitMembership(const data::MultiTypeRelationalData& data,
                                  const BlockStructure& blocks,
                                  MembershipInit init, Rng* rng) {
  la::Matrix g(blocks.total_objects(), blocks.total_clusters());
  for (std::size_t k = 0; k < data.NumTypes(); ++k) {
    const data::ObjectType& type = data.Type(k);
    la::Matrix block;
    if (init == MembershipInit::kKMeans && !type.features.empty()) {
      // Spherical initialisation: L2-normalise object rows so the seeding
      // reflects direction (content) rather than magnitude — otherwise
      // corrupted high-norm rows capture the k-means++ centroids.
      la::Matrix unit = type.features;
      util::ParallelFor(
          0, unit.rows(), util::GrainForWork(4 * unit.cols() + 1),
          [&](std::size_t r0, std::size_t r1) {
            for (std::size_t i = r0; i < r1; ++i) {
              double* r = unit.row_ptr(i);
              double norm = 0.0;
              for (std::size_t j = 0; j < unit.cols(); ++j) {
                // NaN/Inf features (kNonFinite corruption) read as missing:
                // the row degrades toward zero instead of poisoning every
                // centroid distance.
                if (!std::isfinite(r[j])) r[j] = 0.0;
                norm += r[j] * r[j];
              }
              if (norm > 0.0 && std::isfinite(norm)) {
                const double inv = 1.0 / std::sqrt(norm);
                for (std::size_t j = 0; j < unit.cols(); ++j) r[j] *= inv;
              }
            }
          });
      cluster::KMeansOptions kopts;
      kopts.k = type.clusters;
      kopts.restarts = 2;
      Result<cluster::KMeansResult> km = cluster::KMeans(unit, kopts, rng);
      if (!km.ok()) return km.status();
      block = cluster::MembershipFromLabels(km.value().assignments,
                                            type.clusters);
    } else {
      block = cluster::RandomMembership(type.count, type.clusters, rng);
    }
    g.SetBlock(blocks.type_offset[k], blocks.cluster_offset[k], block);
  }
  if (util::FaultShouldFail(util::fault_site::kInitPoison) && !g.empty()) {
    g(0, 0) = std::numeric_limits<double>::quiet_NaN();
  }
  return g;
}

Result<la::Matrix> SolveCentralSFromProducts(const la::Matrix& gtg,
                                             const la::Matrix& gtmg,
                                             double ridge, SolveStats* stats) {
  if (gtg.rows() != gtg.cols() || !gtg.SameShape(gtmg)) {
    return Status::InvalidArgument("SolveCentralSFromProducts: shape mismatch");
  }
  // Ridge ladder for the retry guard. Boosts are scaled to the mean
  // |diagonal| of GᵀG so "large" is relative to this problem's Gram
  // magnitude, not an absolute unit. Attempt 0 is byte-for-byte the
  // unguarded solve, preserving healthy trajectories exactly.
  double diag_mean = 0.0;
  for (std::size_t i = 0; i < gtg.rows(); ++i) {
    diag_mean += std::fabs(gtg(i, i));
  }
  if (gtg.rows() > 0) diag_mean /= static_cast<double>(gtg.rows());
  const double scale =
      diag_mean > 0.0 && std::isfinite(diag_mean) ? diag_mean : 1.0;
  const double ladder[3] = {ridge, std::max(ridge * 1e3, scale * 1e-8),
                            std::max(ridge * 1e6, scale * 1e-4)};
  Status last = Status::NumericalError("central solve: no attempt ran");
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (attempt > 0 && stats != nullptr) ++stats->ridge_retries;
    if (attempt == 0 &&
        util::FaultShouldFail(util::fault_site::kCentralSolveFail)) {
      last = Status::NumericalError("injected central-solve failure");
      continue;
    }
    // S = (GᵀG + rI)⁻¹ Gᵀ M G (GᵀG + rI)⁻¹, evaluated as two solves.
    Result<la::Matrix> left = la::SolveRidged(gtg, gtmg, ladder[attempt]);
    if (!left.ok()) {
      last = left.status();
      continue;
    }
    // Right inverse: solve (GᵀG) Xᵀ = leftᵀ, i.e. X = left (GᵀG)⁻¹.
    Result<la::Matrix> right =
        la::SolveRidged(gtg, left.value().Transposed(), ladder[attempt]);
    if (!right.ok()) {
      last = right.status();
      continue;
    }
    la::Matrix s = std::move(right).value().Transposed();
    if (attempt == 0 && !s.empty() &&
        util::FaultShouldFail(util::fault_site::kCentralSolvePoison)) {
      s(0, 0) = std::numeric_limits<double>::quiet_NaN();
    }
    if (!s.AllFinite()) {
      last = Status::NumericalError(
          "SolveCentralSFromProducts: non-finite S at ridge " +
          std::to_string(ladder[attempt]));
      continue;
    }
    return s;
  }
  return last;
}

void GUpdateGramTerms(const la::Matrix& s, const la::Matrix& gtg,
                      la::Matrix* b_pos, la::Matrix* b_neg) {
  // B = ½ (Sᵀ GᵀG S + S GᵀG Sᵀ).
  la::Matrix gtgs = la::Multiply(gtg, s);               // GᵀG S
  la::Matrix b = la::MultiplyTN(s, gtgs);               // Sᵀ GᵀG S
  la::Matrix gtgst = la::MultiplyNT(gtg, s);            // GᵀG Sᵀ
  b.Add(la::Multiply(s, gtgst));                        // + S GᵀG Sᵀ
  b.Scale(0.5);
  *b_pos = la::PositivePart(b);
  *b_neg = la::NegativePart(b);
}

void GUpdateRows(const GUpdateOperands& op, const la::Matrix& g,
                 std::size_t r0, std::size_t r1, GUpdateScratch* scratch,
                 la::Matrix* g_out) {
  const la::simd::KernelTable& kt = la::simd::Table();
  const std::size_t c = g.cols();
  const la::Matrix& s = *op.s;
  la::Matrix& a = scratch->a;
  la::Matrix& num = scratch->num;
  la::Matrix& den = scratch->den;
  // A = ½ (M G Sᵀ + Mᵀ G S); (M G Sᵀ)_ij is the dot of M·G's row i with
  // S's row j.
  la::MultiplyRowsInto(*op.mtg, s, &a, r0, r1);
  constexpr std::size_t kBatch = 64;
  double dots[kBatch];
  for (std::size_t i = r0; i < r1; ++i) {
    double* ai = a.row_ptr(i);
    for (std::size_t j0 = 0; j0 < c; j0 += kBatch) {
      const std::size_t len = std::min(kBatch, c - j0);
      kt.dot_rows(op.mg->row_ptr(i), s.row_ptr(j0), s.stride(), nullptr, len,
                  c, dots);
      for (std::size_t t = 0; t < len; ++t) {
        ai[j0 + t] = (dots[t] + ai[j0 + t]) * 0.5;
      }
    }
  }
  la::MultiplyRowsInto(g, *op.b_neg, &num, r0, r1);  // G·B⁻
  la::MultiplyRowsInto(g, *op.b_pos, &den, r0, r1);  // G·B⁺
  const bool manifold = op.lg_neg != nullptr && op.lg_pos != nullptr;
  for (std::size_t i = r0; i < r1; ++i) {
    const double* ai = a.row_ptr(i);
    const double* ni = num.row_ptr(i);
    const double* di = den.row_ptr(i);
    const double* lni = manifold ? op.lg_neg->row_ptr(i) : nullptr;
    const double* lpi = manifold ? op.lg_pos->row_ptr(i) : nullptr;
    const double* gi = g.row_ptr(i);
    double* oi = g_out->row_ptr(i);
    for (std::size_t j = 0; j < c; ++j) {
      double nj = (ai[j] > 0.0 ? ai[j] : 0.0) + ni[j];   // A⁺ + G·B⁻
      double dj = (ai[j] < 0.0 ? -ai[j] : 0.0) + di[j];  // A⁻ + G·B⁺
      if (manifold) {
        nj = nj + lni[j];
        dj = dj + lpi[j];
      }
      // Guard tiny negatives in the numerator.
      const double pos = nj > 0.0 ? nj : 0.0;
      oi[j] = gi[j] * std::sqrt(pos / (dj + op.eps));
    }
  }
}

Status MultiplicativeGUpdateFromProducts(const la::Matrix& mg,
                                         const la::Matrix& mtg,
                                         const la::Matrix& s,
                                         const la::Matrix& gtg, double lambda,
                                         const la::SparseMatrix* laplacian_pos,
                                         const la::SparseMatrix* laplacian_neg,
                                         double eps, la::Matrix* g) {
  if (!mg.SameShape(*g) || !mtg.SameShape(*g)) {
    return Status::InvalidArgument(
        "MultiplicativeGUpdateFromProducts: shape mismatch");
  }
  la::Matrix lg_neg, lg_pos;                            // n x c SpMM results
  const bool manifold =
      lambda != 0.0 && laplacian_pos != nullptr && laplacian_neg != nullptr;
  if (manifold) {
    laplacian_neg->MultiplyDenseInto(*g, &lg_neg);
    lg_neg.Scale(lambda);
    laplacian_pos->MultiplyDenseInto(*g, &lg_pos);
    lg_pos.Scale(lambda);
  }
  la::Matrix b_pos, b_neg;
  GUpdateGramTerms(s, gtg, &b_pos, &b_neg);
  GUpdateOperands op;
  op.mg = &mg;
  op.mtg = &mtg;
  op.s = &s;
  op.b_pos = &b_pos;
  op.b_neg = &b_neg;
  op.lg_neg = manifold ? &lg_neg : nullptr;
  op.lg_pos = manifold ? &lg_pos : nullptr;
  op.eps = eps;
  const std::size_t n = g->rows(), c = g->cols();
  GUpdateScratch scratch;
  scratch.Resize(n, c);
  // Whole panels per chunk: GUpdateRows reads G's panels before it
  // overwrites them.
  const std::size_t grain =
      (util::GrainForWork(10 * c * c + 1) + la::kGemmRowPanel - 1) /
      la::kGemmRowPanel * la::kGemmRowPanel;
  util::ParallelFor(0, n, grain, [&](std::size_t r0, std::size_t r1) {
    GUpdateRows(op, *g, r0, r1, &scratch, g);
  });
  if (util::FaultShouldFail(util::fault_site::kGUpdatePoison) && !g->empty()) {
    // Simulates a kernel emitting NaN (e.g. an overflowed 0·inf product);
    // the solver's post-update tripwire must catch and sanitize it.
    (*g)(0, 0) = std::numeric_limits<double>::quiet_NaN();
  }
  return Status::OK();
}

void RatioUpdate(const la::Matrix& num, const la::Matrix& den, double eps,
                 la::Matrix* g) {
  RHCHME_CHECK(num.SameShape(den) && num.SameShape(*g),
               "RatioUpdate: shape mismatch");
  // Row-wise: Matrix rows are stride-padded, so flat data() indexing would
  // walk into the padding.
  const std::size_t cols = g->cols();
  util::ParallelFor(0, g->rows(), util::GrainForWork(8 * (cols + 1)),
                    [&](std::size_t r0, std::size_t r1) {
                      for (std::size_t i = r0; i < r1; ++i) {
                        const double* pn = num.row_ptr(i);
                        const double* pd = den.row_ptr(i);
                        double* pg = g->row_ptr(i);
                        for (std::size_t j = 0; j < cols; ++j) {
                          // Guard tiny negatives in the numerator.
                          const double n = pn[j] > 0.0 ? pn[j] : 0.0;
                          pg[j] *= std::sqrt(n / (pd[j] + eps));
                        }
                      }
                    });
}

void NormalizeMembershipRows(const BlockStructure& blocks, la::Matrix* g) {
  for (std::size_t k = 0; k < blocks.num_types(); ++k) {
    const std::size_t c0 = blocks.cluster_offset[k];
    const std::size_t c1 = blocks.cluster_offset[k + 1];
    util::ParallelFor(
        blocks.type_offset[k], blocks.type_offset[k + 1],
        util::GrainForWork(4 * (c1 - c0) + 1),
        [&](std::size_t r0, std::size_t r1) {
          for (std::size_t i = r0; i < r1; ++i) {
            NormalizeMembershipRow(c0, c1, g->row_ptr(i));
          }
        });
  }
}

void NormalizeMembershipRow(std::size_t c0, std::size_t c1, double* row) {
  double s = 0.0;
  for (std::size_t j = c0; j < c1; ++j) s += std::fabs(row[j]);
  if (s > 0.0) {
    const double inv = 1.0 / s;
    for (std::size_t j = c0; j < c1; ++j) row[j] *= inv;
  } else {
    const double u = 1.0 / static_cast<double>(c1 - c0);
    for (std::size_t j = c0; j < c1; ++j) row[j] = u;
  }
}

std::vector<std::vector<std::size_t>> ExtractLabels(
    const BlockStructure& blocks, const la::Matrix& g) {
  std::vector<std::vector<std::size_t>> labels;
  labels.reserve(blocks.num_types());
  for (std::size_t k = 0; k < blocks.num_types(); ++k) {
    labels.push_back(cluster::HardAssignments(
        g, blocks.type_offset[k], blocks.type_offset[k + 1],
        blocks.cluster_offset[k], blocks.cluster_offset[k + 1]));
  }
  return labels;
}

}  // namespace fact
}  // namespace rhchme
