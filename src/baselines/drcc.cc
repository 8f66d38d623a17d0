#include "baselines/drcc.h"

#include <cmath>
#include <limits>

#include "cluster/assignments.h"
#include "cluster/kmeans.h"
#include "factorization/hocc_common.h"
#include "graph/laplacian.h"
#include "la/gemm.h"
#include "la/solve.h"
#include "la/sparse.h"
#include "util/stopwatch.h"

namespace rhchme {
namespace baselines {

Status DrccOptions::Validate() const {
  if (row_clusters == 0 || col_clusters == 0) {
    return Status::InvalidArgument("cluster counts must be >= 1");
  }
  // Negated comparisons: NaN fails every one of them.
  if (!(lambda >= 0.0) || !(mu >= 0.0)) {
    return Status::InvalidArgument("lambda/mu must be >= 0 and not NaN");
  }
  if (!(tolerance >= 0.0)) {
    return Status::InvalidArgument("tolerance must be >= 0 and not NaN");
  }
  if (max_iterations <= 0) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  return knn.Validate();
}

namespace {

/// S = (GᵀG + rI)⁻¹ Gᵀ X F (FᵀF + rI)⁻¹ — the bilinear central solve.
Result<la::Matrix> SolveBilinearS(const la::Matrix& g, const la::Matrix& x,
                                  const la::Matrix& f, double ridge) {
  la::Matrix gtxf = la::MultiplyTN(g, la::Multiply(x, f));
  Result<la::Matrix> left = la::SolveRidged(la::Gram(g), gtxf, ridge);
  if (!left.ok()) return left.status();
  Result<la::Matrix> right =
      la::SolveRidged(la::Gram(f), left.value().Transposed(), ridge);
  if (!right.ok()) return right.status();
  return right.value().Transposed();
}

/// k-means membership initialisation over the rows of `points`.
Result<la::Matrix> InitFactor(const la::Matrix& points, std::size_t k,
                              Rng* rng) {
  cluster::KMeansOptions kopts;
  kopts.k = k;
  kopts.restarts = 2;
  Result<cluster::KMeansResult> km = cluster::KMeans(points, kopts, rng);
  if (!km.ok()) return km.status();
  return cluster::MembershipFromLabels(km.value().assignments, k);
}

}  // namespace

Result<DrccResult> RunDrcc(const la::Matrix& x, const DrccOptions& opts) {
  RHCHME_RETURN_IF_ERROR(opts.Validate());
  if (x.rows() < opts.row_clusters || x.cols() < opts.col_clusters) {
    return Status::InvalidArgument("DRCC: fewer objects than clusters");
  }
  Stopwatch watch;

  // Sample graph on rows of X, feature graph on rows of Xᵀ.
  const la::Matrix xt = x.Transposed();
  Result<la::SparseMatrix> wg = graph::BuildKnnGraph(x, opts.knn);
  if (!wg.ok()) return wg.status();
  Result<la::SparseMatrix> wf = graph::BuildKnnGraph(xt, opts.knn);
  if (!wf.ok()) return wf.status();
  Result<la::SparseMatrix> lg =
      graph::BuildSparseLaplacian(wg.value(), graph::LaplacianKind::kSymmetric);
  if (!lg.ok()) return lg.status();
  Result<la::SparseMatrix> lf =
      graph::BuildSparseLaplacian(wf.value(), graph::LaplacianKind::kSymmetric);
  if (!lf.ok()) return lf.status();
  const la::SparseMatrix lg_pos = la::PositivePart(lg.value());
  const la::SparseMatrix lg_neg = la::NegativePart(lg.value());
  const la::SparseMatrix lf_pos = la::PositivePart(lf.value());
  const la::SparseMatrix lf_neg = la::NegativePart(lf.value());

  Rng rng(opts.seed);
  Result<la::Matrix> g_init = InitFactor(x, opts.row_clusters, &rng);
  if (!g_init.ok()) return g_init.status();
  la::Matrix g = std::move(g_init).value();
  Result<la::Matrix> f_init = InitFactor(xt, opts.col_clusters, &rng);
  if (!f_init.ok()) return f_init.status();
  la::Matrix f = std::move(f_init).value();

  DrccResult res;
  la::Matrix s;
  double prev = std::numeric_limits<double>::infinity();
  for (int t = 1; t <= opts.max_iterations; ++t) {
    Result<la::Matrix> s_new = SolveBilinearS(g, x, f, fact::kRidge);
    if (!s_new.ok()) return s_new.status();
    s = std::move(s_new).value();

    // ---- G update: grad = -2·X·F·Sᵀ + 2·G·(S·FᵀF·Sᵀ) + 2·mu·L_G·G.
    {
      la::Matrix xfst = la::MultiplyNT(la::Multiply(x, f), s);
      la::Matrix sffs = la::MultiplyNT(la::Multiply(s, la::Gram(f)), s);
      la::Matrix num = la::PositivePart(xfst);
      num.Add(la::Multiply(g, la::NegativePart(sffs)));
      la::Matrix den = la::NegativePart(xfst);
      den.Add(la::Multiply(g, la::PositivePart(sffs)));
      if (opts.mu != 0.0) {
        la::Matrix tmp;
        lg_neg.MultiplyDenseInto(g, &tmp);
        tmp.Scale(opts.mu);
        num.Add(tmp);
        lg_pos.MultiplyDenseInto(g, &tmp);
        tmp.Scale(opts.mu);
        den.Add(tmp);
      }
      fact::RatioUpdate(num, den, fact::kMuEps, &g);
    }

    // ---- F update: grad = -2·Xᵀ·G·S + 2·F·(Sᵀ·GᵀG·S) + 2·lambda·L_F·F.
    {
      la::Matrix xtgs = la::Multiply(la::MultiplyTN(x, g), s);
      la::Matrix sggs = la::MultiplyTN(s, la::Multiply(la::Gram(g), s));
      la::Matrix num = la::PositivePart(xtgs);
      num.Add(la::Multiply(f, la::NegativePart(sggs)));
      la::Matrix den = la::NegativePart(xtgs);
      den.Add(la::Multiply(f, la::PositivePart(sggs)));
      if (opts.lambda != 0.0) {
        la::Matrix tmp;
        lf_neg.MultiplyDenseInto(f, &tmp);
        tmp.Scale(opts.lambda);
        num.Add(tmp);
        lf_pos.MultiplyDenseInto(f, &tmp);
        tmp.Scale(opts.lambda);
        den.Add(tmp);
      }
      fact::RatioUpdate(num, den, fact::kMuEps, &f);
    }

    // ---- Objective.
    la::Matrix approx = la::MultiplyNT(la::Multiply(g, s), f);
    approx.Sub(x);
    const double objective =
        approx.FrobeniusNormSquared() +
        opts.lambda * la::FrobeniusInner(lf.value().MultiplyDense(f), f) +
        opts.mu * la::FrobeniusInner(lg.value().MultiplyDense(g), g);
    res.objective_trace.push_back(objective);
    res.iterations = t;
    const double rel =
        std::fabs(prev - objective) / std::max(1.0, std::fabs(prev));
    if (std::isfinite(prev) && rel < opts.tolerance) {
      res.converged = true;
      break;
    }
    prev = objective;
  }

  res.row_labels = cluster::HardAssignments(g);
  res.col_labels = cluster::HardAssignments(f);
  res.g = std::move(g);
  res.f = std::move(f);
  res.s = std::move(s);
  res.seconds = watch.ElapsedSeconds();
  return res;
}

}  // namespace baselines
}  // namespace rhchme
