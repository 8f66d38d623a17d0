// RMC — Relational Multi-manifold Co-clustering baseline (paper §II.A
// Eq. 2 and §IV.B; Li et al., IEEE Trans. Cybernetics 2013 [15]).
//
// Like SNMTF but the graph regulariser is a LEARNED convex combination of
// q pre-given pNN-graph Laplacian candidates:
//
//   L = sum_i beta_i · L̂_i,   sum_i beta_i = 1, beta_i >= 0        (Eq. 2)
//
// The paper's experimental setup uses q = 6 candidates: p ∈ {5, 10} ×
// {binary, heat kernel, cosine} weighting. The candidate weights are
// refreshed each outer iteration by minimising
//   sum_i beta_i · tr(Gᵀ·L̂_i·G) + mu·||beta||²  over the simplex,
// the quadratic-regularised scheme of the RMC paper (mu -> 0 picks only
// the single smoothest candidate; mu -> inf gives uniform weights).
//
// All candidates are the SAME kind of member (pNN graphs) — exactly the
// lack of diversity RHCHME's §III.B argues against.
//
// It runs the RHCHME solver core (core/rhchme_solver.h) with E_R and
// Eq. 22 off. Each candidate is a sparse pNN-only ensemble Laplacian
// (core::BuildEnsemble); their weighted sum lives on the union of their
// CSR patterns, built once, and the core's Laplacian hook rewrites its
// values from each iteration's weights.

#ifndef RHCHME_BASELINES_RMC_H_
#define RHCHME_BASELINES_RMC_H_

#include <cstdint>
#include <vector>

#include "data/multitype_data.h"
#include "factorization/hocc_common.h"
#include "graph/knn_graph.h"
#include "graph/laplacian.h"
#include "util/status.h"

namespace rhchme {
namespace baselines {

struct RmcOptions {
  double lambda = 250.0;
  /// Candidate pNN configurations; empty selects the paper's six.
  std::vector<graph::KnnGraphOptions> candidates;
  graph::LaplacianKind laplacian = graph::LaplacianKind::kSymmetric;
  /// Weight-spread regulariser mu; <= 0 selects mu automatically from the
  /// scale of the tr(Gᵀ·L̂_i·G) values. NaN is rejected.
  double mu = -1.0;
  int max_iterations = 100;
  double tolerance = 1e-5;
  double ridge = 1e-9;
  double mu_eps = 1e-12;
  fact::MembershipInit init = fact::MembershipInit::kKMeans;
  uint64_t seed = 0;

  Status Validate() const;
};

/// The paper's six candidates: p ∈ {5,10} × {binary, heat, cosine}.
std::vector<graph::KnnGraphOptions> DefaultRmcCandidates();

struct RmcResult {
  fact::HoccResult hocc;
  std::vector<double> candidate_weights;  ///< Final beta.
};

Result<RmcResult> RunRmc(const data::MultiTypeRelationalData& data,
                         const RmcOptions& opts);

/// Euclidean projection of `v` onto the probability simplex
/// {x >= 0, sum x = 1} (Duchi et al. algorithm; exposed for tests).
std::vector<double> ProjectOntoSimplex(std::vector<double> v);

}  // namespace baselines
}  // namespace rhchme

#endif  // RHCHME_BASELINES_RMC_H_
