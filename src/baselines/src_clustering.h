// SRC — Spectral Relational Clustering baseline (paper §IV.B; Long et
// al., ICML 2006 [2]).
//
// As benchmarked in the paper, SRC performs collective nonnegative matrix
// tri-factorisation of the inter-type relationships ONLY:
//
//   min_{G >= 0}  sum_{i<j} nu_ij · ||R_ij − G_i·S_ij·G_jᵀ||²_F
//
// i.e. the joint objective ||R − G·S·Gᵀ||²_F with no intra-type
// (manifold) information. It is the "no intra-type relationships"
// reference point of Tables III–V.
//
// It runs the RHCHME solver core (core/rhchme_solver.h) on the CSR joint
// R with E_R and Eq. 22 off, lambda = 0 and an empty Laplacian, so it
// shares the core's input sanitisation and numerical guards.

#ifndef RHCHME_BASELINES_SRC_CLUSTERING_H_
#define RHCHME_BASELINES_SRC_CLUSTERING_H_

#include <cstdint>

#include "data/multitype_data.h"
#include "factorization/hocc_common.h"
#include "util/status.h"

namespace rhchme {
namespace baselines {

struct SrcOptions {
  int max_iterations = 100;
  double tolerance = 1e-5;    ///< Relative objective-change stop rule.
  double ridge = 1e-9;        ///< Empty-cluster guard in the S solve.
  double mu_eps = 1e-12;      ///< Multiplicative denominator floor.
  fact::MembershipInit init = fact::MembershipInit::kKMeans;
  uint64_t seed = 0;

  Status Validate() const;
};

/// Fits SRC on the data's inter-type relationships.
Result<fact::HoccResult> RunSrc(const data::MultiTypeRelationalData& data,
                                const SrcOptions& opts);

}  // namespace baselines
}  // namespace rhchme

#endif  // RHCHME_BASELINES_SRC_CLUSTERING_H_
