// SNMTF — Symmetric Nonnegative Matrix Tri-Factorisation baseline
// (paper §II.A Eq. 1 and §IV.B; Wang et al., CIKM/ICDM 2011 [5, 6]).
//
// Adds a single-graph manifold regulariser to the SRC objective:
//
//   min_{G >= 0}  ||R − G·S·Gᵀ||²_F + lambda·tr(Gᵀ·L·G)
//
// with L built from ONE pNN graph per type (the paper uses p = 5). This
// is the "intra-type relationships from a pNN graph only" reference
// point that RHCHME's heterogeneous ensemble improves on. The original
// SNMTF imposes Gᵀ·L·G = I; as in RMC [15] we use the relaxed
// multiplicative scheme, which keeps G nonnegative (the paper §III.C
// discusses exactly this trade-off).
//
// It runs the RHCHME solver core (core/rhchme_solver.h) through
// core::Rhchme::Fit with E_R and Eq. 22 off and the subspace member
// dropped: the ensemble's pNN-only Laplacian is SNMTF's single-graph
// Laplacian. CSR joint R and sparse Laplacian end to end; the core's
// input sanitisation and numerical guards apply.

#ifndef RHCHME_BASELINES_SNMTF_H_
#define RHCHME_BASELINES_SNMTF_H_

#include <cstdint>

#include "data/multitype_data.h"
#include "factorization/hocc_common.h"
#include "graph/knn_graph.h"
#include "util/status.h"

namespace rhchme {
namespace baselines {

struct SnmtfOptions {
  double lambda = 250.0;  ///< Graph regularisation strength.
  graph::KnnGraphOptions knn;  ///< Single pNN member (paper: p=5 cosine).
  int max_iterations = 100;
  double tolerance = 1e-5;
  uint64_t seed = 0;

  Status Validate() const;
};

/// Fits SNMTF. Types must have nonempty features (for the pNN graphs).
Result<fact::HoccResult> RunSnmtf(const data::MultiTypeRelationalData& data,
                                  const SnmtfOptions& opts);

}  // namespace baselines
}  // namespace rhchme

#endif  // RHCHME_BASELINES_SNMTF_H_
