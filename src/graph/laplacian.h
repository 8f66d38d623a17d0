// Graph Laplacians.
//
// The manifold regulariser tr(Gᵀ L G) (paper Eq. 1/15) smooths cluster
// labels over an affinity graph. The paper writes L = D − W and calls it
// normalised; the library builds the symmetric-normalised form
// L = I − D^{-1/2}·W·D^{-1/2} for every graph (both ensemble members,
// SNMTF, RMC and DRCC).

#ifndef RHCHME_GRAPH_LAPLACIAN_H_
#define RHCHME_GRAPH_LAPLACIAN_H_

#include "la/matrix.h"
#include "la/sparse.h"
#include "util/status.h"

namespace rhchme {
namespace graph {

/// The Laplacian rule. It has the one value kSymmetric, kept for callers
/// that pass it (core::EnsembleOptions::laplacian, e2ebench).
enum class LaplacianKind {
  kSymmetric,  ///< L = I - D^{-1/2} W D^{-1/2}
};

/// Sparse-in, sparse-out Laplacian, the library's one Laplacian rule: the
/// result's pattern is W's pattern plus the diagonal, so a pNN affinity
/// (p entries per row) yields an O(n·p) Laplacian and a learned subspace
/// affinity W^S an O(nnz(W^S)) one — never a dense n x n. This is what
/// keeps the ensemble Laplacian of Eq. 12 sparse end-to-end in the
/// solver. Isolated vertices (zero degree) get an empty row (their
/// D^{-1/2} is treated as 0, the spectral-clustering convention). Rows
/// are written straight into CSR, row-parallel; a self-loop's term is
/// summed with the diagonal and an entry that comes to zero is dropped,
/// so the bits are those of summing the terms as triplets
/// (la::SparseMatrix::FromTriplets) for any pool size. Requires a square
/// affinity matrix.
Result<la::SparseMatrix> BuildSparseLaplacian(const la::SparseMatrix& affinity,
                                              LaplacianKind kind);

/// Dense copy of BuildSparseLaplacian, for callers that want L dense.
Result<la::Matrix> BuildLaplacian(const la::SparseMatrix& affinity,
                                  LaplacianKind kind);

}  // namespace graph
}  // namespace rhchme

#endif  // RHCHME_GRAPH_LAPLACIAN_H_
