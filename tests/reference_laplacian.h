// Reference Laplacians: the two rules graph::BuildSparseLaplacian
// replaced, for its one (symmetric-normalised) kind.
// ReferenceDenseLaplacian is the former dense-affinity overload, which
// walked all n² entries of W; ReferenceTripletLaplacian is the former
// sparse build, one triplet per term summed by
// la::SparseMatrix::FromTriplets. The library's direct CSR rows must
// match the triplet build byte for byte, and its values must equal the
// dense rule's nonzero entries exactly.

#ifndef RHCHME_TESTS_REFERENCE_LAPLACIAN_H_
#define RHCHME_TESTS_REFERENCE_LAPLACIAN_H_

#include <cmath>
#include <utility>
#include <vector>

#include "la/matrix.h"
#include "la/sparse.h"

namespace rhchme {
namespace testing_reference {

/// D^{-1/2} per vertex from the degrees, 0 for a zero-degree vertex.
inline std::vector<double> InvSqrtDegrees(const std::vector<double>& deg) {
  std::vector<double> inv_sqrt(deg.size(), 0.0);
  for (std::size_t i = 0; i < deg.size(); ++i) {
    inv_sqrt[i] = deg[i] > 0.0 ? 1.0 / std::sqrt(deg[i]) : 0.0;
  }
  return inv_sqrt;
}

/// L = I − D^{-1/2}·W·D^{-1/2} of a dense affinity W, entry by entry
/// (no diagonal term for a zero-degree vertex). Off-diagonal zeros of W
/// come out as −0.0.
inline la::Matrix ReferenceDenseLaplacian(const la::Matrix& w) {
  const std::size_t n = w.rows();
  const std::vector<double> deg = w.RowSums();
  const std::vector<double> inv_sqrt = InvSqrtDegrees(deg);
  la::Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      l(i, j) = -inv_sqrt[i] * w(i, j) * inv_sqrt[j];
    }
    l(i, i) += deg[i] > 0.0 ? 1.0 : 0.0;
  }
  return l;
}

/// The same L of a CSR affinity W as triplets: one per nonzero of W plus
/// one diagonal term per vertex of nonzero degree; FromTriplets sums a
/// self-loop's term with the diagonal one and drops zero sums.
inline la::SparseMatrix ReferenceTripletLaplacian(const la::SparseMatrix& w) {
  const std::size_t n = w.rows();
  const std::vector<double> deg = w.RowSums();
  const std::vector<double> inv_sqrt = InvSqrtDegrees(deg);
  const auto& offsets = w.row_offsets();
  const auto& cols = w.col_indices();
  const auto& vals = w.values();
  std::vector<la::Triplet> trips;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      trips.push_back({i, cols[k], -inv_sqrt[i] * vals[k] * inv_sqrt[cols[k]]});
    }
    if (deg[i] > 0.0) trips.push_back({i, i, 1.0});
  }
  return la::SparseMatrix::FromTriplets(n, n, std::move(trips));
}

}  // namespace testing_reference
}  // namespace rhchme

#endif  // RHCHME_TESTS_REFERENCE_LAPLACIAN_H_
