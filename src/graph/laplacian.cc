#include "graph/laplacian.h"

#include <cmath>

namespace rhchme {
namespace graph {

Result<la::Matrix> BuildLaplacian(const la::SparseMatrix& affinity,
                                  LaplacianKind kind) {
  Result<la::SparseMatrix> l = BuildSparseLaplacian(affinity, kind);
  if (!l.ok()) return l.status();
  return l.value().ToDense();
}

Result<la::SparseMatrix> BuildSparseLaplacian(const la::SparseMatrix& w,
                                              LaplacianKind /*kind*/) {
  if (w.rows() != w.cols()) {
    return Status::InvalidArgument("Laplacian: affinity must be square");
  }
  const std::size_t n = w.rows();
  const std::vector<double> deg = w.RowSums();
  const auto& offsets = w.row_offsets();
  const auto& cols = w.col_indices();
  const auto& vals = w.values();

  std::vector<double> inv_sqrt(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    inv_sqrt[i] = deg[i] > 0.0 ? 1.0 / std::sqrt(deg[i]) : 0.0;
  }

  // Row i of L is row i of W, each entry scaled, with the diagonal term
  // merged in at column i: summed with a self-loop's entry (two addends
  // commute), and any entry that comes to zero is dropped.
  const std::size_t nnz_per_row = n > 0 ? w.nnz() / n + 1 : 1;
  return la::SparseMatrix::FromRows(
      n, n, 2 * nnz_per_row + 2,
      [&](std::size_t i, const auto& put) {
        const double diag = deg[i] > 0.0 ? 1.0 : 0.0;
        const double scale = inv_sqrt[i];
        auto emit = [&](std::size_t j, double v) {
          if (v != 0.0) put(j, v);
        };
        bool diag_done = false;
        for (std::size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
          const std::size_t j = cols[k];
          if (!diag_done && j >= i) {
            diag_done = true;
            if (j > i) emit(i, diag);
          }
          const double v = -scale * vals[k] * inv_sqrt[j];
          emit(j, j == i ? v + diag : v);
        }
        if (!diag_done) emit(i, diag);
      });
}

}  // namespace graph
}  // namespace rhchme
