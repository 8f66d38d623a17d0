// Aᵀ·B without materialising Aᵀ: the dense oracle's Mᵀ·G product.
//
// Source-row chunks of A/B accumulate into per-chunk (a.cols() x b.cols())
// buffers that are merged in chunk order. The chunk layout depends only
// on the shapes (capped at 16 chunks), and every output element sums its
// source rows in ascending order, so results are bit-identical for any
// pool size. The library's solver never forms a dense Mᵀ·G, so this
// lives with the oracle that does.

#ifndef RHCHME_TESTS_MULTIPLY_TN_STREAM_H_
#define RHCHME_TESTS_MULTIPLY_TN_STREAM_H_

#include <algorithm>
#include <vector>

#include "la/matrix.h"
#include "la/simd.h"
#include "util/parallel.h"

namespace rhchme {
namespace testing_reference {

/// Writes Aᵀ * B into `c` (resized as needed). Requires a.rows() ==
/// b.rows().
inline void MultiplyTNStreamInto(const la::Matrix& a, const la::Matrix& b,
                                 la::Matrix* c) {
  RHCHME_CHECK(a.rows() == b.rows(), "MultiplyTN: inner dims mismatch");
  const la::simd::KernelTable& kt = la::simd::Table();
  const std::size_t kk = a.rows(), m = a.cols(), n = b.cols();
  c->Resize(m, n);
  if (kk == 0 || m == 0 || n == 0) return;
  constexpr std::size_t kMaxChunks = 16;
  const std::size_t cap_grain = (kk + kMaxChunks - 1) / kMaxChunks;
  const std::size_t grain =
      std::max(util::GrainForWork(2 * m * (n ? n : 1)), cap_grain);
  const std::size_t nchunks = (kk + grain - 1) / grain;
  auto accumulate = [&](std::size_t k0, std::size_t k1, la::Matrix* out) {
    for (std::size_t k = k0; k < k1; ++k) {
      const double* ak = a.row_ptr(k);
      const double* bk = b.row_ptr(k);
      for (std::size_t i = 0; i < m; ++i) {
        const double aki = ak[i];
        if (aki == 0.0) continue;
        kt.axpy(aki, bk, out->row_ptr(i), n);
      }
    }
  };
  if (nchunks <= 1) {
    accumulate(0, kk, c);
    return;
  }
  std::vector<la::Matrix> partial(nchunks);
  util::ParallelFor(0, kk, grain, [&](std::size_t b0, std::size_t e0) {
    for (std::size_t cb = b0; cb < e0; cb += grain) {
      la::Matrix& slot = partial[cb / grain];
      slot.Resize(m, n);  // Zero-initialised accumulator.
      accumulate(cb, std::min(e0, cb + grain), &slot);
    }
  });
  for (const la::Matrix& slot : partial) c->Add(slot);
}

}  // namespace testing_reference
}  // namespace rhchme

#endif  // RHCHME_TESTS_MULTIPLY_TN_STREAM_H_
