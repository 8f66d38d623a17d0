#include "la/gemm.h"

#include <algorithm>
#include <vector>

#include "la/aligned.h"
#include "la/simd.h"
#include "util/parallel.h"

namespace rhchme {
namespace la {
namespace {

// Tile sizes for the blocked kernels. A reduction tile of B
// (kBlockK x kBlockJ = 128 KB) stays resident in L2 while a panel of
// kRowPanel output rows streams over it; the C row segment (kBlockJ
// doubles) stays in L1 across the reduction tile. The accumulation order
// for any output element is fixed by these constants and the dispatched
// kernel table alone, never by the thread count, which keeps results
// bit-identical for any pool size within a dispatched ISA.
constexpr std::size_t kRowPanel = kGemmRowPanel;
constexpr std::size_t kBlockK = kGemmBlockK;
constexpr std::size_t kBlockJ = 256;

/// Cheap density probe: MostlyZero over the A tile rows [p0, p1) x cols
/// [kb, kend). One pass over at most kRowPanel x kBlockK doubles — noise
/// against the 2·rows·klen·n flops the tile is about to spend. Membership
/// blocks (one nonzero per row per type block) sit far above the rule's
/// threshold; dense R products sit far below, so the probe rarely flips on
/// borderline tiles.
bool PanelMostlyZero(const Matrix& a, std::size_t p0, std::size_t p1,
                     std::size_t kb, std::size_t kend) {
  std::size_t zeros = 0;
  for (std::size_t i = p0; i < p1; ++i) {
    const double* ai = a.row_ptr(i);
    for (std::size_t l = kb; l < kend; ++l) zeros += (ai[l] == 0.0);
  }
  return MostlyZero(zeros, (p1 - p0) * (kend - kb));
}

/// Zero-skipping panel kernel: right for mostly-zero A tiles (membership
/// blocks), where skipped rows save the whole B-row stream. The branch
/// defeats vectorization of the l loop, which is why dense tiles bypass
/// this kernel entirely.
void GemmPanelSparse(const simd::KernelTable& kt, const Matrix& a,
                     const Matrix& b, Matrix* c, std::size_t p0,
                     std::size_t p1, std::size_t kb, std::size_t kend,
                     std::size_t jb, std::size_t jlen) {
  for (std::size_t i = p0; i < p1; ++i) {
    const double* ai = a.row_ptr(i);
    double* ci = c->row_ptr(i) + jb;
    for (std::size_t l = kb; l < kend; ++l) {
      const double ail = ai[l];
      if (ail == 0.0) continue;
      kt.axpy(ail, b.row_ptr(l) + jb, ci, jlen);
    }
  }
}

/// C rows [r0, r1) of C = A * B, tiled over the reduction and column dims
/// on the dispatched table's packed protocol. Loop order per chunk is
/// kb → jb → row panel: every dense (panel × kb) A tile is packed once
/// into mr-row micro-panels (BLIS A-panel layout — the packed stream is
/// contiguous in the reduction direction, which removes the strided-row
/// L1 conflict misses that capped the unpacked microkernel at large n),
/// and each nr-column packed B block is then reused across *all* row
/// panels of the chunk — B packing traffic scales with blocks, not with
/// blocks × panels, which is what capped the packed kernel at n=1024.
///
/// Terms enter every C element in "l ascending within kb, kb ascending"
/// order on both paths, but the rounding chain differs between them (FMA
/// into a zero-initialised register partial vs unfused in-place updates
/// of C), so the two paths are NOT bit-identical to each other. That is
/// fine for the determinism contract: probe decisions sit on kRowPanel
/// sub-panels of the *global* row grid and always read the whole panel,
/// even when [r0, r1) covers only part of it. They read only A's content,
/// never the thread count or the range, and each output element's chain
/// depends only on its own row, so the result of a row is the same for
/// every pool size and every tiling of the rows.
void GemmPanelNN(const Matrix& a, const Matrix& b, Matrix* c, std::size_t r0,
                 std::size_t r1) {
  const simd::KernelTable& kt = simd::Table();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  // Panels sit on the global kRowPanel grid; a range that starts or ends
  // inside a panel computes only its own rows of it, but the probe still
  // reads the whole panel.
  const std::size_t first = r0 / kRowPanel;
  const std::size_t npanels = r1 > r0 ? (r1 - 1) / kRowPanel + 1 - first : 0;
  auto panel_rows = [&](std::size_t p, std::size_t* lo, std::size_t* hi) {
    const std::size_t p0 = (first + p) * kRowPanel;
    *lo = std::max(r0, p0);
    *hi = std::min(r1, p0 + kRowPanel);
  };
  AlignedVector<double> packa, packb;
  std::vector<std::size_t> aoff(npanels);
  std::vector<char> sparse(npanels);
  for (std::size_t kb = 0; kb < k; kb += kBlockK) {
    const std::size_t kend = std::min(k, kb + kBlockK);
    const std::size_t klen = kend - kb;
    std::size_t atotal = 0;
    for (std::size_t p = 0; p < npanels; ++p) {
      const std::size_t p0 = (first + p) * kRowPanel;
      sparse[p] = PanelMostlyZero(a, p0, std::min(a.rows(), p0 + kRowPanel),
                                  kb, kend)
                      ? 1
                      : 0;
      if (!sparse[p]) {
        std::size_t lo, hi;
        panel_rows(p, &lo, &hi);
        const std::size_t apanels = (hi - lo + kt.mr - 1) / kt.mr;
        aoff[p] = atotal;
        atotal += apanels * klen * kt.mr;
      }
    }
    packa.resize(atotal);
    for (std::size_t p = 0; p < npanels; ++p) {
      if (sparse[p]) continue;
      std::size_t lo, hi;
      panel_rows(p, &lo, &hi);
      kt.pack_a(a.row_ptr(lo) + kb, a.stride(), hi - lo, klen,
                packa.data() + aoff[p]);
    }
    for (std::size_t jb = 0; jb < n; jb += kBlockJ) {
      const std::size_t jlen = std::min(n, jb + kBlockJ) - jb;
      bool b_packed = false;
      for (std::size_t p = 0; p < npanels; ++p) {
        std::size_t lo, hi;
        panel_rows(p, &lo, &hi);
        if (sparse[p]) {
          GemmPanelSparse(kt, a, b, c, lo, hi, kb, kend, jb, jlen);
          continue;
        }
        if (!b_packed) {
          const std::size_t bpanels = (jlen + kt.nr - 1) / kt.nr;
          packb.resize(bpanels * klen * kt.nr);
          kt.pack_b(b.row_ptr(kb) + jb, b.stride(), klen, jlen,
                    packb.data());
          b_packed = true;
        }
        kt.gemm_packed(packa.data() + aoff[p], packb.data(), hi - lo, klen,
                       jlen, c->row_ptr(lo) + jb, c->stride());
      }
    }
  }
}

}  // namespace

bool MostlyZero(std::size_t zeros, std::size_t total) {
  return 2 * zeros >= total;
}

void MultiplyInto(const Matrix& a, const Matrix& b, Matrix* c) {
  RHCHME_CHECK(a.cols() == b.rows(), "Multiply: inner dims mismatch");
  const std::size_t m = a.rows();
  c->Resize(m, b.cols());
  util::ParallelFor(0, m, kRowPanel, [&](std::size_t r0, std::size_t r1) {
    GemmPanelNN(a, b, c, r0, r1);
  });
}

void MultiplyRowsInto(const Matrix& a, const Matrix& b, Matrix* c,
                      std::size_t r0, std::size_t r1) {
  RHCHME_CHECK(a.cols() == b.rows(), "Multiply: inner dims mismatch");
  RHCHME_CHECK(c->rows() == a.rows() && c->cols() == b.cols() &&
                   r0 <= r1 && r1 <= a.rows(),
               "MultiplyRowsInto: output shape or row range mismatch");
  for (std::size_t i = r0; i < r1; ++i) {
    std::fill(c->row_ptr(i), c->row_ptr(i) + c->cols(), 0.0);
  }
  GemmPanelNN(a, b, c, r0, r1);
}

Matrix Multiply(const Matrix& a, const Matrix& b) {
  Matrix c;
  MultiplyInto(a, b, &c);
  return c;
}

Matrix MultiplyTN(const Matrix& a, const Matrix& b) {
  RHCHME_CHECK(a.rows() == b.rows(), "MultiplyTN: inner dims mismatch");
  // Materialising Aᵀ costs O(mk) against the O(mkn) product and turns the
  // column-strided reads into the contiguous row-panel kernel.
  const Matrix at = a.Transposed();
  Matrix c(at.rows(), b.cols());
  util::ParallelFor(0, at.rows(), kRowPanel,
                    [&](std::size_t r0, std::size_t r1) {
                      GemmPanelNN(at, b, &c, r0, r1);
                    });
  return c;
}

void MultiplyNTInto(const Matrix& a, const Matrix& b, Matrix* c) {
  RHCHME_CHECK(a.cols() == b.cols(), "MultiplyNT: inner dims mismatch");
  const simd::KernelTable& kt = simd::Table();
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  c->Resize(m, n);
  // C(i,j) is a dot product of two contiguous rows; rows of C are
  // independent, so panels go straight to the pool.
  const std::size_t grain =
      std::max(std::size_t{1}, util::GrainForWork(2 * k * (n ? n : 1)));
  std::size_t zeros = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const double* bj = b.row_ptr(j);
    for (std::size_t l = 0; l < k; ++l) zeros += (bj[l] == 0.0);
  }
  if (!MostlyZero(zeros, n * k) || !a.AllFinite() || !b.AllFinite()) {
    util::ParallelFor(0, m, grain, [&](std::size_t r0, std::size_t r1) {
      for (std::size_t i = r0; i < r1; ++i) {
        kt.dot_rows(a.row_ptr(i), b.row_ptr(0), b.stride(), nullptr, n, k,
                    c->row_ptr(i));
      }
    });
    return;
  }
  // Mostly-zero B (tf-idf feature rows): each dot walks row j's nonzeros
  // against the dense row i of A, the same dot bit for bit.
  std::vector<std::size_t> offsets(n + 1, 0), idx;
  std::vector<double> vals;
  idx.reserve(n * k - zeros);
  vals.reserve(n * k - zeros);
  for (std::size_t j = 0; j < n; ++j) {
    const double* bj = b.row_ptr(j);
    for (std::size_t l = 0; l < k; ++l) {
      if (bj[l] == 0.0) continue;
      idx.push_back(l);
      vals.push_back(bj[l]);
    }
    offsets[j + 1] = idx.size();
  }
  util::ParallelFor(0, m, grain, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) {
      const double* ai = a.row_ptr(i);
      double* ci = c->row_ptr(i);
      for (std::size_t j = 0; j < n; ++j) {
        ci[j] = kt.dot_sparse(idx.data() + offsets[j],
                              vals.data() + offsets[j],
                              offsets[j + 1] - offsets[j], ai, k);
      }
    }
  });
}

Matrix MultiplyNT(const Matrix& a, const Matrix& b) {
  Matrix c;
  MultiplyNTInto(a, b, &c);
  return c;
}

Matrix Gram(const Matrix& a) {
  const simd::KernelTable& kt = simd::Table();
  const std::size_t k = a.rows(), n = a.cols();
  Matrix g(n, n);
  if (n == 0) return g;
  // Row i of AᵀA needs column i of A; the transpose makes every dot
  // contiguous. Each index i owns the upper-triangle entries (i, j >= i)
  // and their mirrors (j, i), so one region fills the whole matrix.
  const Matrix at = a.Transposed();
  const std::size_t grain =
      std::max(std::size_t{1}, util::GrainForWork(k * (n / 2 + 1)));
  util::ParallelFor(0, n, grain, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) {
      double* gi = g.row_ptr(i);
      kt.dot_rows(at.row_ptr(i), at.row_ptr(i), at.stride(), nullptr, n - i,
                  k, gi + i);
      for (std::size_t j = i + 1; j < n; ++j) g(j, i) = gi[j];
    }
  });
  return g;
}

double FrobeniusInner(const Matrix& a, const Matrix& b) {
  RHCHME_CHECK(a.SameShape(b), "FrobeniusInner: shape mismatch");
  const simd::KernelTable& kt = simd::Table();
  const std::size_t cols = a.cols();
  if (a.rows() == 0 || cols == 0) return 0.0;
  // Row-wise so the padded storage's stride never enters the sum; rows
  // within a chunk accumulate in ascending order and ParallelSum merges
  // chunk partials in chunk order.
  return util::ParallelSum(0, a.rows(), util::GrainForWork(2 * cols),
                           [&](std::size_t r0, std::size_t r1) {
                             double acc = 0.0;
                             for (std::size_t i = r0; i < r1; ++i) {
                               acc += kt.dot(a.row_ptr(i), b.row_ptr(i),
                                             cols);
                             }
                             return acc;
                           });
}

}  // namespace la
}  // namespace rhchme
