// Dense matrix-multiplication kernels.
//
// Every solver inner loop in the library funnels through these products.
// The kernels are cache-blocked (tiled over the reduction and column
// dimensions) and dispatch independent row panels of the output through
// util::ParallelFor, so they scale across cores; thread count is governed
// by util::SetNumThreads / the RHCHME_NUM_THREADS environment variable,
// and grain sizes derive from util::GrainForWork (≈64K flops per chunk).
//
// Within each row panel the inner loops run on the runtime-dispatched
// kernel table (la/simd.h, la/kernels.h): dense A tiles are packed —
// both operands, BLIS-style — and go through the table's register-blocked
// microkernel; mostly-zero tiles (membership blocks) keep a zero-skipping
// axpy path, selected per tile by a cheap density probe (Sandwich applies
// the same probe per reduction segment of each L row). One binary carries
// every compiled table (scalar, avx2, avx512) and picks one at
// startup by CPUID; RHCHME_FORCE_ISA / --force_isa pins the choice.
//
// Determinism: each output row is produced by exactly one chunk and its
// accumulation order is fixed by compile-time tile constants and the
// shape-only chunk layout, never by the thread count or schedule, so
// results are bit-identical for any pool size *under a given dispatched
// table* (different tables reassociate reductions differently and are
// not bit-comparable to each other). Shapes are checked; `*Into` variants
// reuse the caller's output buffer.

#ifndef RHCHME_LA_GEMM_H_
#define RHCHME_LA_GEMM_H_

#include "la/matrix.h"

namespace rhchme {
namespace la {

/// Height of the row panels the product kernels probe and pack: a panel
/// is rows [32·p, 32·p + 32) of the global row grid. Callers that
/// produce A's rows and multiply them in the same pass (MultiplyRowsInto)
/// tile their rows in whole panels.
constexpr std::size_t kGemmRowPanel = 32;

/// Width of the reduction tiles the product kernels probe: a (row panel ×
/// kGemmBlockK) tile of A is one probe unit.
constexpr std::size_t kGemmBlockK = 64;

/// The product kernels' one density rule: true when at least half of a
/// tile's `total` entries are exact zeros (`zeros` of them), so the tile
/// takes the zero-skipping path. Every (row panel × kGemmBlockK) tile of
/// A in MultiplyInto / MultiplyRowsInto picks its path by it, so a caller
/// that knows its nonzero counts can predict that path without reading
/// the tile.
bool MostlyZero(std::size_t zeros, std::size_t total);

/// C = A * B. Requires a.cols() == b.rows().
Matrix Multiply(const Matrix& a, const Matrix& b);

/// C = Aᵀ * B. Requires a.rows() == b.rows().
Matrix MultiplyTN(const Matrix& a, const Matrix& b);

/// C = A * Bᵀ. Requires a.cols() == b.cols().
Matrix MultiplyNT(const Matrix& a, const Matrix& b);

/// Writes A * B into `c` (resized as needed).
void MultiplyInto(const Matrix& a, const Matrix& b, Matrix* c);

/// Rows [r0, r1) of C = A * B, written into `c`, which must already be
/// a.rows() x b.cols(); other rows are left alone. Each row is
/// bit-identical to the same row of MultiplyInto for any range: a
/// 32-row panel of the global row grid takes the path its whole-panel
/// density probe picks, so callers may tile rows freely, e.g. inside
/// their own fused row-parallel passes. The probe reads every row of A in
/// the panels the range touches, so those rows must be final. Serial; the
/// caller owns the parallelism.
void MultiplyRowsInto(const Matrix& a, const Matrix& b, Matrix* c,
                      std::size_t r0, std::size_t r1);

/// Writes Aᵀ * B into `c` (resized as needed). Materialises Aᵀ first —
/// fastest for the general case, but costs an A-sized temporary.
void MultiplyTNInto(const Matrix& a, const Matrix& b, Matrix* c);

/// Writes A * Bᵀ into `c` (resized as needed). Every C(i,j) is the
/// dispatched table's dot of row i of A and row j of B. When B is mostly
/// zero (MostlyZero over all its entries) and both operands are finite,
/// the dot runs over row j's nonzeros (KernelTable::dot_sparse) against
/// row i of A, which stays in L1; that is the same dot bit for bit, so
/// the path never changes C.
void MultiplyNTInto(const Matrix& a, const Matrix& b, Matrix* c);

/// Gram matrix AᵀA (symmetric; computes the upper triangle in parallel
/// row panels and mirrors).
Matrix Gram(const Matrix& a);

/// y = A * x. Requires a.cols() == x.size().
std::vector<double> MultiplyVec(const Matrix& a, const std::vector<double>& x);

/// y = Aᵀ * x. Requires a.rows() == x.size(). Source-row chunks scatter
/// into bounded per-chunk accumulators (<= 16 output copies) merged in
/// chunk order, so results are bit-identical for any pool size.
std::vector<double> MultiplyTVec(const Matrix& a,
                                 const std::vector<double>& x);

/// tr(Aᵀ B) = sum of the entrywise product — the Frobenius inner product.
/// Cheaper than forming the product when only the trace is needed.
double FrobeniusInner(const Matrix& a, const Matrix& b);

/// tr(Gᵀ L G) without materialising L G: each chunk streams rows of L
/// against G into a c-sized scratch row, and per-row traces are reduced in
/// fixed order. Requires L square with l.rows() == g.rows(). This is the
/// ensemble-regulariser term of the RHCHME objective (paper Eq. 16).
double Sandwich(const Matrix& g, const Matrix& l);

}  // namespace la
}  // namespace rhchme

#endif  // RHCHME_LA_GEMM_H_
