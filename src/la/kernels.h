// The runtime-dispatched kernel table: one struct of function pointers per
// instruction set, resolved once at startup by CPUID feature detection
// (la/simd.h owns the dispatch; this header owns the seam).
//
// Every ISA's table lives in its own translation unit —
// la/kernels_scalar.cc, la/kernels_avx2.cc, la/kernels_avx512.cc — and
// those files are the ONLY ones compiled with their `-m` ISA flags (see
// CMakeLists.txt). The two vector tables share one body,
// la/kernels_body.h: templates over a traits struct each ISA file
// defines, included inside that file's unnamed namespace. Kept per ISA,
// because the arithmetic or the instruction differs:
//   - the dot family's lane rules, whose chains differ between the
//     tables: Dot's lane accumulators and epilogue (DotLanes, DotTail,
//     DotTails; avx2: whole 8-blocks, then an unfused scalar tail;
//     avx512: an extra 8-block into acc0 and a masked tail into acc1),
//     DotSparse and SquaredDistance, which follow the same rules, and the
//     Laplacian walk's dot chunk rule (DotChunk, Ragged);
//   - the SPG direction row's compaction: a 16-entry LUT with vpermd on
//     avx2 against vcompresspd on avx512.
// The scalar table is the plain-loop reference and shares only the
// packers. That is what lets one binary carry scalar through
// AVX-512 side by side without the classic illegal-instruction hazard:
// this header must therefore stay free of inline functions and of
// includes that carry them. An inline function
// compiled into an AVX-512 TU lands in a COMDAT section the linker may
// pick for the whole program, which would execute AVX-512 code on a host
// the dispatcher correctly classified as AVX2-only. Raw pointers, plain
// declarations, <cstddef> only.
//
// Numerics contract carried by every table (docs/ARCHITECTURE.md "Kernel
// layer"):
//   - Element-parallel kernels (Axpy, Add, Sub, Scale) perform
//     exactly one (unfused) multiply and/or add per element in the scalar
//     reference's per-element order — bit-identical to simd::scalar::*
//     for every table, including the AVX-512 masked tails.
//   - The CSR row kernel (spmm_rows) is element-parallel too: each output
//     element starts from +0.0 and takes one unfused multiply, then one
//     add, per nonzero in ascending nonzero order — bit-identical to a
//     zeroed row followed by one Axpy per nonzero, in every table. Only
//     the register blocking differs (32-column strips held across the
//     whole row, stored once; rows whose strip fits in two registers go
//     in groups of four that step side by side, each row with its own
//     accumulators and chain, then finish alone). spmm_sign_rows is
//     spmm_rows on each sign part, one row at a time.
//   - Reductions (Dot, SquaredDistance) reassociate into a fixed number
//     of lane accumulators combined in a fixed order that depends only on
//     the table and the call's length — bit-stable across thread counts
//     per dispatched table, bounded rounding away from the scalar chain.
//     The batched dot (dot_rows) keeps each dot's chain exactly: it only
//     transposes several dots' lane accumulators so their in-order lane
//     sums run side by side in one register.
//   - The Laplacian walk (sandwich_sign_rows) loads each neighbour row
//     once for both of its results. Its sign strips are spmm_sign_rows'
//     elements, each then multiplied once by the scale as scale() does.
//     Each of its dots is the table's dot: the neighbour's registers
//     enter dot's lane accumulators by dot's chunk rule, and several
//     dots' lanes are summed side by side as in dot_rows. The dots enter
//     the returned partial in ascending nonzero order, one unfused
//     multiply and add each, from +0.0.
//   - The sparse dot (dot_sparse) sends each nonzero a[idx[k]] into the
//     lane accumulator the table's dense dot gives index idx[k] at length
//     n (avx512: the two accumulators with their full-block and
//     masked-tail rules; avx2: the two block accumulators, then the
//     unfused scalar tail), with the same multiply-add and the same
//     epilogue. The skipped terms are exact no-ops: accumulators start at
//     +0.0 and never reach −0.0, and 0·b adds a zero for finite b. (A
//     product that underflows to −0.0 in an FMA lane is the one exception;
//     it can flip the sign of an exactly zero result, nothing else.)
//   - The packed GEMM microkernel fixes its accumulation order by the
//     table's (mr, nr) geometry and the call's klen alone.
//   - The SPG direction row (spg_direction_row) is element-parallel: each
//     entry takes the gradient, projection and step expressions of the
//     scalar loop with unfused multiplies and adds in that loop's order,
//     and the compaction keeps ascending j. Its one reduction is a max
//     over non-NaN values, exact in any lane order. Every table is
//     bit-identical to the scalar table: vals, idx, count and probe.

#ifndef RHCHME_LA_KERNELS_H_
#define RHCHME_LA_KERNELS_H_

#include <cstddef>

namespace rhchme {
namespace la {
namespace simd {

/// Instruction sets a kernel table can be built for, in dispatch
/// preference order (highest first at runtime: kAvx512 > kAvx2 > kScalar).
enum class Isa { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// One ISA's complete kernel set. All pointers are always non-null in a
/// table returned by the registry; geometry fields size the caller-owned
/// GEMM packing buffers.
struct KernelTable {
  const char* name;  ///< Resolved table name: "scalar", "avx2", "avx512".
  Isa isa;           ///< Which ISA this table implements.
  std::size_t mr;    ///< GEMM microkernel rows (A micro-panel height).
  std::size_t nr;    ///< GEMM microkernel cols (B panel width, doubles).

  /// y[0..n) += a * x[0..n). Unfused multiply+add per element.
  void (*axpy)(double a, const double* x, double* y, std::size_t n);
  /// Σ a[i]·b[i] with the table's fixed lane-accumulator order.
  double (*dot)(const double* a, const double* b, std::size_t n);
  /// Many dots against one vector: out[t] = dot(a, row_t, n) for t in
  /// [0, count), where row_t starts at b + idx[t]·ldb (b + t·ldb when idx
  /// is null). Every out[t] is bit-identical to this table's dot; the
  /// vector tables reduce the lanes of several dots at once.
  void (*dot_rows)(const double* a, const double* b, std::size_t ldb,
                   const std::size_t* idx, std::size_t count, std::size_t n,
                   double* out);
  /// Σ vals[k]·b[idx[k]] over k in [0, count): bit-identical to dot(a, b,
  /// n) for the length-n vector a that is zero except a[idx[k]] = vals[k].
  /// Requires idx strictly ascending and below n, and b finite; reads
  /// only b[idx[k]].
  double (*dot_sparse)(const std::size_t* idx, const double* vals,
                       std::size_t count, const double* b, std::size_t n);
  /// Σ (a[i]-b[i])², same accumulator structure as dot.
  double (*squared_distance)(const double* a, const double* b,
                             std::size_t n);
  void (*add)(double* y, const double* x, std::size_t n);
  void (*sub)(double* y, const double* x, std::size_t n);
  void (*scale)(double* y, double s, std::size_t n);

  /// Packs B rows [0, klen) x cols [0, jlen) (row stride ldb) into `pack`,
  /// laid out as ceil(jlen/nr) column panels of (klen x nr); short trailing
  /// panels are zero-filled so the microkernel always loads full vectors.
  /// `pack` must hold ceil(jlen/nr) * klen * nr doubles, 64-byte aligned.
  void (*pack_b)(const double* b, std::size_t ldb, std::size_t klen,
                 std::size_t jlen, double* pack);

  /// Packs A rows [0, mrows) x cols [0, klen) (row stride lda) into `pack`,
  /// laid out as ceil(mrows/mr) row micro-panels of (klen x mr) with the mr
  /// row values interleaved per reduction step (BLIS A-panel layout); rows
  /// beyond mrows are zero-filled. `pack` must hold
  /// ceil(mrows/mr) * klen * mr doubles, 64-byte aligned.
  void (*pack_a)(const double* a, std::size_t lda, std::size_t mrows,
                 std::size_t klen, double* pack);

  /// C[0..mrows) x [0..jlen) (row stride ldc) += packed A * packed B,
  /// where both operands were laid out by this table's pack_a / pack_b
  /// with the same (mrows, klen, jlen). Accumulates each output tile in a
  /// register block over the full klen reduction before touching C.
  void (*gemm_packed)(const double* packa, const double* packb,
                      std::size_t mrows, std::size_t klen, std::size_t jlen,
                      double* c, std::size_t ldc);

  /// Sparse x dense rows: for every row i in [r0, r1), overwrites
  /// C[i, 0..n) (row stride ldc) with Σ vals[k] · B[idx[k], 0..n) (row
  /// stride ldb) over k in [offsets[i], offsets[i+1]), in ascending k,
  /// starting from +0.0 (an empty row stores zeros). offsets/idx/vals are
  /// CSR arrays indexed by absolute row. Columns n.. of C are
  /// never written; B and C must not overlap. Does not allocate.
  void (*spmm_rows)(const std::size_t* offsets, const std::size_t* idx,
                    const double* vals, std::size_t r0, std::size_t r1,
                    const double* b, std::size_t ldb, std::size_t n,
                    double* c, std::size_t ldc);

  /// Sign-split CSR row kernel: for every row i in [r0, r1), overwrites
  /// neg[i, 0..n) with Σ (−vals[k]) · B[idx[k], 0..n) over the row's
  /// strictly negative entries and pos[i, 0..n) (both row stride ldc) with
  /// Σ vals[k] · B[idx[k], 0..n) over its strictly positive ones; zero
  /// and NaN entries belong to neither. Each output is exactly what
  /// spmm_rows gives on the matrix's negative part (negated values) or
  /// positive part, without building either. Does not allocate.
  void (*spmm_sign_rows)(const std::size_t* offsets, const std::size_t* idx,
                         const double* vals, std::size_t r0, std::size_t r1,
                         const double* b, std::size_t ldb, std::size_t n,
                         double* neg, double* pos, std::size_t ldc);

  /// One walk over Laplacian CSR rows [r0, r1) against B, whose row i is
  /// also the walked row's own vector: writes neg[i, 0..n) and
  /// pos[i, 0..n) (row stride ldc) as spmm_sign_rows does, each element
  /// then multiplied by `scale` as scale() would, and returns
  /// Σ vals[k]·dot(B[i], B[idx[k]], n) over the rows' nonzeros, added in
  /// ascending k to a chain that starts at +0.0 (one unfused multiply and
  /// add per nonzero), each dot bit-identical to this table's dot. Each
  /// neighbour row feeds both results from one load. Does not allocate.
  double (*sandwich_sign_rows)(const std::size_t* offsets,
                               const std::size_t* idx, const double* vals,
                               std::size_t r0, std::size_t r1,
                               const double* b, std::size_t ldb,
                               std::size_t n, double scale, double* neg,
                               double* pos, std::size_t ldc);

  /// One row of the SPG projected direction (core/subspace.cc, pass A).
  /// For every j in [0, n) except `diag`:
  ///   g = two_gamma·(wq[j] − q[j]) + 2·cs[j],
  ///   p = w[j] − g,        r = |(p < 0 ? 0 : p) − w[j]|,
  ///   v = w[j] + (−step)·g, d = (v < 0 ? 0 : v) − w[j];
  /// at j = diag (none when diag >= n), r = |0 − w[j]| and d = 0 − w[j].
  /// Raises *probe to r wherever r > *probe (so NaN never raises it),
  /// writes the entries with d != 0 (NaN included) to vals[0, count) and
  /// their columns to idx[0, count) in ascending j, and returns count.
  /// vals and idx must hold n entries; entries at and past count may be
  /// overwritten. Does not allocate.
  std::size_t (*spg_direction_row)(const double* w, const double* wq,
                                   const double* q, const double* cs,
                                   double two_gamma, double step,
                                   std::size_t diag, std::size_t n,
                                   double* vals, std::size_t* idx,
                                   double* probe);
};

/// Per-ISA table accessors, defined one per kernels_*.cc TU. Each returns
/// its table when the TU was compiled with the matching ISA enabled, and
/// nullptr otherwise (the TU compiles to a stub on non-x86-64 targets or
/// with an older compiler), so the dispatcher can probe what this binary
/// actually carries. Hardware support is the dispatcher's problem,
/// not these accessors'.
const KernelTable* ScalarKernelTable();  // Never null.
const KernelTable* Avx2KernelTable();
const KernelTable* Avx512KernelTable();

}  // namespace simd
}  // namespace la
}  // namespace rhchme

#endif  // RHCHME_LA_KERNELS_H_
