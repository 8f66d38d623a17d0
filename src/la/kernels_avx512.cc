// AVX-512 kernel table (F + DQ). This TU (and only this TU) is compiled
// with -mavx512f -mavx512dq -mfma; like the AVX2 TU it is reached only
// through the dispatch table, and every helper has internal linkage so no
// 512-bit code can leak into a COMDAT shared with other TUs (la/kernels.h).
//
// Tail handling uses AVX-512 write masks instead of scalar remainder
// loops: `_mm512_maskz_loadu_pd` zero-fills the dead lanes and
// `_mm512_mask_storeu_pd` leaves them untouched in memory. For the
// element-parallel kernels each live lane still performs the scalar
// reference's exact unfused operation, so bit-identity with scalar holds
// through the masked tail. For the reductions the maskz zero lanes fold
// into the accumulators as exact +0.0 terms (0*0+acc == acc), so the
// result depends only on the call's length — the fixed-lane-order
// contract of la/kernels.h.
//
// GEMM geometry is 8 x 16: mr=8 packed A rows against nr=16 packed B
// columns (two zmm registers), i.e. 16 vector accumulators per tile.
//
// The CSR row kernel holds a strip of up to 32 output columns (four zmm
// accumulators, the last one masked) across a row's whole nonzero list
// and stores it once; masked-off lanes are computed but never stored.
// Rows of at most 16 columns go four at a time, each with its own
// accumulators. The Laplacian walk feeds each neighbour row's registers
// to both the sign strips and dot's two lane accumulators, and sums
// eight dots' lanes at once.
//
// The SPG direction row compacts the nonzeros of each 8-entry block with
// vcompresspd / vpcompressq into a register stored whole (masked in the tail).

#include "la/kernels.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

namespace rhchme {
namespace la {
namespace simd {
namespace {

constexpr std::size_t kLanes = 8;
constexpr std::size_t kMr = 8;
constexpr std::size_t kNr = 2 * kLanes;

using Vec = __m512d;

/// Mask selecting the low `rem` of 8 lanes (rem in [0, 8]).
__mmask8 TailMask(std::size_t rem) {
  return static_cast<__mmask8>((1u << rem) - 1u);
}

/// Lane sum in fixed ascending-lane order l0 through l7.
double SumLanes(Vec v) {
  alignas(64) double t[kLanes];
  _mm512_store_pd(t, v);
  double s = t[0];
  for (std::size_t l = 1; l < kLanes; ++l) s += t[l];
  return s;
}

void Axpy(double a, const double* x, double* y, std::size_t n) {
  const Vec av = _mm512_set1_pd(a);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm512_storeu_pd(
        y + i, _mm512_add_pd(_mm512_loadu_pd(y + i),
                             _mm512_mul_pd(av, _mm512_loadu_pd(x + i))));
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    _mm512_mask_storeu_pd(
        y + i, m,
        _mm512_add_pd(_mm512_maskz_loadu_pd(m, y + i),
                      _mm512_mul_pd(av, _mm512_maskz_loadu_pd(m, x + i))));
  }
}

/// Dot's two lane accumulators over the whole call, added — everything
/// but the final in-order lane sum.
Vec DotLanes(const double* a, const double* b, std::size_t n) {
  Vec acc0 = _mm512_setzero_pd(), acc1 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 2 * kLanes <= n; i += 2 * kLanes) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i),
                           acc0);
    acc1 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i + kLanes),
                           _mm512_loadu_pd(b + i + kLanes), acc1);
  }
  if (i + kLanes <= n) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i),
                           acc0);
    i += kLanes;
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    acc1 = _mm512_fmadd_pd(_mm512_maskz_loadu_pd(m, a + i),
                           _mm512_maskz_loadu_pd(m, b + i), acc1);
  }
  return _mm512_add_pd(acc0, acc1);
}

double Dot(const double* a, const double* b, std::size_t n) {
  return SumLanes(DotLanes(a, b, n));
}

/// Dot on a sparse a. DotLanes puts index j into lane j % 8 of acc0 or
/// acc1: by (j / 8) % 2 inside the whole 16-element blocks, acc0 for the
/// one further full 8-block when there is one, acc1 for the masked tail.
/// Each nonzero takes that lane's FMA here, and the epilogue is Dot's.
double DotSparse(const std::size_t* idx, const double* vals,
                 std::size_t count, const double* b, std::size_t n) {
  const std::size_t blocks = n / (2 * kLanes) * (2 * kLanes);
  const std::size_t acc0_end = n - blocks >= kLanes ? blocks + kLanes : blocks;
  alignas(64) double acc[2 * kLanes] = {};  // acc0 lanes, then acc1 lanes.
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t j = idx[k];
    const std::size_t s = j < blocks     ? j % (2 * kLanes)
                          : j < acc0_end ? j % kLanes
                                         : kLanes + j % kLanes;
    acc[s] = _mm_cvtsd_f64(_mm_fmadd_sd(_mm_set_sd(vals[k]),
                                        _mm_set_sd(b[j]), _mm_set_sd(acc[s])));
  }
  return SumLanes(
      _mm512_add_pd(_mm512_load_pd(acc), _mm512_load_pd(acc + kLanes)));
}

/// In-order lane sums of eight lane vectors at once: lane q of the result
/// is SumLanes(v[q]). The vectors are transposed so that register l
/// carries every vector's lane l, and the chain l0 + l1 + … + l7 runs for
/// all eight side by side.
Vec SumLanes8(const Vec* v) {
  // 8 x 8 transpose: unpack pairs, then regroup 128-bit blocks twice.
  // (The maskz forms with a full mask are the plain instructions; GCC's
  // unmasked intrinsics trip -Wmaybe-uninitialized on their internal
  // undefined source.)
  constexpr __mmask8 kAll = 0xFF;
  Vec u[kLanes], w[kLanes];
  for (std::size_t q = 0; q < kLanes; q += 2) {
    u[q] = _mm512_maskz_unpacklo_pd(kAll, v[q], v[q + 1]);      // 0,2,4,6
    u[q + 1] = _mm512_maskz_unpackhi_pd(kAll, v[q], v[q + 1]);  // 1,3,5,7
  }
  for (std::size_t h = 0; h < kLanes; h += 4) {
    w[h + 0] = _mm512_maskz_shuffle_f64x2(kAll, u[h], u[h + 2], 0x88);
    w[h + 1] = _mm512_maskz_shuffle_f64x2(kAll, u[h], u[h + 2], 0xDD);
    w[h + 2] = _mm512_maskz_shuffle_f64x2(kAll, u[h + 1], u[h + 3], 0x88);
    w[h + 3] = _mm512_maskz_shuffle_f64x2(kAll, u[h + 1], u[h + 3], 0xDD);
  }
  // col<l>: lane q = v[q][l].
  const Vec col0 = _mm512_maskz_shuffle_f64x2(kAll, w[0], w[4], 0x88);
  const Vec col4 = _mm512_maskz_shuffle_f64x2(kAll, w[0], w[4], 0xDD);
  const Vec col2 = _mm512_maskz_shuffle_f64x2(kAll, w[1], w[5], 0x88);
  const Vec col6 = _mm512_maskz_shuffle_f64x2(kAll, w[1], w[5], 0xDD);
  const Vec col1 = _mm512_maskz_shuffle_f64x2(kAll, w[2], w[6], 0x88);
  const Vec col5 = _mm512_maskz_shuffle_f64x2(kAll, w[2], w[6], 0xDD);
  const Vec col3 = _mm512_maskz_shuffle_f64x2(kAll, w[3], w[7], 0x88);
  const Vec col7 = _mm512_maskz_shuffle_f64x2(kAll, w[3], w[7], 0xDD);
  Vec s = _mm512_add_pd(col0, col1);
  s = _mm512_add_pd(s, col2);
  s = _mm512_add_pd(s, col3);
  s = _mm512_add_pd(s, col4);
  s = _mm512_add_pd(s, col5);
  s = _mm512_add_pd(s, col6);
  return _mm512_add_pd(s, col7);
}

/// Eight dots at a time through SumLanes8 — Dot's exact chain.
void DotRows(const double* a, const double* b, std::size_t ldb,
             const std::size_t* idx, std::size_t count, std::size_t n,
             double* out) {
  std::size_t t = 0;
  for (; t + kLanes <= count; t += kLanes) {
    Vec v[kLanes];
    for (std::size_t q = 0; q < kLanes; ++q) {
      v[q] = DotLanes(a, b + (idx != nullptr ? idx[t + q] : t + q) * ldb, n);
    }
    _mm512_storeu_pd(out + t, SumLanes8(v));
  }
  for (; t < count; ++t) {
    out[t] = Dot(a, b + (idx != nullptr ? idx[t] : t) * ldb, n);
  }
}

double SquaredDistance(const double* a, const double* b, std::size_t n) {
  Vec acc0 = _mm512_setzero_pd(), acc1 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 2 * kLanes <= n; i += 2 * kLanes) {
    const Vec d0 = _mm512_sub_pd(_mm512_loadu_pd(a + i),
                                 _mm512_loadu_pd(b + i));
    const Vec d1 = _mm512_sub_pd(_mm512_loadu_pd(a + i + kLanes),
                                 _mm512_loadu_pd(b + i + kLanes));
    acc0 = _mm512_fmadd_pd(d0, d0, acc0);
    acc1 = _mm512_fmadd_pd(d1, d1, acc1);
  }
  if (i + kLanes <= n) {
    const Vec d = _mm512_sub_pd(_mm512_loadu_pd(a + i),
                                _mm512_loadu_pd(b + i));
    acc0 = _mm512_fmadd_pd(d, d, acc0);
    i += kLanes;
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    const Vec d = _mm512_sub_pd(_mm512_maskz_loadu_pd(m, a + i),
                                _mm512_maskz_loadu_pd(m, b + i));
    acc1 = _mm512_fmadd_pd(d, d, acc1);
  }
  return SumLanes(_mm512_add_pd(acc0, acc1));
}

void Add(double* y, const double* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm512_storeu_pd(y + i, _mm512_add_pd(_mm512_loadu_pd(y + i),
                                          _mm512_loadu_pd(x + i)));
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    _mm512_mask_storeu_pd(y + i, m,
                          _mm512_add_pd(_mm512_maskz_loadu_pd(m, y + i),
                                        _mm512_maskz_loadu_pd(m, x + i)));
  }
}

void Sub(double* y, const double* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm512_storeu_pd(y + i, _mm512_sub_pd(_mm512_loadu_pd(y + i),
                                          _mm512_loadu_pd(x + i)));
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    _mm512_mask_storeu_pd(y + i, m,
                          _mm512_sub_pd(_mm512_maskz_loadu_pd(m, y + i),
                                        _mm512_maskz_loadu_pd(m, x + i)));
  }
}

void Scale(double* y, double s, std::size_t n) {
  const Vec sv = _mm512_set1_pd(s);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm512_storeu_pd(y + i, _mm512_mul_pd(_mm512_loadu_pd(y + i), sv));
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    _mm512_mask_storeu_pd(
        y + i, m, _mm512_mul_pd(_mm512_maskz_loadu_pd(m, y + i), sv));
  }
}

void PackB(const double* b, std::size_t ldb, std::size_t klen,
           std::size_t jlen, double* pack) {
  for (std::size_t p = 0; p * kNr < jlen; ++p) {
    const std::size_t j0 = p * kNr;
    const std::size_t w = jlen - j0 < kNr ? jlen - j0 : kNr;
    double* dst = pack + p * klen * kNr;
    for (std::size_t l = 0; l < klen; ++l) {
      const double* bl = b + l * ldb + j0;
      for (std::size_t j = 0; j < w; ++j) dst[j] = bl[j];
      for (std::size_t j = w; j < kNr; ++j) dst[j] = 0.0;
      dst += kNr;
    }
  }
}

void PackA(const double* a, std::size_t lda, std::size_t mrows,
           std::size_t klen, double* pack) {
  for (std::size_t p = 0; p * kMr < mrows; ++p) {
    const std::size_t i0 = p * kMr;
    const std::size_t h = mrows - i0 < kMr ? mrows - i0 : kMr;
    double* dst = pack + p * klen * kMr;
    for (std::size_t l = 0; l < klen; ++l) {
      for (std::size_t r = 0; r < h; ++r) dst[r] = a[(i0 + r) * lda + l];
      for (std::size_t r = h; r < kMr; ++r) dst[r] = 0.0;
      dst += kMr;
    }
  }
}

/// C row segment += accumulator pair; masked stores cover short trailing
/// panels without touching columns beyond w.
void AddTileRow(double* c, Vec v0, Vec v1, std::size_t w) {
  if (w == kNr) {
    _mm512_storeu_pd(c, _mm512_add_pd(_mm512_loadu_pd(c), v0));
    _mm512_storeu_pd(c + kLanes,
                     _mm512_add_pd(_mm512_loadu_pd(c + kLanes), v1));
    return;
  }
  const __mmask8 m0 = w >= kLanes ? TailMask(kLanes) : TailMask(w);
  _mm512_mask_storeu_pd(
      c, m0, _mm512_add_pd(_mm512_maskz_loadu_pd(m0, c), v0));
  if (w > kLanes) {
    const __mmask8 m1 = TailMask(w - kLanes);
    _mm512_mask_storeu_pd(
        c + kLanes, m1,
        _mm512_add_pd(_mm512_maskz_loadu_pd(m1, c + kLanes), v1));
  }
}

/// 8 x 16 register tile: 16 zmm accumulators, two B loads and eight
/// broadcast-FMA pairs per reduction step. `h` rows of C are written.
void MicroTile(const double* pa, const double* pb, std::size_t klen,
               double* c, std::size_t ldc, std::size_t h, std::size_t w) {
  Vec x0[kMr], x1[kMr];
  for (std::size_t r = 0; r < kMr; ++r) {
    x0[r] = _mm512_setzero_pd();
    x1[r] = _mm512_setzero_pd();
  }
  for (std::size_t l = 0; l < klen; ++l) {
    const Vec b0 = _mm512_loadu_pd(pb);
    const Vec b1 = _mm512_loadu_pd(pb + kLanes);
    pb += kNr;
    for (std::size_t r = 0; r < kMr; ++r) {
      const Vec av = _mm512_set1_pd(pa[r]);
      x0[r] = _mm512_fmadd_pd(av, b0, x0[r]);
      x1[r] = _mm512_fmadd_pd(av, b1, x1[r]);
    }
    pa += kMr;
  }
  for (std::size_t r = 0; r < h; ++r) {
    AddTileRow(c + r * ldc, x0[r], x1[r], w);
  }
}

void GemmPacked(const double* packa, const double* packb, std::size_t mrows,
                std::size_t klen, std::size_t jlen, double* c,
                std::size_t ldc) {
  for (std::size_t p = 0; p * kNr < jlen; ++p) {
    const std::size_t j0 = p * kNr;
    const std::size_t w = jlen - j0 < kNr ? jlen - j0 : kNr;
    const double* pb = packb + p * klen * kNr;
    for (std::size_t q = 0; q * kMr < mrows; ++q) {
      const std::size_t i0 = q * kMr;
      const std::size_t h = mrows - i0 < kMr ? mrows - i0 : kMr;
      MicroTile(packa + q * klen * kMr, pb, klen, c + i0 * ldc + j0, ldc, h,
                w);
    }
  }
}

/// Accumulator registers per CSR row strip.
constexpr std::size_t kStripVecs = 4;
constexpr std::size_t kStrip = kStripVecs * kLanes;

/// Rows of a narrow group. A strip of at most kGroupVecs registers per
/// row (and sign) is short enough that one row's add chains, not the
/// FP ports, bound it, so kGroupRows rows advance side by side.
constexpr std::size_t kGroupRows = 4;
constexpr std::size_t kGroupVecs = 2;

/// acc + (v·x): the unfused multiply and add Axpy performs.
Vec MulAdd(Vec acc, Vec v, Vec x) {
  return _mm512_add_pd(acc, _mm512_mul_pd(v, x));
}

/// Loads the kVecs registers of a strip, the last through `tail`.
template <std::size_t kVecs>
void LoadStrip(const double* p, __mmask8 tail, Vec* x) {
  for (std::size_t q = 0; q + 1 < kVecs; ++q) {
    x[q] = _mm512_loadu_pd(p + q * kLanes);
  }
  x[kVecs - 1] = _mm512_maskz_loadu_pd(tail, p + (kVecs - 1) * kLanes);
}

/// Stores the kVecs registers of a strip, the last through `tail`.
template <std::size_t kVecs>
void StoreStrip(double* p, __mmask8 tail, const Vec* x) {
  for (std::size_t q = 0; q + 1 < kVecs; ++q) {
    _mm512_storeu_pd(p + q * kLanes, x[q]);
  }
  _mm512_mask_storeu_pd(p + (kVecs - 1) * kLanes, tail, x[kVecs - 1]);
}

/// One row strip of kVecs registers, the last covering the lanes in
/// `tail`: acc = +0.0, then acc + (v·B[idx[k]]) per nonzero — the unfused
/// multiply and add Axpy performs, in the same order.
template <std::size_t kVecs>
void SpmmStrip(const std::size_t* idx, const double* vals, std::size_t kb,
               std::size_t ke, const double* b, std::size_t ldb, double* c,
               __mmask8 tail) {
  Vec acc[kVecs];
  for (std::size_t q = 0; q < kVecs; ++q) acc[q] = _mm512_setzero_pd();
  for (std::size_t k = kb; k < ke; ++k) {
    const Vec v = _mm512_set1_pd(vals[k]);
    Vec x[kVecs];
    LoadStrip<kVecs>(b + idx[k] * ldb, tail, x);
    for (std::size_t q = 0; q < kVecs; ++q) acc[q] = MulAdd(acc[q], v, x[q]);
  }
  StoreStrip<kVecs>(c, tail, acc);
}

/// The accumulators of one narrow row strip (kVecs <= 2 registers; hi
/// is unused when kVecs == 1). Four of them live in named variables so
/// that they stay in registers.
struct NarrowAcc {
  Vec lo = _mm512_setzero_pd();
  Vec hi = _mm512_setzero_pd();
};

/// The rows [offsets[i], offsets[i + 4]) of a narrow group, as spans.
struct GroupRows {
  std::size_t kb[kGroupRows + 1];
  std::size_t common;  ///< The shortest row's length.
};

GroupRows MakeGroupRows(const std::size_t* offsets, std::size_t i) {
  GroupRows g;
  g.common = offsets[i + 1] - offsets[i];
  for (std::size_t r = 0; r <= kGroupRows; ++r) g.kb[r] = offsets[i + r];
  for (std::size_t r = 1; r < kGroupRows; ++r) {
    const std::size_t len = g.kb[r + 1] - g.kb[r];
    g.common = len < g.common ? len : g.common;
  }
  return g;
}

/// Loads a narrow strip's registers, the last through `tail`.
template <std::size_t kVecs>
NarrowAcc LoadNarrow(const double* p, __mmask8 tail) {
  NarrowAcc x;
  if constexpr (kVecs == 1) {
    x.lo = _mm512_maskz_loadu_pd(tail, p);
  } else {
    x.lo = _mm512_loadu_pd(p);
    x.hi = _mm512_maskz_loadu_pd(tail, p + kLanes);
  }
  return x;
}

template <std::size_t kVecs>
void StoreNarrow(double* p, __mmask8 tail, const NarrowAcc& x) {
  if constexpr (kVecs == 1) {
    _mm512_mask_storeu_pd(p, tail, x.lo);
  } else {
    _mm512_storeu_pd(p, x.lo);
    _mm512_mask_storeu_pd(p + kLanes, tail, x.hi);
  }
}

/// acc + (v·x) on each register of a narrow strip.
template <std::size_t kVecs>
void NarrowMulAdd(NarrowAcc& acc, Vec v, const NarrowAcc& x) {
  acc.lo = MulAdd(acc.lo, v, x.lo);
  if constexpr (kVecs == 2) acc.hi = MulAdd(acc.hi, v, x.hi);
}

/// One nonzero of a narrow strip.
template <std::size_t kVecs>
void NarrowStep(NarrowAcc& acc, double v, const double* bk, __mmask8 tail) {
  NarrowMulAdd<kVecs>(acc, _mm512_set1_pd(v), LoadNarrow<kVecs>(bk, tail));
}

/// SpmmStrip on rows i .. i+3 at once (kVecs <= kGroupVecs): each row
/// keeps its own accumulators and its own chain, so each row is exactly
/// SpmmStrip's. The rows step together over their common length, then
/// each finishes alone.
template <std::size_t kVecs>
void SpmmStrip4(const std::size_t* offsets, const std::size_t* idx,
                const double* vals, std::size_t i, const double* b,
                std::size_t ldb, double* c, std::size_t ldc, __mmask8 tail) {
  const GroupRows g = MakeGroupRows(offsets, i);
  NarrowAcc a0, a1, a2, a3;
  auto step = [&](NarrowAcc& acc, std::size_t k) {
    NarrowStep<kVecs>(acc, vals[k], b + idx[k] * ldb, tail);
  };
  for (std::size_t t = 0; t < g.common; ++t) {
    step(a0, g.kb[0] + t);
    step(a1, g.kb[1] + t);
    step(a2, g.kb[2] + t);
    step(a3, g.kb[3] + t);
  }
  for (std::size_t k = g.kb[0] + g.common; k < g.kb[1]; ++k) step(a0, k);
  for (std::size_t k = g.kb[1] + g.common; k < g.kb[2]; ++k) step(a1, k);
  for (std::size_t k = g.kb[2] + g.common; k < g.kb[3]; ++k) step(a2, k);
  for (std::size_t k = g.kb[3] + g.common; k < g.kb[4]; ++k) step(a3, k);
  StoreNarrow<kVecs>(c + i * ldc, tail, a0);
  StoreNarrow<kVecs>(c + (i + 1) * ldc, tail, a1);
  StoreNarrow<kVecs>(c + (i + 2) * ldc, tail, a2);
  StoreNarrow<kVecs>(c + (i + 3) * ldc, tail, a3);
}

void SpmmRows(const std::size_t* offsets, const std::size_t* idx,
              const double* vals, std::size_t r0, std::size_t r1,
              const double* b, std::size_t ldb, std::size_t n, double* c,
              std::size_t ldc) {
  std::size_t i = r0;
  if (n > 0 && n <= kGroupVecs * kLanes) {
    // One narrow strip: rows in groups of four.
    const std::size_t vecs = (n + kLanes - 1) / kLanes;
    const __mmask8 tail = TailMask(n - (vecs - 1) * kLanes);
    for (; i + kGroupRows <= r1; i += kGroupRows) {
      if (vecs == 1) {
        SpmmStrip4<1>(offsets, idx, vals, i, b, ldb, c, ldc, tail);
      } else {
        SpmmStrip4<kGroupVecs>(offsets, idx, vals, i, b, ldb, c, ldc, tail);
      }
    }
  }
  for (; i < r1; ++i) {
    const std::size_t kb = offsets[i], ke = offsets[i + 1];
    for (std::size_t j0 = 0; j0 < n; j0 += kStrip) {
      const std::size_t w = n - j0 < kStrip ? n - j0 : kStrip;
      const std::size_t vecs = (w + kLanes - 1) / kLanes;
      const __mmask8 tail = TailMask(w - (vecs - 1) * kLanes);
      const double* bs = b + j0;
      double* cs = c + i * ldc + j0;
      switch (vecs) {
        case 1: SpmmStrip<1>(idx, vals, kb, ke, bs, ldb, cs, tail); break;
        case 2: SpmmStrip<2>(idx, vals, kb, ke, bs, ldb, cs, tail); break;
        case 3: SpmmStrip<3>(idx, vals, kb, ke, bs, ldb, cs, tail); break;
        default:
          SpmmStrip<kStripVecs>(idx, vals, kb, ke, bs, ldb, cs, tail);
          break;
      }
    }
  }
}

/// The sign-split step of one nonzero: a negative entry adds (−v)·x to
/// `an`, a positive one v·x to `ap`; zero and NaN entries add nothing.
template <std::size_t kVecs>
void SignStep(double v, const Vec* x, Vec* an, Vec* ap) {
  if (v < 0.0) {
    const Vec w = _mm512_set1_pd(-v);
    for (std::size_t q = 0; q < kVecs; ++q) an[q] = MulAdd(an[q], w, x[q]);
  } else if (v > 0.0) {
    const Vec w = _mm512_set1_pd(v);
    for (std::size_t q = 0; q < kVecs; ++q) ap[q] = MulAdd(ap[q], w, x[q]);
  }
}

/// SpmmStrip with one accumulator set per sign.
template <std::size_t kVecs>
void SpmmSignStrip(const std::size_t* idx, const double* vals, std::size_t kb,
                   std::size_t ke, const double* b, std::size_t ldb,
                   double* neg, double* pos, __mmask8 tail) {
  Vec an[kVecs], ap[kVecs];
  for (std::size_t q = 0; q < kVecs; ++q) {
    an[q] = _mm512_setzero_pd();
    ap[q] = _mm512_setzero_pd();
  }
  for (std::size_t k = kb; k < ke; ++k) {
    Vec x[kVecs];
    LoadStrip<kVecs>(b + idx[k] * ldb, tail, x);
    SignStep<kVecs>(vals[k], x, an, ap);
  }
  StoreStrip<kVecs>(neg, tail, an);
  StoreStrip<kVecs>(pos, tail, ap);
}

void SpmmSignRows(const std::size_t* offsets, const std::size_t* idx,
                  const double* vals, std::size_t r0, std::size_t r1,
                  const double* b, std::size_t ldb, std::size_t n,
                  double* neg, double* pos, std::size_t ldc) {
  for (std::size_t i = r0; i < r1; ++i) {
    const std::size_t kb = offsets[i], ke = offsets[i + 1];
    for (std::size_t j0 = 0; j0 < n; j0 += kStrip) {
      const std::size_t w = n - j0 < kStrip ? n - j0 : kStrip;
      const std::size_t vecs = (w + kLanes - 1) / kLanes;
      const __mmask8 tail = TailMask(w - (vecs - 1) * kLanes);
      const double* bs = b + j0;
      double* ns = neg + i * ldc + j0;
      double* ps = pos + i * ldc + j0;
      switch (vecs) {
        case 1:
          SpmmSignStrip<1>(idx, vals, kb, ke, bs, ldb, ns, ps, tail);
          break;
        case 2:
          SpmmSignStrip<2>(idx, vals, kb, ke, bs, ldb, ns, ps, tail);
          break;
        case 3:
          SpmmSignStrip<3>(idx, vals, kb, ke, bs, ldb, ns, ps, tail);
          break;
        default:
          SpmmSignStrip<kStripVecs>(idx, vals, kb, ke, bs, ldb, ns, ps, tail);
          break;
      }
    }
  }
}

/// One Laplacian row of width n <= kStrip (kVecs registers) in one pass
/// over its nonzeros. Each neighbour row x = B[idx[k]] is loaded once and
/// feeds both SignStep and Dot's lane accumulators against the row's own
/// B[i] (DotLanes' rule: a full register q into acc[q % 2], a masked
/// tail — kPartial — into acc1, each chain ascending). Eight lane
/// vectors at a time are summed by SumLanes8, the rest by SumLanes; each
/// dot then enters `acc` as acc + vals[k]·dot, in ascending k. The sign
/// sums are stored times `scale`, as Scale would.
template <std::size_t kVecs, bool kPartial>
double SandwichSignStrip(const std::size_t* idx, const double* vals,
                         std::size_t kb, std::size_t ke, const double* b,
                         std::size_t ldb, const double* bi, double scale,
                         double* neg, double* pos, __mmask8 tail,
                         double acc) {
  Vec gi[kVecs], an[kVecs], ap[kVecs];
  LoadStrip<kVecs>(bi, tail, gi);
  for (std::size_t q = 0; q < kVecs; ++q) {
    an[q] = _mm512_setzero_pd();
    ap[q] = _mm512_setzero_pd();
  }
  Vec lanes[kLanes];
  std::size_t pending = 0;
  for (std::size_t k = kb; k < ke; ++k) {
    Vec x[kVecs];
    LoadStrip<kVecs>(b + idx[k] * ldb, tail, x);
    Vec d0 = _mm512_setzero_pd(), d1 = _mm512_setzero_pd();
    for (std::size_t q = 0; q < kVecs; ++q) {
      if (q % 2 == 1 || (kPartial && q + 1 == kVecs)) {
        d1 = _mm512_fmadd_pd(gi[q], x[q], d1);
      } else {
        d0 = _mm512_fmadd_pd(gi[q], x[q], d0);
      }
    }
    lanes[pending] = _mm512_add_pd(d0, d1);
    if (++pending == kLanes) {
      alignas(64) double dots[kLanes];
      _mm512_store_pd(dots, SumLanes8(lanes));
      for (std::size_t t = 0; t < kLanes; ++t) {
        acc += vals[k + 1 - kLanes + t] * dots[t];
      }
      pending = 0;
    }
    SignStep<kVecs>(vals[k], x, an, ap);
  }
  for (std::size_t t = 0; t < pending; ++t) {
    acc += vals[ke - pending + t] * SumLanes(lanes[t]);
  }
  const Vec sv = _mm512_set1_pd(scale);
  for (std::size_t q = 0; q < kVecs; ++q) {
    an[q] = _mm512_mul_pd(an[q], sv);
    ap[q] = _mm512_mul_pd(ap[q], sv);
  }
  StoreStrip<kVecs>(neg, tail, an);
  StoreStrip<kVecs>(pos, tail, ap);
  return acc;
}

/// Rows [r0, r1) through SandwichSignStrip, one acc chain across them.
template <std::size_t kVecs>
double SandwichSignStripRows(bool partial, const std::size_t* offsets,
                             const std::size_t* idx, const double* vals,
                             std::size_t r0, std::size_t r1, const double* b,
                             std::size_t ldb, double scale, double* neg,
                             double* pos, std::size_t ldc, __mmask8 tail) {
  auto strip = partial ? SandwichSignStrip<kVecs, true>
                       : SandwichSignStrip<kVecs, false>;
  double acc = 0.0;
  for (std::size_t i = r0; i < r1; ++i) {
    acc = strip(idx, vals, offsets[i], offsets[i + 1], b, ldb, b + i * ldb,
                scale, neg + i * ldc, pos + i * ldc, tail, acc);
  }
  return acc;
}

double SandwichSignRows(const std::size_t* offsets, const std::size_t* idx,
                        const double* vals, std::size_t r0, std::size_t r1,
                        const double* b, std::size_t ldb, std::size_t n,
                        double scale, double* neg, double* pos,
                        std::size_t ldc) {
  if (n == 0 || n > kStrip) {
    // Rows wider than one strip: the dots, then the strips, in two passes.
    double acc = 0.0;
    double dots[kLanes];
    for (std::size_t i = r0; i < r1; ++i) {
      for (std::size_t k = offsets[i]; k < offsets[i + 1]; k += kLanes) {
        const std::size_t len =
            offsets[i + 1] - k < kLanes ? offsets[i + 1] - k : kLanes;
        DotRows(b + i * ldb, b, ldb, idx + k, len, n, dots);
        for (std::size_t t = 0; t < len; ++t) acc += vals[k + t] * dots[t];
      }
    }
    SpmmSignRows(offsets, idx, vals, r0, r1, b, ldb, n, neg, pos, ldc);
    for (std::size_t i = r0; i < r1; ++i) {
      Scale(neg + i * ldc, scale, n);
      Scale(pos + i * ldc, scale, n);
    }
    return acc;
  }
  const std::size_t vecs = (n + kLanes - 1) / kLanes;
  const __mmask8 tail = TailMask(n - (vecs - 1) * kLanes);
  const bool partial = n % kLanes != 0;
  switch (vecs) {
    case 1:
      return SandwichSignStripRows<1>(partial, offsets, idx, vals, r0, r1, b,
                                      ldb, scale, neg, pos, ldc, tail);
    case 2:
      return SandwichSignStripRows<2>(partial, offsets, idx, vals, r0, r1, b,
                                      ldb, scale, neg, pos, ldc, tail);
    case 3:
      return SandwichSignStripRows<3>(partial, offsets, idx, vals, r0, r1, b,
                                      ldb, scale, neg, pos, ldc, tail);
    default:
      return SandwichSignStripRows<kStripVecs>(partial, offsets, idx, vals,
                                               r0, r1, b, ldb, scale, neg,
                                               pos, ldc, tail);
  }
}

/// SPG direction row, 8 entries per step (the tail through the k-mask
/// `live`). The gradient, projection and step are the scalar table's
/// unfused expressions lane by lane; max_pd(a, b) is a > b ? a : b, so
/// max_pd(0, p) is (p < 0 ? 0 : p) and max_pd(r, probe) the scalar probe
/// update, NaN and ±0 included. The diagonal lane is replaced before the
/// probe and the compaction. A block's nonzeros of d (NaN included:
/// NEQ_UQ) are compressed to the front of a register and stored whole: a
/// full block starts at j >= count, so the store stays inside [0, n); the
/// tail's store is masked to its count.
std::size_t SpgDirectionRow(const double* w, const double* wq,
                            const double* q, const double* cs,
                            double two_gamma, double step,
                            std::size_t diag, std::size_t n, double* vals,
                            std::size_t* idx, double* probe) {
  // The maskz form with a full mask is the plain vmaxpd (see DotRows).
  constexpr __mmask8 kAll = 0xFF;
  const Vec zero = _mm512_setzero_pd();
  const Vec two = _mm512_set1_pd(2.0);
  const Vec tg = _mm512_set1_pd(two_gamma);
  const Vec nstep = _mm512_set1_pd(-step);
  const __m512i eight = _mm512_set1_epi64(kLanes);
  __m512i jv = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  Vec pr = _mm512_set1_pd(*probe);
  std::size_t count = 0;
  for (std::size_t j = 0; j < n; j += kLanes) {
    const __mmask8 live = n - j >= kLanes ? kAll : TailMask(n - j);
    const Vec wv = _mm512_maskz_loadu_pd(live, w + j);
    const Vec g = _mm512_add_pd(
        _mm512_mul_pd(tg, _mm512_sub_pd(_mm512_maskz_loadu_pd(live, wq + j),
                                        _mm512_maskz_loadu_pd(live, q + j))),
        _mm512_mul_pd(two, _mm512_maskz_loadu_pd(live, cs + j)));
    Vec r = _mm512_abs_pd(
        _mm512_sub_pd(_mm512_maskz_max_pd(kAll, zero, _mm512_sub_pd(wv, g)),
                      wv));
    Vec d = _mm512_sub_pd(
        _mm512_maskz_max_pd(kAll, zero,
                            _mm512_add_pd(wv, _mm512_mul_pd(nstep, g))),
        wv);
    if (diag - j < kLanes) {
      const auto at = static_cast<__mmask8>(1u << (diag - j));
      const Vec dd = _mm512_sub_pd(zero, wv);
      r = _mm512_mask_mov_pd(r, at, _mm512_abs_pd(dd));
      d = _mm512_mask_mov_pd(d, at, dd);
    }
    pr = _mm512_mask_max_pd(pr, live, r, pr);
    const __mmask8 nz = _mm512_mask_cmp_pd_mask(live, d, zero, _CMP_NEQ_UQ);
    const auto kept = static_cast<std::size_t>(__builtin_popcount(nz));
    const Vec dc = _mm512_maskz_compress_pd(nz, d);
    const __m512i jc = _mm512_maskz_compress_epi64(nz, jv);
    if (live == kAll) {
      _mm512_storeu_pd(vals + count, dc);
      _mm512_storeu_si512(idx + count, jc);
    } else {
      const __mmask8 out = TailMask(kept);
      _mm512_mask_storeu_pd(vals + count, out, dc);
      _mm512_mask_storeu_epi64(idx + count, out, jc);
    }
    count += kept;
    jv = _mm512_add_epi64(jv, eight);
  }
  alignas(64) double lanes[kLanes];
  _mm512_store_pd(lanes, pr);
  double p = *probe;
  for (double l : lanes) p = l > p ? l : p;
  *probe = p;
  return count;
}

constexpr KernelTable kAvx512Table = {
    "avx512",     Isa::kAvx512, kLanes,   kMr,        kNr,
    Axpy,         Dot,          DotRows,  DotSparse,  SquaredDistance,
    Add,          Sub,          Scale,    PackB,      PackA,
    GemmPacked,   SpmmRows,     SpmmSignRows,         SandwichSignRows,
    SpgDirectionRow,
};

}  // namespace

const KernelTable* Avx512KernelTable() { return &kAvx512Table; }

}  // namespace simd
}  // namespace la
}  // namespace rhchme

#else  // !(__AVX512F__ && __AVX512DQ__)

namespace rhchme {
namespace la {
namespace simd {

// Stub when the build could not enable AVX-512 for this TU: the binary
// simply does not carry the path.
const KernelTable* Avx512KernelTable() { return nullptr; }

}  // namespace simd
}  // namespace la
}  // namespace rhchme

#endif  // __AVX512F__ && __AVX512DQ__
