// AVX2+FMA kernel table. This TU (and only this TU) is compiled with
// -mavx2 -mfma; it is reached exclusively through the dispatch table, so
// the binary stays legal on pre-Haswell hosts. Everything here has
// internal linkage — no inline helper may escape into a COMDAT the linker
// could pick for other TUs (see la/kernels.h).
//
// The arithmetic is the PR 4 compile-time AVX2 path, unchanged: unfused
// mul+add per element for the element-parallel kernels (bit-identical to
// scalar), two 4-lane FMA accumulators summed in fixed ascending-lane
// order for the reductions, and the 4 x 8 broadcast-FMA register tile for
// the GEMM microkernel. A-panel packing only relocates the same operands
// into a contiguous stream, so dispatched results are bit-identical to
// the old `-mavx2`-global build.
//
// The CSR row kernel holds a strip of up to 32 output columns (eight ymm
// accumulators) across a row's whole nonzero list and stores it once.
// The strip's last register loads and stores through a vmaskmovpd lane
// mask: dead lanes read as zero and are never written. Rows of at most 8
// columns go four at a time, each with its own accumulators. The Laplacian walk feeds each neighbour row's
// registers to both the sign strips and dot's block accumulators, and
// sums four dots' lanes at once.
//
// The SPG direction row compacts the nonzeros of each 4-entry block with
// a vpermd permutation from a 16-entry LUT.

#include "la/kernels.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace rhchme {
namespace la {
namespace simd {
namespace {

constexpr std::size_t kLanes = 4;
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 2 * kLanes;

using Vec = __m256d;

/// Lane sum in fixed ascending-lane order: ((l0+l1)+l2)+l3.
double SumLanes(Vec v) {
  alignas(32) double t[kLanes];
  _mm256_store_pd(t, v);
  return ((t[0] + t[1]) + t[2]) + t[3];
}

void Axpy(double a, const double* x, double* y, std::size_t n) {
  const Vec av = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                             _mm256_mul_pd(av, _mm256_loadu_pd(x + i))));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

/// The vector part of Dot: both lane accumulators over the whole
/// 8-element blocks, added; the scalar tail starts at (n / 8) * 8.
Vec DotBlocks(const double* a, const double* b, std::size_t n) {
  Vec acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  for (std::size_t i = 0; i + 2 * kLanes <= n; i += 2 * kLanes) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + kLanes),
                           _mm256_loadu_pd(b + i + kLanes), acc1);
  }
  return _mm256_add_pd(acc0, acc1);
}

double Dot(const double* a, const double* b, std::size_t n) {
  double s = SumLanes(DotBlocks(a, b, n));
  for (std::size_t i = n / (2 * kLanes) * (2 * kLanes); i < n; ++i) {
    s += a[i] * b[i];
  }
  return s;
}

/// Dot on a sparse a: index j < (n / 8) * 8 goes into lane j % 4 of block
/// accumulator (j % 8) / 4 through the same FMA, the two accumulators are
/// added and lane-summed as in Dot, and the tail's nonzeros take Dot's
/// unfused scalar multiply-adds.
double DotSparse(const std::size_t* idx, const double* vals,
                 std::size_t count, const double* b, std::size_t n) {
  const std::size_t tail = n / (2 * kLanes) * (2 * kLanes);
  alignas(32) double acc[2 * kLanes] = {};  // acc0 lanes, then acc1 lanes.
  std::size_t k = 0;
  for (; k < count && idx[k] < tail; ++k) {
    double& slot = acc[idx[k] % (2 * kLanes)];
    slot = _mm_cvtsd_f64(_mm_fmadd_sd(_mm_set_sd(vals[k]),
                                      _mm_set_sd(b[idx[k]]),
                                      _mm_set_sd(slot)));
  }
  double s = SumLanes(
      _mm256_add_pd(_mm256_load_pd(acc), _mm256_load_pd(acc + kLanes)));
  for (; k < count; ++k) s += vals[k] * b[idx[k]];
  return s;
}

/// In-order lane sums of four lane vectors at once: lane q of the result
/// is SumLanes(vq), ((l0 + l1) + l2) + l3, for all four side by side.
Vec SumLanes4(Vec v0, Vec v1, Vec v2, Vec v3) {
  const Vec u0 = _mm256_unpacklo_pd(v0, v1);  // v0[0] v1[0] v0[2] v1[2]
  const Vec u1 = _mm256_unpackhi_pd(v0, v1);  // v0[1] v1[1] v0[3] v1[3]
  const Vec u2 = _mm256_unpacklo_pd(v2, v3);
  const Vec u3 = _mm256_unpackhi_pd(v2, v3);
  Vec s = _mm256_add_pd(_mm256_permute2f128_pd(u0, u2, 0x20),   // lane 0
                        _mm256_permute2f128_pd(u1, u3, 0x20));  // lane 1
  s = _mm256_add_pd(s, _mm256_permute2f128_pd(u0, u2, 0x31));   // lane 2
  return _mm256_add_pd(s, _mm256_permute2f128_pd(u1, u3, 0x31));  // lane 3
}

/// Four dots at a time: SumLanes4 of their block accumulators, then the
/// scalar tail's unfused multiply-adds lane-wise — Dot's exact chain.
void DotRows(const double* a, const double* b, std::size_t ldb,
             const std::size_t* idx, std::size_t count, std::size_t n,
             double* out) {
  const std::size_t tail = n / (2 * kLanes) * (2 * kLanes);
  std::size_t t = 0;
  for (; t + kLanes <= count; t += kLanes) {
    const double* r[kLanes];
    for (std::size_t q = 0; q < kLanes; ++q) {
      r[q] = b + (idx != nullptr ? idx[t + q] : t + q) * ldb;
    }
    Vec s = SumLanes4(DotBlocks(a, r[0], n), DotBlocks(a, r[1], n),
                      DotBlocks(a, r[2], n), DotBlocks(a, r[3], n));
    for (std::size_t i = tail; i < n; ++i) {
      const Vec x = _mm256_set_pd(r[3][i], r[2][i], r[1][i], r[0][i]);
      s = _mm256_add_pd(s, _mm256_mul_pd(_mm256_set1_pd(a[i]), x));
    }
    _mm256_storeu_pd(out + t, s);
  }
  for (; t < count; ++t) {
    out[t] = Dot(a, b + (idx != nullptr ? idx[t] : t) * ldb, n);
  }
}

double SquaredDistance(const double* a, const double* b, std::size_t n) {
  Vec acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 2 * kLanes <= n; i += 2 * kLanes) {
    const Vec d0 = _mm256_sub_pd(_mm256_loadu_pd(a + i),
                                 _mm256_loadu_pd(b + i));
    const Vec d1 = _mm256_sub_pd(_mm256_loadu_pd(a + i + kLanes),
                                 _mm256_loadu_pd(b + i + kLanes));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  double s = SumLanes(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

void Add(double* y, const double* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                                          _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void Sub(double* y, const double* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_pd(y + i, _mm256_sub_pd(_mm256_loadu_pd(y + i),
                                          _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] -= x[i];
}

void Scale(double* y, double s, std::size_t n) {
  const Vec sv = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_pd(y + i, _mm256_mul_pd(_mm256_loadu_pd(y + i), sv));
  }
  for (; i < n; ++i) y[i] *= s;
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

/// C row segment += accumulator pair, touching only the w real columns of
/// a possibly short trailing panel.
void AddTileRow(double* c, Vec v0, Vec v1, std::size_t w) {
  if (w == kNr) {
    _mm256_storeu_pd(c, _mm256_add_pd(_mm256_loadu_pd(c), v0));
    _mm256_storeu_pd(c + kLanes,
                     _mm256_add_pd(_mm256_loadu_pd(c + kLanes), v1));
    return;
  }
  alignas(64) double t[kNr];
  _mm256_store_pd(t, v0);
  _mm256_store_pd(t + kLanes, v1);
  for (std::size_t j = 0; j < w; ++j) c[j] += t[j];
}

/// 4 x 8 register tile over one packed A micro-panel and one packed B
/// column panel: 8 vector accumulators, two B loads and four
/// broadcast-FMA pairs per reduction step. `h` rows of C are written.
void MicroTile(const double* pa, const double* pb, std::size_t klen,
               double* c, std::size_t ldc, std::size_t h, std::size_t w) {
  Vec x00 = _mm256_setzero_pd(), x01 = _mm256_setzero_pd();
  Vec x10 = _mm256_setzero_pd(), x11 = _mm256_setzero_pd();
  Vec x20 = _mm256_setzero_pd(), x21 = _mm256_setzero_pd();
  Vec x30 = _mm256_setzero_pd(), x31 = _mm256_setzero_pd();
  for (std::size_t l = 0; l < klen; ++l) {
    const Vec b0 = _mm256_loadu_pd(pb);
    const Vec b1 = _mm256_loadu_pd(pb + kLanes);
    pb += kNr;
    Vec av = _mm256_set1_pd(pa[0]);
    x00 = _mm256_fmadd_pd(av, b0, x00);
    x01 = _mm256_fmadd_pd(av, b1, x01);
    av = _mm256_set1_pd(pa[1]);
    x10 = _mm256_fmadd_pd(av, b0, x10);
    x11 = _mm256_fmadd_pd(av, b1, x11);
    av = _mm256_set1_pd(pa[2]);
    x20 = _mm256_fmadd_pd(av, b0, x20);
    x21 = _mm256_fmadd_pd(av, b1, x21);
    av = _mm256_set1_pd(pa[3]);
    x30 = _mm256_fmadd_pd(av, b0, x30);
    x31 = _mm256_fmadd_pd(av, b1, x31);
    pa += kMr;
  }
  AddTileRow(c, x00, x01, w);
  if (h > 1) AddTileRow(c + ldc, x10, x11, w);
  if (h > 2) AddTileRow(c + 2 * ldc, x20, x21, w);
  if (h > 3) AddTileRow(c + 3 * ldc, x30, x31, w);
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
constexpr std::size_t kStripVecs = 8;
constexpr std::size_t kStrip = kStripVecs * kLanes;

/// Rows of a narrow group: a strip of at most kGroupVecs registers is
/// short enough that one row's add chains, not the FP ports, bound it, so
/// kGroupRows rows advance side by side within the sixteen ymm registers.
constexpr std::size_t kGroupRows = 4;
constexpr std::size_t kGroupVecs = 2;

/// acc + (v·x): the unfused multiply and add Axpy performs.
Vec MulAdd(Vec acc, Vec v, Vec x) {
  return _mm256_add_pd(acc, _mm256_mul_pd(v, x));
}

/// Loads the kVecs registers of a strip, the last through `tail`.
template <std::size_t kVecs>
void LoadStrip(const double* p, __m256i tail, Vec* x) {
  for (std::size_t q = 0; q + 1 < kVecs; ++q) {
    x[q] = _mm256_loadu_pd(p + q * kLanes);
  }
  x[kVecs - 1] = _mm256_maskload_pd(p + (kVecs - 1) * kLanes, tail);
}

/// Stores the kVecs registers of a strip, the last through `tail`.
template <std::size_t kVecs>
void StoreStrip(double* p, __m256i tail, const Vec* x) {
  for (std::size_t q = 0; q + 1 < kVecs; ++q) {
    _mm256_storeu_pd(p + q * kLanes, x[q]);
  }
  _mm256_maskstore_pd(p + (kVecs - 1) * kLanes, tail, x[kVecs - 1]);
}

/// Lane mask of the last register of a `w`-column strip of `vecs`.
__m256i StripTail(std::size_t w, std::size_t vecs) {
  const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
  const auto live = static_cast<long long>(w - (vecs - 1) * kLanes);
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(live), lane);
}

/// One row strip of kVecs registers, the last covering the lanes set in
/// `tail`: acc = +0.0, then acc + (v·B[idx[k]]) per nonzero — the unfused
/// multiply and add Axpy performs, in the same order.
template <std::size_t kVecs>
void SpmmStrip(const std::size_t* idx, const double* vals, std::size_t kb,
               std::size_t ke, const double* b, std::size_t ldb, double* c,
               __m256i tail) {
  Vec acc[kVecs];
  for (std::size_t q = 0; q < kVecs; ++q) acc[q] = _mm256_setzero_pd();
  for (std::size_t k = kb; k < ke; ++k) {
    const Vec v = _mm256_set1_pd(vals[k]);
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
  Vec lo = _mm256_setzero_pd();
  Vec hi = _mm256_setzero_pd();
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
NarrowAcc LoadNarrow(const double* p, __m256i tail) {
  NarrowAcc x;
  if constexpr (kVecs == 1) {
    x.lo = _mm256_maskload_pd(p, tail);
  } else {
    x.lo = _mm256_loadu_pd(p);
    x.hi = _mm256_maskload_pd(p + kLanes, tail);
  }
  return x;
}

template <std::size_t kVecs>
void StoreNarrow(double* p, __m256i tail, const NarrowAcc& x) {
  if constexpr (kVecs == 1) {
    _mm256_maskstore_pd(p, tail, x.lo);
  } else {
    _mm256_storeu_pd(p, x.lo);
    _mm256_maskstore_pd(p + kLanes, tail, x.hi);
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
void NarrowStep(NarrowAcc& acc, double v, const double* bk, __m256i tail) {
  NarrowMulAdd<kVecs>(acc, _mm256_set1_pd(v), LoadNarrow<kVecs>(bk, tail));
}

/// SpmmStrip on rows i .. i+3 at once (kVecs <= kGroupVecs): each row
/// keeps its own accumulators and its own chain, so each row is exactly
/// SpmmStrip's. The rows step together over their common length, then
/// each finishes alone.
template <std::size_t kVecs>
void SpmmStrip4(const std::size_t* offsets, const std::size_t* idx,
                const double* vals, std::size_t i, const double* b,
                std::size_t ldb, double* c, std::size_t ldc, __m256i tail) {
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
    const __m256i tail = StripTail(n, vecs);
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
      const __m256i tail = StripTail(w, vecs);
      const double* bs = b + j0;
      double* cs = c + i * ldc + j0;
      switch (vecs) {
        case 1: SpmmStrip<1>(idx, vals, kb, ke, bs, ldb, cs, tail); break;
        case 2: SpmmStrip<2>(idx, vals, kb, ke, bs, ldb, cs, tail); break;
        case 3: SpmmStrip<3>(idx, vals, kb, ke, bs, ldb, cs, tail); break;
        case 4: SpmmStrip<4>(idx, vals, kb, ke, bs, ldb, cs, tail); break;
        case 5: SpmmStrip<5>(idx, vals, kb, ke, bs, ldb, cs, tail); break;
        case 6: SpmmStrip<6>(idx, vals, kb, ke, bs, ldb, cs, tail); break;
        case 7: SpmmStrip<7>(idx, vals, kb, ke, bs, ldb, cs, tail); break;
        default:
          SpmmStrip<kStripVecs>(idx, vals, kb, ke, bs, ldb, cs, tail);
          break;
      }
    }
  }
}

/// Registers per sign of a sign-split row strip (two accumulator sets).
constexpr std::size_t kSignStripVecs = 4;
constexpr std::size_t kSignStrip = kSignStripVecs * kLanes;

/// The sign-split step of one nonzero: a negative entry adds (−v)·x to
/// `an`, a positive one v·x to `ap`; zero and NaN entries add nothing.
template <std::size_t kVecs>
void SignStep(double v, const Vec* x, Vec* an, Vec* ap) {
  if (v < 0.0) {
    const Vec w = _mm256_set1_pd(-v);
    for (std::size_t q = 0; q < kVecs; ++q) an[q] = MulAdd(an[q], w, x[q]);
  } else if (v > 0.0) {
    const Vec w = _mm256_set1_pd(v);
    for (std::size_t q = 0; q < kVecs; ++q) ap[q] = MulAdd(ap[q], w, x[q]);
  }
}

/// SpmmStrip with one accumulator set per sign.
template <std::size_t kVecs>
void SpmmSignStrip(const std::size_t* idx, const double* vals, std::size_t kb,
                   std::size_t ke, const double* b, std::size_t ldb,
                   double* neg, double* pos, __m256i tail) {
  Vec an[kVecs], ap[kVecs];
  for (std::size_t q = 0; q < kVecs; ++q) {
    an[q] = _mm256_setzero_pd();
    ap[q] = _mm256_setzero_pd();
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
    for (std::size_t j0 = 0; j0 < n; j0 += kSignStrip) {
      const std::size_t w = n - j0 < kSignStrip ? n - j0 : kSignStrip;
      const std::size_t vecs = (w + kLanes - 1) / kLanes;
      const __m256i tail = StripTail(w, vecs);
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
          SpmmSignStrip<kSignStripVecs>(idx, vals, kb, ke, bs, ldb, ns, ps,
                                        tail);
          break;
      }
    }
  }
}

/// One Laplacian row of width n <= kSignStrip (kVecs registers) in one
/// pass over its nonzeros. Each neighbour row x = B[idx[k]] is loaded
/// once and feeds both SignStep and Dot's block accumulators against the
/// row's own B[i] (DotBlocks' rule: register q of a whole 8-element block
/// into acc[q % 2]; the kBlockVecs = 2·(n / 8) such registers come
/// first). Four lane vectors at a time are summed by SumLanes4, the rest
/// by SumLanes, and then the scalar tail [n / 8 · 8, n) takes Dot's
/// unfused multiply-adds. Each dot enters `acc` as acc + vals[k]·dot, in
/// ascending k; the sign sums are stored times `scale`, as Scale would.
template <std::size_t kVecs>
double SandwichSignStrip(const std::size_t* idx, const double* vals,
                         std::size_t kb, std::size_t ke, const double* b,
                         std::size_t ldb, const double* bi, std::size_t n,
                         double scale, double* neg, double* pos,
                         __m256i tail, double acc) {
  const std::size_t block_vecs = n / (2 * kLanes) * 2;
  const std::size_t tail0 = block_vecs * kLanes;
  Vec gi[kVecs], an[kVecs], ap[kVecs];
  LoadStrip<kVecs>(bi, tail, gi);
  for (std::size_t q = 0; q < kVecs; ++q) {
    an[q] = _mm256_setzero_pd();
    ap[q] = _mm256_setzero_pd();
  }
  Vec lanes[kLanes];
  const double* rows[kLanes];
  std::size_t pending = 0;
  for (std::size_t k = kb; k < ke; ++k) {
    const double* bk = b + idx[k] * ldb;
    Vec x[kVecs];
    LoadStrip<kVecs>(bk, tail, x);
    Vec d[2] = {_mm256_setzero_pd(), _mm256_setzero_pd()};
    for (std::size_t q = 0; q < kVecs; ++q) {
      if (q < block_vecs) d[q % 2] = _mm256_fmadd_pd(gi[q], x[q], d[q % 2]);
    }
    lanes[pending] = _mm256_add_pd(d[0], d[1]);
    rows[pending] = bk;
    if (++pending == kLanes) {
      Vec s = SumLanes4(lanes[0], lanes[1], lanes[2], lanes[3]);
      for (std::size_t j = tail0; j < n; ++j) {
        const Vec xj =
            _mm256_set_pd(rows[3][j], rows[2][j], rows[1][j], rows[0][j]);
        s = _mm256_add_pd(s, _mm256_mul_pd(_mm256_set1_pd(bi[j]), xj));
      }
      alignas(32) double dots[kLanes];
      _mm256_store_pd(dots, s);
      for (std::size_t t = 0; t < kLanes; ++t) {
        acc += vals[k + 1 - kLanes + t] * dots[t];
      }
      pending = 0;
    }
    SignStep<kVecs>(vals[k], x, an, ap);
  }
  for (std::size_t t = 0; t < pending; ++t) {
    double dot = SumLanes(lanes[t]);
    for (std::size_t j = tail0; j < n; ++j) dot += bi[j] * rows[t][j];
    acc += vals[ke - pending + t] * dot;
  }
  const Vec sv = _mm256_set1_pd(scale);
  for (std::size_t q = 0; q < kVecs; ++q) {
    an[q] = _mm256_mul_pd(an[q], sv);
    ap[q] = _mm256_mul_pd(ap[q], sv);
  }
  StoreStrip<kVecs>(neg, tail, an);
  StoreStrip<kVecs>(pos, tail, ap);
  return acc;
}

/// Rows [r0, r1) through SandwichSignStrip, one acc chain across them.
template <std::size_t kVecs>
double SandwichSignStripRows(const std::size_t* offsets,
                             const std::size_t* idx, const double* vals,
                             std::size_t r0, std::size_t r1, const double* b,
                             std::size_t ldb, std::size_t n, double scale,
                             double* neg, double* pos, std::size_t ldc,
                             __m256i tail) {
  double acc = 0.0;
  for (std::size_t i = r0; i < r1; ++i) {
    acc = SandwichSignStrip<kVecs>(idx, vals, offsets[i], offsets[i + 1], b,
                                   ldb, b + i * ldb, n, scale, neg + i * ldc,
                                   pos + i * ldc, tail, acc);
  }
  return acc;
}

double SandwichSignRows(const std::size_t* offsets, const std::size_t* idx,
                        const double* vals, std::size_t r0, std::size_t r1,
                        const double* b, std::size_t ldb, std::size_t n,
                        double scale, double* neg, double* pos,
                        std::size_t ldc) {
  if (n == 0 || n > kSignStrip) {
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
  const __m256i tail = StripTail(n, vecs);
  auto rows = [&](auto strip_rows) {
    return strip_rows(offsets, idx, vals, r0, r1, b, ldb, n, scale, neg, pos,
                      ldc, tail);
  };
  switch (vecs) {
    case 1: return rows(SandwichSignStripRows<1>);
    case 2: return rows(SandwichSignStripRows<2>);
    case 3: return rows(SandwichSignStripRows<3>);
    default: return rows(SandwichSignStripRows<kSignStripVecs>);
  }
}

/// vpermd indices that move the 64-bit lanes set in a 4-bit mask to the
/// front, in ascending lane order, and the number of lanes moved.
struct CompressLut {
  int perm[16][2 * kLanes];
  int count[16];
};

constexpr CompressLut MakeCompressLut() {
  CompressLut lut{};
  for (int m = 0; m < 16; ++m) {
    int out = 0;
    for (int l = 0; l < static_cast<int>(kLanes); ++l) {
      if ((m >> l) & 1) {
        lut.perm[m][2 * out] = 2 * l;
        lut.perm[m][2 * out + 1] = 2 * l + 1;
        ++out;
      }
    }
    lut.count[m] = out;
  }
  return lut;
}

constexpr CompressLut kCompress = MakeCompressLut();

/// SPG direction row, 4 entries per step; the tail reads through a
/// vmaskmovpd mask (dead lanes load as zero and are masked out of the
/// probe and the compaction). The gradient, projection and step are the
/// scalar table's unfused expressions lane by lane; max_pd(a, b) is
/// a > b ? a : b, so max_pd(0, p) is (p < 0 ? 0 : p) and max_pd(r, probe)
/// the scalar probe update, NaN and ±0 included. The diagonal lane is
/// replaced before the probe and the compaction. A block's nonzeros of d
/// (NaN included: NEQ_UQ) are permuted to the front through a 16-entry
/// LUT and stored whole: a full block starts at j >= count, so the store
/// stays inside [0, n); the tail's store is masked to its count.
std::size_t SpgDirectionRow(const double* w, const double* wq,
                            const double* q, const double* cs,
                            double two_gamma, double step,
                            std::size_t diag, std::size_t n, double* vals,
                            std::size_t* idx, double* probe) {
  const Vec zero = _mm256_setzero_pd();
  const Vec two = _mm256_set1_pd(2.0);
  const Vec tg = _mm256_set1_pd(two_gamma);
  const Vec nstep = _mm256_set1_pd(-step);
  const Vec sign = _mm256_set1_pd(-0.0);
  const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256i diagv = _mm256_set1_epi64x(static_cast<long long>(diag));
  auto* idx64 = reinterpret_cast<long long*>(idx);
  Vec pr = _mm256_set1_pd(*probe);
  std::size_t count = 0;
  for (std::size_t j = 0; j < n; j += kLanes) {
    const bool full = n - j >= kLanes;
    const __m256i live =
        full ? _mm256_set1_epi64x(-1)
             : _mm256_cmpgt_epi64(
                   _mm256_set1_epi64x(static_cast<long long>(n - j)), lane);
    const __m256i jv =
        _mm256_add_epi64(_mm256_set1_epi64x(static_cast<long long>(j)), lane);
    const Vec wv = _mm256_maskload_pd(w + j, live);
    const Vec g = _mm256_add_pd(
        _mm256_mul_pd(tg, _mm256_sub_pd(_mm256_maskload_pd(wq + j, live),
                                        _mm256_maskload_pd(q + j, live))),
        _mm256_mul_pd(two, _mm256_maskload_pd(cs + j, live)));
    Vec r = _mm256_andnot_pd(
        sign, _mm256_sub_pd(_mm256_max_pd(zero, _mm256_sub_pd(wv, g)), wv));
    Vec d = _mm256_sub_pd(
        _mm256_max_pd(zero, _mm256_add_pd(wv, _mm256_mul_pd(nstep, g))), wv);
    if (diag - j < kLanes) {
      const Vec at = _mm256_castsi256_pd(_mm256_cmpeq_epi64(jv, diagv));
      const Vec dd = _mm256_sub_pd(zero, wv);
      r = _mm256_blendv_pd(r, _mm256_andnot_pd(sign, dd), at);
      d = _mm256_blendv_pd(d, dd, at);
    }
    const Vec live_pd = _mm256_castsi256_pd(live);
    pr = _mm256_max_pd(_mm256_and_pd(r, live_pd), pr);
    const int nz =
        _mm256_movemask_pd(_mm256_and_pd(_mm256_cmp_pd(d, zero, _CMP_NEQ_UQ),
                                         live_pd));
    const __m256i perm = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kCompress.perm[nz]));
    const Vec dc = _mm256_castsi256_pd(
        _mm256_permutevar8x32_epi32(_mm256_castpd_si256(d), perm));
    const __m256i jc = _mm256_permutevar8x32_epi32(jv, perm);
    if (full) {
      _mm256_storeu_pd(vals + count, dc);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(idx64 + count), jc);
    } else {
      const __m256i out = _mm256_cmpgt_epi64(
          _mm256_set1_epi64x(kCompress.count[nz]), lane);
      _mm256_maskstore_pd(vals + count, out, dc);
      _mm256_maskstore_epi64(idx64 + count, out, jc);
    }
    count += static_cast<std::size_t>(kCompress.count[nz]);
  }
  alignas(32) double lanes[kLanes];
  _mm256_store_pd(lanes, pr);
  double p = *probe;
  for (double l : lanes) p = l > p ? l : p;
  *probe = p;
  return count;
}

constexpr KernelTable kAvx2Table = {
    "avx2",       Isa::kAvx2,  kLanes,   kMr,        kNr,
    Axpy,         Dot,         DotRows,  DotSparse,  SquaredDistance,
    Add,          Sub,         Scale,    PackB,      PackA,
    GemmPacked,   SpmmRows,    SpmmSignRows,         SandwichSignRows,
    SpgDirectionRow,
};

}  // namespace

const KernelTable* Avx2KernelTable() { return &kAvx2Table; }

}  // namespace simd
}  // namespace la
}  // namespace rhchme

#else  // !(__AVX2__ && __FMA__)

namespace rhchme {
namespace la {
namespace simd {

// Stub when the build could not enable AVX2 for this TU (foreign
// architecture or an older compiler): the dispatcher sees a binary that
// simply does not carry the path.
const KernelTable* Avx2KernelTable() { return nullptr; }

}  // namespace simd
}  // namespace la
}  // namespace rhchme

#endif  // __AVX2__ && __FMA__
