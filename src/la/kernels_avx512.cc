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

/// Eight dots at a time: their lane vectors are transposed so that vector
/// lane q carries dot q's lanes, and the in-order sum l0 + l1 + … + l7 of
/// SumLanes runs for all eight at once — Dot's exact chain.
void DotRows(const double* a, const double* b, std::size_t ldb,
             const std::size_t* idx, std::size_t count, std::size_t n,
             double* out) {
  std::size_t t = 0;
  for (; t + kLanes <= count; t += kLanes) {
    Vec v[kLanes];
    for (std::size_t q = 0; q < kLanes; ++q) {
      v[q] = DotLanes(a, b + (idx != nullptr ? idx[t + q] : t + q) * ldb, n);
    }
    // 8 x 8 transpose: unpack pairs, then regroup 128-bit blocks twice.
    // (The maskz forms with a full mask are the plain instructions; GCC's
    // unmasked intrinsics trip -Wmaybe-uninitialized on their internal
    // undefined source.)
    constexpr __mmask8 kAll = 0xFF;
    Vec u[kLanes], w[kLanes];
    for (std::size_t q = 0; q < kLanes; q += 2) {
      u[q] = _mm512_maskz_unpacklo_pd(kAll, v[q], v[q + 1]);  // lanes 0,2,4,6
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
    s = _mm512_add_pd(s, col7);
    _mm512_storeu_pd(out + t, s);
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

void Hadamard(double* y, const double* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm512_storeu_pd(y + i, _mm512_mul_pd(_mm512_loadu_pd(y + i),
                                          _mm512_loadu_pd(x + i)));
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    _mm512_mask_storeu_pd(y + i, m,
                          _mm512_mul_pd(_mm512_maskz_loadu_pd(m, y + i),
                                        _mm512_maskz_loadu_pd(m, x + i)));
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
    const double* bk = b + idx[k] * ldb;
    for (std::size_t q = 0; q + 1 < kVecs; ++q) {
      acc[q] = _mm512_add_pd(
          acc[q], _mm512_mul_pd(v, _mm512_loadu_pd(bk + q * kLanes)));
    }
    constexpr std::size_t kLast = kVecs - 1;
    acc[kLast] = _mm512_add_pd(
        acc[kLast],
        _mm512_mul_pd(v, _mm512_maskz_loadu_pd(tail, bk + kLast * kLanes)));
  }
  for (std::size_t q = 0; q + 1 < kVecs; ++q) {
    _mm512_storeu_pd(c + q * kLanes, acc[q]);
  }
  _mm512_mask_storeu_pd(c + (kVecs - 1) * kLanes, tail, acc[kVecs - 1]);
}

void SpmmRows(const std::size_t* offsets, const std::size_t* idx,
              const double* vals, std::size_t r0, std::size_t r1,
              const double* b, std::size_t ldb, std::size_t n, double* c,
              std::size_t ldc) {
  for (std::size_t i = r0; i < r1; ++i) {
    const std::size_t kb = offsets[i], ke = offsets[i + 1];
    double* ci = c + i * ldc;
    for (std::size_t j0 = 0; j0 < n; j0 += kStrip) {
      const std::size_t w = n - j0 < kStrip ? n - j0 : kStrip;
      const std::size_t vecs = (w + kLanes - 1) / kLanes;
      const __mmask8 tail = TailMask(w - (vecs - 1) * kLanes);
      const double* bs = b + j0;
      double* cs = ci + j0;
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

/// SpmmStrip with one accumulator set per sign: a negative entry adds
/// (−v)·B[idx[k]] to `an`, a positive one v·B[idx[k]] to `ap`.
template <std::size_t kVecs>
void SpmmSignStrip(const std::size_t* idx, const double* vals, std::size_t kb,
                   std::size_t ke, const double* b, std::size_t ldb,
                   double* neg, double* pos, __mmask8 tail) {
  constexpr std::size_t kLast = kVecs - 1;
  Vec an[kVecs], ap[kVecs];
  for (std::size_t q = 0; q < kVecs; ++q) {
    an[q] = _mm512_setzero_pd();
    ap[q] = _mm512_setzero_pd();
  }
  for (std::size_t k = kb; k < ke; ++k) {
    const double v = vals[k];
    const double* bk = b + idx[k] * ldb;
    if (v < 0.0) {
      const Vec w = _mm512_set1_pd(-v);
      for (std::size_t q = 0; q < kLast; ++q) {
        an[q] = _mm512_add_pd(
            an[q], _mm512_mul_pd(w, _mm512_loadu_pd(bk + q * kLanes)));
      }
      an[kLast] = _mm512_add_pd(
          an[kLast],
          _mm512_mul_pd(w, _mm512_maskz_loadu_pd(tail, bk + kLast * kLanes)));
    } else if (v > 0.0) {
      const Vec w = _mm512_set1_pd(v);
      for (std::size_t q = 0; q < kLast; ++q) {
        ap[q] = _mm512_add_pd(
            ap[q], _mm512_mul_pd(w, _mm512_loadu_pd(bk + q * kLanes)));
      }
      ap[kLast] = _mm512_add_pd(
          ap[kLast],
          _mm512_mul_pd(w, _mm512_maskz_loadu_pd(tail, bk + kLast * kLanes)));
    }
  }
  for (std::size_t q = 0; q < kLast; ++q) {
    _mm512_storeu_pd(neg + q * kLanes, an[q]);
    _mm512_storeu_pd(pos + q * kLanes, ap[q]);
  }
  _mm512_mask_storeu_pd(neg + kLast * kLanes, tail, an[kLast]);
  _mm512_mask_storeu_pd(pos + kLast * kLanes, tail, ap[kLast]);
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

constexpr KernelTable kAvx512Table = {
    "avx512",     Isa::kAvx512, kLanes,   kMr,        kNr,
    Axpy,         Dot,          DotRows,  DotSparse,  SquaredDistance,
    Add,          Sub,          Scale,    Hadamard,   PackB,
    PackA,        GemmPacked,   SpmmRows, SpmmSignRows,
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
