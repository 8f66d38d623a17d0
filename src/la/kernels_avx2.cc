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
// mask: dead lanes read as zero and are never written.

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

/// Four dots at a time: their block accumulators are transposed so that
/// vector lane q carries dot q's lane sum ((l0 + l1) + l2) + l3, then the
/// scalar tail's unfused multiply-adds run lane-wise — Dot's exact chain.
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
    const Vec v0 = DotBlocks(a, r[0], n), v1 = DotBlocks(a, r[1], n);
    const Vec v2 = DotBlocks(a, r[2], n), v3 = DotBlocks(a, r[3], n);
    const Vec u0 = _mm256_unpacklo_pd(v0, v1);  // v0[0] v1[0] v0[2] v1[2]
    const Vec u1 = _mm256_unpackhi_pd(v0, v1);  // v0[1] v1[1] v0[3] v1[3]
    const Vec u2 = _mm256_unpacklo_pd(v2, v3);
    const Vec u3 = _mm256_unpackhi_pd(v2, v3);
    Vec s = _mm256_add_pd(_mm256_permute2f128_pd(u0, u2, 0x20),   // lane 0
                          _mm256_permute2f128_pd(u1, u3, 0x20));  // lane 1
    s = _mm256_add_pd(s, _mm256_permute2f128_pd(u0, u2, 0x31));   // lane 2
    s = _mm256_add_pd(s, _mm256_permute2f128_pd(u1, u3, 0x31));   // lane 3
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

void Hadamard(double* y, const double* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_pd(y + i, _mm256_mul_pd(_mm256_loadu_pd(y + i),
                                          _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] *= x[i];
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
    const double* bk = b + idx[k] * ldb;
    for (std::size_t q = 0; q + 1 < kVecs; ++q) {
      acc[q] = _mm256_add_pd(
          acc[q], _mm256_mul_pd(v, _mm256_loadu_pd(bk + q * kLanes)));
    }
    constexpr std::size_t kLast = kVecs - 1;
    acc[kLast] = _mm256_add_pd(
        acc[kLast],
        _mm256_mul_pd(v, _mm256_maskload_pd(bk + kLast * kLanes, tail)));
  }
  for (std::size_t q = 0; q + 1 < kVecs; ++q) {
    _mm256_storeu_pd(c + q * kLanes, acc[q]);
  }
  _mm256_maskstore_pd(c + (kVecs - 1) * kLanes, tail, acc[kVecs - 1]);
}

void SpmmRows(const std::size_t* offsets, const std::size_t* idx,
              const double* vals, std::size_t r0, std::size_t r1,
              const double* b, std::size_t ldb, std::size_t n, double* c,
              std::size_t ldc) {
  const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
  for (std::size_t i = r0; i < r1; ++i) {
    const std::size_t kb = offsets[i], ke = offsets[i + 1];
    double* ci = c + i * ldc;
    for (std::size_t j0 = 0; j0 < n; j0 += kStrip) {
      const std::size_t w = n - j0 < kStrip ? n - j0 : kStrip;
      const std::size_t vecs = (w + kLanes - 1) / kLanes;
      const auto live = static_cast<long long>(w - (vecs - 1) * kLanes);
      const __m256i tail = _mm256_cmpgt_epi64(_mm256_set1_epi64x(live), lane);
      const double* bs = b + j0;
      double* cs = ci + j0;
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

/// SpmmStrip with one accumulator set per sign: a negative entry adds
/// (−v)·B[idx[k]] to `an`, a positive one v·B[idx[k]] to `ap`.
template <std::size_t kVecs>
void SpmmSignStrip(const std::size_t* idx, const double* vals, std::size_t kb,
                   std::size_t ke, const double* b, std::size_t ldb,
                   double* neg, double* pos, __m256i tail) {
  constexpr std::size_t kLast = kVecs - 1;
  Vec an[kVecs], ap[kVecs];
  for (std::size_t q = 0; q < kVecs; ++q) {
    an[q] = _mm256_setzero_pd();
    ap[q] = _mm256_setzero_pd();
  }
  for (std::size_t k = kb; k < ke; ++k) {
    const double v = vals[k];
    const double* bk = b + idx[k] * ldb;
    if (v < 0.0) {
      const Vec w = _mm256_set1_pd(-v);
      for (std::size_t q = 0; q < kLast; ++q) {
        an[q] = _mm256_add_pd(
            an[q], _mm256_mul_pd(w, _mm256_loadu_pd(bk + q * kLanes)));
      }
      an[kLast] = _mm256_add_pd(
          an[kLast],
          _mm256_mul_pd(w, _mm256_maskload_pd(bk + kLast * kLanes, tail)));
    } else if (v > 0.0) {
      const Vec w = _mm256_set1_pd(v);
      for (std::size_t q = 0; q < kLast; ++q) {
        ap[q] = _mm256_add_pd(
            ap[q], _mm256_mul_pd(w, _mm256_loadu_pd(bk + q * kLanes)));
      }
      ap[kLast] = _mm256_add_pd(
          ap[kLast],
          _mm256_mul_pd(w, _mm256_maskload_pd(bk + kLast * kLanes, tail)));
    }
  }
  for (std::size_t q = 0; q < kLast; ++q) {
    _mm256_storeu_pd(neg + q * kLanes, an[q]);
    _mm256_storeu_pd(pos + q * kLanes, ap[q]);
  }
  _mm256_maskstore_pd(neg + kLast * kLanes, tail, an[kLast]);
  _mm256_maskstore_pd(pos + kLast * kLanes, tail, ap[kLast]);
}

void SpmmSignRows(const std::size_t* offsets, const std::size_t* idx,
                  const double* vals, std::size_t r0, std::size_t r1,
                  const double* b, std::size_t ldb, std::size_t n,
                  double* neg, double* pos, std::size_t ldc) {
  const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
  for (std::size_t i = r0; i < r1; ++i) {
    const std::size_t kb = offsets[i], ke = offsets[i + 1];
    for (std::size_t j0 = 0; j0 < n; j0 += kSignStrip) {
      const std::size_t w = n - j0 < kSignStrip ? n - j0 : kSignStrip;
      const std::size_t vecs = (w + kLanes - 1) / kLanes;
      const auto live = static_cast<long long>(w - (vecs - 1) * kLanes);
      const __m256i tail = _mm256_cmpgt_epi64(_mm256_set1_epi64x(live), lane);
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

constexpr KernelTable kAvx2Table = {
    "avx2",       Isa::kAvx2,  kLanes,   kMr,        kNr,
    Axpy,         Dot,         DotRows,  DotSparse,  SquaredDistance,
    Add,          Sub,         Scale,    Hadamard,   PackB,
    PackA,        GemmPacked,  SpmmRows, SpmmSignRows,
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
