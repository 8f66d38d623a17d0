// AVX-512 kernel table (F + DQ). This TU (and only this TU) is compiled
// with -mavx512f -mavx512dq -mfma; like the AVX2 TU it is reached only
// through the dispatch table, and every helper has internal linkage so no
// 512-bit code can leak into a COMDAT shared with other TUs (la/kernels.h;
// the isa_object_symbols ctest checks it).
//
// The kernels are la/kernels_body.h over the Avx512 traits below: 8-lane
// zmm registers, partial registers through k-masks (`maskz` loads
// zero-fill the dead lanes, masked stores leave them untouched), an
// 8 x 16 GEMM tile (16 zmm accumulators), CSR strips of up to four
// registers (32 columns). What stays here is what differs from the AVX2
// table:
//   - the dot family's lane rule: two accumulators over the 16-element
//     blocks, one further full 8-block into acc0 and the masked tail into
//     acc1, then one in-order lane sum l0 + … + l7. The maskz zero lanes
//     fold in as exact +0.0 terms, so the result depends only on the
//     call's length;
//   - the SPG direction row's compaction: vcompresspd / vpcompressq into a
//     register stored whole (masked in the tail).

#include "la/kernels.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

namespace rhchme {
namespace la {
namespace simd {
namespace {

#include "la/kernels_body.h"

// The maskz forms with a full mask are the plain instructions; GCC's
// unmasked intrinsics trip -Wmaybe-uninitialized on their internal
// undefined source.
constexpr __mmask8 kAll = 0xFF;

struct Avx512 {
  using Vec = __m512d;
  using Mask = __mmask8;
  static constexpr std::size_t kLanes = 8;
  static constexpr std::size_t kMr = 8;
  static constexpr std::size_t kStripVecs = 4;
  static constexpr std::size_t kSignStripVecs = 4;

  static Vec Zero() { return _mm512_setzero_pd(); }
  static Vec Set1(double a) { return _mm512_set1_pd(a); }
  static Vec Load(const double* p) { return _mm512_loadu_pd(p); }
  static void Store(double* p, Vec v) { _mm512_storeu_pd(p, v); }
  static Mask Tail(std::size_t live) {
    return static_cast<__mmask8>((1u << live) - 1u);
  }
  static Vec LoadTail(const double* p, Mask m) {
    return _mm512_maskz_loadu_pd(m, p);
  }
  static void StoreTail(double* p, Mask m, Vec v) {
    _mm512_mask_storeu_pd(p, m, v);
  }
  static Vec Add(Vec a, Vec b) { return _mm512_add_pd(a, b); }
  static Vec Sub(Vec a, Vec b) { return _mm512_sub_pd(a, b); }
  static Vec Mul(Vec a, Vec b) { return _mm512_mul_pd(a, b); }
  static Vec Fmadd(Vec a, Vec b, Vec c) { return _mm512_fmadd_pd(a, b, c); }

  /// In-order lane sums of eight lane vectors at once: lane q of the
  /// result is SumLanes(v[q]). The vectors are transposed so that register
  /// l carries every vector's lane l, and the chain l0 + l1 + … + l7 runs
  /// for all eight side by side.
  static Vec SumLanesN(const Vec* v) {
    // 8 x 8 transpose: unpack pairs, then regroup 128-bit blocks twice.
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
    Vec s = Add(col0, col1);
    s = Add(s, col2);
    s = Add(s, col3);
    s = Add(s, col4);
    s = Add(s, col5);
    s = Add(s, col6);
    return Add(s, col7);
  }

  // ---- Dot family: 16-blocks, an extra 8-block, a masked tail -------------

  /// Dot's two lane accumulators over the whole call, added — everything
  /// but the final in-order lane sum.
  static Vec DotLanes(const double* a, const double* b, std::size_t n) {
    Vec acc0 = Zero(), acc1 = Zero();
    std::size_t i = 0;
    for (; i + 2 * kLanes <= n; i += 2 * kLanes) {
      acc0 = Fmadd(Load(a + i), Load(b + i), acc0);
      acc1 = Fmadd(Load(a + i + kLanes), Load(b + i + kLanes), acc1);
    }
    if (i + kLanes <= n) {
      acc0 = Fmadd(Load(a + i), Load(b + i), acc0);
      i += kLanes;
    }
    if (i < n) {
      const Mask m = Tail(n - i);
      acc1 = Fmadd(LoadTail(a + i, m), LoadTail(b + i, m), acc1);
    }
    return Add(acc0, acc1);
  }

  /// DotLanes covers the whole call: no tail.
  static double DotTail(double s, const double*, const double*,
                        std::size_t) {
    return s;
  }
  static Vec DotTails(Vec s, const double*, const double* const*,
                      std::size_t) {
    return s;
  }

  /// Whether a one-pass row of width n ends in a masked register.
  static bool Ragged(std::size_t n) { return n % kLanes != 0; }

  /// DotLanes on a loaded strip: a full register q into acc[q % 2], a
  /// masked last one (kRagged) into acc1, each chain ascending.
  template <std::size_t kVecs, bool kRagged>
  static Vec DotChunk(const Vec* gi, const Vec* x) {
    Vec d0 = Zero(), d1 = Zero();
    for (std::size_t q = 0; q < kVecs; ++q) {
      if (q % 2 == 1 || (kRagged && q + 1 == kVecs)) {
        d1 = Fmadd(gi[q], x[q], d1);
      } else {
        d0 = Fmadd(gi[q], x[q], d0);
      }
    }
    return Add(d0, d1);
  }

  /// Dot on a sparse a. DotLanes puts index j into lane j % 8 of acc0 or
  /// acc1: by (j / 8) % 2 inside the whole 16-element blocks, acc0 for the
  /// one further full 8-block when there is one, acc1 for the masked tail.
  /// Each nonzero takes that lane's FMA here, and the epilogue is Dot's.
  static double DotSparse(const std::size_t* idx, const double* vals,
                          std::size_t count, const double* b, std::size_t n) {
    const std::size_t blocks = n / (2 * kLanes) * (2 * kLanes);
    const std::size_t acc0_end =
        n - blocks >= kLanes ? blocks + kLanes : blocks;
    alignas(64) double acc[2 * kLanes] = {};  // acc0 lanes, then acc1 lanes.
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t j = idx[k];
      const std::size_t s = j < blocks     ? j % (2 * kLanes)
                            : j < acc0_end ? j % kLanes
                                           : kLanes + j % kLanes;
      acc[s] = _mm_cvtsd_f64(_mm_fmadd_sd(
          _mm_set_sd(vals[k]), _mm_set_sd(b[j]), _mm_set_sd(acc[s])));
    }
    return SumLanes<Avx512>(Add(Load(acc), Load(acc + kLanes)));
  }

  static double SquaredDistance(const double* a, const double* b,
                                std::size_t n) {
    Vec acc0 = Zero(), acc1 = Zero();
    std::size_t i = 0;
    for (; i + 2 * kLanes <= n; i += 2 * kLanes) {
      const Vec d0 = Sub(Load(a + i), Load(b + i));
      const Vec d1 = Sub(Load(a + i + kLanes), Load(b + i + kLanes));
      acc0 = Fmadd(d0, d0, acc0);
      acc1 = Fmadd(d1, d1, acc1);
    }
    if (i + kLanes <= n) {
      const Vec d = Sub(Load(a + i), Load(b + i));
      acc0 = Fmadd(d, d, acc0);
      i += kLanes;
    }
    if (i < n) {
      const Mask m = Tail(n - i);
      const Vec d = Sub(LoadTail(a + i, m), LoadTail(b + i, m));
      acc1 = Fmadd(d, d, acc1);
    }
    return SumLanes<Avx512>(Add(acc0, acc1));
  }

  // ---- SPG direction row ---------------------------------------------------

  static Vec Max(Vec a, Vec b) { return _mm512_maskz_max_pd(kAll, a, b); }
  static Vec Abs(Vec a) { return _mm512_abs_pd(a); }
  static Vec Blend(Vec a, Vec b, std::size_t lane) {
    return _mm512_mask_mov_pd(a, static_cast<__mmask8>(1u << lane), b);
  }
  /// Dead lanes keep pr.
  static Vec ProbeMax(Vec pr, Vec r, Mask live) {
    return _mm512_mask_max_pd(pr, live, r, pr);
  }
  /// The block's live nonzeros of d (NaN included: NEQ_UQ), compressed to
  /// the front with their columns.
  static std::size_t Compact(Vec d, Mask live, bool full, std::size_t j,
                             double* vals, std::size_t* idx) {
    const __mmask8 nz = _mm512_mask_cmp_pd_mask(live, d, Zero(), _CMP_NEQ_UQ);
    const auto kept = static_cast<std::size_t>(__builtin_popcount(nz));
    const __m512i jv =
        _mm512_add_epi64(_mm512_set1_epi64(static_cast<long long>(j)),
                         _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0));
    const Vec dc = _mm512_maskz_compress_pd(nz, d);
    const __m512i jc = _mm512_maskz_compress_epi64(nz, jv);
    if (full) {
      Store(vals, dc);
      _mm512_storeu_si512(idx, jc);
    } else {
      const Mask out = Tail(kept);
      _mm512_mask_storeu_pd(vals, out, dc);
      _mm512_mask_storeu_epi64(idx, out, jc);
    }
    return kept;
  }
};

constexpr KernelTable kAvx512Table = MakeTable<Avx512>("avx512", Isa::kAvx512);

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
