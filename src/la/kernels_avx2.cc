// AVX2+FMA kernel table. This TU (and only this TU) is compiled with
// -mavx2 -mfma; it is reached exclusively through the dispatch table, so
// the binary stays legal on pre-Haswell hosts. Everything here has
// internal linkage — no inline helper may escape into a COMDAT the linker
// could pick for other TUs (see la/kernels.h; the isa_object_symbols
// ctest checks it).
//
// The kernels are la/kernels_body.h over the Avx2 traits below: 4-lane
// ymm registers, partial registers loaded and stored through a vmaskmovpd
// lane mask (dead lanes read as zero and are never written), a 4 x 8
// GEMM tile, CSR strips of up to eight registers (32 columns). What stays
// here is what differs from the AVX-512 table:
//   - the dot family's lane rule: two block accumulators over the whole
//     8-element blocks, summed in ascending-lane order ((l0+l1)+l2)+l3,
//     then an unfused scalar tail — Dot's chain, which dot_rows,
//     dot_sparse and the Laplacian walk reproduce;
//   - the SPG direction row's compaction: a vpermd permutation from a
//     16-entry LUT (AVX2 has no compress instruction).

#include "la/kernels.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace rhchme {
namespace la {
namespace simd {
namespace {

#include "la/kernels_body.h"

/// vpermd indices that move the 64-bit lanes set in a 4-bit mask to the
/// front, in ascending lane order, and the number of lanes moved.
struct CompressLut {
  int perm[16][8];
  int count[16];
};

constexpr CompressLut MakeCompressLut() {
  CompressLut lut{};
  for (int m = 0; m < 16; ++m) {
    int out = 0;
    for (int l = 0; l < 4; ++l) {
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

struct Avx2 {
  using Vec = __m256d;
  using Mask = __m256i;
  static constexpr std::size_t kLanes = 4;
  static constexpr std::size_t kMr = 4;
  static constexpr std::size_t kStripVecs = 8;
  static constexpr std::size_t kSignStripVecs = 4;

  static Vec Zero() { return _mm256_setzero_pd(); }
  static Vec Set1(double a) { return _mm256_set1_pd(a); }
  static Vec Load(const double* p) { return _mm256_loadu_pd(p); }
  static void Store(double* p, Vec v) { _mm256_storeu_pd(p, v); }
  static Mask Tail(std::size_t live) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(live)),
                              _mm256_setr_epi64x(0, 1, 2, 3));
  }
  static Vec LoadTail(const double* p, Mask m) {
    return _mm256_maskload_pd(p, m);
  }
  static void StoreTail(double* p, Mask m, Vec v) {
    _mm256_maskstore_pd(p, m, v);
  }
  static Vec Add(Vec a, Vec b) { return _mm256_add_pd(a, b); }
  static Vec Sub(Vec a, Vec b) { return _mm256_sub_pd(a, b); }
  static Vec Mul(Vec a, Vec b) { return _mm256_mul_pd(a, b); }
  static Vec Fmadd(Vec a, Vec b, Vec c) { return _mm256_fmadd_pd(a, b, c); }

  /// Lane q of the result is SumLanes(v[q]), ((l0 + l1) + l2) + l3, for
  /// all four side by side.
  static Vec SumLanesN(const Vec* v) {
    const Vec u0 = _mm256_unpacklo_pd(v[0], v[1]);  // v0[0] v1[0] v0[2] v1[2]
    const Vec u1 = _mm256_unpackhi_pd(v[0], v[1]);  // v0[1] v1[1] v0[3] v1[3]
    const Vec u2 = _mm256_unpacklo_pd(v[2], v[3]);
    const Vec u3 = _mm256_unpackhi_pd(v[2], v[3]);
    Vec s = _mm256_add_pd(_mm256_permute2f128_pd(u0, u2, 0x20),   // lane 0
                          _mm256_permute2f128_pd(u1, u3, 0x20));  // lane 1
    s = _mm256_add_pd(s, _mm256_permute2f128_pd(u0, u2, 0x31));   // lane 2
    return _mm256_add_pd(s, _mm256_permute2f128_pd(u1, u3, 0x31));  // lane 3
  }

  // ---- Dot family: whole 8-blocks, then an unfused scalar tail -----------

  /// Both block accumulators over the whole 8-element blocks, added; the
  /// scalar tail starts at (n / 8) * 8.
  static Vec DotLanes(const double* a, const double* b, std::size_t n) {
    Vec acc0 = Zero(), acc1 = Zero();
    for (std::size_t i = 0; i + 2 * kLanes <= n; i += 2 * kLanes) {
      acc0 = Fmadd(Load(a + i), Load(b + i), acc0);
      acc1 = Fmadd(Load(a + i + kLanes), Load(b + i + kLanes), acc1);
    }
    return Add(acc0, acc1);
  }

  /// s plus the tail's unfused multiply-adds.
  static double DotTail(double s, const double* a, const double* b,
                        std::size_t n) {
    for (std::size_t i = n / (2 * kLanes) * (2 * kLanes); i < n; ++i) {
      s += a[i] * b[i];
    }
    return s;
  }

  /// DotTail lane-wise for four rows at once.
  static Vec DotTails(Vec s, const double* a, const double* const* r,
                      std::size_t n) {
    for (std::size_t i = n / (2 * kLanes) * (2 * kLanes); i < n; ++i) {
      const Vec x = _mm256_set_pd(r[3][i], r[2][i], r[1][i], r[0][i]);
      s = Add(s, Mul(Set1(a[i]), x));
    }
    return s;
  }

  /// Whether a one-pass row of width n has a scalar tail.
  static bool Ragged(std::size_t n) { return n % (2 * kLanes) != 0; }

  /// DotLanes on a loaded strip of kVecs = ceil(n / 4) registers: register
  /// q of a whole 8-element block into acc[q % 2]. The whole blocks are
  /// the first 2·(n / 8) registers, which is kVecs rounded down to even
  /// after dropping the partial register of a ragged row.
  template <std::size_t kVecs, bool kRagged>
  static Vec DotChunk(const Vec* gi, const Vec* x) {
    constexpr std::size_t kBlockVecs = (kVecs - (kRagged ? 1 : 0)) / 2 * 2;
    Vec d[2] = {Zero(), Zero()};
    for (std::size_t q = 0; q < kBlockVecs; ++q) {
      d[q % 2] = Fmadd(gi[q], x[q], d[q % 2]);
    }
    return Add(d[0], d[1]);
  }

  /// Dot on a sparse a: index j < (n / 8) * 8 goes into lane j % 4 of block
  /// accumulator (j % 8) / 4 through the same FMA, the two accumulators are
  /// added and lane-summed as in Dot, and the tail's nonzeros take Dot's
  /// unfused scalar multiply-adds.
  static double DotSparse(const std::size_t* idx, const double* vals,
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
    double s = SumLanes<Avx2>(Add(Load(acc), Load(acc + kLanes)));
    for (; k < count; ++k) s += vals[k] * b[idx[k]];
    return s;
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
    double s = SumLanes<Avx2>(Add(acc0, acc1));
    for (; i < n; ++i) {
      const double d = a[i] - b[i];
      s += d * d;
    }
    return s;
  }

  // ---- SPG direction row ---------------------------------------------------

  static Vec Max(Vec a, Vec b) { return _mm256_max_pd(a, b); }
  static Vec Abs(Vec a) { return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a); }
  static Vec Blend(Vec a, Vec b, std::size_t lane) {
    const __m256i at = _mm256_cmpeq_epi64(
        _mm256_setr_epi64x(0, 1, 2, 3),
        _mm256_set1_epi64x(static_cast<long long>(lane)));
    return _mm256_blendv_pd(a, b, _mm256_castsi256_pd(at));
  }
  /// Dead lanes enter as +0.0.
  static Vec ProbeMax(Vec pr, Vec r, Mask live) {
    return _mm256_max_pd(_mm256_and_pd(r, _mm256_castsi256_pd(live)), pr);
  }
  /// The block's live nonzeros of d (NaN included: NEQ_UQ), permuted to
  /// the front through the LUT, with their columns.
  static std::size_t Compact(Vec d, Mask live, bool full, std::size_t j,
                             double* vals, std::size_t* idx) {
    const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
    const int nz = _mm256_movemask_pd(_mm256_and_pd(
        _mm256_cmp_pd(d, Zero(), _CMP_NEQ_UQ), _mm256_castsi256_pd(live)));
    const __m256i perm = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kCompress.perm[nz]));
    const Vec dc = _mm256_castsi256_pd(
        _mm256_permutevar8x32_epi32(_mm256_castpd_si256(d), perm));
    const __m256i jv = _mm256_add_epi64(
        _mm256_set1_epi64x(static_cast<long long>(j)), lane);
    const __m256i jc = _mm256_permutevar8x32_epi32(jv, perm);
    auto* idx64 = reinterpret_cast<long long*>(idx);
    if (full) {
      Store(vals, dc);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(idx64), jc);
    } else {
      const __m256i out =
          _mm256_cmpgt_epi64(_mm256_set1_epi64x(kCompress.count[nz]), lane);
      _mm256_maskstore_pd(vals, out, dc);
      _mm256_maskstore_epi64(idx64, out, jc);
    }
    return static_cast<std::size_t>(kCompress.count[nz]);
  }
};

constexpr KernelTable kAvx2Table = MakeTable<Avx2>("avx2", Isa::kAvx2);

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
