// Byte-level fingerprints of every kernel table's outputs.
//
// simd_test pins each vector table against the scalar reference, but the
// reductions only "within rounding", and each table's dot family only
// against itself: a chain change applied consistently to dot, dot_rows,
// dot_sparse and sandwich_sign_rows would pass it while it moves every
// fit. This test closes that gap. For every table this binary carries and
// this CPU runs, it feeds each KernelTable entry fixed inputs that cross
// every lane, block, strip, group and tail boundary of the 4- and 8-lane
// tables, hashes every output (FNV-1a over the bytes), and compares the
// hashes with the constants below, recorded per table.
//
// The inputs come from a local SplitMix64 stream, so nothing outside this
// file moves them. NaN is hashed as one canonical pattern: which NaN an
// operation returns when both operands are NaN is left open by IEEE 754
// and by the kernels.h contract. Signed zeros and infinities are hashed
// as they are. The kernels call no libm beyond fabs, and the ISA
// translation units build with -ffp-contract=off, so the hashes carry no
// toolchain key.
//
// A change that moves a hash on purpose (a new chain, a new geometry)
// re-records that table's constants and says why in CHANGES.md.

#include "la/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "la/aligned.h"
#include "la/simd.h"

namespace rhchme {
namespace la {
namespace {

enum Kernel {
  kAxpy,
  kDot,
  kDotRows,
  kDotSparse,
  kSquaredDistance,
  kAdd,
  kSub,
  kScale,
  kPackB,
  kPackA,
  kGemmPacked,
  kSpmmRows,
  kSpmmSignRows,
  kSandwichSignRows,
  kSpgDirectionRow,
  kKernelCount
};

const char* const kKernelNames[kKernelCount] = {
    "axpy",      "dot",         "dot_rows",       "dot_sparse",
    "squared_distance", "add",  "sub",            "scale",
    "pack_b",    "pack_a",      "gemm_packed",    "spmm_rows",
    "spmm_sign_rows",   "sandwich_sign_rows",     "spg_direction_row"};

/// The recorded fingerprints, one row per table name.
struct Expected {
  const char* table;
  std::uint64_t hash[kKernelCount];
};

const Expected kExpected[] = {
    {"scalar",
     {
         0xa231d7b1a82d4ea0ull, 0x2d12130350036563ull, 0xff335a0ad24a5112ull,
         0x199987d860e3e7d8ull, 0x31f7d09552aea13eull, 0x48f43df9ca1d6849ull,
         0xc66b904b2b2278f5ull, 0xccce19342ea31cc4ull, 0xc9205335eb4fb407ull,
         0xb94e0ad2bec3c647ull, 0xe5f0fea1b3029f1full, 0xfe3bb5e2995ef2faull,
         0x7691cf8f4500acf2ull, 0x69934b5ff497eb8eull, 0x34d71ec05830b3deull
     }},
    {"avx2",
     {
         0xa231d7b1a82d4ea0ull, 0x62790c00842e34cdull, 0xb88c5e46ef894bbeull,
         0x7fd9fc076e036c36ull, 0x18f9d60435df1cb4ull, 0x48f43df9ca1d6849ull,
         0xc66b904b2b2278f5ull, 0xccce19342ea31cc4ull, 0xc9205335eb4fb407ull,
         0xb94e0ad2bec3c647ull, 0xdc761c92ea2e26f4ull, 0xfe3bb5e2995ef2faull,
         0x7691cf8f4500acf2ull, 0xe3270218669d0d02ull, 0xe23c6e852d61947eull
     }},
    {"avx512",
     {
         0xa231d7b1a82d4ea0ull, 0xde081db81ad0c2feull, 0x0af97ac794ef0103ull,
         0x87d83d7f1a1b5a0cull, 0xc13c58e36a21882eull, 0x48f43df9ca1d6849ull,
         0xc66b904b2b2278f5ull, 0xccce19342ea31cc4ull, 0x03f27757e322be67ull,
         0xe3108934e7c431f7ull, 0xdc761c92ea2e26f4ull, 0xfe3bb5e2995ef2faull,
         0x7691cf8f4500acf2ull, 0x89fef90c952109feull, 0x34d71ec05830b3deull
     }},
};

/// FNV-1a, 64-bit.
class Fingerprint {
 public:
  void Bytes(const void* p, std::size_t len) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < len; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ull;
    }
  }
  void Size(std::size_t v) {
    const auto u = static_cast<std::uint64_t>(v);
    Bytes(&u, sizeof u);
  }
  void Double(double v) {
    if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
    Bytes(&v, sizeof v);
  }
  void Doubles(const double* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) Double(p[i]);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// SplitMix64: the test's only source of inputs.
class Stream {
 public:
  explicit Stream(std::uint64_t seed) : s_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::size_t Below(std::size_t n) { return Next() % n; }
  /// Uniform in [-1, 1) times 2^e, e in [-4, 4]: finite, mixed magnitudes,
  /// so a reordered sum rounds differently.
  double Finite() {
    const double u =
        static_cast<double>(Next() >> 11) * 0x1.0p-53 * 2.0 - 1.0;
    return std::ldexp(u, static_cast<int>(Below(9)) - 4);
  }
  /// Finite(), or with probability 1/8 a signed zero.
  double FiniteOrZero() {
    if (Below(8) != 0) return Finite();
    return Below(2) != 0 ? 0.0 : -0.0;
  }
  /// FiniteOrZero(), or with probability 1/16 a NaN or an infinity.
  double Any() {
    if (Below(16) != 0) return FiniteOrZero();
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double special[] = {std::numeric_limits<double>::quiet_NaN(),
                              kInf, -kInf};
    return special[Below(3)];
  }
  std::vector<double> Vec(std::size_t n, double (Stream::*draw)()) {
    std::vector<double> v(n);
    for (double& x : v) x = (this->*draw)();
    return v;
  }

 private:
  std::uint64_t s_;
};

/// Vector lengths 0–70 (every lane, block and tail shape of both vector
/// tables, twice over), plus a long odd and a long even one.
std::vector<std::size_t> Lengths() {
  std::vector<std::size_t> n;
  for (std::size_t i = 0; i <= 70; ++i) n.push_back(i);
  n.push_back(100);
  n.push_back(257);
  return n;
}

void HashElementwise(const simd::KernelTable& t, std::uint64_t* out) {
  Fingerprint axpy, add, sub, scale;
  Stream s(1);
  for (std::size_t n : Lengths()) {
    const std::vector<double> x = s.Vec(n, &Stream::Any);
    const std::vector<double> y = s.Vec(n, &Stream::Any);
    for (double a : {0.7318, -1.5, -0.0}) {
      std::vector<double> v = y;
      t.axpy(a, x.data(), v.data(), n);
      axpy.Doubles(v.data(), n);
      v = y;
      t.scale(v.data(), a, n);
      scale.Doubles(v.data(), n);
    }
    std::vector<double> v = y;
    t.add(v.data(), x.data(), n);
    add.Doubles(v.data(), n);
    v = y;
    t.sub(v.data(), x.data(), n);
    sub.Doubles(v.data(), n);
  }
  out[kAxpy] = axpy.value();
  out[kAdd] = add.value();
  out[kSub] = sub.value();
  out[kScale] = scale.value();
}

void HashReductions(const simd::KernelTable& t, std::uint64_t* out) {
  Fingerprint dot, dist, sparse;
  Stream s(2);
  for (std::size_t n : Lengths()) {
    for (auto draw : {&Stream::Finite, &Stream::FiniteOrZero, &Stream::Any}) {
      const std::vector<double> a = s.Vec(n, draw);
      const std::vector<double> b = s.Vec(n, draw);
      dot.Double(t.dot(a.data(), b.data(), n));
      dist.Double(t.squared_distance(a.data(), b.data(), n));
    }
    // dot_sparse: idx ascending below n, b finite; one pattern keeps a
    // third of the entries, one keeps the last index, one keeps all.
    const std::vector<double> b = s.Vec(n, &Stream::FiniteOrZero);
    for (std::size_t keep : {3u, 1u, 0u}) {
      std::vector<std::size_t> idx;
      std::vector<double> vals;
      for (std::size_t j = 0; j < n; ++j) {
        const bool last = keep == 1 && j + 1 == n;
        if (keep == 0 || last || (keep == 3 && s.Below(3) == 0)) {
          idx.push_back(j);
          vals.push_back(s.FiniteOrZero());
        }
      }
      sparse.Double(
          t.dot_sparse(idx.data(), vals.data(), idx.size(), b.data(), n));
    }
  }
  out[kDot] = dot.value();
  out[kSquaredDistance] = dist.value();
  out[kDotSparse] = sparse.value();
}

void HashDotRows(const simd::KernelTable& t, std::uint64_t* out) {
  Fingerprint rows;
  Stream s(3);
  constexpr std::size_t kRows = 24;
  std::vector<std::size_t> widths;
  for (std::size_t n = 0; n <= 20; ++n) widths.push_back(n);
  for (std::size_t n : {31u, 32u, 33u, 47u, 64u, 70u}) widths.push_back(n);
  for (std::size_t n : widths) {
    const std::size_t ldb = n + 3;
    const std::vector<double> a = s.Vec(n, &Stream::FiniteOrZero);
    const std::vector<double> b = s.Vec(kRows * ldb, &Stream::FiniteOrZero);
    for (std::size_t count = 0; count <= 17; ++count) {
      std::vector<std::size_t> idx(count);
      for (std::size_t& i : idx) i = s.Below(kRows);
      for (bool indexed : {false, true}) {
        std::vector<double> o(count);
        t.dot_rows(a.data(), b.data(), ldb, indexed ? idx.data() : nullptr,
                   count, n, o.data());
        rows.Doubles(o.data(), count);
      }
    }
  }
  out[kDotRows] = rows.value();
}

void HashGemm(const simd::KernelTable& t, std::uint64_t* out) {
  Fingerprint pb, pa, gemm;
  Stream s(4);
  constexpr std::size_t kM = 17, kJ = 33, kK = 9;
  const std::size_t lda = kK + 2, ldb = kJ + 3, ldc = kJ + 5;
  const std::vector<double> a = s.Vec(kM * lda, &Stream::FiniteOrZero);
  const std::vector<double> b = s.Vec(kK * ldb, &Stream::FiniteOrZero);
  const std::vector<double> c0 = s.Vec(kM * ldc, &Stream::Finite);
  // lint:memstats-ok(small packing buffers; the kernels want 64-byte rows)
  AlignedVector<double> packa((kM + t.mr) * kK), packb((kJ + t.nr) * kK);
  for (std::size_t mrows = 1; mrows <= kM; ++mrows) {
    for (std::size_t jlen = 1; jlen <= kJ; ++jlen) {
      for (std::size_t klen = 1; klen <= kK; ++klen) {
        const std::size_t na = (mrows + t.mr - 1) / t.mr * t.mr * klen;
        const std::size_t nb = (jlen + t.nr - 1) / t.nr * t.nr * klen;
        t.pack_a(a.data(), lda, mrows, klen, packa.data());
        t.pack_b(b.data(), ldb, klen, jlen, packb.data());
        pa.Doubles(packa.data(), na);
        pb.Doubles(packb.data(), nb);
        std::vector<double> c = c0;
        t.gemm_packed(packa.data(), packb.data(), mrows, klen, jlen,
                      c.data(), ldc);
        gemm.Doubles(c.data(), c.size());
      }
    }
  }
  out[kPackA] = pa.value();
  out[kPackB] = pb.value();
  out[kGemmPacked] = gemm.value();
}

/// One CSR block: rows [0, r0 + rows) with rows [0, r0) never walked,
/// each of 0–17 nonzeros (empty rows included) in ascending columns of a
/// B with `brows` rows.
struct Csr {
  std::size_t r0 = 0, r1 = 0;
  std::vector<std::size_t> offsets, idx;
  std::vector<double> vals;
};

Csr MakeCsr(Stream& s, std::size_t r0, std::size_t rows, std::size_t brows,
            double (Stream::*draw)()) {
  static const std::size_t kLens[] = {0, 1, 2, 3, 5, 8, 17};
  Csr m;
  m.r0 = r0;
  m.r1 = r0 + rows;
  m.offsets.push_back(0);
  for (std::size_t i = 0; i < m.r1; ++i) {
    const std::size_t len = kLens[s.Below(7)];
    std::size_t col = s.Below(3);
    for (std::size_t k = 0; k < len && col < brows; ++k) {
      m.idx.push_back(col);
      m.vals.push_back((s.*draw)());
      col += 1 + s.Below(3);
    }
    m.offsets.push_back(m.idx.size());
  }
  return m;
}

/// Row spans (r0, rows): every residue of the row count mod 4, at r0 = 0
/// and at r0 > 0.
const std::size_t kSpans[][2] = {{0, 1}, {0, 4}, {0, 7}, {2, 2},
                                 {3, 5}, {1, 9}, {0, 14}};

void HashSparse(const simd::KernelTable& t, std::uint64_t* out) {
  Fingerprint rows, sign, sandwich;
  Stream s(5);
  constexpr std::size_t kBRows = 40;
  constexpr double kSentinel = -777.25;
  for (std::size_t n = 0; n <= 70; ++n) {
    const std::size_t ldb = n + 2, ldc = n + 3;
    for (auto draw : {&Stream::FiniteOrZero, &Stream::Any}) {
      const std::vector<double> b = s.Vec(kBRows * ldb, draw);
      for (const auto& span : kSpans) {
        const Csr m = MakeCsr(s, span[0], span[1], kBRows, draw);
        // lint:memstats-ok(small test outputs; ldc padding is the point)
        std::vector<double> c(m.r1 * ldc, kSentinel), neg = c, pos = c;
        t.spmm_rows(m.offsets.data(), m.idx.data(), m.vals.data(), m.r0,
                    m.r1, b.data(), ldb, n, c.data(), ldc);
        rows.Doubles(c.data(), c.size());
        t.spmm_sign_rows(m.offsets.data(), m.idx.data(), m.vals.data(), m.r0,
                         m.r1, b.data(), ldb, n, neg.data(), pos.data(), ldc);
        sign.Doubles(neg.data(), neg.size());
        sign.Doubles(pos.data(), pos.size());
        // The walk: B's row i is the walked row's own vector.
        neg.assign(neg.size(), kSentinel);
        pos.assign(pos.size(), kSentinel);
        for (double scale : {0.37, -2.0}) {
          sandwich.Double(t.sandwich_sign_rows(
              m.offsets.data(), m.idx.data(), m.vals.data(), m.r0, m.r1,
              b.data(), ldb, n, scale, neg.data(), pos.data(), ldc));
          sandwich.Doubles(neg.data(), neg.size());
          sandwich.Doubles(pos.data(), pos.size());
        }
      }
    }
  }
  out[kSpmmRows] = rows.value();
  out[kSpmmSignRows] = sign.value();
  out[kSandwichSignRows] = sandwich.value();
}

void HashSpgDirectionRow(const simd::KernelTable& t, std::uint64_t* out) {
  Fingerprint spg;
  Stream s(6);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t n : Lengths()) {
    // The diagonal inside the row, at its end, at n and past it.
    const std::size_t diags[] = {0, n / 2, n > 0 ? n - 1 : 0, n, n + 3,
                                 static_cast<std::size_t>(-1)};
    for (int shape = 0; shape < 4; ++shape) {
      std::vector<double> w(n), wq(n), q(n), cs(n);
      for (std::size_t j = 0; j < n; ++j) {
        // W ≥ 0 with a share of exact ±0 entries; shape 1 puts NaN into
        // W·Q, shape 2 makes every gradient zero, shape 3 makes the whole
        // row NaN.
        w[j] = s.Below(3) == 0 ? (s.Below(2) != 0 ? 0.0 : -0.0)
                               : std::fabs(s.Finite());
        wq[j] = s.Finite();
        q[j] = s.Finite();
        cs[j] = s.FiniteOrZero();
        if (shape == 1 && s.Below(5) == 0) wq[j] = nan;
        if (shape == 2) {
          wq[j] = q[j];
          cs[j] = 0.0;
        }
        if (shape == 3) w[j] = wq[j] = nan;
      }
      for (std::size_t diag : diags) {
        for (double probe0 : {0.0, 0.25, -1.0}) {
          std::vector<double> vals(n);
          std::vector<std::size_t> idx(n);
          double probe = probe0;
          const std::size_t count =
              t.spg_direction_row(w.data(), wq.data(), q.data(), cs.data(),
                                  1.3, 0.45, diag, n, vals.data(),
                                  idx.data(), &probe);
          spg.Size(count);
          spg.Doubles(vals.data(), count);
          for (std::size_t k = 0; k < count; ++k) spg.Size(idx[k]);
          spg.Double(probe);
        }
      }
    }
  }
  out[kSpgDirectionRow] = spg.value();
}

TEST(KernelFingerprint, EveryRunnableTableMatchesItsRecordedHashes) {
  std::size_t checked = 0;
  for (const Expected& e : kExpected) {
    const simd::KernelTable* t = simd::TableForName(e.table);
    if (t == nullptr) continue;  // Not compiled in, or not this CPU's.
    std::uint64_t got[kKernelCount] = {};
    HashElementwise(*t, got);
    HashReductions(*t, got);
    HashDotRows(*t, got);
    HashGemm(*t, got);
    HashSparse(*t, got);
    HashSpgDirectionRow(*t, got);
    std::string row;
    for (int k = 0; k < kKernelCount; ++k) {
      EXPECT_EQ(got[k], e.hash[k]) << e.table << " " << kKernelNames[k];
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%016llxull,",
                    static_cast<unsigned long long>(got[k]));
      row += hex;
    }
    // On a mismatch, the whole row as it would be recorded.
    if (::testing::Test::HasFailure()) {
      std::printf("{\"%s\", {%s}},\n", e.table, row.c_str());
    }
    ++checked;
  }
  EXPECT_GE(checked, 1u);  // The scalar table always runs.
}

}  // namespace
}  // namespace la
}  // namespace rhchme
