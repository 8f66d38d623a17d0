// Pins the runtime-dispatched kernel layer (la/simd.h, la/kernels.h)
// against the scalar reference — for EVERY kernel table this binary
// carries and this CPU can run, not just the dispatched one.
//
// Contract under test (docs/ARCHITECTURE.md "Kernel layer"):
//   - element-parallel kernels (Axpy, Add, Sub, Scale, Hadamard) are
//     bit-identical to scalar in every table, including AVX-512 masked
//     tails;
//   - reassociated reductions (Dot, SquaredDistance) match scalar within
//     bounded rounding, and the sparse dot (dot_sparse) is bit-identical
//     to its table's dense dot on the densified vector;
//   - the packed GEMM protocol (pack_a / pack_b / gemm_packed) of every
//     table computes C += A·B within reduction rounding;
//   - the CSR row kernel (spmm_rows) of every table is bit-identical to a
//     zeroed row plus one scalar Axpy per nonzero, writes nothing outside
//     its rows and columns, and keeps ±0.0, ±Inf and NaN as that chain
//     does;
//   - both hold for every tail width 1..2*widest-unroll+1, so no lane or
//     mask remainder path is left uncovered;
//   - table selection (ResolveTable) and the force override (ForceIsa /
//     RHCHME_FORCE_ISA) behave as documented.

#include "la/simd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "la/aligned.h"
#include "la/matrix.h"
#include "util/rng.h"

namespace rhchme {
namespace la {
namespace {

// Widths covering every lane-remainder case of the widest path (AVX-512
// uses two 8-lane accumulators, so the unrolled step is 16): 1..2*16+1.
constexpr std::size_t kMaxWidth = 2 * 2 * 8 + 1;

/// Every table name the registry knows; unavailable ones resolve to null.
const char* const kAllIsaNames[] = {"scalar", "avx2", "avx512"};

std::vector<double> RandomVec(std::size_t n, uint64_t seed, double lo = -1.0,
                              double hi = 1.0) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.Uniform(lo, hi);
  return v;
}

/// Rounding bound for a reassociated n-term sum of products whose terms
/// are bounded by `term_mag`: a generous constant times n·eps·term_mag.
double ReductionTol(std::size_t n, double term_mag) {
  return 64.0 * static_cast<double>(n + 1) *
         std::numeric_limits<double>::epsilon() * (term_mag + 1.0);
}

/// Tables this binary carries AND this CPU can execute. Always holds at
/// least the scalar table.
std::vector<const simd::KernelTable*> RunnableTables() {
  std::vector<const simd::KernelTable*> tables;
  for (const char* name : kAllIsaNames) {
    if (const simd::KernelTable* t = simd::TableForName(name)) {
      tables.push_back(t);
    }
  }
  return tables;
}

TEST(SimdKernels, AxpyMatchesScalarExactlyAtAllTailWidths) {
  for (const simd::KernelTable* t : RunnableTables()) {
    for (std::size_t n = 1; n <= kMaxWidth; ++n) {
      std::vector<double> x = RandomVec(n, 100 + n);
      std::vector<double> y0 = RandomVec(n, 200 + n);
      std::vector<double> y1 = y0;
      t->axpy(0.7318, x.data(), y0.data(), n);
      simd::scalar::Axpy(0.7318, x.data(), y1.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(y0[i], y1[i]) << t->name << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(SimdKernels, ElementwiseKernelsMatchScalarExactly) {
  for (const simd::KernelTable* t : RunnableTables()) {
    for (std::size_t n = 1; n <= kMaxWidth; ++n) {
      const std::vector<double> x = RandomVec(n, 300 + n);
      const std::vector<double> base = RandomVec(n, 400 + n);

      std::vector<double> a = base, b = base;
      t->add(a.data(), x.data(), n);
      simd::scalar::Add(b.data(), x.data(), n);
      EXPECT_EQ(a, b) << t->name << " Add n=" << n;

      a = base, b = base;
      t->sub(a.data(), x.data(), n);
      simd::scalar::Sub(b.data(), x.data(), n);
      EXPECT_EQ(a, b) << t->name << " Sub n=" << n;

      a = base, b = base;
      t->scale(a.data(), -1.25, n);
      simd::scalar::Scale(b.data(), -1.25, n);
      EXPECT_EQ(a, b) << t->name << " Scale n=" << n;

      a = base, b = base;
      t->hadamard(a.data(), x.data(), n);
      simd::scalar::Hadamard(b.data(), x.data(), n);
      EXPECT_EQ(a, b) << t->name << " Hadamard n=" << n;
    }
  }
}

TEST(SimdKernels, MaskedTailsWriteOnlyTheLiveRange) {
  // The element past the logical length must be untouched by every
  // kernel — catches a masked store (or a full-width store on a tail)
  // that bleeds one lane over.
  for (const simd::KernelTable* t : RunnableTables()) {
    for (std::size_t n = 1; n <= kMaxWidth; ++n) {
      std::vector<double> x = RandomVec(n + 1, 500 + n);
      std::vector<double> y = RandomVec(n + 1, 600 + n);
      const double sentinel_x = x[n], sentinel_y = y[n];
      t->axpy(1.5, x.data(), y.data(), n);
      t->add(y.data(), x.data(), n);
      t->sub(y.data(), x.data(), n);
      t->scale(y.data(), 0.5, n);
      t->hadamard(y.data(), x.data(), n);
      EXPECT_EQ(x[n], sentinel_x) << t->name << " n=" << n;
      EXPECT_EQ(y[n], sentinel_y) << t->name << " n=" << n;
    }
  }
}

TEST(SimdKernels, DotMatchesScalarWithinRoundingAtAllTailWidths) {
  for (const simd::KernelTable* t : RunnableTables()) {
    for (std::size_t n = 1; n <= kMaxWidth; ++n) {
      std::vector<double> a = RandomVec(n, 500 + n);
      std::vector<double> b = RandomVec(n, 600 + n);
      const double got = t->dot(a.data(), b.data(), n);
      const double want = simd::scalar::Dot(a.data(), b.data(), n);
      EXPECT_NEAR(got, want, ReductionTol(n, 1.0)) << t->name << " n=" << n;
    }
  }
}

TEST(SimdKernels, DotRowsIsBitIdenticalToDotPerRow) {
  // Widths cover every tail shape of the 4- and 8-lane dots; counts cover
  // partial and several whole batches; rows are read contiguously (null
  // idx) and gathered in a scrambled order with repeats, from a padded
  // stride. Signed zeros and infinities keep the sign/NaN behaviour in
  // the comparison (memcmp, so -0.0 vs +0.0 counts).
  for (const simd::KernelTable* t : RunnableTables()) {
    for (std::size_t n : {0, 1, 3, 4, 7, 8, 9, 15, 16, 17, 24, 30, 33, 70}) {
      const std::size_t ldb = n + 3;
      const std::size_t rows = 37;
      std::vector<double> b = RandomVec(rows * ldb, 500 + n, -2.0, 2.0);
      std::vector<double> a = RandomVec(n, 600 + n, -2.0, 2.0);
      if (n > 2) {
        a[1] = -0.0;
        b[2 * ldb + 1] = std::numeric_limits<double>::infinity();
      }
      std::vector<std::size_t> idx;
      for (std::size_t k = 0; k < rows; ++k) idx.push_back((k * 11 + 5) % rows);
      idx.push_back(idx[3]);
      for (std::size_t count : {0, 1, 3, 4, 5, 8, 9, 17, 38}) {
        for (bool gather : {false, true}) {
          if (!gather && count > rows) continue;
          std::vector<double> out(count + 1, 42.0);
          t->dot_rows(a.data(), b.data(), ldb, gather ? idx.data() : nullptr,
                      count, n, out.data());
          for (std::size_t q = 0; q < count; ++q) {
            const double* row = b.data() + (gather ? idx[q] : q) * ldb;
            const double want = t->dot(a.data(), row, n);
            EXPECT_EQ(std::memcmp(&out[q], &want, sizeof(double)), 0)
                << t->name << " n=" << n << " count=" << count
                << " gather=" << gather << " q=" << q << ": " << out[q]
                << " vs " << want;
          }
          EXPECT_EQ(out[count], 42.0) << "wrote past count";
        }
      }
    }
  }
}

TEST(SimdKernels, DotSparseIsBitIdenticalToDotOnTheDensifiedVector) {
  // Every length 0..70 covers every block, 8-block and tail shape of the
  // 4- and 8-lane dots. Supports: empty, each single position, every
  // third position, and full; values of both signs; b holds ±0.0. Off the
  // support b is NaN in the sparse call, so a read there would show.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const simd::KernelTable* t : RunnableTables()) {
    for (std::size_t n = 0; n <= 70; ++n) {
      std::vector<double> b = RandomVec(n, 700 + n, -2.0, 2.0);
      if (n > 3) {
        b[1] = -0.0;
        b[2] = 0.0;
      }
      const std::vector<double> vals = RandomVec(n, 800 + n, -3.0, 3.0);
      std::vector<std::vector<std::size_t>> supports = {{}};
      for (std::size_t j = 0; j < n; ++j) supports.push_back({j});
      supports.emplace_back();
      for (std::size_t j = 0; j < n; j += 3) supports.back().push_back(j);
      supports.emplace_back();
      for (std::size_t j = 0; j < n; ++j) supports.back().push_back(j);
      for (const std::vector<std::size_t>& idx : supports) {
        std::vector<double> a(n, 0.0), v, b_sparse(n, nan);
        for (std::size_t k = 0; k < idx.size(); ++k) {
          a[idx[k]] = vals[k];
          v.push_back(vals[k]);
          b_sparse[idx[k]] = b[idx[k]];
        }
        const double want = t->dot(a.data(), b.data(), n);
        const double got =
            t->dot_sparse(idx.data(), v.data(), idx.size(), b_sparse.data(), n);
        EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
            << t->name << " n=" << n << " nnz=" << idx.size() << ": " << got
            << " vs " << want;
      }
    }
  }
}

TEST(SimdKernels, SquaredDistanceMatchesScalarWithinRounding) {
  for (const simd::KernelTable* t : RunnableTables()) {
    for (std::size_t n = 1; n <= kMaxWidth; ++n) {
      std::vector<double> a = RandomVec(n, 700 + n, 0.0, 3.0);
      std::vector<double> b = RandomVec(n, 800 + n, 0.0, 3.0);
      const double got = t->squared_distance(a.data(), b.data(), n);
      const double want =
          simd::scalar::SquaredDistance(a.data(), b.data(), n);
      EXPECT_NEAR(got, want, ReductionTol(n, 9.0)) << t->name << " n=" << n;
      EXPECT_GE(got, 0.0);
    }
  }
}

TEST(SimdKernels, DotOfLargeVectorStaysAccurate) {
  const std::size_t n = 4097;  // Odd, exercises the tail after many lanes.
  std::vector<double> a = RandomVec(n, 31);
  std::vector<double> b = RandomVec(n, 32);
  for (const simd::KernelTable* t : RunnableTables()) {
    const double got = t->dot(a.data(), b.data(), n);
    const double want = simd::scalar::Dot(a.data(), b.data(), n);
    EXPECT_NEAR(got, want, ReductionTol(n, 1.0)) << t->name;
  }
}

TEST(SimdKernels, ZeroLengthIsIdentity) {
  for (const simd::KernelTable* t : RunnableTables()) {
    double y = 3.0;
    t->axpy(2.0, &y, &y, 0);
    EXPECT_EQ(y, 3.0) << t->name;
    EXPECT_EQ(t->dot(&y, &y, 0), 0.0) << t->name;
    EXPECT_EQ(t->squared_distance(&y, &y, 0), 0.0) << t->name;
  }
}

// ---- CSR row kernel (spmm_rows) -------------------------------------------

/// Bit equality, with any NaN equal to any NaN: x86 propagates the payload
/// of whichever NaN operand comes first, and the compiler may commute the
/// operands of a multiply or add, so payloads are not part of the
/// contract. Everything else — the sign of zero included — must match.
bool SameBits(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub;
}

/// A small CSR operand with empty rows and, optionally, special values
/// (NaN, ±Inf, ±0.0) mixed into both the nonzeros and B.
struct SpmmCase {
  std::size_t rows = 0, brows = 0, n = 0, ldb = 0, ldc = 0;
  std::vector<std::size_t> offsets, idx;
  std::vector<double> vals, b;
};

SpmmCase MakeSpmmCase(std::size_t n, bool specials, uint64_t seed) {
  const double kSpecial[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(), -0.0,
                             0.0};
  Rng rng(seed);
  SpmmCase sc;
  sc.rows = 9;
  sc.brows = 13;
  sc.n = n;
  sc.ldb = n + 3;  // Padded, and odd offsets misalign most rows.
  sc.ldc = n + 5;
  sc.offsets.push_back(0);
  for (std::size_t i = 0; i < sc.rows; ++i) {
    // Rows 2 and 6 stay empty; the others hold 1..12 nonzeros.
    const std::size_t len = (i == 2 || i == 6) ? 0 : 1 + rng.UniformInt(12);
    for (std::size_t k = 0; k < len; ++k) {
      sc.idx.push_back(rng.UniformInt(sc.brows));  // Repeats allowed.
      double v = rng.Uniform(-2.0, 2.0);
      if (specials && sc.vals.size() % 5 == 3) {
        v = kSpecial[(sc.vals.size() / 5) % 5];
      }
      sc.vals.push_back(v);
    }
    sc.offsets.push_back(sc.idx.size());
  }
  // lint:memstats-ok(small test operand; ldb padding is the point)
  sc.b.assign(sc.brows * sc.ldb, 0.0);
  for (std::size_t r = 0; r < sc.brows; ++r) {
    for (std::size_t j = 0; j < sc.ldb; ++j) {
      double x = rng.Uniform(-1.0, 1.0);
      if (j >= n) {
        x = 1e300;  // Padding: would poison any output that read it.
      } else if (specials && (r * n + j) % 7 == 2) {
        x = kSpecial[((r * n + j) / 7) % 5];
      }
      sc.b[r * sc.ldb + j] = x;
    }
  }
  return sc;
}

/// The contract's reference: a zeroed row, then one scalar Axpy per
/// nonzero in ascending order.
std::vector<double> ReferenceRow(const SpmmCase& sc, std::size_t i) {
  std::vector<double> row(sc.n, 0.0);
  for (std::size_t k = sc.offsets[i]; k < sc.offsets[i + 1]; ++k) {
    simd::scalar::Axpy(sc.vals[k], sc.b.data() + sc.idx[k] * sc.ldb,
                       row.data(), sc.n);
  }
  return row;
}

TEST(SimdSpmmRows, BitIdenticalToTheAxpyChainAndWritesOnlyItsRows) {
  constexpr double kSentinel = -777.25;
  // Every width 1..70 crosses each strip, register and mask boundary of
  // both vector tables (32-column strips of 4- or 8-lane registers) twice.
  const std::size_t kMaxN = 70;
  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, 9}, {2, 7}, {3, 3}, {5, 6}, {8, 9}};
  for (const simd::KernelTable* t : RunnableTables()) {
    for (bool specials : {false, true}) {
      for (std::size_t n = 1; n <= kMaxN; ++n) {
        const SpmmCase sc = MakeSpmmCase(n, specials, 1000 + n);
        for (const auto& [r0, r1] : ranges) {
          // lint:memstats-ok(small test output; ldc padding is the point)
          std::vector<double> c(sc.rows * sc.ldc, kSentinel);
          t->spmm_rows(sc.offsets.data(), sc.idx.data(), sc.vals.data(), r0,
                       r1, sc.b.data(), sc.ldb, n, c.data(), sc.ldc);
          for (std::size_t i = 0; i < sc.rows; ++i) {
            const bool live = i >= r0 && i < r1;
            const std::vector<double> want =
                live ? ReferenceRow(sc, i) : std::vector<double>();
            for (std::size_t j = 0; j < sc.ldc; ++j) {
              const double got = c[i * sc.ldc + j];
              if (live && j < n) {
                ASSERT_TRUE(SameBits(got, want[j]))
                    << t->name << " specials=" << specials << " n=" << n
                    << " rows [" << r0 << "," << r1 << ") at (" << i << ","
                    << j << "): " << got << " vs " << want[j];
              } else {
                ASSERT_EQ(got, kSentinel)
                    << t->name << " wrote outside its range: n=" << n
                    << " rows [" << r0 << "," << r1 << ") at (" << i << ","
                    << j << ")";
              }
            }
          }
        }
      }
    }
  }
}

TEST(SimdSpmmRows, SignSplitEqualsSpmmRowsOnEachSignPart) {
  // spmm_sign_rows on the full matrix against spmm_rows on its negative
  // part (negated values) and its positive part, built here as CSR; zero
  // and NaN entries belong to neither part.
  constexpr double kSentinel = -777.25;
  const std::pair<std::size_t, std::size_t> ranges[] = {{0, 9}, {2, 7}, {5, 6}};
  for (const simd::KernelTable* t : RunnableTables()) {
    for (bool specials : {false, true}) {
      for (std::size_t n = 1; n <= 70; ++n) {
        const SpmmCase sc = MakeSpmmCase(n, specials, 2000 + n);
        SpmmCase neg = sc, pos = sc;
        for (SpmmCase* part : {&neg, &pos}) {
          part->offsets.assign(1, 0);
          part->idx.clear();
          part->vals.clear();
        }
        for (std::size_t i = 0; i < sc.rows; ++i) {
          for (std::size_t k = sc.offsets[i]; k < sc.offsets[i + 1]; ++k) {
            if (sc.vals[k] < 0.0) {
              neg.idx.push_back(sc.idx[k]);
              neg.vals.push_back(-sc.vals[k]);
            } else if (sc.vals[k] > 0.0) {
              pos.idx.push_back(sc.idx[k]);
              pos.vals.push_back(sc.vals[k]);
            }
          }
          neg.offsets.push_back(neg.idx.size());
          pos.offsets.push_back(pos.idx.size());
        }
        for (const auto& [r0, r1] : ranges) {
          // lint:memstats-ok(small test outputs; ldc padding is the point)
          std::vector<double> gn(sc.rows * sc.ldc, kSentinel), gp = gn;
          std::vector<double> wn = gn, wp = gn;
          t->spmm_sign_rows(sc.offsets.data(), sc.idx.data(), sc.vals.data(),
                            r0, r1, sc.b.data(), sc.ldb, n, gn.data(),
                            gp.data(), sc.ldc);
          t->spmm_rows(neg.offsets.data(), neg.idx.data(), neg.vals.data(),
                       r0, r1, sc.b.data(), sc.ldb, n, wn.data(), sc.ldc);
          t->spmm_rows(pos.offsets.data(), pos.idx.data(), pos.vals.data(),
                       r0, r1, sc.b.data(), sc.ldb, n, wp.data(), sc.ldc);
          for (std::size_t e = 0; e < gn.size(); ++e) {
            ASSERT_TRUE(SameBits(gn[e], wn[e]) && SameBits(gp[e], wp[e]))
                << t->name << " specials=" << specials << " n=" << n
                << " rows [" << r0 << "," << r1 << ") at flat " << e << ": "
                << gn[e] << "/" << gp[e] << " vs " << wn[e] << "/" << wp[e];
          }
        }
      }
    }
  }
}

TEST(SimdSpmmRows, StartsFromPositiveZero) {
  // A lone −0.0 product must come out +0.0 (+0.0 + −0.0), as in the
  // zeroed-row Axpy chain; an empty row stores +0.0 over whatever was
  // there.
  const std::size_t offsets[] = {0, 1, 1};
  const std::size_t idx[] = {0};
  const double vals[] = {-0.0};
  const double b[] = {1.0, 2.0, 3.0};
  for (const simd::KernelTable* t : RunnableTables()) {
    double c[6] = {-1.0, -1.0, -1.0, -1.0, -1.0, -1.0};
    t->spmm_rows(offsets, idx, vals, 0, 2, b, 3, 3, c, 3);
    for (double x : c) {
      EXPECT_EQ(x, 0.0) << t->name;
      EXPECT_FALSE(std::signbit(x)) << t->name;
    }
  }
}

// ---- Packed GEMM protocol -------------------------------------------------

/// C += A·B through one table's pack_a / pack_b / gemm_packed.
void PackedGemm(const simd::KernelTable& t, const Matrix& a, const Matrix& b,
                Matrix* c) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  const std::size_t apanels = (m + t.mr - 1) / t.mr;
  const std::size_t bpanels = (n + t.nr - 1) / t.nr;
  // lint:memstats-ok(microkernel packing scratch sized by the tile under test)
  AlignedVector<double> pa(apanels * k * t.mr);
  // lint:memstats-ok(microkernel packing scratch sized by the tile under test)
  AlignedVector<double> pb(bpanels * k * t.nr);
  t.pack_a(a.row_ptr(0), a.stride(), m, k, pa.data());
  t.pack_b(b.row_ptr(0), b.stride(), k, n, pb.data());
  t.gemm_packed(pa.data(), pb.data(), m, k, n, c->row_ptr(0), c->stride());
}

TEST(SimdGemm, PackedMicrokernelMatchesNaiveAtAllTileShapes) {
  Rng rng(99);
  // Shapes straddling every mr/nr boundary of the widest geometry
  // (avx512 is 8 x 16), plus odd reduction lengths.
  const std::size_t ms[] = {1, 2, 3, 4, 5, 7, 8, 9, 17};
  const std::size_t ns[] = {1, 3, 7, 8, 9, 15, 16, 17, 33};
  const std::size_t ks[] = {1, 2, 7, 16, 33};
  for (const simd::KernelTable* t : RunnableTables()) {
    for (std::size_t m : ms) {
      for (std::size_t n : ns) {
        for (std::size_t k : ks) {
          const Matrix a = Matrix::RandomUniform(m, k, &rng, -1.0, 1.0);
          const Matrix b = Matrix::RandomUniform(k, n, &rng, -1.0, 1.0);
          Matrix c = Matrix::RandomUniform(m, n, &rng, -1.0, 1.0);
          Matrix want = c;
          PackedGemm(*t, a, b, &c);
          for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
              double acc = want(i, j);
              for (std::size_t l = 0; l < k; ++l) acc += a(i, l) * b(l, j);
              want(i, j) = acc;
            }
          }
          for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
              EXPECT_NEAR(c(i, j), want(i, j), ReductionTol(k, 1.0))
                  << t->name << " m=" << m << " n=" << n << " k=" << k
                  << " at (" << i << "," << j << ")";
            }
          }
        }
      }
    }
  }
}

TEST(SimdGemm, PackedMicrokernelLeavesPaddingAndNeighboursAlone) {
  // C has more rows/cols than the product touches; the extra row, the
  // extra columns, and the stride padding must keep their values.
  Rng rng(7);
  for (const simd::KernelTable* t : RunnableTables()) {
    const std::size_t m = 5, n = 11, k = 9;
    const Matrix a = Matrix::RandomUniform(m, k, &rng, -1.0, 1.0);
    const Matrix b = Matrix::RandomUniform(k, n, &rng, -1.0, 1.0);
    Matrix c = Matrix::RandomUniform(m + 1, n + 3, &rng, -1.0, 1.0);
    const Matrix before = c;
    const std::size_t apanels = (m + t->mr - 1) / t->mr;
    const std::size_t bpanels = (n + t->nr - 1) / t->nr;
    // lint:memstats-ok(microkernel packing scratch sized by the tile under test)
    AlignedVector<double> pa(apanels * k * t->mr);
    // lint:memstats-ok(microkernel packing scratch sized by the tile under test)
    AlignedVector<double> pb(bpanels * k * t->nr);
    t->pack_a(a.row_ptr(0), a.stride(), m, k, pa.data());
    t->pack_b(b.row_ptr(0), b.stride(), k, n, pb.data());
    t->gemm_packed(pa.data(), pb.data(), m, k, n, c.row_ptr(0), c.stride());
    for (std::size_t j = 0; j < before.cols(); ++j) {
      EXPECT_EQ(c(m, j), before(m, j)) << t->name << " row beyond m, j=" << j;
    }
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = n; j < before.cols(); ++j) {
        EXPECT_EQ(c(i, j), before(i, j))
            << t->name << " col beyond n at (" << i << "," << j << ")";
      }
    }
  }
}

// ---- Dispatch selection & force override ----------------------------------

TEST(SimdDispatch, ResolveTableHonoursMockedFeatureBits) {
  // No features at all → scalar, always.
  simd::CpuFeatures none;
  EXPECT_STREQ(simd::ResolveTable(none)->name, "scalar");

  // AVX2 without FMA is not enough for the avx2 table.
  simd::CpuFeatures avx2_only;
  avx2_only.avx2 = true;
  EXPECT_STREQ(simd::ResolveTable(avx2_only)->name, "scalar");

  // AVX2+FMA picks the avx2 table when this binary carries it.
  simd::CpuFeatures avx2_fma;
  avx2_fma.avx2 = avx2_fma.fma = true;
  EXPECT_STREQ(simd::ResolveTable(avx2_fma)->name,
               simd::Avx2KernelTable() ? "avx2" : "scalar");

  // AVX-512 needs both F and DQ; F alone falls back to avx2.
  simd::CpuFeatures f_only = avx2_fma;
  f_only.avx512f = true;
  EXPECT_STREQ(simd::ResolveTable(f_only)->name,
               simd::Avx2KernelTable() ? "avx2" : "scalar");

  simd::CpuFeatures full = f_only;
  full.avx512dq = true;
  if (simd::Avx512KernelTable()) {
    EXPECT_STREQ(simd::ResolveTable(full)->name, "avx512");
  } else {
    EXPECT_STREQ(simd::ResolveTable(full)->name,
                 simd::Avx2KernelTable() ? "avx2" : "scalar");
  }
}

TEST(SimdDispatch, TableForNameFiltersUnknownAndUnavailable) {
  EXPECT_EQ(simd::TableForName("bogus"), nullptr);
  EXPECT_EQ(simd::TableForName(nullptr), nullptr);
  const simd::KernelTable* s = simd::TableForName("scalar");
  ASSERT_NE(s, nullptr);
  EXPECT_STREQ(s->name, "scalar");
  EXPECT_EQ(s->lanes, 1u);
}

TEST(SimdDispatch, ForceIsaRejectsUnknownName) {
  // "neon" included: the binary carries no NEON table, so the name is
  // unknown rather than merely unavailable.
  for (const char* name : {"avx1024", "neon"}) {
    const Status st = simd::ForceIsa(name);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(st.message().find(name), std::string::npos);
  }
}

TEST(SimdDispatch, ForceIsaRejectsUnavailableIsaCleanly) {
  // Whichever of avx2/avx512 this host cannot run must come back as a
  // clean FailedPrecondition, not a crash or a silent fallback.
  for (const char* name : kAllIsaNames) {
    if (simd::TableForName(name) != nullptr) continue;
    const Status st = simd::ForceIsa(name);
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << name;
  }
}

TEST(SimdDispatch, ForceIsaAfterResolutionOnlyAcceptsTheResolvedTable) {
  const std::string resolved = simd::IsaName();  // Resolves the dispatch.
  EXPECT_TRUE(simd::ForceIsa(resolved.c_str()).ok());
  for (const simd::KernelTable* t : RunnableTables()) {
    if (resolved == t->name) continue;
    const Status st = simd::ForceIsa(t->name);
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << t->name;
    EXPECT_NE(st.message().find("already resolved"), std::string::npos);
  }
}

TEST(SimdDispatch, IsaNameIsAKnownTableAndHonoursTheEnvOverride) {
  const std::string name = simd::IsaName();
  bool known = false;
  for (const char* n : kAllIsaNames) known = known || name == n;
  EXPECT_TRUE(known) << name;
  EXPECT_STREQ(simd::Table().name, name.c_str());
  // Under a forced run (the CI forced-scalar / forced-avx2 legs), the
  // dispatched table must be exactly the requested one.
  const char* forced = std::getenv("RHCHME_FORCE_ISA");
  if (forced != nullptr && forced[0] != '\0') {
    EXPECT_EQ(name, forced);
  }
  // The detected name ignores forcing and is also a known table.
  const std::string detected = simd::DetectedIsaName();
  known = false;
  for (const char* n : kAllIsaNames) known = known || detected == n;
  EXPECT_TRUE(known) << detected;
}

// ---- Alignment & padding invariants of the storage layer -----------------

TEST(AlignedStorage, PaddedStrideRoundsUpToCacheLine) {
  EXPECT_EQ(PaddedStride(0), 0u);
  EXPECT_EQ(PaddedStride(1), kAlignDoubles);
  EXPECT_EQ(PaddedStride(kAlignDoubles), kAlignDoubles);
  EXPECT_EQ(PaddedStride(kAlignDoubles + 1), 2 * kAlignDoubles);
}

TEST(AlignedStorage, AlignedVectorBufferIsAligned) {
  // lint:memstats-ok(13-element probe asserting the allocator's alignment contract)
  AlignedVector<double> v(13, 1.0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kAlignment, 0u);
}

TEST(AlignedStorage, EveryMatrixRowIsCacheLineAligned) {
  // Odd column count forces padding; every row must still be aligned.
  Matrix m(7, 5);
  EXPECT_EQ(m.stride(), kAlignDoubles);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.row_ptr(i)) % kAlignment, 0u)
        << "row " << i;
  }
}

}  // namespace
}  // namespace la
}  // namespace rhchme
