// Scalar kernel table — the always-available dispatch fallback and the
// semantic reference every vector table is pinned against
// (tests/simd_test.cc). Compiled with no ISA flags: whatever the baseline
// target offers is all the auto-vectorizer may use.
//
// The element-parallel kernels are byte-for-byte the simd::scalar::*
// reference loops, and the CSR row kernel is literally the zeroed row
// plus one Axpy per nonzero that the vector tables' register strips must
// reproduce bit for bit; the GEMM entry points implement the same packed
// (mr x nr) register-tile protocol as the vector tables so la/gemm.cc
// drives every ISA through one code path.

#include "la/kernels.h"

namespace rhchme {
namespace la {
namespace simd {
namespace {

constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 8;

void Axpy(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

double Dot(const double* a, const double* b, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

void DotRows(const double* a, const double* b, std::size_t ldb,
             const std::size_t* idx, std::size_t count, std::size_t n,
             double* out) {
  for (std::size_t t = 0; t < count; ++t) {
    out[t] = Dot(a, b + (idx != nullptr ? idx[t] : t) * ldb, n);
  }
}

double DotSparse(const std::size_t* idx, const double* vals,
                 std::size_t count, const double* b, std::size_t /*n*/) {
  double s = 0.0;
  for (std::size_t k = 0; k < count; ++k) s += vals[k] * b[idx[k]];
  return s;
}

double SquaredDistance(const double* a, const double* b, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

void Add(double* y, const double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += x[i];
}

void Sub(double* y, const double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] -= x[i];
}

void Scale(double* y, double s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] *= s;
}

void Hadamard(double* y, const double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] *= x[i];
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
      const double* pa = packa + q * klen * kMr;
      double acc[kMr][kNr] = {};
      for (std::size_t l = 0; l < klen; ++l) {
        const double* bl = pb + l * kNr;
        const double* al = pa + l * kMr;
        for (std::size_t r = 0; r < kMr; ++r) {
          for (std::size_t j = 0; j < kNr; ++j) acc[r][j] += al[r] * bl[j];
        }
      }
      for (std::size_t r = 0; r < h; ++r) {
        double* cr = c + (i0 + r) * ldc + j0;
        for (std::size_t j = 0; j < w; ++j) cr[j] += acc[r][j];
      }
    }
  }
}

void SpmmRows(const std::size_t* offsets, const std::size_t* idx,
              const double* vals, std::size_t r0, std::size_t r1,
              const double* b, std::size_t ldb, std::size_t n, double* c,
              std::size_t ldc) {
  for (std::size_t i = r0; i < r1; ++i) {
    double* ci = c + i * ldc;
    for (std::size_t j = 0; j < n; ++j) ci[j] = 0.0;
    for (std::size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      Axpy(vals[k], b + idx[k] * ldb, ci, n);
    }
  }
}

void SpmmSignRows(const std::size_t* offsets, const std::size_t* idx,
                  const double* vals, std::size_t r0, std::size_t r1,
                  const double* b, std::size_t ldb, std::size_t n,
                  double* neg, double* pos, std::size_t ldc) {
  for (std::size_t i = r0; i < r1; ++i) {
    double* ni = neg + i * ldc;
    double* pi = pos + i * ldc;
    for (std::size_t j = 0; j < n; ++j) ni[j] = pi[j] = 0.0;
    for (std::size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      const double v = vals[k];
      if (v < 0.0) {
        Axpy(-v, b + idx[k] * ldb, ni, n);
      } else if (v > 0.0) {
        Axpy(v, b + idx[k] * ldb, pi, n);
      }
    }
  }
}

constexpr KernelTable kScalarTable = {
    "scalar",     Isa::kScalar, /*lanes=*/1, kMr,        kNr,
    Axpy,         Dot,          DotRows,     DotSparse,  SquaredDistance,
    Add,          Sub,          Scale,       Hadamard,   PackB,
    PackA,        GemmPacked,   SpmmRows,    SpmmSignRows,
};

}  // namespace

const KernelTable* ScalarKernelTable() { return &kScalarTable; }

}  // namespace simd
}  // namespace la
}  // namespace rhchme
