// Runtime-dispatched SIMD kernel layer for the dense/sparse hot loops.
//
// One binary carries every kernel table it could compile — scalar always,
// AVX2+FMA and AVX-512(F+DQ) on x86-64 — with each ISA's implementations
// confined to their own translation unit (la/kernels_*.cc), the only
// files built with their `-m` flags. Other architectures run the scalar
// table. CPUID feature detection picks the best supported table once at
// startup (AVX-512 → AVX2 → scalar); every call after that goes through
// the resolved simd::KernelTable of function pointers. There is no
// global SIMD compile flag any more.
//
// Forcing and reproduction:
//   - RHCHME_FORCE_ISA={scalar,avx2,avx512} pins the table before
//     first use. A value that is unknown, not compiled into this binary,
//     or not supported by the host CPU is a clean startup error.
//   - ForceIsa() is the same override for CLI flags (--force_isa); it
//     wins over the environment variable.
//   - The resolved table name is what IsaName() returns and what the
//     bench/quality JSON context records, so artefacts are compared per
//     dispatched ISA.
//
// Numerics contract (see docs/ARCHITECTURE.md "Kernel layer"): identical
// for every table — element-parallel kernels are bit-identical to the
// scalar reference; reductions use fixed lane-accumulator order per
// table, so results are bit-stable across thread counts for a given
// dispatched ISA. The scalar reference kernels under simd::scalar remain
// the ground truth tests/simd_test.cc pins every table against.
//
// All kernels accept unaligned pointers (la::Matrix rows are 64-byte
// aligned, but callers may pass interior offsets).

#ifndef RHCHME_LA_SIMD_H_
#define RHCHME_LA_SIMD_H_

#include <cstddef>

#include "la/kernels.h"
#include "util/status.h"

namespace rhchme {
namespace la {
namespace simd {

// ---- Scalar reference kernels (always compiled, ground truth) ------------

namespace scalar {

/// y[0..n) += a * x[0..n).
inline void Axpy(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

/// Σ a[i]·b[i], single left-to-right accumulation chain.
inline double Dot(const double* a, const double* b, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

/// Σ (a[i]-b[i])², single left-to-right accumulation chain.
inline double SquaredDistance(const double* a, const double* b,
                              std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

inline void Add(double* y, const double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += x[i];
}

inline void Sub(double* y, const double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] -= x[i];
}

inline void Scale(double* y, double s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] *= s;
}

}  // namespace scalar

// ---- Dispatch -------------------------------------------------------------

/// CPU feature bits that drive table selection. Separated from detection
/// so the selection policy is unit-testable with mocked bits.
struct CpuFeatures {
  bool avx512f = false;
  bool avx512dq = false;
  bool avx2 = false;
  bool fma = false;
};

/// Queries the running CPU (CPUID on x86-64; no bits elsewhere).
CpuFeatures DetectCpuFeatures();

/// Pure selection policy: the highest-preference table that is both
/// compiled into this binary and supported by `features`, in the order
/// AVX-512(F+DQ) → AVX2+FMA → scalar. Never returns null (the scalar
/// table always exists).
const KernelTable* ResolveTable(const CpuFeatures& features);

/// The dispatched kernel table. Resolved exactly once, on first call:
/// honours a prior ForceIsa() call, else RHCHME_FORCE_ISA, else
/// auto-detection. Thread-safe; hot loops should hoist the reference
/// (`const auto& t = Table();`) rather than re-dispatch per element.
///
/// An invalid RHCHME_FORCE_ISA value (unknown name, table not compiled
/// in, or CPU lacks the ISA) terminates the process with a diagnostic on
/// stderr — a pinned-reproduction run must never silently fall back to a
/// different ISA.
const KernelTable& Table();

/// Pins the dispatched table by name ("scalar", "avx2", "avx512") — the
/// CLI-flag twin of RHCHME_FORCE_ISA, taking precedence over it. Returns
/// InvalidArgument for an unknown name, FailedPrecondition when the table
/// is not compiled into this binary, not supported by this CPU, or
/// dispatch already resolved to a different table (call before first
/// kernel use).
Status ForceIsa(const char* name);

/// The table for an explicitly named ISA when it is compiled into this
/// binary AND supported by this CPU; nullptr otherwise. Does not touch
/// the dispatched table — this is how tests iterate every runnable path
/// in one binary.
const KernelTable* TableForName(const char* name);

/// Name of the dispatched table: "scalar", "avx2" or "avx512".
/// Recorded in bench/quality JSON context (`rhchme_simd`).
const char* IsaName();

/// Name of the table auto-detection would pick, ignoring any force
/// override. Recorded alongside IsaName() so a forced artefact is
/// self-describing (`rhchme_simd_detected`).
const char* DetectedIsaName();

// ---- Dispatched kernel entry points ---------------------------------------
//
// Thin forwarders for call sites outside the hot loops. Each performs one
// dispatch (an atomic load) per call; la/gemm.cc, la/sparse.cc and the
// kNN inner loops hoist Table() once instead.

inline void Axpy(double a, const double* x, double* y, std::size_t n) {
  Table().axpy(a, x, y, n);
}
inline double Dot(const double* a, const double* b, std::size_t n) {
  return Table().dot(a, b, n);
}
inline double SquaredDistance(const double* a, const double* b,
                              std::size_t n) {
  return Table().squared_distance(a, b, n);
}
inline void Add(double* y, const double* x, std::size_t n) {
  Table().add(y, x, n);
}
inline void Sub(double* y, const double* x, std::size_t n) {
  Table().sub(y, x, n);
}
inline void Scale(double* y, double s, std::size_t n) {
  Table().scale(y, s, n);
}

}  // namespace simd
}  // namespace la
}  // namespace rhchme

#endif  // RHCHME_LA_SIMD_H_
