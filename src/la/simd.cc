// Kernel-table dispatch: CPUID detection, force overrides, one-time
// resolution. This TU is compiled with baseline flags only — it calls the
// per-ISA accessors (la/kernels_*.cc) but never their kernels directly.

#include "la/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>

#include "util/logging.h"

namespace rhchme {
namespace la {
namespace simd {
namespace {

/// The resolved table; null until first dispatch. Release/acquire pairs
/// make the pointed-to table's initialization visible to every reader
/// (the tables themselves are constexpr, so this is belt and braces).
std::atomic<const KernelTable*> g_table{nullptr};

/// Serializes resolution and force requests.
std::mutex& ResolveMutex() {
  static std::mutex m;
  return m;
}

const char* const kValidNames = "scalar, avx2, avx512";

/// Compiled-in table for `name`, or null. Does not check CPU support.
const KernelTable* CompiledTableForName(const char* name) {
  if (std::strcmp(name, "scalar") == 0) return ScalarKernelTable();
  if (std::strcmp(name, "avx2") == 0) return Avx2KernelTable();
  if (std::strcmp(name, "avx512") == 0) return Avx512KernelTable();
  return nullptr;
}

bool IsKnownName(const char* name) {
  return std::strcmp(name, "scalar") == 0 || std::strcmp(name, "avx2") == 0 ||
         std::strcmp(name, "avx512") == 0;
}

/// Whether the running CPU can execute `table`'s ISA.
bool CpuSupports(const KernelTable& table, const CpuFeatures& f) {
  switch (table.isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
      return f.avx2 && f.fma;
    case Isa::kAvx512:
      return f.avx512f && f.avx512dq;
  }
  return false;
}

/// Publishes `table` as the dispatched table and logs the decision once.
/// Caller holds ResolveMutex().
const KernelTable* Publish(const KernelTable* table, const char* how) {
  RHCHME_LOG(kInfo) << "simd: dispatching kernel table '" << table->name
                    << "' (" << how << "; detected '" << DetectedIsaName()
                    << "')";
  g_table.store(table, std::memory_order_release);
  return table;
}

/// Resolves from RHCHME_FORCE_ISA or auto-detection. Caller holds
/// ResolveMutex(). Exits the process on an invalid force request: a
/// pinned-reproduction run must never silently run a different ISA.
const KernelTable* ResolveLocked() {
  const char* forced = std::getenv("RHCHME_FORCE_ISA");
  if (forced != nullptr && forced[0] != '\0') {
    if (!IsKnownName(forced)) {
      RHCHME_LOG(kError) << "invalid RHCHME_FORCE_ISA='" << forced
                         << "' (valid: " << kValidNames << ")";
      std::exit(1);
    }
    const KernelTable* t = CompiledTableForName(forced);
    if (t == nullptr) {
      RHCHME_LOG(kError) << "RHCHME_FORCE_ISA='" << forced
                         << "' is not compiled into this binary";
      std::exit(1);
    }
    if (!CpuSupports(*t, DetectCpuFeatures())) {
      RHCHME_LOG(kError) << "RHCHME_FORCE_ISA='" << forced
                         << "' is not supported by this CPU (detected '"
                         << DetectedIsaName() << "')";
      std::exit(1);
    }
    return Publish(t, "RHCHME_FORCE_ISA");
  }
  return Publish(ResolveTable(DetectCpuFeatures()), "auto-detected");
}

}  // namespace

CpuFeatures DetectCpuFeatures() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(_M_X64)
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
  f.fma = __builtin_cpu_supports("fma") != 0;
  f.avx512f = __builtin_cpu_supports("avx512f") != 0;
  f.avx512dq = __builtin_cpu_supports("avx512dq") != 0;
#endif
  return f;
}

const KernelTable* ResolveTable(const CpuFeatures& features) {
  if (features.avx512f && features.avx512dq) {
    if (const KernelTable* t = Avx512KernelTable()) return t;
  }
  if (features.avx2 && features.fma) {
    if (const KernelTable* t = Avx2KernelTable()) return t;
  }
  return ScalarKernelTable();
}

const KernelTable& Table() {
  const KernelTable* t = g_table.load(std::memory_order_acquire);
  if (t == nullptr) {
    std::lock_guard<std::mutex> lock(ResolveMutex());
    t = g_table.load(std::memory_order_acquire);
    if (t == nullptr) t = ResolveLocked();
  }
  return *t;
}

Status ForceIsa(const char* name) {
  if (name == nullptr || !IsKnownName(name)) {
    return Status::InvalidArgument(
        std::string("unknown ISA '") + (name ? name : "") +
        "' (valid: " + kValidNames + ")");
  }
  const KernelTable* t = CompiledTableForName(name);
  if (t == nullptr) {
    return Status::FailedPrecondition(
        std::string("ISA '") + name + "' is not compiled into this binary");
  }
  if (!CpuSupports(*t, DetectCpuFeatures())) {
    return Status::FailedPrecondition(
        std::string("ISA '") + name + "' is not supported by this CPU " +
        "(detected '" + DetectedIsaName() + "')");
  }
  std::lock_guard<std::mutex> lock(ResolveMutex());
  const KernelTable* current = g_table.load(std::memory_order_acquire);
  if (current != nullptr) {
    if (current == t) return Status::OK();
    return Status::FailedPrecondition(
        std::string("kernel table already resolved to '") + current->name +
        "'; --force_isa must be applied before first kernel use");
  }
  Publish(t, "--force_isa");
  return Status::OK();
}

const KernelTable* TableForName(const char* name) {
  if (name == nullptr) return nullptr;
  const KernelTable* t = CompiledTableForName(name);
  if (t == nullptr || !CpuSupports(*t, DetectCpuFeatures())) return nullptr;
  return t;
}

const char* IsaName() { return Table().name; }

const char* DetectedIsaName() {
  return ResolveTable(DetectCpuFeatures())->name;
}

}  // namespace simd
}  // namespace la
}  // namespace rhchme
