// Aligned storage helpers for the dense kernel layer.
//
// Every la::Matrix row begins on a 64-byte boundary: the buffer comes from
// an over-aligned allocator and the leading dimension (stride) is padded up
// to a whole cache line of doubles. Aligned, padded rows are what let the
// SIMD kernels (la/simd.h) use full-width loads without peeling prologues,
// and keep row panels from splitting cache lines across threads.

#ifndef RHCHME_LA_ALIGNED_H_
#define RHCHME_LA_ALIGNED_H_

#include <cstddef>
#include <new>
#include <vector>

namespace rhchme {
namespace la {

/// Alignment of every Matrix row and of the GEMM packing buffers: one
/// x86-64 cache line, which is also a whole AVX-512 vector and a multiple
/// of every narrower vector width (AVX2, SSE2).
constexpr std::size_t kAlignment = 64;

/// Doubles per cache line — the unit the leading dimension is padded to.
constexpr std::size_t kAlignDoubles = kAlignment / sizeof(double);

/// Leading dimension (in doubles) for a row of `cols` logical columns:
/// `cols` rounded up to a whole cache line, 0 for an empty row.
constexpr std::size_t PaddedStride(std::size_t cols) {
  return (cols + kAlignDoubles - 1) / kAlignDoubles * kAlignDoubles;
}

/// Minimal C++17 over-aligned allocator (aligned operator new/delete).
/// Stateless: all instances are interchangeable, so vectors copy/move
/// freely and propagate the alignment guarantee with them.
template <typename T, std::size_t Align = kAlignment>
class AlignedAllocator {
 public:
  using value_type = T;
  static_assert(Align >= alignof(T), "Align must not weaken T's alignment");

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Align)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Align));
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };
};

template <typename T, std::size_t A, typename U, std::size_t B>
bool operator==(const AlignedAllocator<T, A>&, const AlignedAllocator<U, B>&) {
  return A == B;
}
template <typename T, std::size_t A, typename U, std::size_t B>
bool operator!=(const AlignedAllocator<T, A>&, const AlignedAllocator<U, B>&) {
  return A != B;
}

/// std::vector whose buffer starts on a kAlignment boundary.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace la
}  // namespace rhchme

#endif  // RHCHME_LA_ALIGNED_H_
