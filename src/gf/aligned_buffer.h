// Cache-line-aligned storage for payload rows.
//
// The SIMD kernels accept unaligned spans, but aligned rows keep every
// tile boundary off a straddled cache line, so no 64-byte vector load
// splits a line. codes::SourceData and the progressive decoder's payload
// rows are AlignedVectors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <new>
#include <vector>

namespace prlc::gf {

/// Bytes in a cache line: the alignment of every AlignedVector.
inline constexpr std::size_t kCacheLineBytes = 64;

/// std::vector allocator whose storage starts on a cache-line boundary.
/// Stateless; elements are initialized exactly as with std::allocator.
///
/// It over-allocates by one line and keeps the slack inside the block,
/// with the base pointer stored just below the aligned start. The aligned
/// operator new (glibc memalign) instead splits the slack off as small
/// free chunks, which later allocations pin between the rows: with the
/// decoder's rows that cost +2% peak RSS on 2 MiB objects.
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > (std::numeric_limits<std::size_t>::max() - kCacheLineBytes) / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    // operator new returns at least pointer alignment, so the first aligned
    // address past room for the base pointer is at most one line in.
    void* base = ::operator new(n * sizeof(T) + kCacheLineBytes);
    const std::uintptr_t room = reinterpret_cast<std::uintptr_t>(base) + sizeof(void*);
    auto* start = static_cast<std::uint8_t*>(base) +
                  (((room + kCacheLineBytes - 1) & ~std::uintptr_t{kCacheLineBytes - 1}) -
                   reinterpret_cast<std::uintptr_t>(base));
    std::memcpy(start - sizeof(void*), &base, sizeof(void*));
    return reinterpret_cast<T*>(start);
  }
  void deallocate(T* p, std::size_t) noexcept {
    void* base = nullptr;
    std::memcpy(&base, reinterpret_cast<std::uint8_t*>(p) - sizeof(void*), sizeof(void*));
    ::operator delete(base);
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) { return true; }
};

/// A vector whose first element sits on a cache-line boundary.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace prlc::gf
