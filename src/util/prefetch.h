// Software prefetch hints for the batched lookup path.
//
// A prefetch never faults and never changes program state, so a batched
// lookup may aim one at an address computed from a possibly stale,
// lock-free snapshot (a leaf that has since been rebuilt, the head of a
// node whose type is not known yet). The address is formed in integer
// arithmetic for that reason: it may point past the object it was derived
// from, which pointer arithmetic would not allow.
#pragma once

#include <cstddef>
#include <cstdint>

namespace alex::util {

inline constexpr size_t kCacheLineBytes = 64;

/// Hints that the line holding `base + byte_offset` will be read soon.
inline void PrefetchRead(const void* base, size_t byte_offset = 0) {
  __builtin_prefetch(reinterpret_cast<const void*>(
                         reinterpret_cast<uintptr_t>(base) + byte_offset),
                     0, 3);
}

/// Read hints for every line that [base, base + bytes) overlaps.
inline void PrefetchReadRange(const void* base, size_t bytes) {
  const uintptr_t begin = reinterpret_cast<uintptr_t>(base);
  for (uintptr_t line = begin & ~uintptr_t{kCacheLineBytes - 1};
       line < begin + bytes; line += kCacheLineBytes) {
    __builtin_prefetch(reinterpret_cast<const void*>(line), 0, 3);
  }
}

}  // namespace alex::util
