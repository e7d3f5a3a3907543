// The one checksum of every on-disk format: segment blocks, metadata and
// headers (tier/segment.h), WAL records and segment headers
// (wal/wal_format.h), and the shard manifest (shard/manifest.h).
//
// It is XXH64 (https://github.com/Cyan4973/xxHash/blob/dev/doc/xxhash_spec.md)
// in portable C++17: four independent 64-bit lanes consume 32-byte
// stripes, so the multiply chains overlap instead of serializing on one
// accumulator, and every load is an 8-byte memcpy (well-defined at any
// alignment, a plain load on x86/ARM). A cold block-cache miss verifies
// 4 KiB with it, which is why it is word-at-a-time rather than a
// byte-serial hash. Loads are native-endian, like every other field of
// the formats it protects (all little-endian on the supported targets).
//
// Unlike FNV-1a, seeding with a previous digest does NOT equal one pass
// over the concatenated bytes: a writer and its reader must hash exactly
// the same spans in the same order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace alex::util {

namespace checksum_internal {

inline constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
inline constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;
inline constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

inline uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

inline uint64_t Load64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint64_t Load32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint64_t Round(uint64_t acc, uint64_t lane) {
  acc += lane * kPrime2;
  return Rotl(acc, 31) * kPrime1;
}

inline uint64_t MergeLane(uint64_t acc, uint64_t lane_acc) {
  acc ^= Round(0, lane_acc);
  return acc * kPrime1 + kPrime4;
}

}  // namespace checksum_internal

/// XXH64 of `n` bytes at `data` under `seed`. One-shot spans use seed 0;
/// a digest over several separate spans passes the previous digest as
/// the next span's seed (and its reader must do the same).
inline uint64_t Checksum64(const void* data, size_t n, uint64_t seed) {
  using namespace checksum_internal;
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + n;
  uint64_t acc;
  if (n >= 32) {
    uint64_t v1 = seed + kPrime1 + kPrime2;
    uint64_t v2 = seed + kPrime2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kPrime1;
    const unsigned char* const last_stripe = end - 32;
    do {
      v1 = Round(v1, Load64(p));
      v2 = Round(v2, Load64(p + 8));
      v3 = Round(v3, Load64(p + 16));
      v4 = Round(v4, Load64(p + 24));
      p += 32;
    } while (p <= last_stripe);
    acc = Rotl(v1, 1) + Rotl(v2, 7) + Rotl(v3, 12) + Rotl(v4, 18);
    acc = MergeLane(acc, v1);
    acc = MergeLane(acc, v2);
    acc = MergeLane(acc, v3);
    acc = MergeLane(acc, v4);
  } else {
    acc = seed + kPrime5;
  }
  acc += static_cast<uint64_t>(n);
  for (; end - p >= 8; p += 8) {
    acc ^= Round(0, Load64(p));
    acc = Rotl(acc, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    acc ^= Load32(p) * kPrime1;
    acc = Rotl(acc, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    acc ^= *p * kPrime5;
    acc = Rotl(acc, 11) * kPrime1;
  }
  acc ^= acc >> 33;
  acc *= kPrime2;
  acc ^= acc >> 29;
  acc *= kPrime3;
  acc ^= acc >> 32;
  return acc;
}

}  // namespace alex::util
