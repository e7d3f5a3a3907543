// Verified-block table for the cold tier (tier/segment.h). Cold reads
// search the segment mapping in place; the table only remembers which
// blocks passed their checksum, so a block is verified as it enters and a
// later read of it costs one tag compare. It owns no bytes: eviction
// forgets a tag, and the shard layer's epoch guard keeps a segment mapped
// while readers are inside it. A tag is (ColdSegment::cache_id(), block)
// in one word, 0 when empty; sets of kWays tags fill one cache line each.
// Block b of a segment lives in set (start(segment) + b) mod sets, so a
// segment conflicts with itself only once it wraps. A miss runs the
// caller's in-place verify; only a pass installs the tag, in an empty way
// or else over one not hit since the set's last clock sweep. Two readers
// missing one block both verify it, which is harmless. No locks: slots
// are relaxed atomics, stats are striped counters mirrored into the
// registry (tier.cache_*, tier.block_verify_failures).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "obs/metrics.h"

namespace alex::tier {

class BlockCache {
 public:
  /// capacity_bytes / block_bytes (> 0) slots, in whole sets; with less
  /// than one set, every read verifies.
  BlockCache(size_t capacity_bytes, size_t block_bytes)
      : block_bytes_(block_bytes),
        num_sets_(capacity_bytes / block_bytes / kWays),
        sets_(new Set[num_sets_]()) {}

  /// True when block (`segment_id`, `block`) is in the table or `verify()`
  /// passed and entered it; false, entering nothing, if `verify()` failed.
  template <typename Verify>
  bool Verified(uint64_t segment_id, uint64_t block, Verify&& verify) {
    const uint64_t tag = (segment_id << 32) | (block & 0xFFFFFFFFULL);
    Set* set = num_sets_ == 0 ? nullptr : &sets_[SetOf(segment_id, block)];
    for (size_t w = 0; set != nullptr && w < kWays; ++w) {
      uint64_t t = set->tags[w].load(std::memory_order_relaxed);
      if ((t & ~kReferenced) != tag) continue;
      if (t == tag) {  // first hit since the last sweep: mark it
        set->tags[w].compare_exchange_strong(t, tag | kReferenced,
                                             std::memory_order_relaxed);
      }
      hits_.Increment();
      ALEX_OBS_COUNTER_INC("tier.cache_hits");
      return true;
    }
    misses_.Increment();
    ALEX_OBS_COUNTER_INC("tier.cache_misses");
    if (!verify()) {
      ALEX_OBS_COUNTER_INC("tier.block_verify_failures");
      return false;
    }
    if (set != nullptr) Install(set, tag);
    return true;
  }

  /// Forgets every block of `segment_id`, a ColdSegment::cache_id() no
  /// later mapping reuses (a block re-entered by a late reader ages out).
  void EraseSegment(uint64_t segment_id) {
    for (size_t i = 0; i < num_sets_ * kWays; ++i) {
      uint64_t t = Slot(i).load(std::memory_order_relaxed);
      if (t != 0 && ((t & ~kReferenced) >> 32) == segment_id) {
        Slot(i).compare_exchange_strong(t, 0, std::memory_order_relaxed);
      }
    }
  }

  uint64_t hits() const { return hits_.Load(); }
  uint64_t misses() const { return misses_.Load(); }
  uint64_t evictions() const { return evictions_.Load(); }
  /// Bytes of the blocks the table vouches for, one slot's worth each.
  size_t bytes() const {
    size_t used = 0;
    for (size_t i = 0; i < num_sets_ * kWays; ++i) {
      used += Slot(i).load(std::memory_order_relaxed) != 0;
    }
    return used * block_bytes_;
  }

 private:
  static constexpr size_t kWays = 8;
  static constexpr uint64_t kReferenced = 1ULL << 63;

  struct alignas(64) Set {
    std::atomic<uint64_t> tags[kWays];
  };

  std::atomic<uint64_t>& Slot(size_t i) const {
    return sets_[i / kWays].tags[i % kWays];
  }

  /// Starts a segment frac(id * golden ratio) round: ids spread evenly.
  size_t SetOf(uint64_t segment_id, uint64_t block) const {
    const uint64_t start =
        ((segment_id * 11400714819323198485ULL) >> 32) * num_sets_ >> 32;
    return static_cast<size_t>((start + block) % num_sets_);
  }

  /// Puts `tag` in an empty way, else in the first unmarked way from one
  /// the tag hashes to, clearing the marks it passes (all marked: there).
  void Install(Set* set, uint64_t tag) {
    const size_t start = (tag * 11400714819323198485ULL) >> 61;
    size_t victim = kWays;
    for (size_t w = 0; w < kWays; ++w) {
      const uint64_t t = set->tags[w].load(std::memory_order_relaxed);
      if ((t & ~kReferenced) == tag) return;  // another reader beat us
      if (t == 0 && victim == kWays) victim = w;
    }
    for (size_t i = 0; victim == kWays && i < kWays; ++i) {
      const size_t w = (start + i) % kWays;
      uint64_t t = set->tags[w].load(std::memory_order_relaxed);
      if (!(t & kReferenced)) {
        victim = w;
      } else {
        set->tags[w].compare_exchange_strong(t, t & ~kReferenced,
                                             std::memory_order_relaxed);
      }
    }
    if (victim == kWays) victim = start;
    if (set->tags[victim].exchange(tag, std::memory_order_relaxed) != 0) {
      evictions_.Increment();
      ALEX_OBS_COUNTER_INC("tier.cache_evictions");
    }
  }

  const size_t block_bytes_;
  const size_t num_sets_;
  const std::unique_ptr<Set[]> sets_;
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter evictions_;
};

}  // namespace alex::tier
