// Sharded-LRU block cache for the cold tier (tier/segment.h). Hot cold-
// tier blocks serve from DRAM copies; everything else stays on disk
// behind the mmap. The design follows SNIPPETS.md's cache-oblivious PMA
// split (BlockDevice + Cache* behind the index), adapted to the shard
// layer's concurrency rules:
//
//   - Sharded: (segment, block) keys hash across kNumShards independent
//     LRU shards, each with its own mutex — readers of different blocks
//     rarely touch the same lock, and no lock is held across a load.
//   - Singleflight: the first thread to miss a block inserts a kLoading
//     placeholder, drops the shard lock, runs the loader (memcpy +
//     checksum from the mapping), and publishes; concurrent readers of
//     the same block wait on the shard's condvar instead of duplicating
//     the load. A failed load erases the placeholder and wakes waiters,
//     who retry the load themselves (and surface the failure if it
//     persists).
//   - Pinned refs: a Handle pins its entry (refs > 0); pinned entries
//     leave the LRU list and cannot be evicted, so a reader iterating a
//     block is never racing the eviction memcpy. Release re-enters the
//     entry at the LRU head.
//
// Capacity is in bytes, split evenly across shards; eviction pops
// unpinned entries from each shard's LRU tail until that shard fits.
// Stats are plain atomics (benches read them with obs disabled) and
// mirror into the metrics registry (tier.cache_*).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace alex::tier {

class BlockCache {
  struct Entry;  // defined below; Handle stores a pointer to one

 public:
  /// `capacity_bytes` is a soft global bound (enforced per shard as
  /// capacity/kNumShards). 0 caches nothing but still serves loads.
  explicit BlockCache(size_t capacity_bytes)
      : shard_capacity_(capacity_bytes / kNumShards) {}

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// A pinned, immutable view of one cached block. Valid handles keep
  /// the bytes alive and un-evictable until destruction. Movable only.
  class Handle {
   public:
    Handle() = default;
    Handle(Handle&& o) noexcept { *this = std::move(o); }
    Handle& operator=(Handle&& o) noexcept {
      Reset();
      cache_ = o.cache_;
      shard_ = o.shard_;
      entry_ = o.entry_;
      o.cache_ = nullptr;
      o.entry_ = nullptr;
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() { Reset(); }

    bool valid() const { return entry_ != nullptr; }
    const uint8_t* data() const { return entry_->data.data(); }
    size_t size() const { return entry_->data.size(); }

   private:
    friend class BlockCache;
    Handle(BlockCache* cache, size_t shard, Entry* entry)
        : cache_(cache), shard_(shard), entry_(entry) {}
    void Reset() {
      if (cache_ != nullptr && entry_ != nullptr) {
        cache_->Release(shard_, entry_);
      }
      cache_ = nullptr;
      entry_ = nullptr;
    }
    BlockCache* cache_ = nullptr;
    size_t shard_ = 0;
    Entry* entry_ = nullptr;
  };

  /// Returns a pinned handle to block (`segment_id`, `block`), loading it
  /// through `loader(&bytes)` (bool return) on a miss. An invalid handle
  /// means the load failed — for segment blocks, a checksum mismatch or
  /// I/O error that the caller maps to its own failure semantics.
  template <typename Loader>
  Handle GetOrLoad(uint64_t segment_id, uint64_t block, Loader&& loader) {
    const uint64_t key = KeyOf(segment_id, block);
    const size_t s = ShardOf(key);
    CacheShard& shard = shards_[s];
    std::unique_lock<std::mutex> lock(shard.mutex);
    while (true) {
      auto it = shard.map.find(key);
      if (it == shard.map.end()) break;  // miss: this thread loads
      Entry* entry = it->second.get();
      if (entry->state == EntryState::kReady) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        ALEX_OBS_COUNTER_INC("tier.cache_hits");
        Pin(shard, entry);
        return Handle(this, s, entry);
      }
      // Someone else is loading this block: singleflight wait, then
      // re-check (the load may have failed and erased the entry).
      shard.ready.wait(lock);
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    ALEX_OBS_COUNTER_INC("tier.cache_misses");
    auto placeholder = std::make_unique<Entry>();
    placeholder->key = key;
    Entry* entry = placeholder.get();
    shard.map.emplace(key, std::move(placeholder));
    lock.unlock();

    std::vector<uint8_t> bytes;
    const bool ok = loader(&bytes);

    lock.lock();
    if (!ok) {
      shard.map.erase(key);
      lock.unlock();
      shard.ready.notify_all();
      return Handle();
    }
    entry->data = std::move(bytes);
    entry->state = EntryState::kReady;
    shard.bytes += entry->data.size();
    bytes_.fetch_add(entry->data.size(), std::memory_order_relaxed);
    // Born pinned (never entered the LRU list, so no unlink here — Pin
    // is only for entries Release parked on the list).
    entry->refs = 1;
    pinned_bytes_.fetch_add(entry->data.size(),
                            std::memory_order_relaxed);
    ALEX_OBS_GAUGE_SET("tier.cache_pinned_bytes",
                       static_cast<double>(pinned_bytes_.load(
                           std::memory_order_relaxed)));
    EvictLocked(shard);
    lock.unlock();
    shard.ready.notify_all();
    return Handle(this, s, entry);
  }

  /// Drops every unpinned cached block of `segment_id` (retiring a cold
  /// shard drops its segment's blocks eagerly; any still-pinned or
  /// in-flight entries age out through the LRU). Callers key the cache
  /// by ColdSegment::cache_id(), which no later mapping reuses, so a
  /// stale block can never be requested again — an on-disk segment id
  /// could be, by a segment of the same number at another prefix.
  void EraseSegment(uint64_t segment_id) {
    for (CacheShard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      for (auto it = shard.map.begin(); it != shard.map.end();) {
        Entry* entry = it->second.get();
        if (SegmentOf(entry->key) == segment_id &&
            entry->state == EntryState::kReady && entry->refs == 0) {
          shard.lru.erase(entry->lru_pos);
          shard.bytes -= entry->data.size();
          bytes_.fetch_sub(entry->data.size(),
                           std::memory_order_relaxed);
          it = shard.map.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  size_t capacity_bytes() const { return shard_capacity_ * kNumShards; }
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  size_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  size_t pinned_bytes() const {
    return pinned_bytes_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kNumShards = 8;

  enum class EntryState { kLoading, kReady };

  struct Entry {
    uint64_t key = 0;
    std::vector<uint8_t> data;
    EntryState state = EntryState::kLoading;
    uint32_t refs = 0;
    std::list<Entry*>::iterator lru_pos;  // valid iff ready && refs == 0
  };

  struct CacheShard {
    std::mutex mutex;
    std::condition_variable ready;
    std::unordered_map<uint64_t, std::unique_ptr<Entry>> map;
    std::list<Entry*> lru;  // front = most recent; unpinned entries only
    size_t bytes = 0;
  };

  // Segment ids are allocated sequentially and blocks are bounded by
  // segment size / block size; both fit comfortably in 32 bits each.
  static uint64_t KeyOf(uint64_t segment_id, uint64_t block) {
    return (segment_id << 32) | (block & 0xFFFFFFFFULL);
  }
  static uint64_t SegmentOf(uint64_t key) { return key >> 32; }
  static size_t ShardOf(uint64_t key) {
    // Fibonacci hash: consecutive blocks of one segment spread across
    // shards instead of piling onto one.
    return static_cast<size_t>((key * 11400714819323198485ULL) >> 61) &
           (kNumShards - 1);
  }

  void Pin(CacheShard& shard, Entry* entry) {
    if (entry->refs++ == 0 && entry->state == EntryState::kReady) {
      shard.lru.erase(entry->lru_pos);
      pinned_bytes_.fetch_add(entry->data.size(),
                              std::memory_order_relaxed);
      ALEX_OBS_GAUGE_SET(
          "tier.cache_pinned_bytes",
          static_cast<double>(
              pinned_bytes_.load(std::memory_order_relaxed)));
    }
  }

  void Release(size_t s, Entry* entry) {
    CacheShard& shard = shards_[s];
    std::unique_lock<std::mutex> lock(shard.mutex);
    if (--entry->refs == 0) {
      pinned_bytes_.fetch_sub(entry->data.size(),
                              std::memory_order_relaxed);
      ALEX_OBS_GAUGE_SET(
          "tier.cache_pinned_bytes",
          static_cast<double>(
              pinned_bytes_.load(std::memory_order_relaxed)));
      shard.lru.push_front(entry);
      entry->lru_pos = shard.lru.begin();
      EvictLocked(shard);
    }
  }

  /// Pops unpinned LRU-tail entries until the shard fits its budget.
  /// Entries pinned by handles (not on the list) don't count as
  /// evictable, so a fully-pinned shard may exceed its budget — by
  /// design: never invalidate bytes a reader holds.
  void EvictLocked(CacheShard& shard) {
    while (shard.bytes > shard_capacity_ && !shard.lru.empty()) {
      Entry* victim = shard.lru.back();
      shard.lru.pop_back();
      shard.bytes -= victim->data.size();
      bytes_.fetch_sub(victim->data.size(), std::memory_order_relaxed);
      evictions_.fetch_add(1, std::memory_order_relaxed);
      ALEX_OBS_COUNTER_INC("tier.cache_evictions");
      shard.map.erase(victim->key);
    }
  }

  const size_t shard_capacity_;
  CacheShard shards_[kNumShards];
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<size_t> bytes_{0};
  std::atomic<size_t> pinned_bytes_{0};
};

}  // namespace alex::tier
