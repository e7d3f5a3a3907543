// Shared driver for the concurrency benches: the paper's read-mostly
// YCSB-B-style interleave (95% Zipfian point lookups / 5% inserts of
// fresh keys) run on T threads against any index wrapper exposing
// BulkLoad/Get/Insert over (int64_t, int64_t).
//
// Key layout: preloaded keys are multiples of a power-of-two stride;
// fresh insert keys fill the gaps *between* preloaded keys, cycling
// uniformly over the whole key range (gap g gets offsets 1, 2, 3, ... on
// successive visits). That matters for the sharded wrapper: append-only
// fresh keys above the preload maximum would all route to the last
// shard, hiding exactly the write-path distribution the shard benches
// measure. Per-thread counters stride by the thread count, so fresh keys
// are distinct across threads without coordination.
//
// Per-thread op streams are precomputed so the timed loop measures index
// operations, not Zipf generation.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/random.h"
#include "util/timer.h"
#include "util/zipf.h"

namespace alex::bench {

/// Gap between consecutive preloaded keys; also the per-gap fresh-key
/// budget (preload * (kReadMostlyStride - 1) distinct fresh keys exist
/// before the sequence would wrap — far beyond any run's insert count).
inline constexpr int64_t kReadMostlyStride = 2048;

/// Runs the 95/5 workload on `threads` threads for the time budget
/// against the index built by `make()`; returns aggregate ops/s.
template <typename MakeIndex>
double RunReadMostly(MakeIndex make, size_t threads, size_t preload,
                     double seconds) {
  auto index = make();
  std::vector<int64_t> keys, payloads;
  keys.reserve(preload);
  payloads.reserve(preload);
  for (size_t i = 0; i < preload; ++i) {
    keys.push_back(static_cast<int64_t>(i) * kReadMostlyStride);
    payloads.push_back(static_cast<int64_t>(i));
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());

  constexpr size_t kStreamLen = 1 << 16;
  std::vector<std::vector<int64_t>> read_streams(threads);
  for (size_t t = 0; t < threads; ++t) {
    util::Xoshiro256 rng(17 + t);
    util::ScrambledZipfGenerator zipf(preload, 0.99);
    read_streams[t].reserve(kStreamLen);
    for (size_t i = 0; i < kStreamLen; ++i) {
      read_streams[t].push_back(static_cast<int64_t>(zipf.Next(rng)) *
                                kReadMostlyStride);
    }
  }

  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<uint64_t> ops_per_thread(threads, 0);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      // Wait for the timer so spawn-phase ops don't inflate the rate.
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      const std::vector<int64_t>& reads = read_streams[t];
      // Fresh-key counter: distinct across threads (stride = threads),
      // mapped to (gap, offset) so inserts cycle uniformly over the
      // whole preloaded key range.
      uint64_t fresh = t;
      const uint64_t fresh_step = threads;
      uint64_t ops = 0;
      size_t cursor = 0;
      int64_t v = 0;
      while (!stop.load(std::memory_order_acquire)) {
        // 19 reads : 1 insert = the paper's 95/5 interleave.
        for (int i = 0; i < 19; ++i) {
          index.Get(reads[cursor], &v);
          cursor = (cursor + 1) & (kStreamLen - 1);
        }
        const int64_t gap = static_cast<int64_t>(fresh % preload);
        const int64_t offset = static_cast<int64_t>(fresh / preload) + 1;
        index.Insert(gap * kReadMostlyStride + offset,
                     static_cast<int64_t>(fresh));
        fresh += fresh_step;
        ops += 20;
      }
      ops_per_thread[t] = ops;
    });
  }
  util::Timer timer;
  go.store(true, std::memory_order_release);
  while (timer.ElapsedSeconds() < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  const double elapsed = timer.ElapsedSeconds();
  uint64_t total = 0;
  for (const uint64_t ops : ops_per_thread) total += ops;
  return static_cast<double>(total) / elapsed;
}

/// Batched variant of RunReadMostly: the 19 reads of each 95/5 iteration
/// go through ONE MultiGet call instead of 19 scalar Gets (one grouped,
/// prefetched descent per 16 keys); the insert stays scalar, preserving
/// the interleave. MultiGet takes keys in any order, but each 19-key
/// batch of the precomputed stream is sorted in advance anyway, which
/// keeps the measured key order of earlier results.
template <typename MakeIndex>
double RunReadMostlyBatched(MakeIndex make, size_t threads, size_t preload,
                            double seconds) {
  constexpr size_t kBatch = 19;  // one 95/5 iteration's read side
  auto index = make();
  std::vector<int64_t> keys, payloads;
  keys.reserve(preload);
  payloads.reserve(preload);
  for (size_t i = 0; i < preload; ++i) {
    keys.push_back(static_cast<int64_t>(i) * kReadMostlyStride);
    payloads.push_back(static_cast<int64_t>(i));
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());

  constexpr size_t kStreamLen = 1 << 16;
  std::vector<std::vector<int64_t>> read_streams(threads);
  for (size_t t = 0; t < threads; ++t) {
    util::Xoshiro256 rng(17 + t);
    util::ScrambledZipfGenerator zipf(preload, 0.99);
    read_streams[t].reserve(kStreamLen);
    for (size_t i = 0; i < kStreamLen; ++i) {
      read_streams[t].push_back(static_cast<int64_t>(zipf.Next(rng)) *
                                kReadMostlyStride);
    }
    for (size_t i = 0; i + kBatch <= kStreamLen; i += kBatch) {
      std::sort(read_streams[t].begin() + static_cast<ptrdiff_t>(i),
                read_streams[t].begin() + static_cast<ptrdiff_t>(i + kBatch));
    }
  }

  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<uint64_t> ops_per_thread(threads, 0);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      const std::vector<int64_t>& reads = read_streams[t];
      uint64_t fresh = t;
      const uint64_t fresh_step = threads;
      uint64_t ops = 0;
      size_t cursor = 0;
      int64_t vals[kBatch];
      bool found[kBatch];
      while (!stop.load(std::memory_order_acquire)) {
        index.MultiGet(reads.data() + cursor, kBatch, vals, found);
        cursor += kBatch;
        if (cursor + kBatch > kStreamLen) cursor = 0;
        const int64_t gap = static_cast<int64_t>(fresh % preload);
        const int64_t offset = static_cast<int64_t>(fresh / preload) + 1;
        index.Insert(gap * kReadMostlyStride + offset,
                     static_cast<int64_t>(fresh));
        fresh += fresh_step;
        ops += kBatch + 1;
      }
      ops_per_thread[t] = ops;
    });
  }
  util::Timer timer;
  go.store(true, std::memory_order_release);
  while (timer.ElapsedSeconds() < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  const double elapsed = timer.ElapsedSeconds();
  uint64_t total = 0;
  for (const uint64_t ops : ops_per_thread) total += ops;
  return static_cast<double>(total) / elapsed;
}

}  // namespace alex::bench
