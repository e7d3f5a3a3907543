// Tests for the batched execution path (MultiGet/MultiInsert/MultiErase)
// at both layers: ConcurrentAlex (sorted batches, leaf-run descent) and
// ShardedAlex (any order, routed shard runs). Coverage: a batch-vs-scalar
// equivalence oracle against a shadow std::map, batched writes across
// leaf and shard splits/merges, concurrent batch writers and readers
// (a TSan target), and batch ops against a WAL-enabled index with a
// recovery round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/concurrent_alex.h"
#include "shard/sharded_alex.h"
#include "test_files.h"
#include "util/random.h"
#include "wal/log_reader.h"
#include "wal/wal_format.h"

namespace alex {
namespace {

using Concurrent = core::ConcurrentAlex<int64_t, int64_t>;
using Sharded = shard::ShardedAlex<int64_t, int64_t>;
using core::SnapshotStatus;
using util::Xoshiro256;
using wal::SyncPolicy;
using wal::WalStatus;

using test::TempPrefix;
constexpr auto Cleanup = test::RemovePrefixFiles;

wal::WalOptions Wal(SyncPolicy policy) {
  wal::WalOptions options;
  options.sync_policy = policy;
  return options;
}

// ---- Batch-vs-scalar equivalence oracle ----
//
// Random interleavings of MultiGet / MultiInsert / MultiErase (with
// duplicate keys inside batches) against a shadow std::map driven by the
// scalar semantics. Per-key results and final contents must agree — the
// batched path is an optimization, never a semantic change.
template <typename Index>
void RunOracle(Index* index, std::map<int64_t, int64_t> shadow,
               bool sort_batches, uint64_t seed) {
  Xoshiro256 rng(seed);
  constexpr int64_t kKeySpace = 4000;  // small: plenty of dup/hit traffic
  for (int round = 0; round < 300; ++round) {
    const size_t n = 1 + rng.NextUint64(97);
    std::vector<int64_t> keys(n), payloads(n);
    for (size_t i = 0; i < n; ++i) {
      keys[i] = static_cast<int64_t>(rng.NextUint64(kKeySpace));
    }
    if (sort_batches) std::sort(keys.begin(), keys.end());
    for (size_t i = 0; i < n; ++i) payloads[i] = keys[i] * 3 + 1;
    std::vector<int64_t> got(n);
    std::vector<char> flags(n, 0);
    const uint64_t op = rng.NextUint64(3);
    if (op == 0) {
      const size_t hits =
          index->MultiGet(keys.data(), n, got.data(),
                          reinterpret_cast<bool*>(flags.data()));
      size_t expected_hits = 0;
      for (size_t i = 0; i < n; ++i) {
        const auto it = shadow.find(keys[i]);
        ASSERT_EQ(flags[i] != 0, it != shadow.end()) << "key " << keys[i];
        if (it != shadow.end()) {
          ASSERT_EQ(got[i], it->second) << "key " << keys[i];
          ++expected_hits;
        }
      }
      ASSERT_EQ(hits, expected_hits);
    } else if (op == 1) {
      const size_t count = index->MultiInsert(
          keys.data(), payloads.data(), n,
          reinterpret_cast<bool*>(flags.data()));
      size_t expected_count = 0;
      for (size_t i = 0; i < n; ++i) {
        const bool fresh = shadow.emplace(keys[i], payloads[i]).second;
        ASSERT_EQ(flags[i] != 0, fresh) << "key " << keys[i];
        if (fresh) ++expected_count;
      }
      ASSERT_EQ(count, expected_count);
    } else {
      const size_t count = index->MultiErase(
          keys.data(), n, reinterpret_cast<bool*>(flags.data()));
      size_t expected_count = 0;
      for (size_t i = 0; i < n; ++i) {
        const bool existed = shadow.erase(keys[i]) > 0;
        ASSERT_EQ(flags[i] != 0, existed) << "key " << keys[i];
        if (existed) ++expected_count;
      }
      ASSERT_EQ(count, expected_count);
    }
  }
  // Final contents: every shadow key present with its payload, every
  // absent probe absent, and the size counters agree.
  ASSERT_EQ(index->size(), shadow.size());
  int64_t v = 0;
  for (const auto& [key, payload] : shadow) {
    ASSERT_TRUE(index->Get(key, &v)) << "key " << key;
    ASSERT_EQ(v, payload) << "key " << key;
  }
  for (int64_t probe = 0; probe < kKeySpace; ++probe) {
    ASSERT_EQ(index->Get(probe, &v), shadow.count(probe) > 0)
        << "probe " << probe;
  }
}

TEST(BatchOpsTest, ConcurrentAlexMatchesShadowMap) {
  Concurrent index;
  RunOracle(&index, {}, /*sort_batches=*/true, 12021);
}

TEST(BatchOpsTest, ShardedAlexMatchesShadowMap) {
  shard::ShardedOptions options;
  options.num_shards = 4;
  Sharded index(options);
  // Preload so the router has real boundaries and batches actually split
  // into per-shard runs; the shadow starts from the same contents.
  std::map<int64_t, int64_t> shadow;
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 4000; i += 2) {
    keys.push_back(i);
    payloads.push_back(i * 3 + 1);
    shadow.emplace(i, i * 3 + 1);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  // Sharded batches may arrive in any order — the shard layer sorts.
  RunOracle(&index, std::move(shadow), /*sort_batches=*/false, 34043);
}

// ConcurrentAlex batches must stay correct while their own inserts force
// leaf splits: load a small tree, push sorted batches far past the split
// bound, then read everything back in batches.
TEST(BatchOpsTest, MultiInsertAcrossLeafSplits) {
  Concurrent index;
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 256; ++i) {
    keys.push_back(i * 100);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  constexpr size_t kBatch = 512;
  constexpr int64_t kInserts = 120 * kBatch;
  std::vector<int64_t> batch(kBatch), vals(kBatch);
  std::vector<char> flags(kBatch, 0);
  for (int64_t base = 0; base < kInserts; base += kBatch) {
    for (size_t i = 0; i < kBatch; ++i) {
      batch[i] = base + static_cast<int64_t>(i) + 1000000;
    }
    ASSERT_EQ(index.MultiInsert(batch.data(), batch.data(), kBatch,
                                reinterpret_cast<bool*>(flags.data())),
              kBatch);
  }
  ASSERT_EQ(index.size(), 256u + static_cast<size_t>(kInserts));
  for (int64_t base = 0; base < kInserts; base += kBatch) {
    for (size_t i = 0; i < kBatch; ++i) {
      batch[i] = base + static_cast<int64_t>(i) + 1000000;
    }
    ASSERT_EQ(index.MultiGet(batch.data(), kBatch, vals.data(),
                             reinterpret_cast<bool*>(flags.data())),
              kBatch);
    for (size_t i = 0; i < kBatch; ++i) ASSERT_EQ(vals[i], batch[i]);
  }
}

// Batched writes must drive the shard layer's split and merge triggers
// exactly like scalar writes do (the skew check fires on interval
// crossings even when a batch jumps the counter past the boundary).
TEST(BatchOpsTest, BatchInsertsTriggerShardSplit) {
  shard::ShardedOptions options;
  options.num_shards = 1;
  options.min_rebalance_keys = 256;
  options.max_shard_keys = 1024;
  Sharded index(options);
  constexpr size_t kBatch = 4096;  // one batch crosses several intervals
  std::vector<int64_t> batch(kBatch);
  for (int64_t base = 0; base < 16384; base += kBatch) {
    for (size_t i = 0; i < kBatch; ++i) {
      batch[i] = base + static_cast<int64_t>(i);
    }
    ASSERT_EQ(index.MultiInsert(batch.data(), batch.data(), kBatch), kBatch);
  }
  EXPECT_GT(index.num_shards(), 1u);
  EXPECT_EQ(index.size(), 16384u);
  EXPECT_TRUE(index.CheckInvariants());
  int64_t v = 0;
  for (int64_t k = 0; k < 16384; ++k) ASSERT_TRUE(index.Get(k, &v));
}

TEST(BatchOpsTest, BatchErasesTriggerShardMerge) {
  shard::ShardedOptions options;
  options.num_shards = 4;
  options.merge_threshold_keys = 2048;
  options.min_rebalance_keys = 4096;
  Sharded index(options);
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 16384; ++i) {
    keys.push_back(i);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  ASSERT_EQ(index.num_shards(), 4u);
  // Batched erase of most of the key space shrinks adjacent shards under
  // the merge floor.
  constexpr size_t kBatch = 1024;
  std::vector<int64_t> batch(kBatch);
  for (int64_t base = 0; base < 15360; base += kBatch) {
    for (size_t i = 0; i < kBatch; ++i) {
      batch[i] = base + static_cast<int64_t>(i);
    }
    ASSERT_EQ(index.MultiErase(batch.data(), kBatch), kBatch);
  }
  EXPECT_LT(index.num_shards(), 4u);
  EXPECT_EQ(index.size(), 1024u);
  EXPECT_TRUE(index.CheckInvariants());
}

// The TSan target: concurrent batch writers and batch readers while the
// table splits and merges shards underneath them. Every committed key
// stays visible; flags never contradict the writer's own history.
TEST(BatchOpsTest, ConcurrentBatchWritersAndReaders) {
  shard::ShardedOptions options;
  options.num_shards = 2;
  options.min_rebalance_keys = 256;
  options.rebalance_skew = 1.5;
  options.max_shard_keys = 4096;
  options.merge_threshold_keys = 512;
  Sharded index(options);
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 2048; ++i) {
    keys.push_back(i * 16);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());

  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kRounds = 120;
  constexpr size_t kBatch = 64;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      // Writer w owns keys == w (mod kWriters) in a private range, so
      // its own inserts/erases have deterministic expected results.
      std::vector<int64_t> batch(kBatch);
      std::vector<char> flags(kBatch, 0);
      for (int round = 0; round < kRounds; ++round) {
        const int64_t base =
            10000000 + (static_cast<int64_t>(round) * kBatch * kWriters +
                        w * static_cast<int64_t>(kBatch)) *
                           2;
        for (size_t i = 0; i < kBatch; ++i) {
          batch[i] = base + static_cast<int64_t>(i) * 2;
        }
        ASSERT_EQ(index.MultiInsert(batch.data(), batch.data(), kBatch,
                                    reinterpret_cast<bool*>(flags.data())),
                  kBatch);
        // Erase the first half of what we just wrote.
        ASSERT_EQ(index.MultiErase(batch.data(), kBatch / 2,
                                   reinterpret_cast<bool*>(flags.data())),
                  kBatch / 2);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Xoshiro256 rng(99 + r);
      std::vector<int64_t> batch(kBatch), vals(kBatch);
      std::vector<char> flags(kBatch, 0);
      while (!stop.load(std::memory_order_acquire)) {
        for (size_t i = 0; i < kBatch; ++i) {
          batch[i] = static_cast<int64_t>(rng.NextUint64(2048)) * 16;
        }
        index.MultiGet(batch.data(), kBatch, vals.data(),
                       reinterpret_cast<bool*>(flags.data()));
        // Preloaded keys are never erased: all must be found.
        for (size_t i = 0; i < kBatch; ++i) {
          ASSERT_TRUE(flags[i] != 0) << "key " << batch[i];
          ASSERT_EQ(vals[i], batch[i] / 16);
        }
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  // Surviving keys: each writer's second half of each round.
  EXPECT_EQ(index.size(),
            2048u + static_cast<size_t>(kWriters) * kRounds * (kBatch / 2));
  EXPECT_TRUE(index.CheckInvariants());
}

// ---- WAL round-trip ----

// Batched writes through a WAL-enabled index survive a crash: each shard
// run is one group-committed record batch, and recovery replays them all.
TEST(BatchOpsTest, WalBatchRecoveryRoundTrip) {
  const std::string prefix = TempPrefix("batch-wal-roundtrip");
  Cleanup(prefix);
  constexpr int64_t kKeys = 3000;
  constexpr int64_t kErased = 500;
  constexpr size_t kBatch = 250;
  {
    shard::ShardedOptions options;
    options.num_shards = 4;
    Sharded index(options);
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kBatch)),
              WalStatus::kOk);
    std::vector<int64_t> batch(kBatch), payloads(kBatch);
    for (int64_t base = 0; base < kKeys; base += kBatch) {
      for (size_t i = 0; i < kBatch; ++i) {
        batch[i] = base + static_cast<int64_t>(i);
        payloads[i] = batch[i] * 7;
      }
      ASSERT_EQ(index.MultiInsert(batch.data(), payloads.data(), kBatch),
                kBatch);
    }
    // Batch-erase a prefix of the key space.
    for (int64_t base = 0; base < kErased; base += kBatch) {
      for (size_t i = 0; i < kBatch; ++i) {
        batch[i] = base + static_cast<int64_t>(i);
      }
      ASSERT_EQ(index.MultiErase(batch.data(), kBatch), kBatch);
    }
    EXPECT_EQ(index.last_wal_error(), WalStatus::kOk);
  }  // "crash": the keys exist only in the log (no SaveTo)

  shard::ShardedOptions options;
  options.num_shards = 4;
  Sharded recovered(options);
  wal::RecoveryReport report;
  ASSERT_EQ(recovered.LoadFrom(prefix, &report), SnapshotStatus::kOk);
  EXPECT_EQ(report.status, WalStatus::kOk);
  EXPECT_EQ(report.records_replayed,
            static_cast<size_t>(kKeys + kErased));
  ASSERT_EQ(recovered.size(), static_cast<size_t>(kKeys - kErased));
  int64_t v = 0;
  for (int64_t k = 0; k < kErased; ++k) {
    ASSERT_FALSE(recovered.Get(k, &v)) << "erased key " << k;
  }
  for (int64_t k = kErased; k < kKeys; ++k) {
    ASSERT_TRUE(recovered.Get(k, &v)) << "key " << k;
    ASSERT_EQ(v, k * 7) << "key " << k;
  }
  EXPECT_TRUE(recovered.CheckInvariants());
  Cleanup(prefix);
}

// A WAL failure inside a batch fails that shard run closed: no flag
// reports success for a write that was never durably logged. We simulate
// failure by deleting nothing — instead this asserts the success path's
// bookkeeping: committed batch count equals the WAL's logged record
// count (one LSN per key, batch group commit does not drop records).
TEST(BatchOpsTest, BatchCommitCountsMatchWalRecords) {
  const std::string prefix = TempPrefix("batch-wal-counts");
  Cleanup(prefix);
  constexpr size_t kBatch = 333;
  {
    shard::ShardedOptions options;
    options.num_shards = 2;
    Sharded index(options);
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kNone)),
              WalStatus::kOk);
    std::vector<int64_t> batch(kBatch);
    for (size_t i = 0; i < kBatch; ++i) {
      batch[i] = static_cast<int64_t>(i) * 3;
    }
    ASSERT_EQ(index.MultiInsert(batch.data(), batch.data(), kBatch),
              kBatch);
    EXPECT_EQ(index.last_wal_error(), WalStatus::kOk);
  }
  shard::ShardedOptions options;
  options.num_shards = 2;
  Sharded recovered(options);
  wal::RecoveryReport report;
  ASSERT_EQ(recovered.LoadFrom(prefix, &report), SnapshotStatus::kOk);
  EXPECT_EQ(report.records_replayed, kBatch);
  EXPECT_EQ(recovered.size(), kBatch);
  Cleanup(prefix);
}

}  // namespace
}  // namespace alex
