// Tests for the batched execution path (MultiGet/MultiInsert/MultiErase)
// at both layers: ConcurrentAlex (grouped MultiGet in any order; sorted
// write batches, leaf-run descent) and ShardedAlex (any order; routed
// MultiGet, sorted shard runs for writes). Coverage: a batch-vs-scalar
// equivalence oracle against a shadow std::map, MultiGet batch sizes
// around the group size and over mixed resident and cold shards, batched
// writes across leaf and shard splits/merges, concurrent batch writers
// and readers and MultiGet readers racing splits and merges (TSan
// targets), and batch ops against a WAL-enabled index with a recovery
// round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/concurrent_alex.h"
#include "obs/metrics.h"
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
// batched path is an optimization, never a semantic change. MultiGet
// batches always arrive unsorted; `sort_writes` sorts write batches for
// the layer that requires it (ConcurrentAlex).
template <typename Index>
void RunOracle(Index* index, std::map<int64_t, int64_t> shadow,
               bool sort_writes, uint64_t seed) {
  Xoshiro256 rng(seed);
  constexpr int64_t kKeySpace = 4000;  // small: plenty of dup/hit traffic
  for (int round = 0; round < 300; ++round) {
    const size_t n = 1 + rng.NextUint64(97);
    const uint64_t op = rng.NextUint64(3);
    std::vector<int64_t> keys(n), payloads(n);
    for (size_t i = 0; i < n; ++i) {
      keys[i] = static_cast<int64_t>(rng.NextUint64(kKeySpace));
    }
    if (sort_writes && op != 0) std::sort(keys.begin(), keys.end());
    for (size_t i = 0; i < n; ++i) payloads[i] = keys[i] * 3 + 1;
    std::vector<int64_t> got(n);
    std::vector<char> flags(n, 0);
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
  RunOracle(&index, {}, /*sort_writes=*/true, 12021);
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
  // Sharded batches may arrive in any order; the shard layer sorts
  // write batches itself.
  RunOracle(&index, std::move(shadow), /*sort_writes=*/false, 34043);
}

// ---- MultiGet against scalar Get ----

/// Looks `probe` up with one MultiGet and checks every per-key result and
/// the hit count against the index's own scalar Get.
template <typename Index>
void ExpectMultiGetMatchesGet(const Index& index,
                              const std::vector<int64_t>& probe) {
  const size_t n = probe.size();
  std::vector<int64_t> got(n, -1);
  std::vector<char> flags(n, 0);
  const size_t hits = index.MultiGet(probe.data(), n, got.data(),
                                     reinterpret_cast<bool*>(flags.data()));
  size_t expected_hits = 0;
  for (size_t i = 0; i < n; ++i) {
    int64_t want = 0;
    const bool present = index.Get(probe[i], &want);
    ASSERT_EQ(flags[i] != 0, present) << "n " << n << " key " << probe[i];
    if (present) {
      ASSERT_EQ(got[i], want) << "n " << n << " key " << probe[i];
      ++expected_hits;
    }
  }
  ASSERT_EQ(hits, expected_hits) << "n " << n;
}

/// Unsorted probes over [0, 2 * key_span): about half absent, with
/// duplicates once `n` nears the span.
std::vector<int64_t> ScrambledProbe(size_t n, int64_t key_span,
                                    uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<int64_t> probe(n);
  for (int64_t& key : probe) {
    key = static_cast<int64_t>(rng.NextUint64(2 * key_span));
  }
  return probe;
}

// Batch sizes straddle the group size: empty, one key, a partial group,
// exactly one group, one key into a second group, and many groups.
TEST(BatchOpsTest, MultiGetBatchSizesAroundTheGroupMatchGet) {
  constexpr size_t kGroup = Concurrent::kMultiGetGroup;
  const size_t sizes[] = {0, 1, kGroup - 1, kGroup, kGroup + 1, 1000};
  constexpr int64_t kKeys = 5000;
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < kKeys; ++i) {
    keys.push_back(i * 2);  // odd keys stay absent
    payloads.push_back(i * 7 + 3);
  }
  Concurrent tree;
  tree.BulkLoad(keys.data(), payloads.data(), keys.size());
  shard::ShardedOptions options;
  options.num_shards = 4;
  Sharded sharded(options);
  sharded.BulkLoad(keys.data(), payloads.data(), keys.size());
  for (const size_t n : sizes) {
    const std::vector<int64_t> probe = ScrambledProbe(n, kKeys, 101 + n);
    ExpectMultiGetMatchesGet(tree, probe);
    ExpectMultiGetMatchesGet(sharded, probe);
  }
}

// One batch over a table whose shards 1 and 3 are demoted: cold keys read
// through the overlay and the segment, resident keys through the grouped
// descent, in one caller-ordered batch with duplicates and absent keys.
TEST(BatchOpsTest, ShardedMultiGetMixesResidentAndColdShards) {
  const std::string prefix = TempPrefix("batch-multiget-cold");
  Cleanup(prefix);
  {
    shard::ShardedOptions options;
    options.num_shards = 4;
    options.tier_prefix = prefix;
    options.min_rebalance_keys = 1u << 30;  // keep shard indices stable
    Sharded index(options);
    constexpr int64_t kKeys = 8000;
    std::vector<int64_t> keys, payloads;
    for (int64_t i = 0; i < kKeys; ++i) {
      keys.push_back(i * 3);  // keys not divisible by 3 stay absent
      payloads.push_back(i * 5 + 1);
    }
    index.BulkLoad(keys.data(), payloads.data(), keys.size());
    ASSERT_EQ(index.DemoteShard(1), SnapshotStatus::kOk);
    ASSERT_EQ(index.DemoteShard(3), SnapshotStatus::kOk);
    ASSERT_TRUE(index.IsShardCold(1));
    ASSERT_FALSE(index.IsShardCold(2));
    // Overlay state in a cold shard: a fresh key, an erased segment key
    // and an updated segment key.
    const int64_t cold_lo = index.ShardBoundaries()[0];  // shard 1 starts
    const int64_t fresh = (cold_lo / 3) * 3 + 3 + 1;
    const int64_t erased = (cold_lo / 3) * 3 + 6;
    const int64_t updated = (cold_lo / 3) * 3 + 9;
    ASSERT_EQ(index.ShardOf(fresh), 1u);
    ASSERT_EQ(index.ShardOf(updated), 1u);
    ASSERT_TRUE(index.Insert(fresh, -1));
    ASSERT_TRUE(index.Erase(erased));
    ASSERT_TRUE(index.Update(updated, -2));

    std::vector<int64_t> probe = ScrambledProbe(600, kKeys * 3 / 2, 77);
    for (const int64_t key : {fresh, erased, updated, fresh, erased}) {
      probe.push_back(key);
    }
    probe.insert(probe.end(), probe.begin(), probe.begin() + 40);
    Xoshiro256 rng(78);
    for (size_t i = probe.size(); i > 1; --i) {
      std::swap(probe[i - 1], probe[rng.NextUint64(i)]);
    }
    size_t cold = 0;
    size_t resident = 0;
    for (const int64_t key : probe) {
      (index.IsShardCold(index.ShardOf(key)) ? cold : resident) += 1;
    }
    ASSERT_GT(cold, 100u);
    ASSERT_GT(resident, 100u);
    ExpectMultiGetMatchesGet(index, probe);
    int64_t v = 0;
    ASSERT_TRUE(index.Get(fresh, &v));
    EXPECT_EQ(v, -1);
    EXPECT_FALSE(index.Get(erased, &v));
    ASSERT_TRUE(index.Get(updated, &v));
    EXPECT_EQ(v, -2);
  }
  Cleanup(prefix);
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

// MultiGet charges every routed key to its shard's traffic, resident or
// cold, so batched reads alone drive the tiering policy: a batch one key
// short of the window does nothing, one more key completes it and
// demotes the three idle shards, then reads of cold shard 3 promote it.
TEST(BatchOpsTest, ShardedMultiGetChargesShardTraffic) {
  const std::string prefix = TempPrefix("batch-multiget-traffic");
  Cleanup(prefix);
  {
    shard::ShardedOptions options;
    options.num_shards = 4;
    options.tier_prefix = prefix;
    options.min_rebalance_keys = 1u << 30;
    Sharded index(options);
    // 2000 keys a shard: every idle shard is big enough to demote.
    std::vector<int64_t> keys, payloads;
    for (int64_t i = 0; i < 8000; ++i) {
      keys.push_back(i * 3);
      payloads.push_back(i);
    }
    index.BulkLoad(keys.data(), payloads.data(), keys.size());
    std::vector<int64_t> shard0, shard3;
    for (const int64_t key : keys) {
      if (index.ShardOf(key) == 0) shard0.push_back(key);
      if (index.ShardOf(key) == 3) shard3.push_back(key);
    }
    std::vector<int64_t> got(shard0.size() + shard3.size());
    std::vector<char> flags(got.size(), 0);
    auto read_all = [&](const std::vector<int64_t>& probe) {
      for (int round = 0; round < 4; ++round) {
        ASSERT_EQ(index.MultiGet(probe.data(), probe.size(), got.data(),
                                 reinterpret_cast<bool*>(flags.data())),
                  probe.size());
      }
    };
    const size_t short_window = shard::kTierMinWindowOps - 1;
    ASSERT_GT(shard0.size(), short_window);
    ASSERT_EQ(index.MultiGet(shard0.data(), short_window, got.data(),
                             reinterpret_cast<bool*>(flags.data())),
              short_window);
    EXPECT_EQ(index.TieringTick(), 0u);
    ASSERT_EQ(index.MultiGet(shard0.data(), 1, got.data(),
                             reinterpret_cast<bool*>(flags.data())),
              1u);
    EXPECT_EQ(index.TieringTick(), 3u);
    EXPECT_FALSE(index.IsShardCold(0));
    EXPECT_TRUE(index.IsShardCold(3));
    read_all(shard3);
    EXPECT_GE(index.TieringTick(), 1u);
    EXPECT_FALSE(index.IsShardCold(3));
  }
  Cleanup(prefix);
}

// The TSan target for the grouped MultiGet: readers race leaf splits
// (tiny leaves under a dense insert burst) and shard splits and merges
// (the burst skews one shard, erasing it shrinks the children under the
// merge floor). Every preloaded key must come back with its payload and
// every never-written key must miss. With obs compiled in, the test runs
// until `core.descent_retries` has moved and the readers' own op contexts
// counted retries: a reader found its leaf retired between the group's
// descent and its latch, so the fallback re-descent provably ran. The
// writer is the only thread that splits or merges, and it never sees a
// leaf retire under it, so every retry is a reader's.
TEST(BatchOpsTest, MultiGetReadersRaceLeafAndShardSplitsAndMerges) {
  obs::SetEnabled(true);
  obs::Counter* retries =
      obs::MetricsRegistry::Global().GetCounter("core.descent_retries");
  const uint64_t retries_before = retries->Load();
  shard::ShardedOptions options;
  options.num_shards = 4;
  options.min_rebalance_keys = 1200;
  options.rebalance_skew = 1.5;
  options.merge_threshold_keys = 1200;
  options.shard_config.max_data_node_keys = 64;
  Sharded index(options);
  constexpr int64_t kStride = 64;  // preloaded keys: multiples of kStride
  constexpr int64_t kPreload = 4096;
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < kPreload; ++i) {
    keys.push_back(i * kStride);
    payloads.push_back(i * kStride * 3);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> reader_retries{0};
  std::atomic<uint64_t> rounds{0};
  // Each round inserts a burst between the preloaded keys of the first
  // quarter of the key space (offsets 1..31 of a stride), then erases it.
  std::thread writer([&] {
    constexpr size_t kBatch = 128;
    constexpr int64_t kBurstStrides = kPreload / 4;
    std::vector<int64_t> batch(kBatch);
    for (uint64_t round = 0; !stop.load(std::memory_order_acquire);
         ++round) {
      const int64_t offset = 1 + static_cast<int64_t>(round % 4);
      for (int pass = 0; pass < 2; ++pass) {
        for (int64_t lo = 0; lo < kBurstStrides * 4; lo += kBatch) {
          for (size_t i = 0; i < kBatch; ++i) {
            const int64_t slot = lo + static_cast<int64_t>(i);
            batch[i] = (slot / 4) * kStride + offset + (slot % 4) * 8;
          }
          const size_t done =
              pass == 0 ? index.MultiInsert(batch.data(), batch.data(), kBatch)
                        : index.MultiErase(batch.data(), kBatch);
          if (done != kBatch) failures.fetch_add(1);
        }
      }
      rounds.fetch_add(1, std::memory_order_release);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rng(500 + r);
      constexpr size_t kMaxBatch = 3 * Concurrent::kMultiGetGroup + 5;
      std::vector<int64_t> batch(kMaxBatch), got(kMaxBatch);
      std::vector<char> flags(kMaxBatch, 0);
      while (!stop.load(std::memory_order_acquire)) {
        const size_t n = 1 + rng.NextUint64(kMaxBatch);
        for (size_t i = 0; i < n; ++i) {
          // Three in four probes land in the burst's quarter.
          const uint64_t span =
              rng.NextUint64(4) == 0 ? kPreload : kPreload / 4;
          batch[i] = static_cast<int64_t>(rng.NextUint64(span)) * kStride;
          if (rng.NextUint64(8) == 0) batch[i] += kStride - 1;  // never written
        }
        index.MultiGet(batch.data(), n, got.data(),
                       reinterpret_cast<bool*>(flags.data()));
        reader_retries.fetch_add(obs::TlsOpContext().descent_retries,
                                 std::memory_order_relaxed);
        for (size_t i = 0; i < n; ++i) {
          const bool preloaded = batch[i] % kStride == 0;
          if ((flags[i] != 0) != preloaded ||
              (preloaded && got[i] != batch[i] * 3)) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  // Run until the fallback, a shard split and a shard merge have all been
  // seen (two rounds at least), or the time bound expires.
  const bool observable = obs::Enabled();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  auto done = [&] {
    const bool retried = retries->Load() > retries_before &&
                         reader_retries.load() > 0;
    return rounds.load(std::memory_order_acquire) >= 2 &&
           index.rebalance_count() > 0 && index.merge_count() > 0 &&
           (retried || !observable);
  };
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  for (std::thread& t : readers) t.join();
  obs::SetEnabled(false);

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(index.rebalance_count(), 0u);
  EXPECT_GT(index.merge_count(), 0u);
  if (observable) {
    EXPECT_GT(retries->Load(), retries_before);
    EXPECT_GT(reader_retries.load(), 0u);
  }
  EXPECT_EQ(index.size(), static_cast<size_t>(kPreload));
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
