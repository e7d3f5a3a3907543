// Tests for the sharded service layer (src/shard/): routing through the
// shard table (the router itself is tested in router_test.cc),
// cross-shard scans, online rebalance under concurrent readers (built to
// run under TSan), and per-shard durability including manifest
// corruption and missing shard files.
#include "shard/sharded_alex.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/concurrent_alex.h"
#include "core/serialization.h"
#include "test_files.h"
#include "tier/segment.h"
#include "util/random.h"

namespace alex::shard {
namespace {

using Sharded = ShardedAlex<int64_t, int64_t>;
using core::SnapshotStatus;

using test::TempPrefix;
constexpr auto Cleanup = test::RemovePrefixFiles;

/// Path of shard `i`'s segment in the checkpoint committed at `prefix`.
std::string SegmentOf(const std::string& prefix, size_t i) {
  ShardManifest<int64_t> manifest;
  EXPECT_EQ(ReadManifest<int64_t>(Sharded::ManifestPath(prefix), &manifest),
            SnapshotStatus::kOk);
  EXPECT_LT(i, manifest.segment_ids.size());
  return tier::SegmentPath(prefix, manifest.segment_ids.at(i));
}

ShardedOptions Opts(size_t shards) {
  ShardedOptions options;
  options.num_shards = shards;
  return options;
}

// ---- ShardedAlex: routing + point ops ----

TEST(ShardedAlexTest, BulkLoadPartitionsAndFindsEverything) {
  Sharded index(Opts(8));
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 20000; ++i) {
    keys.push_back(i * 2);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  EXPECT_EQ(index.num_shards(), 8u);
  EXPECT_EQ(index.size(), keys.size());
  int64_t v = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(index.Get(keys[i], &v)) << keys[i];
    ASSERT_EQ(v, payloads[i]);
    ASSERT_FALSE(index.Contains(keys[i] + 1));  // odd keys absent
  }
  // Shard assignment is monotone in the key.
  size_t prev_shard = 0;
  for (const int64_t key : keys) {
    const size_t s = index.ShardOf(key);
    ASSERT_GE(s, prev_shard);
    prev_shard = s;
  }
  EXPECT_EQ(prev_shard, 7u);
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(ShardedAlexTest, PointOpsAtShardBoundaries) {
  Sharded index(Opts(6));
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 12000; ++i) {
    keys.push_back(i * 10);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  const std::vector<int64_t> bounds = index.ShardBoundaries();
  ASSERT_EQ(bounds.size(), 5u);
  int64_t v = 0;
  for (size_t i = 0; i < bounds.size(); ++i) {
    const int64_t b = bounds[i];
    // The boundary key is the first key of the upper shard.
    EXPECT_EQ(index.ShardOf(b), i + 1);
    EXPECT_EQ(index.ShardOf(b - 1), i);
    ASSERT_TRUE(index.Get(b, &v));
    // Inserts that straddle the boundary land in distinct shards and are
    // all retrievable.
    ASSERT_TRUE(index.Insert(b - 1, -1));
    ASSERT_TRUE(index.Insert(b + 1, -2));
    ASSERT_TRUE(index.Get(b - 1, &v));
    EXPECT_EQ(v, -1);
    ASSERT_TRUE(index.Get(b + 1, &v));
    EXPECT_EQ(v, -2);
    // Duplicates are rejected across the same routing path.
    EXPECT_FALSE(index.Insert(b, 0));
    // Update and erase route identically.
    ASSERT_TRUE(index.Update(b + 1, -3));
    ASSERT_TRUE(index.Get(b + 1, &v));
    EXPECT_EQ(v, -3);
    ASSERT_TRUE(index.Erase(b + 1));
    EXPECT_FALSE(index.Contains(b + 1));
  }
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(ShardedAlexTest, EmptyAndTinyBulkLoads) {
  Sharded index(Opts(8));
  index.BulkLoad(nullptr, nullptr, 0);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.num_shards(), 1u);
  int64_t v = 0;
  EXPECT_FALSE(index.Get(7, &v));
  EXPECT_TRUE(index.Insert(7, 70));
  EXPECT_TRUE(index.Get(7, &v));
  EXPECT_EQ(v, 70);

  // Fewer keys than shards: the shard count clamps to the key count.
  const int64_t keys[] = {1, 2, 3};
  const int64_t payloads[] = {10, 20, 30};
  index.BulkLoad(keys, payloads, 3);
  EXPECT_EQ(index.num_shards(), 3u);
  EXPECT_EQ(index.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(index.Get(keys[i], &v));
    EXPECT_EQ(v, payloads[i]);
  }
  EXPECT_TRUE(index.CheckInvariants());
}

/// Sorted, distinct, unevenly spaced keys (so each slice fits its own
/// models) with payload = position.
void SkewedKeys(size_t n, uint64_t seed, std::vector<int64_t>* keys,
                std::vector<int64_t>* payloads) {
  util::Xoshiro256 rng(seed);
  keys->clear();
  payloads->clear();
  int64_t key = 0;
  for (size_t i = 0; i < n; ++i) {
    key += 1 + static_cast<int64_t>(rng() % (i % 1000 < 500 ? 4 : 400));
    keys->push_back(key);
    payloads->push_back(static_cast<int64_t>(i));
  }
}

TEST(ShardedAlexTest, ParallelBulkLoadBuildsTheSequentialShards) {
  // The shards are bulk-loaded on the build pool; each must be exactly
  // the shard a lone ConcurrentAlex builds from the same slice, so the
  // footprint (bytes_per_key) cannot depend on which worker built it.
  struct Case {
    size_t shards;
    size_t n;
  };
  const Case cases[] = {{1, 30000}, {3, 30000}, {8, 30000}, {32, 30000},
                        {8, 5},     {32, 20},   {32, 1}};
  for (const Case& c : cases) {
    SCOPED_TRACE("shards=" + std::to_string(c.shards) +
                 " n=" + std::to_string(c.n));
    std::vector<int64_t> keys, payloads;
    SkewedKeys(c.n, 17 + c.shards, &keys, &payloads);
    Sharded index(Opts(c.shards));
    index.BulkLoad(keys.data(), payloads.data(), keys.size());

    const size_t shards = std::min(c.shards, c.n);
    ASSERT_EQ(index.num_shards(), shards);
    const ShardRouter<int64_t> router =
        ShardRouter<int64_t>::FitFromSortedKeys(keys.data(), c.n, shards);
    EXPECT_EQ(index.ShardBoundaries(), router.boundaries());

    const obs::StructureReport report = index.Inspect();
    ASSERT_EQ(report.shards.size(), shards);
    size_t index_bytes = router.SizeBytes();
    size_t data_bytes = 0;
    for (size_t j = 0; j < shards; ++j) {
      const size_t lo = j * c.n / shards;
      const size_t hi = (j + 1) * c.n / shards;
      core::ConcurrentAlex<int64_t, int64_t> alone;
      alone.BulkLoad(keys.data() + lo, payloads.data() + lo, hi - lo);
      index_bytes += alone.IndexSizeBytes();
      data_bytes += alone.DataSizeBytes();
      // The shard holds its slice: the first and last key route to it,
      // it holds as many keys, in the same tree shape.
      EXPECT_EQ(index.ShardOf(keys[lo]), j);
      EXPECT_EQ(index.ShardOf(keys[hi - 1]), j);
      const obs::TreeStructure want = alone.CollectStructure();
      const obs::TreeStructure& got = report.shards[j].tree;
      EXPECT_EQ(got.keys, hi - lo) << "shard " << j;
      EXPECT_EQ(got.keys, want.keys) << "shard " << j;
      EXPECT_EQ(got.leaf_count, want.leaf_count) << "shard " << j;
      EXPECT_EQ(got.inner_count, want.inner_count) << "shard " << j;
      EXPECT_EQ(got.capacity, want.capacity) << "shard " << j;
      EXPECT_EQ(got.max_depth, want.max_depth) << "shard " << j;
    }
    EXPECT_EQ(index.IndexSizeBytes(), index_bytes);
    EXPECT_EQ(index.DataSizeBytes(), data_bytes);

    // Every record, in order, with its payload; every key in the shard
    // that routes it.
    std::vector<std::pair<int64_t, int64_t>> all;
    index.RangeScan(std::numeric_limits<int64_t>::lowest(), c.n + 1, &all);
    ASSERT_EQ(all.size(), c.n);
    for (size_t i = 0; i < c.n; ++i) {
      ASSERT_EQ(all[i], std::make_pair(keys[i], payloads[i]));
    }
    EXPECT_TRUE(index.CheckInvariants());
  }
}

TEST(ShardedAlexTest, BuildPoolUnderConcurrentReaders) {
  // Bulk load, checkpoint and recovery each run 32 shards on the build
  // pool while readers Get throughout. Every table the readers can land
  // in holds the same records, so every Get must find its key with its
  // payload. Built to run under TSan: the workers share the epoch
  // manager and the metric stripe pool with the readers.
  constexpr int64_t kKeys = 32 * 1500;
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < kKeys; ++i) {
    keys.push_back(i * 5);
    payloads.push_back(i * 5 + 1);
  }
  Sharded index(Opts(32));
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  const std::string prefix = TempPrefix("sharded-build-pool");
  Cleanup(prefix);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      util::Xoshiro256 rng(100 + r);
      while (!stop.load(std::memory_order_relaxed)) {
        const int64_t key = static_cast<int64_t>(rng() % kKeys) * 5;
        int64_t v = 0;
        if (!index.Get(key, &v) || v != key + 1) {
          misses.fetch_add(1, std::memory_order_relaxed);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int round = 0; round < 3; ++round) {
    index.BulkLoad(keys.data(), payloads.data(), keys.size());
    ASSERT_EQ(index.num_shards(), 32u);
    ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);
    ASSERT_EQ(index.LoadFrom(prefix), SnapshotStatus::kOk);
    ASSERT_EQ(index.num_shards(), 32u);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(misses.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(index.size(), static_cast<size_t>(kKeys));
  EXPECT_TRUE(index.CheckInvariants());
  Cleanup(prefix);
}

TEST(ShardedAlexTest, InfiniteKeysSurviveDemotionCheckpointAndSplit) {
  // ±infinity are valid double keys: every whole-shard stream (a
  // demotion's segment, a checkpoint segment, a split's children, the
  // invariant check) must carry them like any other key.
  using DoubleSharded = ShardedAlex<double, long>;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::string prefix = TempPrefix("sharded-infinite-keys");
  Cleanup(prefix);
  std::vector<double> keys;
  std::vector<long> payloads;
  for (int i = 0; i < 5000; ++i) {
    keys.push_back(i);
    payloads.push_back(i);
  }
  auto expect_all = [&](const DoubleSharded& index, const char* stage) {
    SCOPED_TRACE(stage);
    EXPECT_EQ(index.size(), 5002u);
    long v = 0;
    ASSERT_TRUE(index.Get(kInf, &v));
    EXPECT_EQ(v, -1);
    ASSERT_TRUE(index.Get(-kInf, &v));
    EXPECT_EQ(v, -2);
    ASSERT_TRUE(index.Get(2500.0, &v));
    EXPECT_EQ(v, 2500);
    EXPECT_TRUE(index.CheckInvariants());
  };

  ShardedOptions options = Opts(4);
  options.tier_prefix = prefix;
  DoubleSharded index(options);
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  ASSERT_TRUE(index.Insert(kInf, -1));
  ASSERT_TRUE(index.Insert(-kInf, -2));
  expect_all(index, "inserted");
  // The two edge shards hold the infinities; both go cold.
  ASSERT_EQ(index.DemoteShard(0), SnapshotStatus::kOk);
  ASSERT_EQ(index.DemoteShard(3), SnapshotStatus::kOk);
  ASSERT_TRUE(index.IsShardCold(0));
  expect_all(index, "demoted");
  ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);
  DoubleSharded loaded(options);
  ASSERT_EQ(loaded.LoadFrom(prefix), SnapshotStatus::kOk);
  expect_all(loaded, "loaded");
  ASSERT_EQ(index.PromoteShard(0), SnapshotStatus::kOk);
  expect_all(index, "promoted");

  // One shard over its absolute bound splits on the inserting thread;
  // the children are built from the victim's whole stream.
  ShardedOptions split_options = Opts(1);
  split_options.max_shard_keys = 5001;
  split_options.min_rebalance_keys = 1024;
  DoubleSharded split(split_options);
  split.BulkLoad(keys.data(), payloads.data(), keys.size());
  ASSERT_TRUE(split.Insert(kInf, -1));
  ASSERT_EQ(split.num_shards(), 1u);
  ASSERT_TRUE(split.Insert(-kInf, -2));
  EXPECT_EQ(split.num_shards(), 2u);
  expect_all(split, "split");
  Cleanup(prefix);
}

// ---- Cross-shard scans ----

TEST(ShardedAlexTest, CrossShardScanSpansAtLeastThreeShards) {
  Sharded index(Opts(5));
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 10000; ++i) {
    keys.push_back(i * 2);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  // Start inside shard 0 and scan enough to reach shard 3.
  const int64_t start = 101;  // absent key: scan begins at lower bound
  const size_t want = 7000;
  std::vector<std::pair<int64_t, int64_t>> got;
  ASSERT_EQ(index.RangeScan(start, want, &got), want);
  ASSERT_EQ(index.ShardOf(got.front().first), 0u);
  ASSERT_GE(index.ShardOf(got.back().first), 3u);
  // Results are exactly the sorted keys >= start.
  int64_t expected = 102;
  for (const auto& [key, payload] : got) {
    ASSERT_EQ(key, expected);
    ASSERT_EQ(payload, expected / 2);
    expected += 2;
  }
}

TEST(ShardedAlexTest, ScanAcrossOneBoundaryIsSeamless) {
  Sharded index(Opts(4));
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 8000; ++i) {
    keys.push_back(i);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  const std::vector<int64_t> bounds = index.ShardBoundaries();
  ASSERT_FALSE(bounds.empty());
  for (const int64_t b : bounds) {
    std::vector<std::pair<int64_t, int64_t>> got;
    ASSERT_EQ(index.RangeScan(b - 5, 10, &got), 10u);
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].first, b - 5 + static_cast<int64_t>(i));
    }
  }
}

TEST(ShardedAlexTest, ScanPastTheEndReturnsWhatExists) {
  Sharded index(Opts(3));
  std::vector<int64_t> keys(1000), payloads(1000);
  for (int64_t i = 0; i < 1000; ++i) keys[i] = payloads[i] = i;
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  std::vector<std::pair<int64_t, int64_t>> got;
  EXPECT_EQ(index.RangeScan(990, 100, &got), 10u);
  EXPECT_EQ(got.front().first, 990);
  EXPECT_EQ(got.back().first, 999);
  EXPECT_EQ(index.RangeScan(5000, 10, &got), 0u);
}

// ---- Rebalance ----

TEST(ShardedAlexTest, SkewedInsertsTriggerRebalance) {
  ShardedOptions options = Opts(2);
  options.min_rebalance_keys = 512;
  options.rebalance_skew = 1.5;
  Sharded index(options);
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 2000; ++i) {
    keys.push_back(i);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  ASSERT_EQ(index.num_shards(), 2u);
  // Hammer the top of the key space: all inserts land in the last shard.
  for (int64_t i = 0; i < 20000; ++i) {
    ASSERT_TRUE(index.Insert(100000 + i, i));
  }
  EXPECT_GT(index.rebalance_count(), 0u);
  EXPECT_GT(index.num_shards(), 2u);
  EXPECT_EQ(index.size(), 22000u);
  int64_t v = 0;
  for (int64_t i = 0; i < 2000; ++i) ASSERT_TRUE(index.Get(i, &v));
  for (int64_t i = 0; i < 20000; ++i) {
    ASSERT_TRUE(index.Get(100000 + i, &v));
    ASSERT_EQ(v, i);
  }
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(ShardedAlexTest, SingleShardGrowthSplitsViaAbsoluteBound) {
  ShardedOptions options = Opts(1);
  options.min_rebalance_keys = 256;
  options.max_shard_keys = 1024;
  Sharded index(options);
  for (int64_t i = 0; i < 10000; ++i) {
    ASSERT_TRUE(index.Insert(i, i));
  }
  EXPECT_GT(index.num_shards(), 1u);
  EXPECT_EQ(index.size(), 10000u);
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(ShardedAlexTest, RebalanceUnderConcurrentReaders) {
  // The TSan target: readers and scanners run lock-free while a writer
  // forces repeated shard splits; every committed key stays visible.
  ShardedOptions options = Opts(2);
  options.min_rebalance_keys = 256;
  options.rebalance_skew = 1.5;
  options.max_shard_keys = 2048;
  Sharded index(options);
  std::vector<int64_t> keys, payloads;
  constexpr int64_t kPreload = 4000;
  for (int64_t i = 0; i < kPreload; ++i) {
    keys.push_back(i * 2);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());

  constexpr int kReaders = 3;
  constexpr int64_t kInserts = 12000;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> read_failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      util::Xoshiro256 rng(100 + r);
      std::vector<std::pair<int64_t, int64_t>> scan;
      int64_t v = 0;
      while (!stop.load(std::memory_order_acquire)) {
        // Preloaded keys must always be visible.
        const int64_t key =
            static_cast<int64_t>(rng.NextUint64(kPreload)) * 2;
        if (!index.Get(key, &v)) {
          read_failures.fetch_add(1, std::memory_order_relaxed);
        }
        if ((rng.NextUint64(16)) == 0) {
          index.RangeScan(key, 64, &scan);
          for (size_t i = 1; i < scan.size(); ++i) {
            if (!(scan[i - 1].first < scan[i].first)) {
              read_failures.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      }
    });
  }
  std::thread writer([&] {
    // Monotone inserts above the preload concentrate in the last shard
    // and keep tripping the split threshold.
    for (int64_t i = 0; i < kInserts; ++i) {
      index.Insert(kPreload * 2 + 1 + i, i);
    }
    stop.store(true, std::memory_order_release);
  });
  writer.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(read_failures.load(), 0u);
  EXPECT_GT(index.rebalance_count(), 0u);
  EXPECT_EQ(index.size(), static_cast<size_t>(kPreload + kInserts));
  int64_t v = 0;
  for (int64_t i = 0; i < kInserts; ++i) {
    ASSERT_TRUE(index.Get(kPreload * 2 + 1 + i, &v));
    ASSERT_EQ(v, i);
  }
  EXPECT_TRUE(index.CheckInvariants());
}

// ---- Merge + explicit rebalance (the TopologyTxn modules) ----

TEST(ShardedAlexTest, ColdAdjacentShardsMergeViaInverseSkewCheck) {
  ShardedOptions options = Opts(8);
  options.merge_threshold_keys = 2000;
  Sharded index(options);
  std::vector<int64_t> keys, payloads;
  constexpr int64_t kN = 12000;
  for (int64_t i = 0; i < kN; ++i) {
    keys.push_back(i);
    payloads.push_back(i * 5);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  ASSERT_EQ(index.num_shards(), 8u);
  // Erase everything except a survivor stripe: the erase-side inverse
  // skew check must fold the emptied adjacent shards together.
  for (int64_t i = 0; i < kN; ++i) {
    if (i % 16 != 0) {
      ASSERT_TRUE(index.Erase(i));
    }
  }
  EXPECT_GT(index.merge_count(), 0u);
  EXPECT_LT(index.num_shards(), 8u);
  EXPECT_EQ(index.topology_epoch(), index.merge_count());
  EXPECT_EQ(index.size(), static_cast<size_t>(kN / 16));
  int64_t v = 0;
  for (int64_t i = 0; i < kN; i += 16) {
    ASSERT_TRUE(index.Get(i, &v)) << i;
    ASSERT_EQ(v, i * 5);
  }
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(ShardedAlexTest, MergeLeavesSurvivorsAndBoundariesConsistent) {
  // Merge down hard (erase nearly everything), then keep using the
  // index: inserts and lookups must route correctly across the merged
  // boundaries.
  ShardedOptions options = Opts(6);
  options.merge_threshold_keys = 4096;
  Sharded index(options);
  std::vector<int64_t> keys(9000), payloads(9000);
  for (int64_t i = 0; i < 9000; ++i) {
    keys[i] = i * 3;
    payloads[i] = i;
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  for (int64_t i = 0; i < 9000; ++i) {
    ASSERT_TRUE(index.Erase(i * 3));
  }
  EXPECT_GT(index.merge_count(), 0u);
  EXPECT_EQ(index.size(), 0u);
  // The shrunken table still accepts and routes fresh writes.
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(index.Insert(i * 7, i));
  }
  int64_t v = 0;
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(index.Get(i * 7, &v));
    ASSERT_EQ(v, i);
  }
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(ShardedAlexTest, MergeUnderConcurrentReaders) {
  // The TSan target for the merge module: readers and scanners run
  // lock-free over a survivor stripe while a writer's erases force
  // merges; every surviving key stays visible throughout.
  ShardedOptions options = Opts(8);
  options.merge_threshold_keys = 1500;
  Sharded index(options);
  // 2000 keys per shard: the eraser commits ~1875 erases into each
  // shard, comfortably past the amortized check interval (1024).
  constexpr int64_t kPreload = 16000;
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < kPreload; ++i) {
    keys.push_back(i);
    payloads.push_back(i * 3);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  ASSERT_EQ(index.num_shards(), 8u);

  constexpr int kReaders = 3;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> read_failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      util::Xoshiro256 rng(7 + r);
      std::vector<std::pair<int64_t, int64_t>> scan;
      int64_t v = 0;
      while (!stop.load(std::memory_order_acquire)) {
        // Keys divisible by 16 are never erased: always visible.
        const int64_t key =
            static_cast<int64_t>(rng.NextUint64(kPreload / 16)) * 16;
        if (!index.Get(key, &v) || v != key * 3) {
          read_failures.fetch_add(1, std::memory_order_relaxed);
        }
        if (rng.NextUint64(16) == 0) {
          index.RangeScan(key, 64, &scan);
          for (size_t i = 1; i < scan.size(); ++i) {
            if (!(scan[i - 1].first < scan[i].first)) {
              read_failures.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      }
    });
  }
  std::thread eraser([&] {
    for (int64_t i = 0; i < kPreload; ++i) {
      if (i % 16 != 0) index.Erase(i);
    }
    stop.store(true, std::memory_order_release);
  });
  eraser.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(read_failures.load(), 0u);
  EXPECT_GT(index.merge_count(), 0u);
  EXPECT_LT(index.num_shards(), 8u);
  EXPECT_EQ(index.size(), static_cast<size_t>(kPreload / 16));
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(ShardedAlexTest, ExplicitRebalanceEvensBoundariesInPlace) {
  // Rebalance is the third TopologyTxn module: same shard count, the
  // victims' combined keys re-partitioned evenly.
  Sharded index(Opts(4));
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 8000; ++i) {
    keys.push_back(i);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  ASSERT_EQ(index.num_shards(), 4u);
  // Skew the table: erase almost everything above the first quartile,
  // leaving shard 0 fat and shards 1-3 nearly empty.
  for (int64_t i = 2000; i < 8000; ++i) {
    if (i % 100 != 0) {
      ASSERT_TRUE(index.Erase(i));
    }
  }
  const uint64_t epoch_before = index.topology_epoch();
  ASSERT_TRUE(index.Rebalance(std::numeric_limits<int64_t>::lowest(),
                              std::numeric_limits<int64_t>::max()));
  EXPECT_EQ(index.num_shards(), 4u);
  EXPECT_EQ(index.topology_epoch(), epoch_before + 1);
  EXPECT_EQ(index.merge_count(), 0u);
  // Evened: no shard holds more than ~2x the mean.
  const size_t mean = index.size() / index.num_shards();
  std::vector<std::pair<int64_t, int64_t>> scan;
  const std::vector<int64_t> bounds = index.ShardBoundaries();
  ASSERT_EQ(bounds.size(), 3u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    ASSERT_LT(bounds[i - 1], bounds[i]);
  }
  index.RangeScan(std::numeric_limits<int64_t>::lowest(),
                  std::numeric_limits<size_t>::max(), &scan);
  size_t at = 0;
  for (size_t s = 0; s < 4; ++s) {
    size_t count = 0;
    while (at < scan.size() && index.ShardOf(scan[at].first) == s) {
      ++at;
      ++count;
    }
    EXPECT_LE(count, 2 * mean + 2) << "shard " << s;
  }
  // All contents survived the re-partition.
  EXPECT_EQ(index.size(), 2000u + 60u);
  int64_t v = 0;
  for (int64_t i = 0; i < 2000; ++i) ASSERT_TRUE(index.Get(i, &v));
  EXPECT_TRUE(index.CheckInvariants());

  // A single-shard range is not a rebalance.
  EXPECT_FALSE(index.Rebalance(0, 1));
}

// ---- Durability ----

TEST(ShardedAlexTest, SaveLoadRoundTripAcrossShardCounts) {
  Sharded index(Opts(8));
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 15000; ++i) {
    keys.push_back(i * 3);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(index.Insert(i * 3 + 1, -i));
  }
  const std::string prefix = TempPrefix("sharded-roundtrip");
  ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);

  // The loader's own shard-count preference is irrelevant: the manifest
  // dictates the table.
  Sharded loaded(Opts(3));
  ASSERT_EQ(loaded.LoadFrom(prefix), SnapshotStatus::kOk);
  EXPECT_EQ(loaded.num_shards(), index.num_shards());
  EXPECT_EQ(loaded.size(), index.size());
  EXPECT_EQ(loaded.ShardBoundaries(), index.ShardBoundaries());
  std::vector<std::pair<int64_t, int64_t>> a, b;
  index.RangeScan(std::numeric_limits<int64_t>::lowest(), index.size(),
                  &a);
  loaded.RangeScan(std::numeric_limits<int64_t>::lowest(), loaded.size(),
                   &b);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(loaded.CheckInvariants());
  Cleanup(prefix);
}

TEST(ShardedAlexTest, SuccessiveSavesCommitAtomicallyPerGeneration) {
  Sharded index(Opts(2));
  std::vector<int64_t> keys(1000), payloads(1000);
  for (int64_t i = 0; i < 1000; ++i) keys[i] = payloads[i] = i;
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  const std::string prefix = TempPrefix("sharded-generations");
  Cleanup(prefix);
  ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);
  const std::string first_segment = SegmentOf(prefix, 0);
  ASSERT_TRUE(index.Insert(5000, 50));
  ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);

  // The superseded checkpoint's segments were cleaned up; the new
  // checkpoint is what loads, reflecting the newer state.
  EXPECT_NE(SegmentOf(prefix, 0), first_segment);
  std::FILE* stale = std::fopen(first_segment.c_str(), "rb");
  EXPECT_EQ(stale, nullptr);
  Sharded loaded(Opts(2));
  ASSERT_EQ(loaded.LoadFrom(prefix), SnapshotStatus::kOk);
  EXPECT_EQ(loaded.size(), 1001u);
  EXPECT_TRUE(loaded.Contains(5000));
  Cleanup(prefix);
}

TEST(ShardedAlexTest, LoadFromMissingShardFileIsDistinctError) {
  Sharded index(Opts(4));
  std::vector<int64_t> keys(8000), payloads(8000);
  for (int64_t i = 0; i < 8000; ++i) keys[i] = payloads[i] = i;
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  const std::string prefix = TempPrefix("sharded-missing");
  ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);
  ASSERT_EQ(std::remove(SegmentOf(prefix, 2).c_str()), 0);

  Sharded loaded(Opts(4));
  loaded.Insert(42, 42);
  EXPECT_EQ(loaded.LoadFrom(prefix), SnapshotStatus::kMissingShard);
  // The failed load left the live index untouched.
  int64_t v = 0;
  EXPECT_TRUE(loaded.Get(42, &v));
  EXPECT_EQ(loaded.size(), 1u);
  Cleanup(prefix);
}

TEST(ShardedAlexTest, CorruptManifestChecksumIsDetected) {
  Sharded index(Opts(4));
  std::vector<int64_t> keys(4000), payloads(4000);
  for (int64_t i = 0; i < 4000; ++i) keys[i] = payloads[i] = i;
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  const std::string prefix = TempPrefix("sharded-corrupt");
  ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);

  // Flip one byte in the boundary region (past the header).
  const std::string manifest = Sharded::ManifestPath(prefix);
  std::FILE* f = std::fopen(manifest.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, sizeof(ManifestHeader) + 2, SEEK_SET), 0);
  const unsigned char flip = 0xFF;
  ASSERT_EQ(std::fwrite(&flip, 1, 1, f), 1u);
  std::fclose(f);

  Sharded loaded(Opts(4));
  EXPECT_EQ(loaded.LoadFrom(prefix), SnapshotStatus::kChecksumMismatch);
  Cleanup(prefix);
}

TEST(ShardedAlexTest, UnsortedManifestBoundariesAreRejected) {
  // A well-checksummed manifest whose boundaries are out of order (a
  // buggy or foreign writer) must not reach the router, which searches
  // that array.
  ShardManifest<int64_t> manifest;
  manifest.boundaries = {10, 5};
  manifest.shard_keys = {1, 1, 1};
  const std::string path = TempPrefix("bad-manifest") + ".manifest";
  ASSERT_EQ(WriteManifest(path, manifest), SnapshotStatus::kOk);
  ShardManifest<int64_t> loaded;
  EXPECT_EQ(ReadManifest<int64_t>(path, &loaded),
            SnapshotStatus::kUnsortedKeys);
  std::remove(path.c_str());
}

TEST(ShardedAlexTest, SwappedShardFilesAreDetected) {
  // Even partitioning gives every shard the same key count, so a swap of
  // two segment files must be caught by the boundary-range check, not the
  // count check.
  Sharded index(Opts(2));
  std::vector<int64_t> keys(2000), payloads(2000);
  for (int64_t i = 0; i < 2000; ++i) keys[i] = payloads[i] = i;
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  const std::string prefix = TempPrefix("sharded-swapped");
  ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);

  const std::string shard0 = SegmentOf(prefix, 0);
  const std::string shard1 = SegmentOf(prefix, 1);
  const std::string stash = shard0 + ".stash";
  ASSERT_EQ(std::rename(shard0.c_str(), stash.c_str()), 0);
  ASSERT_EQ(std::rename(shard1.c_str(), shard0.c_str()), 0);
  ASSERT_EQ(std::rename(stash.c_str(), shard1.c_str()), 0);

  Sharded loaded(Opts(2));
  EXPECT_EQ(loaded.LoadFrom(prefix), SnapshotStatus::kManifestMismatch);
  EXPECT_EQ(loaded.size(), 0u);
  Cleanup(prefix);
}

TEST(ShardedAlexTest, ShardFileCountMismatchIsDetected) {
  Sharded index(Opts(2));
  std::vector<int64_t> keys(2000), payloads(2000);
  for (int64_t i = 0; i < 2000; ++i) keys[i] = payloads[i] = i;
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  const std::string prefix = TempPrefix("sharded-mismatch");
  ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);

  // Overwrite shard 1's segment with a valid segment of the wrong size
  // (its one key lies inside the shard's range).
  const int64_t rogue = 1500;
  ASSERT_EQ((tier::WriteSegmentFile<int64_t, int64_t>(
                SegmentOf(prefix, 1), &rogue, &rogue, 1, 64)),
            SnapshotStatus::kOk);

  Sharded loaded(Opts(2));
  EXPECT_EQ(loaded.LoadFrom(prefix), SnapshotStatus::kManifestMismatch);
  Cleanup(prefix);
}

TEST(ShardedAlexTest, OutOfOrderShardSegmentIsRejected) {
  // A segment whose checksums, key count and key range all agree with
  // the manifest, but whose keys are out of order inside a block, must
  // not reach BulkLoad: the recovery audit reports kUnsortedKeys.
  Sharded index(Opts(2));
  std::vector<int64_t> keys(2000), payloads(2000);
  for (int64_t i = 0; i < 2000; ++i) keys[i] = payloads[i] = i;
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  const std::string prefix = TempPrefix("sharded-unsorted");
  ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);

  const std::string path = SegmentOf(prefix, 1);
  std::vector<int64_t> run_keys, run_payloads;
  size_t keys_per_block = 0;
  {
    tier::ColdSegment<int64_t, int64_t> segment;
    ASSERT_EQ(segment.Open(path, 0), SnapshotStatus::kOk);
    keys_per_block = segment.keys_per_block();
    segment.ScanUntil(std::numeric_limits<int64_t>::lowest(),
                      std::numeric_limits<int64_t>::max(),
                      [&](int64_t key, int64_t payload) {
                        run_keys.push_back(key);
                        run_payloads.push_back(payload);
                        return true;
                      });
  }
  ASSERT_GT(run_keys.size(), 3u);
  std::swap(run_keys[1], run_keys[2]);
  ASSERT_EQ((tier::WriteSegmentFile<int64_t, int64_t>(
                path, run_keys.data(), run_payloads.data(), run_keys.size(),
                keys_per_block)),
            SnapshotStatus::kOk);

  Sharded loaded(Opts(2));
  loaded.Insert(42, 42);
  EXPECT_EQ(loaded.LoadFrom(prefix), SnapshotStatus::kUnsortedKeys);
  // The failed load left the live index untouched.
  int64_t v = 0;
  EXPECT_TRUE(loaded.Get(42, &v));
  EXPECT_EQ(loaded.size(), 1u);
  Cleanup(prefix);
}

}  // namespace
}  // namespace alex::shard
