// Tests for the shard router (src/shard/router.h): the branchless
// boundary search against a std::upper_bound oracle for every table size
// up to 64 boundaries, boundary-key ownership, bulk-load partitioning,
// and the boundary surgery (SpliceBoundaries) that shard splits, merges
// and rebalances apply to the live table.
#include "shard/router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "shard/sharded_alex.h"
#include "util/random.h"

namespace alex::shard {
namespace {

/// Oracle: index of the first boundary greater than `key`.
template <typename K>
size_t ReferenceRoute(const std::vector<K>& bounds, K key) {
  return static_cast<size_t>(
      std::upper_bound(bounds.begin(), bounds.end(), key) - bounds.begin());
}

/// `m` distinct sorted boundaries drawn from the whole int64 range, so
/// some land next to the extremes.
std::vector<int64_t> RandomBoundaries(util::Xoshiro256* rng, size_t m) {
  std::set<int64_t> picked;
  while (picked.size() < m) {
    const uint64_t r = (*rng)();
    switch (r % 4) {
      case 0:  // anywhere
        picked.insert(static_cast<int64_t>(r));
        break;
      case 1:  // near the low extreme
        picked.insert(std::numeric_limits<int64_t>::min() +
                      static_cast<int64_t>(r >> 60));
        break;
      case 2:  // near the high extreme
        picked.insert(std::numeric_limits<int64_t>::max() -
                      static_cast<int64_t>(r >> 60));
        break;
      default:  // dense around zero
        picked.insert(static_cast<int64_t>(r >> 56) - 128);
        break;
    }
  }
  return std::vector<int64_t>(picked.begin(), picked.end());
}

TEST(ShardRouterTest, DefaultRoutesEverythingToShardZero) {
  ShardRouter<int64_t> router;
  EXPECT_EQ(router.num_shards(), 1u);
  EXPECT_EQ(router.Route(-1000), 0u);
  EXPECT_EQ(router.Route(0), 0u);
  EXPECT_EQ(router.Route(1 << 30), 0u);
}

TEST(ShardRouterTest, MatchesUpperBoundForEveryTableSize) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  util::Xoshiro256 rng(42);
  for (size_t m = 0; m <= 64; ++m) {
    SCOPED_TRACE(m);
    for (int trial = 0; trial < 4; ++trial) {
      const std::vector<int64_t> bounds = RandomBoundaries(&rng, m);
      const ShardRouter<int64_t> router(bounds);
      ASSERT_EQ(router.num_shards(), m + 1);
      std::vector<int64_t> probes = {kMin, kMax};
      for (const int64_t b : bounds) {
        probes.push_back(b);
        if (b != kMin) probes.push_back(b - 1);
        if (b != kMax) probes.push_back(b + 1);
      }
      for (const int64_t key : probes) {
        ASSERT_EQ(router.Route(key), ReferenceRoute(bounds, key))
            << "key " << key;
      }
    }
  }
}

TEST(ShardRouterTest, MatchesUpperBoundForUnsignedAndDoubleKeys) {
  util::Xoshiro256 rng(7);
  for (size_t m = 0; m <= 64; ++m) {
    std::set<uint64_t> picked;
    while (picked.size() < m) picked.insert(rng() >> (rng() % 64));
    const std::vector<uint64_t> ubounds(picked.begin(), picked.end());
    const ShardRouter<uint64_t> urouter(ubounds);
    std::vector<double> dbounds;
    for (const uint64_t b : ubounds) {
      dbounds.push_back(static_cast<double>(b >> 11) / 1024.0 - 1e12);
    }
    dbounds.erase(std::unique(dbounds.begin(), dbounds.end()), dbounds.end());
    const ShardRouter<double> drouter(dbounds);
    std::vector<uint64_t> uprobes = {0, std::numeric_limits<uint64_t>::max()};
    for (const uint64_t b : ubounds) {
      uprobes.push_back(b);
      uprobes.push_back(b - 1);  // wraps at 0: still a valid probe
      uprobes.push_back(b + 1);
    }
    for (const uint64_t key : uprobes) {
      ASSERT_EQ(urouter.Route(key), ReferenceRoute(ubounds, key))
          << "m " << m << " key " << key;
    }
    std::vector<double> dprobes = {-std::numeric_limits<double>::max(),
                                   std::numeric_limits<double>::max()};
    for (const double b : dbounds) {
      dprobes.push_back(b);
      dprobes.push_back(b - 0.5);
      dprobes.push_back(b + 0.5);
    }
    for (const double key : dprobes) {
      ASSERT_EQ(drouter.Route(key), ReferenceRoute(dbounds, key))
          << "m " << m << " key " << key;
    }
  }
}

TEST(ShardRouterTest, FitFromSortedKeysAgreesWithUpperBoundEverywhere) {
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 10000; ++i) keys.push_back(i * 3);
  const auto router =
      ShardRouter<int64_t>::FitFromSortedKeys(keys.data(), keys.size(), 8);
  ASSERT_EQ(router.num_shards(), 8u);
  const std::vector<int64_t>& bounds = router.boundaries();
  ASSERT_EQ(bounds.size(), 7u);
  // Every key and the gaps between them, including off-distribution
  // probes.
  for (int64_t probe = -10; probe < 30020; ++probe) {
    ASSERT_EQ(router.Route(probe), ReferenceRoute(bounds, probe))
        << "probe " << probe;
  }
}

TEST(ShardRouterTest, BoundaryKeysRouteToUpperShard) {
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 4096; ++i) keys.push_back(i * 2);
  const auto router =
      ShardRouter<int64_t>::FitFromSortedKeys(keys.data(), keys.size(), 4);
  const std::vector<int64_t>& bounds = router.boundaries();
  ASSERT_EQ(bounds.size(), 3u);
  for (size_t i = 0; i < bounds.size(); ++i) {
    // The boundary key itself belongs to the upper shard; its predecessor
    // belongs to the lower.
    EXPECT_EQ(router.Route(bounds[i]), i + 1);
    EXPECT_EQ(router.Route(bounds[i] - 1), i);
  }
}

TEST(ShardRouterTest, SkewedDistributionsRouteExactly) {
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 2000; ++i) keys.push_back(i);
  for (int64_t i = 0; i < 2000; ++i) {
    keys.push_back(1000000000LL + i * 1000000LL);
  }
  const auto router =
      ShardRouter<int64_t>::FitFromSortedKeys(keys.data(), keys.size(), 8);
  const std::vector<int64_t>& bounds = router.boundaries();
  for (const int64_t key : keys) {
    ASSERT_EQ(router.Route(key), ReferenceRoute(bounds, key));
  }
}

// A table of shard contents evolves through seeded splits, merges and
// rebalances, each applied to the boundaries with SpliceBoundaries the
// way a topology transaction does; after every step each preloaded key
// must route to the shard that holds it.
TEST(ShardRouterTest, SplicedTablesRouteEveryKeyToItsShard) {
  util::Xoshiro256 rng(2024);
  std::vector<int64_t> keys;
  int64_t next = -50000;
  for (int i = 0; i < 4000; ++i) {
    next += 1 + static_cast<int64_t>(rng() % 40);
    keys.push_back(next);
  }
  constexpr size_t kInitialShards = 4;
  ShardRouter<int64_t> router = ShardRouter<int64_t>::FitFromSortedKeys(
      keys.data(), keys.size(), kInitialShards);
  std::vector<std::vector<int64_t>> shards(kInitialShards);
  for (size_t j = 0; j < kInitialShards; ++j) {
    shards[j].assign(keys.begin() + j * keys.size() / kInitialShards,
                     keys.begin() + (j + 1) * keys.size() / kInitialShards);
  }

  // Replaces shards [lo, hi) by `ways` children cut evenly from their
  // concatenated contents, as a split (ways > 1 on one victim), a merge
  // (ways == 1) or a rebalance (ways == hi - lo) does.
  auto splice = [&](size_t lo, size_t hi, size_t ways) {
    std::vector<int64_t> merged;
    for (size_t s = lo; s < hi; ++s) {
      merged.insert(merged.end(), shards[s].begin(), shards[s].end());
    }
    std::vector<int64_t> split_keys;
    std::vector<std::vector<int64_t>> children(ways);
    for (size_t c = 0; c < ways; ++c) {
      const size_t from = c * merged.size() / ways;
      const size_t to = (c + 1) * merged.size() / ways;
      children[c].assign(merged.begin() + from, merged.begin() + to);
      if (c > 0) split_keys.push_back(merged[from]);
    }
    router = ShardRouter<int64_t>(ShardRouter<int64_t>::SpliceBoundaries(
        router.boundaries(), lo, hi, split_keys));
    shards.erase(shards.begin() + lo, shards.begin() + hi);
    shards.insert(shards.begin() + lo, children.begin(), children.end());
  };

  for (int step = 0; step < 300; ++step) {
    const uint64_t op = rng() % 3;
    if (op == 0 || shards.size() == 1) {
      const size_t s = rng() % shards.size();
      const size_t ways = 2 + rng() % 3;
      if (shards[s].size() < ways) continue;
      splice(s, s + 1, ways);
    } else if (op == 1) {
      const size_t lo = rng() % (shards.size() - 1);
      const size_t hi = std::min(shards.size(), lo + 2 + rng() % 2);
      splice(lo, hi, 1);
    } else {
      const size_t lo = rng() % (shards.size() - 1);
      const size_t hi = std::min(shards.size(), lo + 2 + rng() % 3);
      splice(lo, hi, hi - lo);
    }
    ASSERT_EQ(router.num_shards(), shards.size()) << "step " << step;
    for (size_t s = 0; s < shards.size(); ++s) {
      for (const int64_t key : shards[s]) {
        ASSERT_EQ(router.Route(key), s) << "step " << step << " key " << key;
      }
    }
  }
}

// The same property through the index: splits driven by inserts and
// merges driven by erases rebuild the live table with SpliceBoundaries,
// and every surviving preloaded key still routes to the shard that holds
// it (CheckInvariants checks each record's route) and is found.
TEST(ShardRouterTest, IndexSplitsAndMergesKeepPreloadedKeysRouted) {
  ShardedOptions options;
  options.num_shards = 4;
  options.min_rebalance_keys = 256;
  options.max_shard_keys = 2048;
  options.merge_threshold_keys = 1024;
  ShardedAlex<int64_t, int64_t> index(options);
  std::vector<int64_t> keys, payloads;
  constexpr int64_t kPreload = 4096;
  for (int64_t i = 0; i < kPreload; ++i) {
    keys.push_back(i * 4);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  for (int64_t i = 0; i < 6000; ++i) {
    ASSERT_TRUE(index.Insert(kPreload * 4 + i, -i));
  }
  EXPECT_GT(index.rebalance_count(), 0u);
  ASSERT_TRUE(index.CheckInvariants());
  for (int64_t i = 0; i < 6000; ++i) {
    ASSERT_TRUE(index.Erase(kPreload * 4 + i));
  }
  for (int64_t i = 0; i < kPreload; ++i) {
    if (i % 8 != 0) {
      ASSERT_TRUE(index.Erase(i * 4));
    }
  }
  EXPECT_GT(index.merge_count(), 0u);
  ASSERT_TRUE(index.CheckInvariants());
  int64_t v = 0;
  for (int64_t i = 0; i < kPreload; i += 8) {
    ASSERT_TRUE(index.Get(i * 4, &v)) << i;
    ASSERT_EQ(v, i);
  }
}

}  // namespace
}  // namespace alex::shard
