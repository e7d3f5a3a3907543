// Edge-case and robustness tests for the ALEX index: degenerate key
// distributions, extreme configurations, scan boundaries, and the
// documented duplicate-key guard (§7).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/alex.h"
#include "util/random.h"

namespace alex::core {
namespace {

using AlexInt = Alex<int64_t, int64_t>;
using AlexDouble = Alex<double, int64_t>;

TEST(AlexEdgeTest, SingleKeyIndex) {
  AlexInt index;
  index.Insert(42, 1);
  EXPECT_EQ(*index.Find(42), 1);
  auto it = index.begin();
  EXPECT_EQ(it.key(), 42);
  ++it;
  EXPECT_TRUE(it.IsEnd());
  EXPECT_TRUE(index.Erase(42));
  EXPECT_TRUE(index.empty());
}

TEST(AlexEdgeTest, NearlyIdenticalDoubleKeys) {
  // Keys packed into a tiny range stress the model's slope and the
  // degenerate-split fallback.
  AlexDouble index;
  const double base = 1.0;
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(index.Insert(base + static_cast<double>(i) * 1e-12, i));
  }
  EXPECT_EQ(index.size(), 3000u);
  EXPECT_TRUE(index.CheckInvariants());
  EXPECT_NE(index.Find(base + 1500 * 1e-12), nullptr);
}

TEST(AlexEdgeTest, HugeOutlierKeys) {
  // One key at the far end of the domain makes the CDF almost a step
  // function: most keys map to one partition.
  AlexInt index;
  ASSERT_TRUE(index.Insert(std::numeric_limits<int64_t>::max() / 2, 0));
  for (int64_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(index.Insert(i, i));
  }
  EXPECT_EQ(index.size(), 5001u);
  EXPECT_TRUE(index.CheckInvariants());
  EXPECT_NE(index.Find(std::numeric_limits<int64_t>::max() / 2), nullptr);
  EXPECT_NE(index.Find(2500), nullptr);
}

TEST(AlexEdgeTest, NegativeAndPositiveKeys) {
  AlexDouble index;
  for (int i = -2000; i < 2000; ++i) {
    ASSERT_TRUE(index.Insert(static_cast<double>(i) * 0.5, i));
  }
  EXPECT_EQ(index.size(), 4000u);
  EXPECT_EQ(*index.Find(-1000.0), -2000);
  EXPECT_EQ(*index.Find(999.5), 1999);
  auto it = index.begin();
  EXPECT_DOUBLE_EQ(it.key(), -1000.0);
}

TEST(AlexEdgeTest, TinyNodeCapacityConfig) {
  Config config;
  config.max_data_node_keys = 32;  // forces very deep trees
  config.split_fanout = 2;
  AlexInt index(config);
  for (int64_t i = 0; i < 3000; ++i) {
    ASSERT_TRUE(index.Insert(i * 3, i));
  }
  EXPECT_TRUE(index.CheckInvariants());
  EXPECT_GT(index.Shape().max_depth, 2u);
}

TEST(AlexEdgeTest, LargeSplitFanout) {
  Config config;
  config.max_data_node_keys = 256;
  config.split_fanout = 64;
  AlexInt index(config);
  for (int64_t i = 0; i < 10000; ++i) {
    ASSERT_TRUE(index.Insert(i * 7, i));
  }
  EXPECT_TRUE(index.CheckInvariants());
  EXPECT_EQ(index.size(), 10000u);
}

TEST(AlexEdgeTest, ContractionDisabled) {
  Config config;
  config.density_lower = 0.0;
  AlexInt index(config);
  for (int64_t i = 0; i < 2000; ++i) index.Insert(i, i);
  for (int64_t i = 0; i < 2000; ++i) index.Erase(i);
  EXPECT_EQ(index.stats().num_contractions, 0u);
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(AlexEdgeTest, SplittingDisabledKeepsSingleLeafGrowing) {
  Config config;
  config.rmi_mode = RmiMode::kAdaptive;
  config.allow_splitting = false;
  AlexInt index(config);
  for (int64_t i = 0; i < 20000; ++i) {
    ASSERT_TRUE(index.Insert(i, i));
  }
  // Without splitting a cold-started index stays a single (big) leaf.
  EXPECT_EQ(index.Shape().num_data_nodes, 1u);
  EXPECT_EQ(index.stats().num_splits, 0u);
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(AlexEdgeTest, ModelBasedPlacementOffStillCorrect) {
  Config config;
  config.model_based_placement = false;  // rank-based ablation mode
  AlexInt index(config);
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 5000; ++i) {
    keys.push_back(i * 5);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  EXPECT_TRUE(index.CheckInvariants());
  for (size_t i = 0; i < keys.size(); i += 97) {
    ASSERT_NE(index.Find(keys[i]), nullptr);
  }
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(index.Insert(i * 5 + 1, -1));
  }
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(AlexEdgeTest, LowerBoundAtAllBoundaries) {
  AlexInt index;
  std::vector<int64_t> keys = {10, 20, 30};
  std::vector<int64_t> payloads = {1, 2, 3};
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  EXPECT_EQ(index.LowerBound(5).key(), 10);
  EXPECT_EQ(index.LowerBound(10).key(), 10);
  EXPECT_EQ(index.LowerBound(11).key(), 20);
  EXPECT_EQ(index.LowerBound(30).key(), 30);
  EXPECT_TRUE(index.LowerBound(31).IsEnd());
}

TEST(AlexEdgeTest, RangeScanZeroResults) {
  AlexInt index;
  index.Insert(1, 1);
  std::vector<std::pair<int64_t, int64_t>> out;
  EXPECT_EQ(index.RangeScan(100, 10, &out), 0u);
  EXPECT_EQ(index.RangeScan(0, 0, &out), 0u);
}

TEST(AlexEdgeTest, InterleavedInsertEraseSameKey) {
  AlexInt index;
  for (int round = 0; round < 500; ++round) {
    ASSERT_TRUE(index.Insert(7, round));
    ASSERT_EQ(*index.Find(7), round);
    ASSERT_TRUE(index.Erase(7));
    ASSERT_EQ(index.Find(7), nullptr);
  }
  EXPECT_TRUE(index.empty());
}

TEST(AlexEdgeTest, BulkLoadSingleAndZeroKeys) {
  AlexInt index;
  index.BulkLoad(nullptr, nullptr, 0);
  EXPECT_TRUE(index.empty());
  const int64_t key = 5;
  const int64_t payload = 50;
  index.BulkLoad(&key, &payload, 1);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(*index.Find(5), 50);
}

TEST(AlexEdgeTest, StressZigzagInserts) {
  // Alternate ends of the key space: each insert lands at the opposite
  // extreme of the previous one.
  AlexInt index;
  int64_t lo = 0, hi = 1000000;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(index.Insert(i % 2 == 0 ? lo++ : hi--, i));
  }
  EXPECT_EQ(index.size(), 5000u);
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(AlexEdgeTest, PayloadOnlyUpdatePreservesStructure) {
  AlexInt index;
  for (int64_t i = 0; i < 1000; ++i) index.Insert(i, 0);
  const auto shape_before = index.Shape();
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(index.Update(i, i * i));
  }
  const auto shape_after = index.Shape();
  EXPECT_EQ(shape_before.num_data_nodes, shape_after.num_data_nodes);
  EXPECT_EQ(*index.Find(30), 900);
}

TEST(AlexEdgeTest, EmptyIndexAllOperations) {
  AlexInt index;
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.Find(1), nullptr);
  EXPECT_FALSE(index.Contains(1));
  EXPECT_FALSE(index.Erase(1));
  EXPECT_FALSE(index.Update(1, 2));
  EXPECT_TRUE(index.begin().IsEnd());
  EXPECT_TRUE(index.Last().IsEnd());
  EXPECT_TRUE(index.LowerBound(0).IsEnd());
  std::vector<std::pair<int64_t, int64_t>> out;
  EXPECT_EQ(index.RangeScan(std::numeric_limits<int64_t>::min(), 10, &out),
            0u);
  EXPECT_TRUE(index.CheckInvariants());
  // Const read path on an empty index.
  const AlexInt& cindex = index;
  EXPECT_EQ(cindex.Find(1), nullptr);
}

TEST(AlexEdgeTest, SingleKeyBulkLoadScanAndErase) {
  AlexInt index;
  const int64_t key = -17;
  const int64_t payload = 99;
  index.BulkLoad(&key, &payload, 1);
  std::vector<std::pair<int64_t, int64_t>> out;
  EXPECT_EQ(index.RangeScan(std::numeric_limits<int64_t>::min(), 10, &out),
            1u);
  EXPECT_EQ(out.front().first, key);
  EXPECT_EQ(out.front().second, payload);
  EXPECT_EQ(index.RangeScan(key + 1, 10, &out), 0u);
  EXPECT_TRUE(index.Erase(key));
  EXPECT_FALSE(index.Erase(key));
  EXPECT_TRUE(index.empty());
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(AlexEdgeTest, DuplicateHeavyInsertStream) {
  // A hostile stream where most inserts are duplicates: the index must
  // reject every repeat (§7), never double-count, and stay intact across
  // the expansions/splits triggered by the minority of fresh keys.
  AlexInt index;
  util::Xoshiro256 rng(11);
  size_t accepted = 0;
  for (int i = 0; i < 30000; ++i) {
    const auto key = static_cast<int64_t>(rng.NextUint64(2000));
    const bool fresh = index.Find(key) == nullptr;
    EXPECT_EQ(index.Insert(key, key), fresh);
    if (fresh) ++accepted;
  }
  EXPECT_EQ(index.size(), accepted);
  EXPECT_LE(accepted, 2000u);
  EXPECT_TRUE(index.CheckInvariants());
  // Duplicate rejection straight after bulk load, too.
  std::vector<int64_t> keys = {1, 2, 3};
  std::vector<int64_t> payloads = {1, 2, 3};
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  EXPECT_FALSE(index.Insert(2, 20));
  EXPECT_EQ(*index.Find(2), 2);
}

TEST(AlexEdgeTest, Int64ExtremesBulkLoadScanErase) {
  // Keys at the very edges of the int64 domain. Model predictions cast
  // keys to double (lossy up there), but search and equality always
  // compare the exact integer keys, so correctness must hold.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  AlexInt index;
  std::vector<int64_t> keys = {kMin, kMin + 1, -1000, 0, 1000, kMax - 1,
                               kMax};
  std::vector<int64_t> payloads = {1, 2, 3, 4, 5, 6, 7};
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  ASSERT_EQ(index.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_NE(index.Find(keys[i]), nullptr) << "key " << keys[i];
    EXPECT_EQ(*index.Find(keys[i]), payloads[i]);
  }
  std::vector<std::pair<int64_t, int64_t>> out;
  EXPECT_EQ(index.RangeScan(kMin, keys.size() + 1, &out), keys.size());
  EXPECT_EQ(out.front().first, kMin);
  EXPECT_EQ(out.back().first, kMax);
  EXPECT_EQ(index.RangeScan(kMax, 10, &out), 1u);
  EXPECT_EQ(out.front().first, kMax);
  EXPECT_TRUE(index.Erase(kMin));
  EXPECT_TRUE(index.Erase(kMax));
  EXPECT_FALSE(index.Contains(kMin));
  EXPECT_FALSE(index.Contains(kMax));
  EXPECT_EQ(index.size(), keys.size() - 2);
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(AlexEdgeTest, Int64ExtremesIncrementalInserts) {
  AlexInt index;
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  EXPECT_TRUE(index.Insert(kMax, 1));
  EXPECT_TRUE(index.Insert(kMin, 2));
  EXPECT_FALSE(index.Insert(kMax, 3));  // duplicate at the boundary
  for (int64_t i = -500; i < 500; ++i) {
    ASSERT_TRUE(index.Insert(i, i));
  }
  EXPECT_EQ(index.size(), 1002u);
  EXPECT_EQ(*index.Find(kMin), 2);
  EXPECT_EQ(*index.Find(kMax), 1);
  EXPECT_EQ(index.LowerBound(kMax).key(), kMax);
  auto last = index.Last();
  EXPECT_EQ(last.key(), kMax);
  --last;
  EXPECT_EQ(last.key(), 499);
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(AlexEdgeTest, ConstFindAndRangeScanOnConstIndex) {
  // Satellite of the concurrency work: the read-only traversal path is
  // genuinely const, so shared-latch readers can never write.
  AlexInt index;
  for (int64_t i = 0; i < 1000; ++i) index.Insert(i * 2, i);
  const AlexInt& cindex = index;
  const int64_t* p = cindex.Find(500);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(*p, 250);
  EXPECT_EQ(cindex.Find(501), nullptr);
  std::vector<std::pair<int64_t, int64_t>> out;
  EXPECT_EQ(cindex.RangeScan(0, 10, &out), 10u);
  EXPECT_EQ(out.front().first, 0);
  // Const lookups must not bump the lookup counter (concurrent readers
  // hold only shared ownership and never write).
  const uint64_t lookups_before = cindex.stats().num_lookups;
  cindex.Find(500);
  EXPECT_EQ(cindex.stats().num_lookups, lookups_before);
}

TEST(AlexEdgeTest, PmaLayoutZigzag) {
  Config config;
  config.layout = NodeLayout::kPackedMemoryArray;
  AlexInt index(config);
  int64_t lo = 0, hi = 1000000;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(index.Insert(i % 2 == 0 ? lo++ : hi--, i));
  }
  EXPECT_TRUE(index.CheckInvariants());
}

}  // namespace
}  // namespace alex::core
