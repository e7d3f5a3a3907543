#include "core/alex.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/concurrent_alex.h"
#include "split_fixtures.h"
#include "util/random.h"

namespace alex::core {
namespace {

using AlexInt = Alex<int64_t, int64_t>;

std::vector<int64_t> SortedKeys(size_t n, int64_t stride = 2) {
  std::vector<int64_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = static_cast<int64_t>(i) * stride;
  return keys;
}

std::vector<int64_t> Payloads(size_t n) {
  std::vector<int64_t> p(n);
  for (size_t i = 0; i < n; ++i) p[i] = static_cast<int64_t>(i) + 7;
  return p;
}

Config MakeConfig(NodeLayout layout, RmiMode mode) {
  Config config;
  config.layout = layout;
  config.rmi_mode = mode;
  config.max_data_node_keys = 256;  // small bound so tests exercise depth
  config.inner_node_partitions = 8;
  return config;
}

// ---------- basic operations, default config ----------

TEST(AlexTest, EmptyIndex) {
  AlexInt index;
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.Find(42), nullptr);
  EXPECT_FALSE(index.Erase(42));
  EXPECT_TRUE(index.begin().IsEnd());
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(AlexTest, InsertAndFind) {
  AlexInt index;
  EXPECT_TRUE(index.Insert(10, 100));
  EXPECT_TRUE(index.Insert(20, 200));
  EXPECT_TRUE(index.Insert(5, 50));
  EXPECT_EQ(index.size(), 3u);
  ASSERT_NE(index.Find(10), nullptr);
  EXPECT_EQ(*index.Find(10), 100);
  EXPECT_EQ(*index.Find(20), 200);
  EXPECT_EQ(*index.Find(5), 50);
  EXPECT_EQ(index.Find(15), nullptr);
}

TEST(AlexTest, InsertRejectsDuplicates) {
  AlexInt index;
  EXPECT_TRUE(index.Insert(1, 1));
  EXPECT_FALSE(index.Insert(1, 2));
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(*index.Find(1), 1);
}

TEST(AlexTest, EraseRemovesKey) {
  AlexInt index;
  index.Insert(1, 10);
  index.Insert(2, 20);
  EXPECT_TRUE(index.Erase(1));
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.Find(1), nullptr);
  EXPECT_NE(index.Find(2), nullptr);
  EXPECT_FALSE(index.Erase(1));
}

TEST(AlexTest, UpdatePayload) {
  AlexInt index;
  index.Insert(1, 10);
  EXPECT_TRUE(index.Update(1, 99));
  EXPECT_EQ(*index.Find(1), 99);
  EXPECT_FALSE(index.Update(2, 0));
}

TEST(AlexTest, UpdateKeyMovesEntry) {
  AlexInt index;
  index.Insert(1, 10);
  index.Insert(2, 20);
  EXPECT_TRUE(index.UpdateKey(1, 5));
  EXPECT_EQ(index.Find(1), nullptr);
  ASSERT_NE(index.Find(5), nullptr);
  EXPECT_EQ(*index.Find(5), 10);
  // Target collision fails and leaves both entries intact.
  EXPECT_FALSE(index.UpdateKey(5, 2));
  EXPECT_NE(index.Find(5), nullptr);
  EXPECT_NE(index.Find(2), nullptr);
  // Absent source fails.
  EXPECT_FALSE(index.UpdateKey(100, 200));
  // Same-key update succeeds iff present.
  EXPECT_TRUE(index.UpdateKey(5, 5));
  EXPECT_FALSE(index.UpdateKey(42, 42));
}

TEST(AlexTest, BulkLoadThenFindAll) {
  const auto keys = SortedKeys(10000);
  const auto payloads = Payloads(10000);
  AlexInt index;
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  EXPECT_EQ(index.size(), keys.size());
  EXPECT_TRUE(index.CheckInvariants());
  for (size_t i = 0; i < keys.size(); i += 37) {
    ASSERT_NE(index.Find(keys[i]), nullptr) << keys[i];
    EXPECT_EQ(*index.Find(keys[i]), payloads[i]);
  }
  // Keys between the stored ones are absent.
  EXPECT_EQ(index.Find(1), nullptr);
  EXPECT_EQ(index.Find(keys.back() + 1), nullptr);
}

TEST(AlexTest, BulkLoadReplacesContents) {
  AlexInt index;
  index.Insert(999, 1);
  const auto keys = SortedKeys(100);
  const auto payloads = Payloads(100);
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  EXPECT_EQ(index.size(), 100u);
  EXPECT_EQ(index.Find(999), nullptr);
}

TEST(AlexTest, BulkLoadPairsOverload) {
  std::vector<std::pair<int64_t, int64_t>> pairs;
  for (int64_t i = 0; i < 500; ++i) pairs.emplace_back(i * 3, i);
  AlexInt index;
  index.BulkLoad(pairs);
  EXPECT_EQ(index.size(), 500u);
  EXPECT_EQ(*index.Find(3 * 250), 250);
}

TEST(AlexTest, IterationVisitsKeysInOrder) {
  const auto keys = SortedKeys(2000, 3);
  const auto payloads = Payloads(2000);
  AlexInt index;
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  size_t i = 0;
  for (auto it = index.begin(); !it.IsEnd(); ++it, ++i) {
    ASSERT_LT(i, keys.size());
    EXPECT_EQ(it.key(), keys[i]);
    EXPECT_EQ(it.payload(), payloads[i]);
  }
  EXPECT_EQ(i, keys.size());
}

TEST(AlexTest, LowerBoundFindsFirstNotLess) {
  const auto keys = SortedKeys(1000, 10);  // 0, 10, ..., 9990
  const auto payloads = Payloads(1000);
  AlexInt index;
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  auto it = index.LowerBound(25);
  ASSERT_FALSE(it.IsEnd());
  EXPECT_EQ(it.key(), 30);
  it = index.LowerBound(30);
  EXPECT_EQ(it.key(), 30);
  it = index.LowerBound(-5);
  EXPECT_EQ(it.key(), 0);
  it = index.LowerBound(99999);
  EXPECT_TRUE(it.IsEnd());
}

TEST(AlexTest, RangeScanReturnsOrderedSlice) {
  const auto keys = SortedKeys(1000, 5);
  const auto payloads = Payloads(1000);
  AlexInt index;
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  std::vector<std::pair<int64_t, int64_t>> out;
  const size_t got = index.RangeScan(102, 10, &out);
  EXPECT_EQ(got, 10u);
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(out.front().first, 105);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_EQ(out[i].first, out[i - 1].first + 5);
  }
}

TEST(AlexTest, RangeScanPastEndTruncates) {
  const auto keys = SortedKeys(100);
  const auto payloads = Payloads(100);
  AlexInt index;
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  std::vector<std::pair<int64_t, int64_t>> out;
  EXPECT_EQ(index.RangeScan(keys[95], 100, &out), 5u);
  EXPECT_EQ(index.RangeScan(keys.back() + 1, 10, &out), 0u);
}

TEST(AlexTest, MoveConstructionTransfersOwnership) {
  AlexInt a;
  a.Insert(1, 10);
  a.Insert(2, 20);
  AlexInt b(std::move(a));
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(*b.Find(1), 10);
  b.Insert(3, 30);  // config/stats pointers must still be valid
  EXPECT_EQ(b.size(), 3u);
}

TEST(AlexTest, MoveAssignmentReplacesContents) {
  AlexInt a, b;
  a.Insert(1, 10);
  b.Insert(2, 20);
  b = std::move(a);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_NE(b.Find(1), nullptr);
  EXPECT_EQ(b.Find(2), nullptr);
}

// ---------- model-based insert & stats ----------

TEST(AlexTest, StatsCountOperations) {
  AlexInt index;
  for (int64_t k = 0; k < 100; ++k) index.Insert(k, k);
  index.Find(50);
  index.Erase(50);
  const Stats& s = index.stats();
  EXPECT_EQ(s.num_inserts, 100u);
  EXPECT_GE(s.num_lookups, 1u);
  EXPECT_EQ(s.num_erases, 1u);
}

TEST(AlexTest, ExpansionHappensUnderInserts) {
  Config config;
  config.allow_splitting = false;
  AlexInt index(config);
  for (int64_t k = 0; k < 1000; ++k) index.Insert(k * 7, k);
  EXPECT_GT(index.stats().num_expansions, 0u);
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(AlexTest, ContractionHappensUnderDeletes) {
  Config config;
  config.allow_splitting = false;
  AlexInt index(config);
  const auto keys = SortedKeys(5000);
  const auto payloads = Payloads(5000);
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i % 50 != 0) index.Erase(keys[i]);
  }
  EXPECT_GT(index.stats().num_contractions, 0u);
  EXPECT_EQ(index.size(), 100u);
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(AlexTest, SplittingGrowsTree) {
  Config config = MakeConfig(NodeLayout::kGappedArray, RmiMode::kAdaptive);
  config.allow_splitting = true;
  config.max_data_node_keys = 128;
  AlexInt index(config);
  for (int64_t k = 0; k < 5000; ++k) index.Insert(k * 3, k);
  EXPECT_GT(index.stats().num_splits, 0u);
  const auto shape = index.Shape();
  EXPECT_GT(shape.num_inner_nodes, 0u);
  EXPECT_GT(shape.num_data_nodes, 1u);
  EXPECT_TRUE(index.CheckInvariants());
  for (int64_t k = 0; k < 5000; k += 13) {
    ASSERT_NE(index.Find(k * 3), nullptr) << k;
  }
}

TEST(AlexTest, ColdStartGrowsFromSingleNode) {
  // §3.4.2: "the adaptive RMI will begin as only a single node and will
  // grow deeper through splitting as more keys are inserted."
  Config config = MakeConfig(NodeLayout::kGappedArray, RmiMode::kAdaptive);
  config.max_data_node_keys = 64;
  AlexInt index(config);
  EXPECT_EQ(index.Shape().num_data_nodes, 1u);
  util::Xoshiro256 rng(5);
  std::map<int64_t, int64_t> reference;
  for (int i = 0; i < 3000; ++i) {
    const int64_t k = static_cast<int64_t>(rng.NextUint64(1000000));
    const bool inserted = index.Insert(k, i);
    const bool expected = reference.emplace(k, i).second;
    ASSERT_EQ(inserted, expected);
  }
  EXPECT_GT(index.Shape().max_depth, 0u);
  EXPECT_EQ(index.size(), reference.size());
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(AlexTest, IndexSizeMuchSmallerThanDataSize) {
  const auto keys = SortedKeys(50000);
  const auto payloads = Payloads(50000);
  AlexInt index;
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  EXPECT_GT(index.DataSizeBytes(), keys.size() * sizeof(int64_t));
  // On easily-modeled data the index is orders of magnitude smaller than
  // the data (the paper's headline result).
  EXPECT_LT(index.IndexSizeBytes() * 100, index.DataSizeBytes());
}

TEST(AlexTest, ShapeCountsNodes) {
  Config config = MakeConfig(NodeLayout::kGappedArray, RmiMode::kAdaptive);
  const auto keys = SortedKeys(10000);
  const auto payloads = Payloads(10000);
  AlexInt index(config);
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  const auto shape = index.Shape();
  // 10000 keys with a 256-key bound needs at least 40 leaves.
  EXPECT_GE(shape.num_data_nodes, 40u);
  EXPECT_GE(shape.num_inner_nodes, 1u);
  EXPECT_GE(shape.max_depth, 1u);
}

TEST(AlexTest, SrmiUsesConfiguredModelCount) {
  Config config;
  config.rmi_mode = RmiMode::kStatic;
  config.num_models = 16;
  const auto keys = SortedKeys(10000);
  const auto payloads = Payloads(10000);
  AlexInt index(config);
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  const auto shape = index.Shape();
  EXPECT_EQ(shape.num_data_nodes, 16u);
  EXPECT_EQ(shape.num_inner_nodes, 1u);
  EXPECT_EQ(shape.max_depth, 1u);
  for (size_t i = 0; i < keys.size(); i += 97) {
    ASSERT_NE(index.Find(keys[i]), nullptr);
  }
}

TEST(AlexTest, PredictionErrorsSmallAfterBulkLoad) {
  // §5.3 / Fig. 7b: model-based inserts give mostly direct hits.
  const auto keys = SortedKeys(20000, 2);
  const auto payloads = Payloads(20000);
  AlexInt index;
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  uint64_t direct = 0, total = 0;
  index.ForEachLeaf([&](const AlexInt::DataNodeT& leaf) {
    const auto& s = leaf.storage();
    for (size_t i = s.FirstOccupied(); i < s.capacity();
         i = s.NextOccupied(i)) {
      const size_t predicted = leaf.PredictSlot(s.key_at(i));
      if (predicted == i) ++direct;
      ++total;
    }
  });
  ASSERT_EQ(total, keys.size());
  EXPECT_GT(static_cast<double>(direct) / static_cast<double>(total), 0.5);
}

// ---------- parameterized sweep over all four variants ----------

struct VariantParam {
  NodeLayout layout;
  RmiMode rmi;
  const char* name;
};

class AlexVariantTest : public ::testing::TestWithParam<VariantParam> {
 protected:
  Config VariantConfig() const {
    Config config = MakeConfig(GetParam().layout, GetParam().rmi);
    return config;
  }
};

TEST_P(AlexVariantTest, BulkLoadLookup) {
  const auto keys = SortedKeys(20000, 3);
  const auto payloads = Payloads(20000);
  Alex<int64_t, int64_t> index(VariantConfig());
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  EXPECT_TRUE(index.CheckInvariants());
  for (size_t i = 0; i < keys.size(); i += 41) {
    ASSERT_NE(index.Find(keys[i]), nullptr) << keys[i];
    EXPECT_EQ(*index.Find(keys[i]), payloads[i]);
    EXPECT_EQ(index.Find(keys[i] + 1), nullptr);
  }
}

TEST_P(AlexVariantTest, RandomizedMirrorOfStdMap) {
  util::Xoshiro256 rng(31337);
  Alex<int64_t, int64_t> index(VariantConfig());
  std::map<int64_t, int64_t> reference;
  for (int iter = 0; iter < 20000; ++iter) {
    const int64_t key = static_cast<int64_t>(rng.NextUint64(30000));
    const uint64_t op = rng.NextUint64(10);
    if (op < 6) {
      const bool inserted = index.Insert(key, iter);
      const bool expected = reference.emplace(key, iter).second;
      ASSERT_EQ(inserted, expected) << "iter " << iter << " key " << key;
    } else if (op < 8) {
      const bool erased = index.Erase(key);
      ASSERT_EQ(erased, reference.erase(key) > 0)
          << "iter " << iter << " key " << key;
    } else {
      auto* found = index.Find(key);
      auto it = reference.find(key);
      ASSERT_EQ(found != nullptr, it != reference.end())
          << "iter " << iter << " key " << key;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second);
      }
    }
  }
  ASSERT_EQ(index.size(), reference.size());
  ASSERT_TRUE(index.CheckInvariants());
  // Full-order comparison.
  auto it = index.begin();
  for (const auto& [k, v] : reference) {
    ASSERT_FALSE(it.IsEnd());
    ASSERT_EQ(it.key(), k);
    ASSERT_EQ(it.payload(), v);
    ++it;
  }
  ASSERT_TRUE(it.IsEnd());
}

TEST_P(AlexVariantTest, BulkLoadThenHeavyInsertsKeepOrder) {
  const auto keys = SortedKeys(5000, 10);
  const auto payloads = Payloads(5000);
  Alex<int64_t, int64_t> index(VariantConfig());
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  util::Xoshiro256 rng(99);
  size_t inserted = 0;
  for (int i = 0; i < 20000; ++i) {
    const int64_t key = static_cast<int64_t>(rng.NextUint64(50000));
    if (index.Insert(key, i)) ++inserted;
  }
  EXPECT_EQ(index.size(), 5000 + inserted);
  EXPECT_TRUE(index.CheckInvariants());
  // Iteration must remain globally sorted.
  int64_t prev = -1;
  for (auto it = index.begin(); !it.IsEnd(); ++it) {
    ASSERT_GT(it.key(), prev);
    prev = it.key();
  }
}

TEST_P(AlexVariantTest, SequentialAppendInserts) {
  // Fig. 5c's adversarial pattern, at test scale: always insert at the
  // right edge. Correctness must hold for every variant even where
  // performance differs.
  Alex<int64_t, int64_t> index(VariantConfig());
  for (int64_t k = 0; k < 20000; ++k) {
    ASSERT_TRUE(index.Insert(k, k));
  }
  EXPECT_EQ(index.size(), 20000u);
  EXPECT_TRUE(index.CheckInvariants());
  EXPECT_EQ(*index.Find(19999), 19999);
}

TEST_P(AlexVariantTest, EraseEverything) {
  const auto keys = SortedKeys(3000);
  const auto payloads = Payloads(3000);
  Alex<int64_t, int64_t> index(VariantConfig());
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  for (const auto k : keys) {
    ASSERT_TRUE(index.Erase(k)) << k;
  }
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.CheckInvariants());
  // The index remains usable after total erasure.
  EXPECT_TRUE(index.Insert(5, 5));
  EXPECT_NE(index.Find(5), nullptr);
}

TEST_P(AlexVariantTest, RangeScansAcrossLeaves) {
  const auto keys = SortedKeys(10000, 2);
  const auto payloads = Payloads(10000);
  Alex<int64_t, int64_t> index(VariantConfig());
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  std::vector<std::pair<int64_t, int64_t>> out;
  // A scan of 1000 keys necessarily crosses multiple 256-key leaves.
  const size_t got = index.RangeScan(keys[4000], 1000, &out);
  ASSERT_EQ(got, 1000u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].first, keys[4000 + i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, AlexVariantTest,
    ::testing::Values(
        VariantParam{NodeLayout::kGappedArray, RmiMode::kStatic,
                     "GA_SRMI"},
        VariantParam{NodeLayout::kGappedArray, RmiMode::kAdaptive,
                     "GA_ARMI"},
        VariantParam{NodeLayout::kPackedMemoryArray, RmiMode::kStatic,
                     "PMA_SRMI"},
        VariantParam{NodeLayout::kPackedMemoryArray, RmiMode::kAdaptive,
                     "PMA_ARMI"}),
    [](const ::testing::TestParamInfo<VariantParam>& info) {
      return std::string(info.param.name);
    });

// ---------- per-leaf model error (what Inspect() reports) ----------

/// Brute force: max |slot - PredictSlot(key)| over the occupied slots.
size_t BruteForceMaxError(const DataNode<int64_t, int64_t>& node) {
  const auto& s = node.storage();
  size_t max_err = 0;
  for (size_t i = 0; i < s.capacity(); ++i) {
    if (!s.IsOccupied(i)) continue;
    const size_t pred = node.PredictSlot(s.key_at(i));
    max_err = std::max(max_err, pred > i ? pred - i : i - pred);
  }
  return max_err;
}

TEST(DataNodeTest, MaxModelErrorIsExactThroughChurn) {
  for (const NodeLayout layout :
       {NodeLayout::kGappedArray, NodeLayout::kPackedMemoryArray}) {
    SCOPED_TRACE(static_cast<int>(layout));
    Config config;
    config.layout = layout;
    DataNode<int64_t, int64_t> node(config, nullptr);
    const auto keys = SortedKeys(400, 5);
    const auto payloads = Payloads(400);
    node.BulkLoad(keys.data(), payloads.data(), keys.size());
    ASSERT_TRUE(node.has_model());
    EXPECT_EQ(node.MaxModelError(), BruteForceMaxError(node));
    // Random inserts and erases over a range wider than the bulk-loaded
    // keys, so shifts, expansions and contractions all move slots away
    // from their predictions.
    util::Xoshiro256 rng(1234 + static_cast<uint64_t>(layout));
    for (int op = 0; op < 20000; ++op) {
      const int64_t key = static_cast<int64_t>(rng() % 3000);
      if (rng() % 2 == 0) {
        node.Insert(key, key, /*allow_split_request=*/false);
      } else {
        node.Erase(key);
      }
      if (op % 97 == 0) {
        ASSERT_TRUE(node.storage().CheckInvariants());
        const size_t expected = node.has_model() ? BruteForceMaxError(node)
                                                 : size_t{0};
        ASSERT_EQ(node.MaxModelError(), expected) << "op " << op;
      }
    }
  }
}

// ---------- partition bounds and leaf splits (§3.4) ----------

/// The linear scan PartitionBoundaries replaced, kept as its oracle: one
/// prediction per key.
std::vector<size_t> LinearScanBoundaries(const model::LinearModel& model,
                                         const std::vector<int64_t>& keys,
                                         size_t lo, size_t hi,
                                         size_t partitions) {
  std::vector<size_t> bounds(partitions + 1, hi);
  bounds[0] = lo;
  size_t current = 0;
  for (size_t i = lo; i < hi; ++i) {
    const size_t bucket =
        model.Predict(static_cast<double>(keys[i]), partitions);
    while (current < bucket) bounds[++current] = i;
  }
  while (current < partitions) bounds[++current] = hi;
  bounds[0] = lo;
  return bounds;
}

TEST(PartitionBoundsTest, BinarySearchMatchesLinearScan) {
  util::Xoshiro256 rng(77);
  size_t one_bucket_cases = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const size_t n = 1 + rng.NextUint64(3000);
    std::set<int64_t> distinct;
    const uint64_t spread = 1 + rng.NextUint64(1ULL << 40);
    while (distinct.size() < n) {
      distinct.insert(static_cast<int64_t>(rng.NextUint64(spread)) -
                      static_cast<int64_t>(spread / 2));
    }
    const std::vector<int64_t> keys(distinct.begin(), distinct.end());
    const size_t partitions = 2 + rng.NextUint64(64);
    const size_t lo = rng.NextUint64(n);
    const size_t hi = lo + rng.NextUint64(n - lo + 1);
    const model::LinearModel trained =
        model::TrainCdfModel(keys.data() + lo, hi - lo, partitions);
    const double mid = static_cast<double>(keys[n / 2]);
    const model::LinearModel models[] = {
        trained,
        // Slope 0: every key lands in one bucket.
        model::LinearModel(0.0, static_cast<double>(partitions) / 2),
        model::LinearModel(0.0, -5.0),
        model::LinearModel(0.0, static_cast<double>(partitions) + 5),
        // Past both ends: the steep model sends the low keys below bucket
        // 0 and the high keys above the last bucket.
        model::LinearModel(trained.slope() * 4,
                           static_cast<double>(partitions) / 2 -
                               trained.slope() * 4 * mid),
        model::LinearModel(trained.slope(),
                           trained.intercept() + 3.0 * partitions),
        model::LinearModel(trained.slope(),
                           trained.intercept() - 3.0 * partitions),
    };
    for (const auto& m : models) {
      std::vector<size_t> bounds;
      PartitionBoundaries(m, keys.data(), lo, hi, partitions, &bounds);
      ASSERT_EQ(bounds, LinearScanBoundaries(m, keys, lo, hi, partitions))
          << "trial " << trial << " slope " << m.slope();
      size_t non_empty = 0;
      for (size_t j = 0; j < partitions; ++j) {
        non_empty += bounds[j + 1] > bounds[j];
      }
      if (m.slope() == 0.0 && hi > lo) {
        EXPECT_EQ(non_empty, 1u);
        ++one_bucket_cases;
      }
    }
  }
  EXPECT_GT(one_bucket_cases, 0u);
}

TEST(LeafSplitTest, DegenerateModelRefusesSplitAndKeepsKeys) {
  // Keys near the int64 extremes collapse the split model's variance in
  // double precision, so every key predicts one bucket: the split must
  // leave the leaf whole and the insert must still land.
  Config config;
  config.max_data_node_keys = 64;
  AlexInt index(config);
  std::map<int64_t, int64_t> reference;
  const int64_t base = std::numeric_limits<int64_t>::max() - 1000;
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(index.Insert(base + i * 3, i));
    reference.emplace(base + i * 3, i);
  }
  EXPECT_EQ(index.stats().num_splits, 0u);
  EXPECT_GT(index.size(), config.max_data_node_keys);
  ASSERT_TRUE(index.CheckInvariants());
  for (const auto& [k, v] : reference) {
    const int64_t* found = index.Find(k);
    ASSERT_NE(found, nullptr) << k;
    ASSERT_EQ(*found, v);
  }
}

TEST(LeafSplitTest, ConcurrentInsertsSplitManyLeavesAndMatchMapOracle) {
  // Four writers insert disjoint key streams into small leaves, so the
  // tree grows by hundreds of leaf splits, each built from the victim's
  // own arrays; afterwards every key must be found with its payload.
  for (const NodeLayout layout :
       {NodeLayout::kGappedArray, NodeLayout::kPackedMemoryArray}) {
    SCOPED_TRACE(static_cast<int>(layout));
    Config config;
    config.layout = layout;
    config.max_data_node_keys = 64;
    ConcurrentAlex<int64_t, int64_t> index(config);
    const auto initial = SortedKeys(2000, 97);
    const auto initial_payloads = Payloads(initial.size());
    index.BulkLoad(initial.data(), initial_payloads.data(), initial.size());
    constexpr int kWriters = 4;
    std::vector<std::vector<int64_t>> streams(kWriters);
    std::map<int64_t, int64_t> reference;
    for (size_t i = 0; i < initial.size(); ++i) {
      reference.emplace(initial[i], initial_payloads[i]);
    }
    util::Xoshiro256 rng(4242 + static_cast<uint64_t>(layout));
    while (reference.size() < initial.size() + 12000) {
      const int64_t key = static_cast<int64_t>(rng.NextUint64(400000));
      if (reference.emplace(key, key * 2 + 1).second) {
        streams[static_cast<size_t>(key) % kWriters].push_back(key);
      }
    }
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&index, &streams, w] {
        for (const int64_t key : streams[w]) index.Insert(key, key * 2 + 1);
      });
    }
    for (auto& t : writers) t.join();
    EXPECT_GE(index.GetStats().num_splits, 100u);
    ASSERT_TRUE(index.CheckInvariants());
    ASSERT_EQ(index.size(), reference.size());
    for (const auto& [k, v] : reference) {
      int64_t got = 0;
      ASSERT_TRUE(index.Get(k, &got)) << k;
      ASSERT_EQ(got, v) << k;
    }
  }
}

// ---------- sideways and downward leaf splits (§3.4.2) ----------

void ExpectMatchesOracle(const AlexInt& index,
                         const std::map<int64_t, int64_t>& oracle) {
  ASSERT_TRUE(index.CheckInvariants());
  ASSERT_EQ(index.size(), oracle.size());
  for (const auto& [k, v] : oracle) {
    const int64_t* found = index.Find(k);
    ASSERT_NE(found, nullptr) << k;
    ASSERT_EQ(*found, v) << k;
  }
}

using test::FindTwoSlotLeaf;
using test::kSplitStride;
using test::RootModel;
using test::SplitConfig;
using test::SplitKeys;

class LeafSplitLayoutTest : public ::testing::TestWithParam<NodeLayout> {};

TEST_P(LeafSplitLayoutTest, BulkLoadRootHasTwoSlotsPerKeyBound) {
  const Config config = SplitConfig(GetParam());
  for (const size_t n : {size_t{257}, size_t{1000}, size_t{5000},
                         size_t{12345}}) {
    const auto keys = SortedKeys(n, 7);
    const auto payloads = Payloads(n);
    AlexInt index(config);
    index.BulkLoad(keys.data(), payloads.data(), n);
    EXPECT_EQ(index.Shape().root_slots,
              (2 * n + config.max_data_node_keys - 1) /
                  config.max_data_node_keys)
        << n;
  }
}

TEST_P(LeafSplitLayoutTest, MultiSlotVictimsSplitSideways) {
  const Config config = SplitConfig(GetParam());
  const auto keys = SplitKeys();
  const auto payloads = Payloads(keys.size());
  AlexInt index(config);
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  std::map<int64_t, int64_t> oracle;
  for (size_t i = 0; i < keys.size(); ++i) oracle.emplace(keys[i], payloads[i]);
  const RootModel root(keys, config.max_data_node_keys);
  const auto before = index.Shape();
  ASSERT_EQ(before.max_depth, 1u);
  ASSERT_EQ(before.root_slots, root.slots);

  // One insert into every full leaf whose keys span two or more slots.
  std::vector<int64_t> victims;
  index.ForEachLeaf([&](const AlexInt::DataNodeT& leaf) {
    const auto& s = leaf.storage();
    if (s.num_keys() < config.max_data_node_keys) return;
    const int64_t first = s.key_at(s.FirstOccupied());
    if (root.SlotOf(first) != root.SlotOf(s.key_at(s.LastOccupied()))) {
      victims.push_back(first + 1);
    }
  });
  ASSERT_GT(victims.size(), 8u);
  for (const int64_t k : victims) {
    ASSERT_TRUE(index.Insert(k, -k));
    oracle.emplace(k, -k);
  }

  // Every victim split sideways: no new inner node, no deeper leaf.
  EXPECT_EQ(index.stats().num_splits, victims.size());
  const auto after = index.Shape();
  EXPECT_EQ(after.num_inner_nodes, before.num_inner_nodes);
  EXPECT_EQ(after.max_depth, before.max_depth);
  EXPECT_GE(after.num_data_nodes, before.num_data_nodes + victims.size());
  // Each leaf's keys route only to its own root slots: the leaves' slot
  // ranges are disjoint and ascending.
  size_t free_slot = 0;
  index.ForEachLeaf([&](const AlexInt::DataNodeT& leaf) {
    const auto& s = leaf.storage();
    if (s.empty()) return;
    EXPECT_GE(root.SlotOf(s.key_at(s.FirstOccupied())), free_slot);
    free_slot = root.SlotOf(s.key_at(s.LastOccupied())) + 1;
  });
  ExpectMatchesOracle(index, oracle);
}

TEST_P(LeafSplitLayoutTest, RootAndSingleSlotVictimsSplitDownward) {
  const Config config = SplitConfig(GetParam());
  AlexInt index(config);
  std::map<int64_t, int64_t> oracle;
  int64_t k = 0;
  const auto append_until_split = [&] {
    const uint64_t splits = index.stats().num_splits;
    while (index.stats().num_splits == splits) {
      ASSERT_TRUE(index.Insert(k, k + 7));
      oracle.emplace(k, k + 7);
      ++k;
    }
  };
  // The root leaf splits downward under a new root.
  append_until_split();
  EXPECT_EQ(index.Shape().num_inner_nodes, 1u);
  EXPECT_EQ(index.Shape().max_depth, 1u);
  // Appends fill the rightmost child, which owns one root slot: it too
  // splits downward.
  append_until_split();
  EXPECT_EQ(index.Shape().num_inner_nodes, 2u);
  EXPECT_EQ(index.Shape().max_depth, 2u);
  ExpectMatchesOracle(index, oracle);
}

TEST_P(LeafSplitLayoutTest, VictimWithKeysInOneSlotSplitsDownward) {
  const Config config = SplitConfig(GetParam());
  const auto keys = SplitKeys();
  const auto payloads = Payloads(keys.size());
  AlexInt index(config);
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  std::map<int64_t, int64_t> oracle;
  for (size_t i = 0; i < keys.size(); ++i) oracle.emplace(keys[i], payloads[i]);
  const RootModel root(keys, config.max_data_node_keys);

  // A leaf that owns two slots: erase its keys of the second slot, then
  // fill it past the bound with keys of the first.
  const test::TwoSlotLeaf victim = FindTwoSlotLeaf(index, root);
  ASSERT_GE(victim.first, 0);
  ASSERT_FALSE(victim.second_slot.empty());
  for (const int64_t key : victim.second_slot) {
    ASSERT_TRUE(index.Erase(key));
    oracle.erase(key);
  }
  const auto before = index.Shape();
  for (int64_t key = victim.first + 1; index.stats().num_splits == 0;
       ++key) {
    ASSERT_LT(key, victim.first + kSplitStride);
    ASSERT_EQ(root.SlotOf(key), root.SlotOf(victim.first));
    ASSERT_TRUE(index.Insert(key, -key));
    oracle.emplace(key, -key);
  }
  const auto after = index.Shape();
  EXPECT_EQ(after.num_inner_nodes, before.num_inner_nodes + 1);
  EXPECT_EQ(after.max_depth, before.max_depth + 1);
  ExpectMatchesOracle(index, oracle);
}

INSTANTIATE_TEST_SUITE_P(Layouts, LeafSplitLayoutTest,
                         ::testing::Values(NodeLayout::kGappedArray,
                                           NodeLayout::kPackedMemoryArray),
                         [](const auto& info) {
                           return info.param == NodeLayout::kGappedArray
                                      ? std::string("GA")
                                      : std::string("PMA");
                         });

}  // namespace
}  // namespace alex::core
