#include "core/concurrent_alex.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "split_fixtures.h"
#include "util/random.h"

namespace alex::core {
namespace {

using Index = ConcurrentAlex<int64_t, int64_t>;

TEST(ConcurrentAlexTest, SingleThreadedSemanticsMatchAlex) {
  Index index;
  EXPECT_TRUE(index.Insert(1, 10));
  EXPECT_FALSE(index.Insert(1, 11));
  int64_t v = 0;
  EXPECT_TRUE(index.Get(1, &v));
  EXPECT_EQ(v, 10);
  EXPECT_TRUE(index.Update(1, 20));
  EXPECT_TRUE(index.Get(1, &v));
  EXPECT_EQ(v, 20);
  index.Put(1, 30);  // overwrite path
  index.Put(2, 40);  // insert path
  EXPECT_TRUE(index.Get(2, &v));
  EXPECT_EQ(v, 40);
  EXPECT_TRUE(index.Erase(1));
  EXPECT_FALSE(index.Contains(1));
  EXPECT_EQ(index.size(), 1u);
}

TEST(ConcurrentAlexTest, BulkLoadAndScan) {
  Index index;
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 10000; ++i) {
    keys.push_back(i * 2);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  std::vector<std::pair<int64_t, int64_t>> out;
  EXPECT_EQ(index.RangeScan(100, 5, &out), 5u);
  EXPECT_EQ(out.front().first, 100);
  EXPECT_GT(index.IndexSizeBytes(), 0u);
  EXPECT_GT(index.DataSizeBytes(), 0u);
}

TEST(ConcurrentAlexTest, ParallelReadersSeeConsistentData) {
  Index index;
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 50000; ++i) {
    keys.push_back(i);
    payloads.push_back(i * 3);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&index, &errors, t] {
      util::Xoshiro256 rng(t + 1);
      for (int i = 0; i < 20000; ++i) {
        const auto key = static_cast<int64_t>(rng.NextUint64(50000));
        int64_t v = -1;
        if (!index.Get(key, &v) || v != key * 3) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0);
}

TEST(ConcurrentAlexTest, MixedReadersAndWritersStayConsistent) {
  Index index;
  // Pre-load a disjoint key range readers will hammer.
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 20000; ++i) {
    keys.push_back(i);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());

  std::atomic<int> errors{0};
  std::atomic<bool> stop{false};
  // Writers insert keys >= 1e6; splits/expansions run under the exclusive
  // lock while readers keep validating the stable range.
  std::thread writer([&] {
    for (int64_t i = 0; i < 30000; ++i) {
      if (!index.Insert(1000000 + i, i)) {
        errors.fetch_add(1);
      }
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&index, &errors, &stop, t] {
      util::Xoshiro256 rng(100 + t);
      while (!stop.load()) {
        const auto key = static_cast<int64_t>(rng.NextUint64(20000));
        int64_t v = -1;
        if (!index.Get(key, &v) || v != key) {
          errors.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(index.size(), 50000u);
}

TEST(ConcurrentAlexTest, ConcurrentWritersDisjointRangesAllLand) {
  Index index;
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&index, t] {
      const int64_t base = static_cast<int64_t>(t) * 1000000;
      for (int64_t i = 0; i < 10000; ++i) {
        index.Insert(base + i, i);
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(index.size(), 40000u);
  int64_t v;
  for (int t = 0; t < 4; ++t) {
    EXPECT_TRUE(index.Get(static_cast<int64_t>(t) * 1000000 + 9999, &v));
    EXPECT_EQ(v, 9999);
  }
}

// The §7 acceptance test for the lock-free read path: the tree-wide
// structure lock no longer exists, so reads must complete while (a) every
// tree-scoped mutex the write path can take (root transition + chain
// splice) is held and (b) an unrelated leaf is exclusively latched. Under
// the old design, (a) alone would have blocked every read; here a read
// takes only its epoch guard plus the target leaf's latch.
TEST(ConcurrentAlexTest, ReadsCompleteWithAllStructuralMutexesHeld) {
  Config config;
  config.max_data_node_keys = 256;  // many leaves
  Index index(config);
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 20000; ++i) {
    keys.push_back(i);
    payloads.push_back(i * 3);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());

  // Hold everything tree-scoped, plus the leaf that owns key 0.
  auto structural = index.LockStructuralMutexesForTest();
  auto leaf_latch = index.LatchLeafForTest(0);

  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::thread reader([&] {
    // Keys near the top of the range live in different leaves than key 0.
    int64_t v = 0;
    if (!index.Get(19999, &v) || v != 19999 * 3) errors.fetch_add(1);
    if (!index.Contains(15000)) errors.fetch_add(1);
    std::vector<std::pair<int64_t, int64_t>> out;
    if (index.RangeScan(18000, 100, &out) != 100u) errors.fetch_add(1);
    if (!index.Update(16000, -1)) errors.fetch_add(1);
    done.store(true, std::memory_order_release);
  });

  // If any read path still took a tree-wide lock, the reader would hang
  // here; fail with a diagnostic instead of a ctest timeout.
  for (int i = 0; i < 200 && !done.load(std::memory_order_acquire); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(done.load()) << "read path blocked on a structural mutex";
  structural.first.unlock();
  structural.second.unlock();
  leaf_latch.unlock();
  reader.join();
  EXPECT_EQ(errors.load(), 0);
}

// A reader latched onto a leaf must block that leaf's retirement (split),
// and a split of one leaf must not disturb reads of its siblings.
TEST(ConcurrentAlexTest, SplitsRetireVictimsThroughEpochReclamation) {
  Config config;
  config.max_data_node_keys = 64;
  config.split_fanout = 4;
  Index index(config);
  for (int64_t i = 0; i < 5000; ++i) {
    index.Insert(i, i * 3);
  }
  EXPECT_GT(index.GetStats().num_splits, 0u);
  const auto& epochs = index.epoch_manager();
  EXPECT_GT(epochs.freed_count() + epochs.retired_count(), 0u);
  for (int64_t i = 0; i < 5000; ++i) {
    int64_t v = 0;
    ASSERT_TRUE(index.Get(i, &v));
    EXPECT_EQ(v, i * 3);
  }
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(ConcurrentAlexTest, StatsSnapshotIsCoherent) {
  Index index;
  for (int64_t i = 0; i < 100; ++i) index.Insert(i, i);
  const Stats stats = index.GetStats();
  EXPECT_EQ(stats.num_inserts, 100u);
}

// A point read probes its leaf optimistically, and after a few failed
// validations takes the shared latch instead, so a writer that keeps
// re-taking the leaf cannot starve it. Here the writer holds the leaf's
// write latch across every probe attempt of the first read, then re-takes
// it over and over while the reader keeps reading.
TEST(ConcurrentAlexTest, ReaderFallsBackToLatchWhileWriterRetakesLeaf) {
  obs::SetEnabled(true);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const uint64_t retries_before = reg.GetCounter("core.probe_retries")->Load();
  const uint64_t fallbacks_before =
      reg.GetCounter("core.probe_latch_fallbacks")->Load();
  Index index;
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 500; ++i) {
    keys.push_back(i);
    payloads.push_back(i * 7);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());

  auto held = index.LatchLeafForTest(42);
  std::atomic<bool> first_done{false};
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  uint32_t ctx_retries = 0;
  std::thread reader([&] {
    obs::TlsOpContext() = obs::OpContext{};
    int64_t v = 0;
    if (!index.Get(42, &v) || v != 42 * 7) errors.fetch_add(1);
    ctx_retries = obs::TlsOpContext().probe_retries;
    first_done.store(true, std::memory_order_release);
    while (!stop.load(std::memory_order_acquire)) {
      const int64_t key = 40 + (v++ % 5);
      int64_t got = -1;
      if (!index.Get(key, &got) || got != key * 7) errors.fetch_add(1);
    }
  });
  // The reader cannot finish while the writer holds the leaf.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(first_done.load(std::memory_order_acquire));
  held.unlock();
  for (int i = 0; i < 2000 && !first_done.load(std::memory_order_acquire);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(first_done.load(std::memory_order_acquire));
  // Now re-take the leaf again and again under the running reader.
  for (int i = 0; i < 2000; ++i) {
    auto latch = index.LatchLeafForTest(42);
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GE(ctx_retries, 1u);
  EXPECT_GE(reg.GetCounter("core.probe_retries")->Load(), retries_before + 1);
  EXPECT_GE(reg.GetCounter("core.probe_latch_fallbacks")->Load(),
            fallbacks_before + 1);
  obs::SetEnabled(false);
}

// Every expansion retires the leaf's old storage block through the epoch
// manager. With splitting off nothing else reclaims, so the batched
// MaybeReclaim on the retire path must keep the backlog bounded.
TEST(ConcurrentAlexTest, ExpansionsWithoutSplitsKeepRetiredBlocksBounded) {
  Config config;
  config.max_data_node_keys = 256;  // many leaves, each expanding in place
  config.allow_splitting = false;
  Index index(config);
  constexpr int64_t kBase = 20000;
  constexpr int64_t kPasses = 6;
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < kBase; ++i) keys.push_back(i * 16);
  index.BulkLoad(keys.data(), keys.data(), keys.size());
  size_t max_retired = 0;
  for (int64_t pass = 1; pass <= kPasses; ++pass) {
    for (int64_t i = 0; i < kBase; ++i) {
      ASSERT_TRUE(index.Insert(i * 16 + pass, i));
      if (i % 64 == 0) {
        max_retired =
            std::max(max_retired, index.epoch_manager().retired_count());
      }
    }
  }
  EXPECT_GT(index.GetStats().num_expansions, 500u);
  EXPECT_EQ(index.GetStats().num_splits, 0u);
  EXPECT_LE(max_retired, 4 * util::EpochManager::kReclaimBatch);
  EXPECT_GT(index.epoch_manager().freed_count(), 0u);
  EXPECT_EQ(index.size(), static_cast<size_t>(kBase * (kPasses + 1)));
  int64_t v = 0;
  EXPECT_TRUE(index.Get(7 * 16 + kPasses, &v));
  EXPECT_EQ(v, 7);
}

// ---------- sideways and downward leaf splits (§3.4.2) ----------

using test::FindTwoSlotLeaf;
using test::kSplitStride;
using test::RootModel;
using test::SplitConfig;
using test::SplitKeys;

void ExpectMatchesOracle(const Index& index,
                         const std::map<int64_t, int64_t>& oracle) {
  ASSERT_TRUE(index.CheckInvariants());
  ASSERT_EQ(index.size(), oracle.size());
  for (const auto& [k, v] : oracle) {
    int64_t got = 0;
    ASSERT_TRUE(index.Get(k, &got)) << k;
    ASSERT_EQ(got, v) << k;
  }
}

class ConcurrentLeafSplitTest : public ::testing::TestWithParam<NodeLayout> {
};

TEST_P(ConcurrentLeafSplitTest, WritersSplitMultiSlotVictimsSideways) {
  // Four writers each insert one key next to the first key of every
  // fourth root slot. A full leaf that owns two slots takes the first of
  // its inserts and splits sideways into them; no split goes downward.
  const Config config = SplitConfig(GetParam());
  const auto keys = SplitKeys();
  Index index(config);
  index.BulkLoad(keys.data(), keys.data(), keys.size());
  std::map<int64_t, int64_t> oracle;
  for (const int64_t k : keys) oracle.emplace(k, k);
  const RootModel root(keys, config.max_data_node_keys);
  std::vector<int64_t> slot_first(root.slots, -1);
  for (const int64_t k : keys) {
    if (slot_first[root.SlotOf(k)] < 0) slot_first[root.SlotOf(k)] = k;
  }
  const auto before = index.CollectStructure();
  ASSERT_EQ(before.max_depth, 1u);

  constexpr size_t kWriters = 4;
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (size_t slot = w; slot < root.slots; slot += kWriters) {
        if (slot_first[slot] >= 0) {
          index.Insert(slot_first[slot] + 1, -slot_first[slot]);
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  for (const int64_t k : slot_first) {
    if (k >= 0) oracle.emplace(k + 1, -k);
  }

  const auto after = index.CollectStructure();
  const uint64_t splits = index.GetStats().num_splits;
  EXPECT_GT(splits, 8u);
  EXPECT_EQ(after.inner_count, before.inner_count);
  EXPECT_EQ(after.max_depth, before.max_depth);
  EXPECT_GE(after.leaf_count, before.leaf_count + splits);
  ExpectMatchesOracle(index, oracle);
}

TEST_P(ConcurrentLeafSplitTest, RootAndSingleSlotVictimsSplitDownward) {
  const Config config = SplitConfig(GetParam());
  Index index(config);
  std::map<int64_t, int64_t> oracle;
  int64_t k = 0;
  const auto append_until_split = [&] {
    const uint64_t splits = index.GetStats().num_splits;
    while (index.GetStats().num_splits == splits) {
      ASSERT_TRUE(index.Insert(k, k + 7));
      oracle.emplace(k, k + 7);
      ++k;
    }
  };
  append_until_split();  // the root leaf
  EXPECT_EQ(index.CollectStructure().inner_count, 1u);
  EXPECT_EQ(index.CollectStructure().max_depth, 1u);
  append_until_split();  // the rightmost child, which owns one root slot
  EXPECT_EQ(index.CollectStructure().inner_count, 2u);
  EXPECT_EQ(index.CollectStructure().max_depth, 2u);
  ExpectMatchesOracle(index, oracle);
}

TEST_P(ConcurrentLeafSplitTest, VictimWithKeysInOneSlotSplitsDownward) {
  // The concurrent index bulk-loads the same tree as Alex, so an Alex
  // built from the same keys names the victim.
  const Config config = SplitConfig(GetParam());
  const auto keys = SplitKeys();
  Index index(config);
  index.BulkLoad(keys.data(), keys.data(), keys.size());
  Alex<int64_t, int64_t> twin(config);
  twin.BulkLoad(keys.data(), keys.data(), keys.size());
  const RootModel root(keys, config.max_data_node_keys);
  const test::TwoSlotLeaf victim = FindTwoSlotLeaf(twin, root);
  ASSERT_GE(victim.first, 0);
  ASSERT_FALSE(victim.second_slot.empty());
  std::map<int64_t, int64_t> oracle;
  for (const int64_t k : keys) oracle.emplace(k, k);
  for (const int64_t key : victim.second_slot) {
    ASSERT_TRUE(index.Erase(key));
    oracle.erase(key);
  }
  const auto before = index.CollectStructure();
  for (int64_t key = victim.first + 1; index.GetStats().num_splits == 0;
       ++key) {
    ASSERT_LT(key, victim.first + kSplitStride);
    ASSERT_TRUE(index.Insert(key, -key));
    oracle.emplace(key, -key);
  }
  const auto after = index.CollectStructure();
  EXPECT_EQ(after.inner_count, before.inner_count + 1);
  EXPECT_EQ(after.max_depth, before.max_depth + 1);
  ExpectMatchesOracle(index, oracle);
}

INSTANTIATE_TEST_SUITE_P(Layouts, ConcurrentLeafSplitTest,
                         ::testing::Values(NodeLayout::kGappedArray,
                                           NodeLayout::kPackedMemoryArray),
                         [](const auto& info) {
                           return info.param == NodeLayout::kGappedArray
                                      ? std::string("GA")
                                      : std::string("PMA");
                         });

}  // namespace
}  // namespace alex::core
