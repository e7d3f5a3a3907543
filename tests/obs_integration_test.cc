// End-to-end observability: the metrics the instrumented layers actually
// emit when a real sharded + WAL workload runs, not what the primitives do
// in isolation (tests/obs_test.cc covers that).
//
// Three contracts:
//   1. Coverage — a mixed workload (every public op, topology changes, WAL
//      commits) lights at least 12 distinct nonzero metrics across the
//      core / epoch / shard / WAL layers.
//   2. Conservation — per-op latency histograms count exactly one sample
//      per public operation issued, summed across shard slots, even while
//      splits and merges renumber the shards mid-workload.
//   3. Slow-op tracing — with the threshold floored, real operations land
//      in the ring with their structured context (routed shard, WAL wait,
//      escalated leaf splits), not just the fields a unit test plumbs in.
//
// These run only when the obs layer is compiled in; under ALEX_DISABLE_OBS
// the binary still builds and trivially passes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "shard/sharded_alex.h"
#include "test_files.h"

namespace alex::shard {
namespace {

using Sharded = ShardedAlex<int64_t, int64_t>;

using test::TempPrefix;
[[maybe_unused]] constexpr auto CleanupFiles = test::RemovePrefixFiles;

class ObsIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(true);
    obs::MetricsRegistry::Global().ResetAll();
    obs::MetricsRegistry::Global().slow_ops().set_threshold_ns(
        obs::SlowOpRing::kDefaultThresholdNs);
  }
  void TearDown() override {
    obs::SetEnabled(false);
    obs::MetricsRegistry::Global().slow_ops().set_threshold_ns(
        obs::SlowOpRing::kDefaultThresholdNs);
  }
};

#if !defined(ALEX_DISABLE_OBS)

// Acceptance: a mixed sharded + WAL workload leaves >= 12 distinct nonzero
// metrics in the registry — proof that every layer's instrumentation is
// wired, not just compiled.
TEST_F(ObsIntegrationTest, MixedWorkloadLightsAtLeastTwelveMetrics) {
  const std::string prefix = TempPrefix("obs_mixed");
  CleanupFiles(prefix);
  ShardedOptions options;
  options.num_shards = 4;
  options.min_rebalance_keys = 256;
  options.max_shard_keys = 2048;
  Sharded index(options);
  std::vector<int64_t> keys, payloads;
  constexpr int64_t kPreload = 4096;
  for (int64_t i = 0; i < kPreload; ++i) {
    keys.push_back(i * 2);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  wal::WalOptions wal_options;
  wal_options.sync_policy = wal::SyncPolicy::kAlways;
  ASSERT_EQ(index.EnableWal(prefix, wal_options), wal::WalStatus::kOk);

  // Every public op at least once; enough inserts to trip shard splits.
  int64_t v = 0;
  std::vector<std::pair<int64_t, int64_t>> scan_buf;
  for (int64_t i = 0; i < 4000; ++i) {
    ASSERT_TRUE(index.Insert(kPreload * 2 + 1 + i, i));
    if (i % 8 == 0) index.Get((i % kPreload) * 2, &v);
    if (i % 64 == 0) {
      index.Contains(i * 2);
      index.Update((i % kPreload) * 2, -i);
      index.RangeScan(i, 32, &scan_buf);
      index.Scan(i, i + 512, [](const int64_t&, const int64_t&) {});
      index.Aggregate(i, i + 512);
    }
  }
  for (int64_t i = 0; i < 64; ++i) ASSERT_TRUE(index.Erase(i * 2));
  const int64_t batch_keys[] = {2, 4, 6, 8};
  int64_t batch_payloads[4] = {};
  bool batch_found[4] = {};
  index.MultiGet(batch_keys, 4, batch_payloads, batch_found);
  const int64_t fresh[] = {-101, -102, -103, -104};
  index.MultiInsert(fresh, batch_payloads, 4);
  index.MultiErase(fresh, 4);

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  EXPECT_GE(reg.NonZeroMetricCount(), 12u);
  // Spot-check one metric per instrumented layer.
  // Every routed Get records one latency sample against its shard.
  EXPECT_GT(reg.OpLatencySnapshot(obs::OpType::kGet).Count(), 0u);
  EXPECT_GT(reg.GetCounter("shard.topology_splits")->Load(), 0u);
  EXPECT_GT(reg.GetCounter("wal.bytes_written")->Load(), 0u);
  EXPECT_GT(reg.GetCounter("wal.fsyncs")->Load(), 0u);
  EXPECT_GT(reg.GetHistogram("wal.commit_wait_ns")->Count(), 0u);
  EXPECT_GT(reg.GetCounter("epoch.retired")->Load(), 0u);
  EXPECT_GT(reg.GetCounter("core.leaf_splits")->Load(), 0u);
  EXPECT_GT(reg.OpLatencySnapshot(obs::OpType::kInsert).Count(), 0u);
  // The exports see the same state.
  const std::string json = reg.SnapshotJson();
  EXPECT_NE(json.find("shard.topology_splits"), std::string::npos);
  const std::string prom = reg.SnapshotPrometheus();
  EXPECT_NE(prom.find("alex_wal_bytes_written"), std::string::npos);
  CleanupFiles(prefix);
}

// Conservation: ops issued == ops counted, per type, while the shard
// topology changes underneath. Splits renumber shards upward and merges
// fold them back; a sample recorded against any slot still counts exactly
// once in the cross-slot merge.
TEST_F(ObsIntegrationTest, OpCountsAreConservedThroughSplitsAndMerges) {
  ShardedOptions options;
  options.num_shards = 4;
  options.min_rebalance_keys = 256;
  options.max_shard_keys = 1024;
  options.merge_threshold_keys = 2000;
  Sharded index(options);
  std::vector<int64_t> keys, payloads;
  constexpr int64_t kPreload = 4000;
  for (int64_t i = 0; i < kPreload; ++i) {
    keys.push_back(i * 2);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());

  uint64_t inserts = 0, gets = 0, erases = 0;
  int64_t v = 0;
  // Growth phase: monotone inserts trip repeated splits.
  for (int64_t i = 0; i < 6000; ++i) {
    ASSERT_TRUE(index.Insert(kPreload * 2 + 1 + i, i));
    ++inserts;
    if (i % 4 == 0) {
      index.Get((i % kPreload) * 2, &v);
      ++gets;
    }
  }
  EXPECT_GT(index.num_shards(), 4u);
  // Shrink phase: erase almost everything to trip merges.
  for (int64_t i = 0; i < kPreload; ++i) {
    ASSERT_TRUE(index.Erase(i * 2));
    ++erases;
  }
  for (int64_t i = 0; i < 6000; ++i) {
    ASSERT_TRUE(index.Erase(kPreload * 2 + 1 + i));
    ++erases;
  }
  EXPECT_GT(index.merge_count(), 0u);

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  EXPECT_EQ(reg.OpLatencySnapshot(obs::OpType::kInsert).Count(), inserts);
  EXPECT_EQ(reg.OpLatencySnapshot(obs::OpType::kGet).Count(), gets);
  EXPECT_EQ(reg.OpLatencySnapshot(obs::OpType::kErase).Count(), erases);
  // The topology counters agree with the index's own bookkeeping.
  EXPECT_GT(reg.GetCounter("shard.topology_splits")->Load(), 0u);
  EXPECT_EQ(reg.GetCounter("shard.topology_merges")->Load(),
            index.merge_count());
  EXPECT_TRUE(index.CheckInvariants());
}

// Slow-op tracing on real operations: floor the threshold so every op is
// captured, then check the structured context of what the layers reported.
TEST_F(ObsIntegrationTest, SlowOpRingCapturesRealOperations) {
  const std::string prefix = TempPrefix("obs_slow");
  CleanupFiles(prefix);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.slow_ops().set_threshold_ns(0);
  ShardedOptions options;
  options.num_shards = 2;
  Sharded index(options);
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 1024; ++i) {
    keys.push_back(i * 4);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  wal::WalOptions wal_options;
  wal_options.sync_policy = wal::SyncPolicy::kAlways;
  ASSERT_EQ(index.EnableWal(prefix, wal_options), wal::WalStatus::kOk);
  reg.slow_ops().Reset();

  ASSERT_TRUE(index.Insert(1, 1));
  int64_t v = 0;
  ASSERT_TRUE(index.Get(1, &v));
  std::vector<obs::SlowOpRecord> records = reg.slow_ops().Snapshot();
  ASSERT_EQ(records.size(), 2u);
  // The insert: routed shard resolved, positive duration, and the WAL
  // commit wait the sharded layer measured around its log write.
  EXPECT_EQ(records[0].op, obs::OpType::kInsert);
  EXPECT_LT(records[0].shard, 2u);
  EXPECT_GT(records[0].duration_ns, 0u);
  EXPECT_GT(records[0].wal_wait_ns, 0u);
  // The get: same shard, no WAL involvement.
  EXPECT_EQ(records[1].op, obs::OpType::kGet);
  EXPECT_EQ(records[1].shard, records[0].shard);
  EXPECT_EQ(records[1].wal_wait_ns, 0u);

  // Leaf-split escalation surfaces in the context of the op that paid for
  // it: hammer one region until splits occur, then find a record carrying
  // leaf_splits > 0.
  reg.slow_ops().Reset();
  bool saw_split_context = false;
  for (int64_t i = 0; i < 3000 && !saw_split_context; ++i) {
    ASSERT_TRUE(index.Insert(100000 + i, i));
    if (i % 256 == 255) {
      for (const obs::SlowOpRecord& rec : reg.slow_ops().Snapshot()) {
        if (rec.op == obs::OpType::kInsert && rec.leaf_splits > 0) {
          saw_split_context = true;
          break;
        }
      }
      reg.slow_ops().Reset();
    }
  }
  EXPECT_TRUE(saw_split_context);
  CleanupFiles(prefix);
}

#else  // ALEX_DISABLE_OBS

TEST_F(ObsIntegrationTest, CompiledOutBuildStillLinks) {
  // The instrumented headers compile with the macros expanded to nothing;
  // nothing to observe.
  ShardedOptions options;
  Sharded index(options);
  ASSERT_TRUE(index.Insert(1, 1));
  SUCCEED();
}

#endif  // ALEX_DISABLE_OBS

}  // namespace
}  // namespace alex::shard
