// Tests for the health watchdog (src/obs/health.h): its sample ring,
// env-var and runtime configuration, every detector driven
// across its kOk -> kWarn -> kCritical -> kOk edges by synthetic sample
// injection (with exactly one journal transition event per edge), the two
// acceptance scenarios — a forced real epoch-reclamation stall and a
// forced real WAL commit-wait regression, each detected with the
// offending metric named — plus structural introspection (Inspect) and
// the Chrome-trace exporter.
//
// The TSan target is SamplerVsConcurrentMutators: the sampler thread
// collects and evaluates while writer threads mutate a ShardedAlex
// through splits and readers pull reports, ring snapshots and structure
// walks the whole time.
#include "obs/health.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/inspect.h"
#include "obs/journal.h"
#include "shard/sharded_alex.h"
#include "util/epoch.h"

namespace alex {
namespace {

using obs::EventType;
using obs::GlobalJournal;
using obs::HealthDetector;
using obs::HealthLevel;
using obs::HealthMonitor;
using obs::HealthReport;
using obs::JournalEvent;
using obs::SampledMetrics;
using Sharded = shard::ShardedAlex<int64_t, int64_t>;

class HealthTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(false);
    obs::MetricsRegistry::Global().ResetAll();
    obs::MetricsRegistry::Global().slow_ops().set_threshold_ns(
        obs::SlowOpRing::kDefaultThresholdNs);
    GlobalJournal().Reset();
    monitor_ = std::make_unique<HealthMonitor>();
    next_ts_ns_ = 1'000'000'000;
    cursor_ = SampledMetrics{};
  }
  void TearDown() override {
    monitor_->Stop();
    obs::SetEnabled(false);
    obs::MetricsRegistry::Global().slow_ops().set_threshold_ns(
        obs::SlowOpRing::kDefaultThresholdNs);
    GlobalJournal().Reset();
  }

  /// Injects the running cumulative sample with the next timestamp; tests
  /// mutate `cursor_` between calls (counters must only grow).
  void Inject() {
    cursor_.ts_ns = next_ts_ns_;
    next_ts_ns_ += 1'000'000'000;  // 1s windows
    monitor_->EvaluateSample(cursor_);
  }

  HealthLevel LevelOf(HealthDetector d) const {
    return monitor_->Report().verdicts[static_cast<size_t>(d)].level;
  }

  /// The packed (old*256+new) edges journaled for detector `d`, in order.
  std::vector<int64_t> EdgesFor(HealthDetector d) const {
    std::vector<int64_t> edges;
    for (const JournalEvent& e : GlobalJournal().Snapshot()) {
      if (e.type == EventType::kHealthTransition &&
          e.a == static_cast<int64_t>(d)) {
        edges.push_back(e.b);
      }
    }
    return edges;
  }

  /// Asserts the canonical Ok->Warn->Critical->Ok edge sequence.
  void ExpectCanonicalEdges(HealthDetector d) {
    const std::vector<int64_t> edges = EdgesFor(d);
    ASSERT_EQ(edges.size(), 3u) << "detector " << obs::DetectorName(d);
    EXPECT_EQ(edges[0], 0 * 256 + 1);  // ok -> warn
    EXPECT_EQ(edges[1], 1 * 256 + 2);  // warn -> critical
    EXPECT_EQ(edges[2], 2 * 256 + 0);  // critical -> ok
  }

  std::unique_ptr<HealthMonitor> monitor_;
  SampledMetrics cursor_{};
  uint64_t next_ts_ns_ = 0;
};

#if !defined(ALEX_DISABLE_OBS)
std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}
#endif

// ---------------------------------------------------------------------------
// The sample ring.

TEST_F(HealthTest, SampleRingRoundTripsAndKeepsNewestAcrossWrap) {
  HealthMonitor::Ring ring;
  constexpr uint64_t kPushes = HealthMonitor::Ring::kCapacity + 36;
  for (uint64_t i = 0; i < kPushes; ++i) {
    SampledMetrics s;
    s.ts_ns = i + 1;
    s.total_ops = i * 10;
    ring.Push(s);
  }
  EXPECT_EQ(ring.pushed(), kPushes);
  const std::vector<HealthMonitor::Ring::Entry> got = ring.Snapshot();
  ASSERT_EQ(got.size(), HealthMonitor::Ring::kCapacity);
  for (size_t i = 0; i < got.size(); ++i) {
    const uint64_t expected = kPushes - HealthMonitor::Ring::kCapacity + i;
    EXPECT_EQ(got[i].ticket, expected);
    EXPECT_EQ(got[i].record.ts_ns, expected + 1);
    EXPECT_EQ(got[i].record.total_ops, expected * 10);
  }
}

// ---------------------------------------------------------------------------
// Configuration: env overrides and runtime setters.

TEST_F(HealthTest, SampleIntervalEnvOverrideIsPickedUpByFreshMonitors) {
  ASSERT_EQ(::setenv("ALEX_OBS_SAMPLE_MS", "7", 1), 0);
  EXPECT_EQ(HealthMonitor().interval_ms(), 7u);
  ASSERT_EQ(::setenv("ALEX_OBS_SAMPLE_MS", "0", 1), 0);  // clamped to 1
  EXPECT_EQ(HealthMonitor().interval_ms(), 1u);
  ASSERT_EQ(::setenv("ALEX_OBS_SAMPLE_MS", "junk", 1), 0);  // ignored
  EXPECT_EQ(HealthMonitor().interval_ms(), 100u);
  ASSERT_EQ(::unsetenv("ALEX_OBS_SAMPLE_MS"), 0);
  EXPECT_EQ(HealthMonitor().interval_ms(), 100u);
}

TEST_F(HealthTest, IntervalIsRuntimeAdjustableAndClamped) {
  monitor_->SetIntervalMs(5);
  EXPECT_EQ(monitor_->interval_ms(), 5u);
  monitor_->SetIntervalMs(0);
  EXPECT_EQ(monitor_->interval_ms(), 1u);  // floor: the cv needs a period
  monitor_->SetIntervalMs(42);
  EXPECT_EQ(monitor_->interval_ms(), 42u);
}

// ---------------------------------------------------------------------------
// Detector edges by synthetic injection. Every test drives one rule
// kOk -> kWarn -> kCritical -> kOk and checks the journal recorded exactly
// one transition event per edge.

TEST_F(HealthTest, FirstSampleIsAllOkWithDetectorIdentitiesFilled) {
  Inject();
  const HealthReport report = monitor_->Report();
  EXPECT_EQ(report.level, HealthLevel::kOk);
  EXPECT_EQ(report.samples, 1u);
  for (size_t i = 0; i < obs::kNumHealthDetectors; ++i) {
    EXPECT_EQ(report.verdicts[i].detector, static_cast<HealthDetector>(i));
    EXPECT_STRNE(report.verdicts[i].metric, "");
  }
  EXPECT_TRUE(EdgesFor(HealthDetector::kEpochStall).empty());
  EXPECT_EQ(monitor_->ring().pushed(), 1u);
}

TEST_F(HealthTest, EpochStallEdges) {
  Inject();  // baseline
  cursor_.epoch_advance_stalls += 4;  // stalls, no advances, backlog
  cursor_.epoch_retired_unreclaimed = 10;
  Inject();
  EXPECT_EQ(LevelOf(HealthDetector::kEpochStall), HealthLevel::kWarn);
  cursor_.epoch_advance_stalls += 16;
  Inject();
  EXPECT_EQ(LevelOf(HealthDetector::kEpochStall), HealthLevel::kCritical);
  EXPECT_EQ(monitor_->Report().level, HealthLevel::kCritical);
  cursor_.epoch_advances += 1;  // reclamation moved: healthy again
  cursor_.epoch_advance_stalls += 20;
  Inject();
  EXPECT_EQ(LevelOf(HealthDetector::kEpochStall), HealthLevel::kOk);
  ExpectCanonicalEdges(HealthDetector::kEpochStall);
  // A steady window adds no further transition events.
  Inject();
  EXPECT_EQ(EdgesFor(HealthDetector::kEpochStall).size(), 3u);
}

TEST_F(HealthTest, RetiredGrowthEdges) {
  Inject();
  cursor_.epoch_retired_unreclaimed = 4096;
  Inject();
  EXPECT_EQ(LevelOf(HealthDetector::kRetiredGrowth), HealthLevel::kWarn);
  cursor_.epoch_retired_unreclaimed = 65536;
  Inject();
  EXPECT_EQ(LevelOf(HealthDetector::kRetiredGrowth), HealthLevel::kCritical);
  cursor_.epoch_retired_unreclaimed = 0;
  Inject();
  EXPECT_EQ(LevelOf(HealthDetector::kRetiredGrowth), HealthLevel::kOk);
  ExpectCanonicalEdges(HealthDetector::kRetiredGrowth);
}

TEST_F(HealthTest, WalCommitWaitEdgesAgainstEwmaBaseline) {
  // Windows are staged through a real cumulative histogram so the bucket
  // vectors match what Collect() would have seen.
  util::Log2Histogram cum;
  auto stage = [&](uint64_t value_ns, int count) {
    for (int i = 0; i < count; ++i) cum.Record(value_ns);
  };
  auto publish = [&] {
    cursor_.wal_commit_count = cum.Count();
    cursor_.wal_commit_sum_ns = cum.Sum();
    cursor_.wal_commit_max_ns = cum.Max();
    for (int b = 0; b < util::Log2Histogram::kNumBuckets; ++b) {
      cursor_.wal_commit_buckets[b] = cum.count(b);
    }
    Inject();
  };
  Inject();                      // baseline sample
  stage(1'000'000, 32);          // ~1ms window seeds the EWMA baseline
  publish();
  EXPECT_EQ(LevelOf(HealthDetector::kWalCommitWait), HealthLevel::kOk);
  stage(1'000'000, 32);          // steady window: still Ok
  publish();
  EXPECT_EQ(LevelOf(HealthDetector::kWalCommitWait), HealthLevel::kOk);
  stage(8'000'000, 32);          // ~8x the baseline: warn (>= 4x)
  publish();
  EXPECT_EQ(LevelOf(HealthDetector::kWalCommitWait), HealthLevel::kWarn);
  stage(100'000'000, 32);        // ~100x: critical (>= 16x)
  publish();
  EXPECT_EQ(LevelOf(HealthDetector::kWalCommitWait), HealthLevel::kCritical);
  stage(1'000'000, 32);          // recovery window
  publish();
  EXPECT_EQ(LevelOf(HealthDetector::kWalCommitWait), HealthLevel::kOk);
  ExpectCanonicalEdges(HealthDetector::kWalCommitWait);
  EXPECT_STREQ(monitor_->Report()
                   .verdicts[static_cast<size_t>(HealthDetector::kWalCommitWait)]
                   .metric,
               "wal.commit_wait_ns");
}

TEST_F(HealthTest, WriteGateWaitEdges) {
  Inject();
  auto window = [&](uint64_t mean_ns) {
    cursor_.gate_contended += 8;
    cursor_.gate_wait_count += 8;
    cursor_.gate_wait_sum_ns += 8 * mean_ns;
    Inject();
  };
  window(2'000'000);  // 2ms mean contended wait
  EXPECT_EQ(LevelOf(HealthDetector::kWriteGateWait), HealthLevel::kWarn);
  window(20'000'000);  // 20ms
  EXPECT_EQ(LevelOf(HealthDetector::kWriteGateWait), HealthLevel::kCritical);
  window(1'000);  // healthy again
  EXPECT_EQ(LevelOf(HealthDetector::kWriteGateWait), HealthLevel::kOk);
  ExpectCanonicalEdges(HealthDetector::kWriteGateWait);
}

TEST_F(HealthTest, ShardSizeSkewEdges) {
  Inject();
  cursor_.size_skew_x100 = 500;  // largest shard 5x the mean
  Inject();
  EXPECT_EQ(LevelOf(HealthDetector::kShardSkew), HealthLevel::kWarn);
  cursor_.size_skew_x100 = 2000;
  Inject();
  EXPECT_EQ(LevelOf(HealthDetector::kShardSkew), HealthLevel::kCritical);
  cursor_.size_skew_x100 = 110;
  Inject();
  EXPECT_EQ(LevelOf(HealthDetector::kShardSkew), HealthLevel::kOk);
  ExpectCanonicalEdges(HealthDetector::kShardSkew);
}

TEST_F(HealthTest, ShardTrafficSkewNamesItsOwnMetric) {
  Inject();
  // One hot shard among eight active: max/mean = 4000/508.75 ~ 7.9x.
  cursor_.shard_ops[0] += 4000;
  for (size_t slot = 1; slot < 8; ++slot) cursor_.shard_ops[slot] += 10;
  cursor_.total_ops += 4070;
  cursor_.size_skew_x100 = 100;  // sizes balanced; traffic is the problem
  Inject();
  const obs::HealthVerdict v =
      monitor_->Report().verdicts[static_cast<size_t>(HealthDetector::kShardSkew)];
  EXPECT_EQ(v.level, HealthLevel::kWarn);
  EXPECT_STREQ(v.metric, "op.shard_traffic_skew_x100");
}

TEST_F(HealthTest, SlowOpBurstEdges) {
  Inject();
  cursor_.slow_ops_captured += 20;
  Inject();
  EXPECT_EQ(LevelOf(HealthDetector::kSlowOpBurst), HealthLevel::kWarn);
  cursor_.slow_ops_captured += 70;
  Inject();
  EXPECT_EQ(LevelOf(HealthDetector::kSlowOpBurst), HealthLevel::kCritical);
  Inject();  // quiet window
  EXPECT_EQ(LevelOf(HealthDetector::kSlowOpBurst), HealthLevel::kOk);
  ExpectCanonicalEdges(HealthDetector::kSlowOpBurst);
}

TEST_F(HealthTest, TierCacheMissEdgesAgainstEwmaBaseline) {
  Inject();  // baseline sample
  auto window = [&](uint64_t hits, uint64_t misses) {
    cursor_.tier_cache_hits += hits;
    cursor_.tier_cache_misses += misses;
    Inject();
  };
  // First qualifying window (2% misses) seeds the EWMA baseline and is
  // Ok by definition; a steady window stays Ok.
  window(980, 20);
  EXPECT_EQ(LevelOf(HealthDetector::kTierCacheMiss), HealthLevel::kOk);
  window(980, 20);
  EXPECT_EQ(LevelOf(HealthDetector::kTierCacheMiss), HealthLevel::kOk);
  // 10% misses >= 4x the ~2% baseline: warn, but below the 16x critical
  // bar.
  window(900, 100);
  EXPECT_EQ(LevelOf(HealthDetector::kTierCacheMiss), HealthLevel::kWarn);
  // 50% misses >= 16x baseline (0.32): critical. The unhealthy windows
  // must not have taught the baseline, or this edge would never fire.
  window(500, 500);
  EXPECT_EQ(LevelOf(HealthDetector::kTierCacheMiss), HealthLevel::kCritical);
  window(995, 5);  // recovery window
  EXPECT_EQ(LevelOf(HealthDetector::kTierCacheMiss), HealthLevel::kOk);
  ExpectCanonicalEdges(HealthDetector::kTierCacheMiss);
  const obs::HealthVerdict v =
      monitor_->Report()
          .verdicts[static_cast<size_t>(HealthDetector::kTierCacheMiss)];
  EXPECT_STREQ(v.metric, "tier.cache_misses");
  EXPECT_STREQ(obs::DetectorName(HealthDetector::kTierCacheMiss),
               "tier_cache_miss");

  // Below the minimum lookup count the rule never judges: a tiny
  // all-miss window (cold start) is not a verdict.
  cursor_.tier_cache_misses += 10;
  Inject();
  EXPECT_EQ(LevelOf(HealthDetector::kTierCacheMiss), HealthLevel::kOk);
  EXPECT_EQ(EdgesFor(HealthDetector::kTierCacheMiss).size(), 3u);
}

// Golden output: one fixed synthetic sequence takes every detector
// through warn and critical and back to ok (plus the gated, below-minimum
// windows of each rule), and the report JSON after every sample and the
// journaled edges must match, byte for byte, what the rules produced when
// each was its own hand-written function rather than a row of kRules.
TEST_F(HealthTest, GoldenReportsAndEdgesForAFixedSequence) {
  util::Log2Histogram wal;
  auto commits = [&](uint64_t value_ns, int count) {
    for (int i = 0; i < count; ++i) wal.Record(value_ns);
    cursor_.wal_commit_count = wal.Count();
    cursor_.wal_commit_sum_ns = wal.Sum();
    cursor_.wal_commit_max_ns = wal.Max();
    for (int b = 0; b < util::Log2Histogram::kNumBuckets; ++b) {
      cursor_.wal_commit_buckets[b] = wal.count(b);
    }
  };
  auto gate = [&](uint64_t contended, uint64_t mean_ns) {
    cursor_.gate_contended += contended;
    cursor_.gate_wait_count += contended;
    cursor_.gate_wait_sum_ns += contended * mean_ns;
  };
  auto tier = [&](uint64_t hits, uint64_t misses) {
    cursor_.tier_cache_hits += hits;
    cursor_.tier_cache_misses += misses;
  };
  auto traffic = [&](uint64_t hot, size_t cold_shards, uint64_t cold) {
    cursor_.shard_ops[0] += hot;
    for (size_t s = 1; s <= cold_shards; ++s) cursor_.shard_ops[s] += cold;
    cursor_.total_ops += hot + cold_shards * cold;
  };
  std::vector<std::string> got;
  auto sample = [&] {
    Inject();
    got.push_back(monitor_->ReportJson());
  };

  sample();  // s0: the first sample judges nothing
  cursor_.epoch_advance_stalls += 4;  // s1: warn everywhere it can
  cursor_.epoch_retired_unreclaimed = 10;
  gate(8, 2'000'000);
  cursor_.size_skew_x100 = 500;
  cursor_.slow_ops_captured += 20;
  commits(1'000'000, 32);  // seeds the WAL baseline
  tier(980, 20);           // seeds the tier baseline
  traffic(100, 3, 100);
  sample();
  cursor_.epoch_advance_stalls += 16;  // s2: critical
  cursor_.epoch_retired_unreclaimed = 4096;
  gate(8, 20'000'000);
  cursor_.size_skew_x100 = 2000;
  cursor_.slow_ops_captured += 70;
  commits(1'000'000, 32);
  tier(980, 20);
  sample();
  cursor_.epoch_advances += 1;  // s3: stall clears, backlog critical
  cursor_.epoch_advance_stalls += 20;
  cursor_.epoch_retired_unreclaimed = 65536;
  gate(8, 1'000);
  cursor_.size_skew_x100 = 100;
  traffic(4000, 7, 10);  // traffic skew ~7.9x: warn
  commits(8'000'000, 32);
  tier(900, 100);
  sample();
  cursor_.epoch_retired_unreclaimed = 0;  // s4
  gate(2, 50'000'000);     // too few contended waits to judge
  traffic(100000, 20, 1);  // traffic skew ~21x: critical
  commits(100'000'000, 32);
  tier(500, 500);
  sample();
  cursor_.epoch_advance_stalls += 30;  // s5: no backlog, so no stall
  traffic(500, 7, 500);
  cursor_.size_skew_x100 = 110;
  commits(1'000'000, 32);
  tier(995, 5);
  sample();
  cursor_.slow_ops_captured += 16;  // s6: below every minimum window
  cursor_.epoch_retired_unreclaimed = 4095;
  commits(50'000'000, 8);
  tier(0, 10);
  traffic(200, 1, 0);
  sample();
  next_ts_ns_ -= 500'000'000;  // s7: a half-second window
  cursor_.slow_ops_captured += 64;
  traffic(1000, 7, 1000);
  commits(2'000'000, 16);
  tier(60, 4);
  sample();
  cursor_.size_skew_x100 = 400;  // s8: exactly at the warn bar
  sample();

  const std::vector<std::string> golden = {
      "{\"level\": \"ok\", \"samples\": 1, \"ts_ns\": 1000000000, \"window_ns\": 0, \"ops_per_sec\": 0.000000, \"wal_commits_per_sec\": 0.000000"
      ", \"verdicts\": [{\"detector\": \"epoch_stall\", \"level\": \"ok\", \"metric\": \"epoch.advance_stalls\", \"observed\": 0.000000, \"threshold\": 0.000000}"
      ", {\"detector\": \"retired_growth\", \"level\": \"ok\", \"metric\": \"epoch.retired_unreclaimed\", \"observed\": 0.000000, \"threshold\": 0.000000}"
      ", {\"detector\": \"wal_commit_wait\", \"level\": \"ok\", \"metric\": \"wal.commit_wait_ns\", \"observed\": 0.000000, \"threshold\": 0.000000}"
      ", {\"detector\": \"write_gate_wait\", \"level\": \"ok\", \"metric\": \"shard.write_gate_wait_ns\", \"observed\": 0.000000, \"threshold\": 0.000000}"
      ", {\"detector\": \"shard_skew\", \"level\": \"ok\", \"metric\": \"shard.size_skew_x100\", \"observed\": 0.000000, \"threshold\": 0.000000}"
      ", {\"detector\": \"slow_op_burst\", \"level\": \"ok\", \"metric\": \"slow_ops.captured\", \"observed\": 0.000000, \"threshold\": 0.000000}"
      ", {\"detector\": \"tier_cache_miss\", \"level\": \"ok\", \"metric\": \"tier.cache_misses\", \"observed\": 0.000000, \"threshold\": 0.000000}]}",
      "{\"level\": \"warn\", \"samples\": 2, \"ts_ns\": 2000000000, \"window_ns\": 1000000000, \"ops_per_sec\": 400.000000, \"wal_commits_per_sec\": 32.000000"
      ", \"verdicts\": [{\"detector\": \"epoch_stall\", \"level\": \"warn\", \"metric\": \"epoch.advance_stalls\", \"observed\": 4.000000, \"threshold\": 4.000000}"
      ", {\"detector\": \"retired_growth\", \"level\": \"ok\", \"metric\": \"epoch.retired_unreclaimed\", \"observed\": 10.000000, \"threshold\": 4096.000000}"
      ", {\"detector\": \"wal_commit_wait\", \"level\": \"ok\", \"metric\": \"wal.commit_wait_ns\", \"observed\": 1000000.000000, \"threshold\": 4000000.000000}"
      ", {\"detector\": \"write_gate_wait\", \"level\": \"warn\", \"metric\": \"shard.write_gate_wait_ns\", \"observed\": 2000000.000000, \"threshold\": 1000000.000000}"
      ", {\"detector\": \"shard_skew\", \"level\": \"warn\", \"metric\": \"shard.size_skew_x100\", \"observed\": 500.000000, \"threshold\": 400.000000}"
      ", {\"detector\": \"slow_op_burst\", \"level\": \"warn\", \"metric\": \"slow_ops.captured\", \"observed\": 20.000000, \"threshold\": 16.000000}"
      ", {\"detector\": \"tier_cache_miss\", \"level\": \"ok\", \"metric\": \"tier.cache_misses\", \"observed\": 0.020000, \"threshold\": 0.080000}]}",
      "{\"level\": \"critical\", \"samples\": 3, \"ts_ns\": 3000000000, \"window_ns\": 1000000000, \"ops_per_sec\": 0.000000, \"wal_commits_per_sec\": 32.000000"
      ", \"verdicts\": [{\"detector\": \"epoch_stall\", \"level\": \"critical\", \"metric\": \"epoch.advance_stalls\", \"observed\": 16.000000, \"threshold\": 4.000000}"
      ", {\"detector\": \"retired_growth\", \"level\": \"warn\", \"metric\": \"epoch.retired_unreclaimed\", \"observed\": 4096.000000, \"threshold\": 4096.000000}"
      ", {\"detector\": \"wal_commit_wait\", \"level\": \"ok\", \"metric\": \"wal.commit_wait_ns\", \"observed\": 1000000.000000, \"threshold\": 4000000.000000}"
      ", {\"detector\": \"write_gate_wait\", \"level\": \"critical\", \"metric\": \"shard.write_gate_wait_ns\", \"observed\": 20000000.000000, \"threshold\": 1000000.000000}"
      ", {\"detector\": \"shard_skew\", \"level\": \"critical\", \"metric\": \"shard.size_skew_x100\", \"observed\": 2000.000000, \"threshold\": 400.000000}"
      ", {\"detector\": \"slow_op_burst\", \"level\": \"critical\", \"metric\": \"slow_ops.captured\", \"observed\": 70.000000, \"threshold\": 16.000000}"
      ", {\"detector\": \"tier_cache_miss\", \"level\": \"ok\", \"metric\": \"tier.cache_misses\", \"observed\": 0.020000, \"threshold\": 0.080000}]}",
      "{\"level\": \"critical\", \"samples\": 4, \"ts_ns\": 4000000000, \"window_ns\": 1000000000, \"ops_per_sec\": 4070.000000, \"wal_commits_per_sec\": 32.000000"
      ", \"verdicts\": [{\"detector\": \"epoch_stall\", \"level\": \"ok\", \"metric\": \"epoch.advance_stalls\", \"observed\": 20.000000, \"threshold\": 4.000000}"
      ", {\"detector\": \"retired_growth\", \"level\": \"critical\", \"metric\": \"epoch.retired_unreclaimed\", \"observed\": 65536.000000, \"threshold\": 4096.000000}"
      ", {\"detector\": \"wal_commit_wait\", \"level\": \"warn\", \"metric\": \"wal.commit_wait_ns\", \"observed\": 8000000.000000, \"threshold\": 4000000.000000}"
      ", {\"detector\": \"write_gate_wait\", \"level\": \"ok\", \"metric\": \"shard.write_gate_wait_ns\", \"observed\": 1000.000000, \"threshold\": 1000000.000000}"
      ", {\"detector\": \"shard_skew\", \"level\": \"warn\", \"metric\": \"op.shard_traffic_skew_x100\", \"observed\": 786.000000, \"threshold\": 400.000000}"
      ", {\"detector\": \"slow_op_burst\", \"level\": \"ok\", \"metric\": \"slow_ops.captured\", \"observed\": 0.000000, \"threshold\": 16.000000}"
      ", {\"detector\": \"tier_cache_miss\", \"level\": \"warn\", \"metric\": \"tier.cache_misses\", \"observed\": 0.100000, \"threshold\": 0.080000}]}",
      "{\"level\": \"critical\", \"samples\": 5, \"ts_ns\": 5000000000, \"window_ns\": 1000000000, \"ops_per_sec\": 100020.000000, \"wal_commits_per_sec\": 32.000000"
      ", \"verdicts\": [{\"detector\": \"epoch_stall\", \"level\": \"ok\", \"metric\": \"epoch.advance_stalls\", \"observed\": 0.000000, \"threshold\": 4.000000}"
      ", {\"detector\": \"retired_growth\", \"level\": \"ok\", \"metric\": \"epoch.retired_unreclaimed\", \"observed\": 0.000000, \"threshold\": 4096.000000}"
      ", {\"detector\": \"wal_commit_wait\", \"level\": \"critical\", \"metric\": \"wal.commit_wait_ns\", \"observed\": 100000000.000000, \"threshold\": 4000000.000000}"
      ", {\"detector\": \"write_gate_wait\", \"level\": \"ok\", \"metric\": \"shard.write_gate_wait_ns\", \"observed\": 0.000000, \"threshold\": 1000000.000000}"
      ", {\"detector\": \"shard_skew\", \"level\": \"critical\", \"metric\": \"op.shard_traffic_skew_x100\", \"observed\": 2099.000000, \"threshold\": 400.000000}"
      ", {\"detector\": \"slow_op_burst\", \"level\": \"ok\", \"metric\": \"slow_ops.captured\", \"observed\": 0.000000, \"threshold\": 16.000000}"
      ", {\"detector\": \"tier_cache_miss\", \"level\": \"critical\", \"metric\": \"tier.cache_misses\", \"observed\": 0.500000, \"threshold\": 0.080000}]}",
      "{\"level\": \"ok\", \"samples\": 6, \"ts_ns\": 6000000000, \"window_ns\": 1000000000, \"ops_per_sec\": 4000.000000, \"wal_commits_per_sec\": 32.000000"
      ", \"verdicts\": [{\"detector\": \"epoch_stall\", \"level\": \"ok\", \"metric\": \"epoch.advance_stalls\", \"observed\": 30.000000, \"threshold\": 4.000000}"
      ", {\"detector\": \"retired_growth\", \"level\": \"ok\", \"metric\": \"epoch.retired_unreclaimed\", \"observed\": 0.000000, \"threshold\": 4096.000000}"
      ", {\"detector\": \"wal_commit_wait\", \"level\": \"ok\", \"metric\": \"wal.commit_wait_ns\", \"observed\": 1040384.000000, \"threshold\": 4040384.000000}"
      ", {\"detector\": \"write_gate_wait\", \"level\": \"ok\", \"metric\": \"shard.write_gate_wait_ns\", \"observed\": 0.000000, \"threshold\": 1000000.000000}"
      ", {\"detector\": \"shard_skew\", \"level\": \"ok\", \"metric\": \"shard.size_skew_x100\", \"observed\": 110.000000, \"threshold\": 400.000000}"
      ", {\"detector\": \"slow_op_burst\", \"level\": \"ok\", \"metric\": \"slow_ops.captured\", \"observed\": 0.000000, \"threshold\": 16.000000}"
      ", {\"detector\": \"tier_cache_miss\", \"level\": \"ok\", \"metric\": \"tier.cache_misses\", \"observed\": 0.005000, \"threshold\": 0.065000}]}",
      "{\"level\": \"warn\", \"samples\": 7, \"ts_ns\": 7000000000, \"window_ns\": 1000000000, \"ops_per_sec\": 200.000000, \"wal_commits_per_sec\": 8.000000"
      ", \"verdicts\": [{\"detector\": \"epoch_stall\", \"level\": \"ok\", \"metric\": \"epoch.advance_stalls\", \"observed\": 0.000000, \"threshold\": 4.000000}"
      ", {\"detector\": \"retired_growth\", \"level\": \"ok\", \"metric\": \"epoch.retired_unreclaimed\", \"observed\": 4095.000000, \"threshold\": 4096.000000}"
      ", {\"detector\": \"wal_commit_wait\", \"level\": \"ok\", \"metric\": \"wal.commit_wait_ns\", \"observed\": 0.000000, \"threshold\": 4040384.000000}"
      ", {\"detector\": \"write_gate_wait\", \"level\": \"ok\", \"metric\": \"shard.write_gate_wait_ns\", \"observed\": 0.000000, \"threshold\": 1000000.000000}"
      ", {\"detector\": \"shard_skew\", \"level\": \"ok\", \"metric\": \"shard.size_skew_x100\", \"observed\": 110.000000, \"threshold\": 400.000000}"
      ", {\"detector\": \"slow_op_burst\", \"level\": \"warn\", \"metric\": \"slow_ops.captured\", \"observed\": 16.000000, \"threshold\": 16.000000}"
      ", {\"detector\": \"tier_cache_miss\", \"level\": \"ok\", \"metric\": \"tier.cache_misses\", \"observed\": 0.000000, \"threshold\": 0.065000}]}",
      "{\"level\": \"critical\", \"samples\": 8, \"ts_ns\": 7500000000, \"window_ns\": 500000000, \"ops_per_sec\": 16000.000000, \"wal_commits_per_sec\": 32.000000"
      ", \"verdicts\": [{\"detector\": \"epoch_stall\", \"level\": \"ok\", \"metric\": \"epoch.advance_stalls\", \"observed\": 0.000000, \"threshold\": 4.000000}"
      ", {\"detector\": \"retired_growth\", \"level\": \"ok\", \"metric\": \"epoch.retired_unreclaimed\", \"observed\": 4095.000000, \"threshold\": 4096.000000}"
      ", {\"detector\": \"wal_commit_wait\", \"level\": \"ok\", \"metric\": \"wal.commit_wait_ns\", \"observed\": 2064384.000000, \"threshold\": 5094672.000000}"
      ", {\"detector\": \"write_gate_wait\", \"level\": \"ok\", \"metric\": \"shard.write_gate_wait_ns\", \"observed\": 0.000000, \"threshold\": 1000000.000000}"
      ", {\"detector\": \"shard_skew\", \"level\": \"ok\", \"metric\": \"shard.size_skew_x100\", \"observed\": 110.000000, \"threshold\": 400.000000}"
      ", {\"detector\": \"slow_op_burst\", \"level\": \"critical\", \"metric\": \"slow_ops.captured\", \"observed\": 64.000000, \"threshold\": 16.000000}"
      ", {\"detector\": \"tier_cache_miss\", \"level\": \"ok\", \"metric\": \"tier.cache_misses\", \"observed\": 0.062500, \"threshold\": 0.111250}]}",
      "{\"level\": \"warn\", \"samples\": 9, \"ts_ns\": 8500000000, \"window_ns\": 1000000000, \"ops_per_sec\": 0.000000, \"wal_commits_per_sec\": 0.000000"
      ", \"verdicts\": [{\"detector\": \"epoch_stall\", \"level\": \"ok\", \"metric\": \"epoch.advance_stalls\", \"observed\": 0.000000, \"threshold\": 4.000000}"
      ", {\"detector\": \"retired_growth\", \"level\": \"ok\", \"metric\": \"epoch.retired_unreclaimed\", \"observed\": 4095.000000, \"threshold\": 4096.000000}"
      ", {\"detector\": \"wal_commit_wait\", \"level\": \"ok\", \"metric\": \"wal.commit_wait_ns\", \"observed\": 0.000000, \"threshold\": 5094672.000000}"
      ", {\"detector\": \"write_gate_wait\", \"level\": \"ok\", \"metric\": \"shard.write_gate_wait_ns\", \"observed\": 0.000000, \"threshold\": 1000000.000000}"
      ", {\"detector\": \"shard_skew\", \"level\": \"warn\", \"metric\": \"shard.size_skew_x100\", \"observed\": 400.000000, \"threshold\": 400.000000}"
      ", {\"detector\": \"slow_op_burst\", \"level\": \"ok\", \"metric\": \"slow_ops.captured\", \"observed\": 0.000000, \"threshold\": 16.000000}"
      ", {\"detector\": \"tier_cache_miss\", \"level\": \"ok\", \"metric\": \"tier.cache_misses\", \"observed\": 0.000000, \"threshold\": 0.111250}]}",
  };
  ASSERT_EQ(got.size(), golden.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], golden[i]) << "sample " << i;
  }

  std::vector<std::pair<int64_t, int64_t>> edges;
  for (const JournalEvent& e : GlobalJournal().Snapshot()) {
    if (e.type == EventType::kHealthTransition) edges.emplace_back(e.a, e.b);
  }
  const std::vector<std::pair<int64_t, int64_t>> golden_edges = {
      {0, 1}, {3, 1}, {4, 1}, {5, 1}, {0, 258}, {1, 1}, {3, 258}, {4, 258},
      {5, 258}, {0, 512}, {1, 258}, {2, 1}, {3, 512}, {4, 513}, {5, 512},
      {6, 1}, {1, 512}, {2, 258}, {4, 258}, {6, 258}, {2, 512}, {4, 512},
      {6, 512}, {5, 1}, {5, 258}, {4, 1}, {5, 512}};
  EXPECT_EQ(edges, golden_edges);
}

TEST_F(HealthTest, ReportJsonCarriesLevelsAndVerdicts) {
  Inject();
  cursor_.size_skew_x100 = 2000;
  Inject();
  const std::string json = monitor_->ReportJson();
  EXPECT_NE(json.find("\"level\": \"critical\""), std::string::npos);
  EXPECT_NE(json.find("\"detector\": \"shard_skew\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"shard.size_skew_x100\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ops_per_sec\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Acceptance scenarios against the real registry.

#if !defined(ALEX_DISABLE_OBS)

// A pinned reader blocks epoch advancement while a backlog exists: the
// watchdog must name epoch.advance_stalls.
TEST_F(HealthTest, DetectsForcedEpochReclamationStall) {
  obs::SetEnabled(true);
  util::EpochManager manager;
  {
    util::EpochManager::Guard guard(manager);
    manager.Retire(new int(7));
    manager.TryReclaim();    // advances once; the pin now lags the epoch
    monitor_->SampleNow();   // baseline after the advance
    for (int i = 0; i < 20; ++i) manager.TryReclaim();  // all stall
    monitor_->SampleNow();
  }
  const obs::HealthVerdict v =
      monitor_->Report().verdicts[static_cast<size_t>(HealthDetector::kEpochStall)];
  EXPECT_EQ(v.level, HealthLevel::kCritical);  // 20 stalls >= critical 16
  EXPECT_STREQ(v.metric, "epoch.advance_stalls");
  EXPECT_GE(v.observed, 16.0);
  // The edge was journaled.
  EXPECT_FALSE(EdgesFor(HealthDetector::kEpochStall).empty());
  // Unpinned now: reclamation drains the backlog.
  manager.TryReclaim();
  manager.TryReclaim();
  EXPECT_EQ(manager.retired_count(), 0u);
}

// A 50x commit-wait regression against a settled baseline must fire the
// WAL detector off the real registry histogram.
TEST_F(HealthTest, DetectsForcedWalCommitWaitRegression) {
  obs::Histogram* wait =
      obs::MetricsRegistry::Global().GetHistogram("wal.commit_wait_ns");
  monitor_->SampleNow();  // baseline sample
  for (int i = 0; i < 32; ++i) wait->Record(1'000'000);  // ~1ms windows
  monitor_->SampleNow();  // seeds the EWMA baseline
  for (int i = 0; i < 32; ++i) wait->Record(1'000'000);
  monitor_->SampleNow();  // settles it
  EXPECT_EQ(LevelOf(HealthDetector::kWalCommitWait), HealthLevel::kOk);
  for (int i = 0; i < 32; ++i) wait->Record(50'000'000);  // 50x regression
  monitor_->SampleNow();
  const obs::HealthVerdict v =
      monitor_->Report()
          .verdicts[static_cast<size_t>(HealthDetector::kWalCommitWait)];
  EXPECT_EQ(v.level, HealthLevel::kCritical);
  EXPECT_STREQ(v.metric, "wal.commit_wait_ns");
  EXPECT_GT(v.observed, v.threshold);
  EXPECT_FALSE(EdgesFor(HealthDetector::kWalCommitWait).empty());
}

// The sampler thread ticks while disabled but must not sample; enabling
// the flag makes it sample on its own.
TEST_F(HealthTest, SamplerThreadSkipsTicksWhileDisabled) {
  ASSERT_TRUE(monitor_->Start(/*interval_ms=*/2));
  EXPECT_FALSE(monitor_->Start(2));  // already running
  EXPECT_TRUE(monitor_->running());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(monitor_->samples(), 0u);  // ticked, never sampled
  obs::SetEnabled(true);
  for (int spins = 0; spins < 2000 && monitor_->samples() < 2; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(monitor_->samples(), 2u);
  monitor_->Stop();
  EXPECT_FALSE(monitor_->running());
}

// TSan target: the sampler evaluates real registry state while writers
// drive splits and WAL commits and readers pull reports, ring snapshots
// and structure walks.
TEST_F(HealthTest, SamplerVsConcurrentMutators) {
  obs::SetEnabled(true);
  obs::MetricsRegistry::Global().slow_ops().set_threshold_ns(0);
  shard::ShardedOptions options;
  options.num_shards = 2;
  options.min_rebalance_keys = 256;
  options.max_shard_keys = 2048;
  Sharded index(options);
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 2048; ++i) {
    keys.push_back(i * 8);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  ASSERT_TRUE(monitor_->Start(/*interval_ms=*/1));

  constexpr int kWriters = 2;
  constexpr int64_t kInserts = 6000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&index, w] {
      for (int64_t i = 0; i < kInserts; ++i) {
        index.Insert((kInserts * w + i) * 8 + 1 + w, i);
      }
    });
  }
  std::thread reader([&] {
    int64_t v = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      index.Get(1024 * 8, &v);
      (void)monitor_->Report();
      (void)monitor_->ring().Snapshot();
      (void)index.Inspect();
      (void)GlobalJournal().Snapshot();
    }
  });
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  monitor_->Stop();
  EXPECT_GE(monitor_->samples(), 1u);
  EXPECT_TRUE(index.CheckInvariants());
}

// ---------------------------------------------------------------------------
// Structural introspection and the Chrome-trace exporter.

TEST_F(HealthTest, InspectReportsConsistentStructure) {
  shard::ShardedOptions options;
  options.num_shards = 4;
  Sharded index(options);
  std::vector<int64_t> keys, payloads;
  constexpr int64_t kKeys = 8192;
  for (int64_t i = 0; i < kKeys; ++i) {
    keys.push_back(i * 2);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  const obs::StructureReport report = index.Inspect();
  EXPECT_EQ(report.shards.size(), 4u);
  EXPECT_EQ(report.total.keys, static_cast<uint64_t>(kKeys));
  EXPECT_GT(report.total.leaf_count, 0u);
  EXPECT_GT(report.total.fill_factor(), 0.0);
  EXPECT_LE(report.total.fill_factor(), 1.0);
  EXPECT_LE(report.total.min_depth, report.total.max_depth);
  // Every live leaf is reachable both top-down and along the chain.
  EXPECT_EQ(report.total.chain_length, report.total.leaf_count);
  // Every leaf is either a model leaf (in the error histogram) or counted
  // unbounded (model-less).
  EXPECT_EQ(report.total.model_error.Count() + report.total.unbounded_leaves,
            report.total.leaf_count);
  uint64_t shard_keys = 0;
  for (const obs::ShardStructure& s : report.shards) {
    shard_keys += s.tree.keys;
  }
  EXPECT_EQ(shard_keys, static_cast<uint64_t>(kKeys));
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"fill_factor\""), std::string::npos);
  EXPECT_NE(json.find("\"model_error\""), std::string::npos);
  EXPECT_NE(json.find("\"topology_epoch\""), std::string::npos);
}

TEST_F(HealthTest, ChromeTraceExportsSlowOpsAndJournalEvents) {
  obs::SetEnabled(true);
  // Floor the threshold so real ops land in the slow-op ring.
  obs::MetricsRegistry::Global().slow_ops().set_threshold_ns(0);
  shard::ShardedOptions options;
  options.num_shards = 2;
  Sharded index(options);
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 1024; ++i) {
    keys.push_back(i);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  int64_t v = 0;
  for (int64_t i = 0; i < 64; ++i) index.Get(i, &v);

  const std::string path = TempPath("health_trace.json");
  std::remove(path.c_str());
  ASSERT_TRUE(obs::WriteChromeTrace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string doc((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(doc.rfind("{\"traceEvents\": [", 0), 0u);
  EXPECT_NE(doc.find("\"cat\": \"slow_op\""), std::string::npos);
  EXPECT_NE(doc.find("\"cat\": \"journal\""), std::string::npos);  // bulk load
  EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\": \"i\""), std::string::npos);
  std::remove(path.c_str());
}

#endif  // !ALEX_DISABLE_OBS

}  // namespace
}  // namespace alex
