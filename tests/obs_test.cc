// Unit tests for the observability layer (src/obs/metrics.h): metric
// primitives (striped counters, gauges, atomic histograms), the record
// ring (src/obs/seq_ring.h) and the slow-op trace on it, the registry
// with its JSON / Prometheus exports, and the scoped timers.
//
// The registry and the enable flag are process-global, so every test
// starts from a known state (flag off, all metrics zero, default slow-op
// threshold) via the fixture. The striped-counter concurrency test is the
// suite's TSan target: writers hammer one counter from more threads than
// stripes while readers fold snapshots; the SeqRing concurrency test is
// another.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/seq_ring.h"

namespace alex::obs {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(false);
    MetricsRegistry::Global().ResetAll();
    MetricsRegistry::Global().slow_ops().set_threshold_ns(
        SlowOpRing::kDefaultThresholdNs);
  }
  void TearDown() override {
    SetEnabled(false);
    MetricsRegistry::Global().slow_ops().set_threshold_ns(
        SlowOpRing::kDefaultThresholdNs);
  }
};

TEST_F(ObsTest, CounterIsExactAndResets) {
  Counter c;
  EXPECT_EQ(c.Load(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.Load(), 42u);
  c.Reset();
  EXPECT_EQ(c.Load(), 0u);
}

// TSan target: more writer threads than stripes (so stripe cells are
// shared), plus a reader folding Load() and registry snapshots the whole
// time. Conservation: the final fold must equal exactly the number of
// increments issued — stripes may collide but never lose an increment.
TEST_F(ObsTest, StripedCounterIsExactUnderContention) {
  constexpr size_t kWriters = 8;
  constexpr uint64_t kPerWriter = 50000;
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* counter = reg.GetCounter("test.striped");
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    uint64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t now = counter->Load();
      EXPECT_GE(now, last);  // monotone while only writers run
      last = now;
      (void)reg.SnapshotJson();
      (void)reg.NonZeroMetricCount();
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([counter] {
      for (uint64_t i = 0; i < kPerWriter; ++i) counter->Increment();
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(counter->Load(), kWriters * kPerWriter);
}

// Stripes go back to the pool when their thread exits, so threads that
// come and go one after another — many more of them than stripes — each
// own a private stripe, and the load + store updates stay exact across
// owners.
TEST_F(ObsTest, ShortLivedThreadsEachGetAPrivateStripe) {
  constexpr int kThreads = 40;
  constexpr uint64_t kPerThread = 1000;
  Counter* counter = MetricsRegistry::Global().GetCounter("test.churn");
  int private_stripes = 0;
  for (int t = 0; t < kThreads; ++t) {
    size_t stripe = kMetricStripes;
    std::thread worker([&] {
      stripe = ThreadMetricStripe();
      for (uint64_t i = 0; i < kPerThread; ++i) counter->Increment();
    });
    worker.join();
    if (stripe < kMetricStripes - 1) ++private_stripes;
  }
  EXPECT_EQ(private_stripes, kThreads);
  EXPECT_EQ(counter->Load(), kThreads * kPerThread);
}

TEST_F(ObsTest, GaugeSetAddLoad) {
  Gauge g;
  g.Set(7);
  EXPECT_EQ(g.Load(), 7);
  g.Add(-10);
  EXPECT_EQ(g.Load(), -3);
  g.Reset();
  EXPECT_EQ(g.Load(), 0);
}

TEST_F(ObsTest, HistogramRecordsAndSnapshots) {
  Histogram h;
  h.Record(100);
  h.Record(100);
  h.Record(5000);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.Sum(), 5200u);
  EXPECT_EQ(h.Max(), 5000u);
  const util::Log2Histogram snap = h.Snapshot();
  EXPECT_EQ(snap.Count(), 3u);
  EXPECT_EQ(snap.Sum(), 5200u);
  EXPECT_EQ(snap.Max(), 5000u);
  // Median lands in the bucket of 100, p99 in the bucket of 5000.
  EXPECT_GE(snap.Quantile(0.5), 64u);
  EXPECT_LE(snap.Quantile(0.5), 127u);
  EXPECT_GE(snap.Quantile(0.99), 4096u);
  EXPECT_LE(snap.Quantile(0.99), 5000u);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Max(), 0u);
}

TEST_F(ObsTest, SlowOpRingCapturesOrderedAndWraps) {
  SlowOpRing ring;
  EXPECT_EQ(ring.threshold_ns(), SlowOpRing::kDefaultThresholdNs);
  ring.set_threshold_ns(123);
  EXPECT_EQ(ring.threshold_ns(), 123u);
  OpContext ctx;
  ctx.descent_retries = 4;
  ctx.leaf_splits = 2;
  ctx.wal_wait_ns = 777;
  for (uint64_t i = 0; i < 5; ++i) {
    ring.Push(OpType::kInsert, static_cast<uint32_t>(i), 1000 + i, ctx);
  }
  std::vector<SlowOpRecord> records = ring.Snapshot();
  ASSERT_EQ(records.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(records[i].ticket, i);
    EXPECT_EQ(records[i].op, OpType::kInsert);
    EXPECT_EQ(records[i].shard, static_cast<uint32_t>(i));
    EXPECT_EQ(records[i].duration_ns, 1000 + i);
    EXPECT_EQ(records[i].descent_retries, 4u);
    EXPECT_EQ(records[i].leaf_splits, 2u);
    EXPECT_EQ(records[i].wal_wait_ns, 777u);
  }
  // Overflow: the ring keeps the most recent kCapacity records.
  for (uint64_t i = 5; i < SlowOpRing::kCapacity + 10; ++i) {
    ring.Push(OpType::kGet, kShardAll, i, OpContext{});
  }
  records = ring.Snapshot();
  ASSERT_EQ(records.size(), SlowOpRing::kCapacity);
  EXPECT_EQ(records.front().ticket, 10u);  // 266 pushed, oldest 10 survive..
  EXPECT_EQ(records.back().ticket, SlowOpRing::kCapacity + 9);
  EXPECT_EQ(ring.captured(), SlowOpRing::kCapacity + 10);
  ring.Reset();
  EXPECT_TRUE(ring.Snapshot().empty());
  EXPECT_EQ(ring.captured(), 0u);
}

// TSan target: four writers push self-checking records while a reader
// snapshots in a loop. Fewer pushes than slots, so no slot is ever
// claimed twice and every snapshot must hold only whole records, in
// strictly increasing ticket order.
TEST_F(ObsTest, SeqRingSnapshotsOnlyWholeRecordsUnderConcurrentPush) {
  struct Rec {
    uint64_t writer;
    uint64_t seq;
    uint64_t check;  // writer * 2^32 + seq, mixed
    uint64_t inverse;  // ~check
  };
  constexpr size_t kWriters = 4;
  constexpr uint64_t kPerWriter = 200;
  using Ring = SeqRing<Rec, 1024>;
  static_assert(kWriters * kPerWriter < Ring::kCapacity,
                "no slot may be written twice");
  auto mix = [](uint64_t writer, uint64_t seq) {
    return ((writer << 32) | seq) * 0x9E3779B97F4A7C15ull;
  };
  auto whole = [&](const Rec& r) {
    return r.check == mix(r.writer, r.seq) && r.inverse == ~r.check &&
           r.writer < kWriters && r.seq < kPerWriter;
  };
  Ring ring;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> bad{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::vector<Ring::Entry> snap = ring.Snapshot();
      for (size_t i = 0; i < snap.size(); ++i) {
        if (!whole(snap[i].record)) bad.fetch_add(1);
        if (i > 0 && snap[i].ticket <= snap[i - 1].ticket) bad.fetch_add(1);
      }
    }
  });
  std::vector<std::thread> writers;
  for (uint64_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring, &mix, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        const uint64_t check = mix(w, i);
        ring.Push(Rec{w, i, check, ~check});
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(ring.pushed(), kWriters * kPerWriter);
  const std::vector<Ring::Entry> final_snap = ring.Snapshot();
  ASSERT_EQ(final_snap.size(), kWriters * kPerWriter);
  std::vector<uint64_t> next_seq(kWriters, 0);
  for (size_t i = 0; i < final_snap.size(); ++i) {
    EXPECT_EQ(final_snap[i].ticket, i);
    const Rec& r = final_snap[i].record;
    ASSERT_TRUE(whole(r));
    EXPECT_EQ(r.seq, next_seq[r.writer]++);  // one writer's pushes in order
  }
}

TEST_F(ObsTest, RegistryPointersAreStableAcrossResetAll) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c1 = reg.GetCounter("test.stable");
  Counter* c2 = reg.GetCounter("test.stable");
  EXPECT_EQ(c1, c2);
  c1->Add(5);
  reg.ResetAll();
  EXPECT_EQ(c1->Load(), 0u);  // same object, zeroed
  c1->Add(3);
  EXPECT_EQ(reg.GetCounter("test.stable")->Load(), 3u);
}

TEST_F(ObsTest, NonZeroMetricCountCountsEveryKind) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  EXPECT_EQ(reg.NonZeroMetricCount(), 0u);
  reg.GetCounter("test.zero_counter");  // registered but zero: not counted
  reg.GetCounter("test.nz_counter")->Increment();
  reg.GetGauge("test.nz_gauge")->Set(-1);
  reg.GetHistogram("test.nz_hist")->Record(9);
  EXPECT_EQ(reg.NonZeroMetricCount(), 3u);
}

TEST_F(ObsTest, SnapshotJsonContainsAllSections) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test.json_counter")->Add(12);
  reg.GetGauge("test.json_gauge")->Set(-4);
  reg.GetHistogram("test.json_hist")->Record(1000);
  OpContext ctx;
  ctx.descent_retries = 1;
  reg.slow_ops().Push(OpType::kRangeScan, kShardAll, 5555, ctx);
  const std::string json = reg.SnapshotJson();
  EXPECT_NE(json.find("\"test.json_counter\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_gauge\": -4"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_hist\": {\"count\": 1"),
            std::string::npos);
  EXPECT_NE(json.find("\"op\": \"range_scan\""), std::string::npos);
  EXPECT_NE(json.find("\"shard\": \"all\""), std::string::npos);
  EXPECT_NE(json.find("\"duration_ns\": 5555"), std::string::npos);
}

TEST_F(ObsTest, SnapshotPrometheusSanitizesAndTypes) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test.prom_counter")->Add(3);
  reg.GetGauge("test.prom_gauge")->Set(8);
  reg.GetHistogram("test.prom_hist")->Record(100);
  const std::string text = reg.SnapshotPrometheus();
  EXPECT_NE(text.find("# TYPE alex_test_prom_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("alex_test_prom_counter 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE alex_test_prom_gauge gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE alex_test_prom_hist summary"),
            std::string::npos);
  EXPECT_NE(text.find("alex_test_prom_hist{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("alex_test_prom_hist_sum 100"), std::string::npos);
  EXPECT_NE(text.find("alex_test_prom_hist_count 1"), std::string::npos);
  // Dots in metric names must sanitize to a legal Prometheus name in
  // TYPE and sample lines; the raw name may appear only inside # HELP
  // prose (which is freeform text).
  for (size_t at = text.find("test.prom"); at != std::string::npos;
       at = text.find("test.prom", at + 1)) {
    const size_t nl = text.rfind('\n', at);
    const size_t line_start = nl == std::string::npos ? 0 : nl + 1;
    EXPECT_EQ(text.compare(line_start, 7, "# HELP "), 0)
        << "raw name outside HELP: ..."
        << text.substr(line_start, at - line_start + 9);
  }
}

// Text-exposition 0.0.4 conformance: every line is a comment or a sample,
// every sample's family was announced by # HELP and # TYPE first, every
// metric name is legal, and summaries carry quantile labels plus
// _sum/_count.
TEST_F(ObsTest, PrometheusExpositionConforms) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("epoch.retired")->Add(3);
  reg.GetGauge("shard.size_skew_x100")->Set(120);
  reg.GetHistogram("wal.commit_wait_ns")->Record(5000);
  reg.GetCounter("test.conform_counter")->Increment();
  const std::string text = reg.SnapshotPrometheus();

  const auto is_name_start = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  const auto is_name_char = [&](char c) {
    return is_name_start(c) || (c >= '0' && c <= '9');
  };

  std::vector<std::string> helped, typed;
  size_t samples = 0;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0) {
      const size_t sp = line.find(' ', 7);
      ASSERT_NE(sp, std::string::npos) << line;
      helped.push_back(line.substr(7, sp - 7));
      EXPECT_GT(line.size(), sp + 1) << "HELP without text: " << line;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      const size_t sp = line.find(' ', 7);
      ASSERT_NE(sp, std::string::npos) << line;
      const std::string family = line.substr(7, sp - 7);
      const std::string kind = line.substr(sp + 1);
      EXPECT_TRUE(kind == "counter" || kind == "gauge" || kind == "summary")
          << line;
      // HELP must have announced the family already (same family, HELP
      // before TYPE per the exposition format).
      EXPECT_FALSE(helped.empty());
      EXPECT_EQ(helped.back(), family) << line;
      typed.push_back(family);
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment: " << line;
    // Sample line: name[{labels}] value
    size_t name_end = 0;
    ASSERT_TRUE(is_name_start(line[0])) << line;
    while (name_end < line.size() && is_name_char(line[name_end])) {
      ++name_end;
    }
    ASSERT_LT(name_end, line.size()) << line;
    ASSERT_TRUE(line[name_end] == ' ' || line[name_end] == '{') << line;
    std::string name = line.substr(0, name_end);
    // _sum/_count samples belong to their summary family.
    for (const char* suffix : {"_sum", "_count"}) {
      const size_t len = std::strlen(suffix);
      if (name.size() > len &&
          name.compare(name.size() - len, len, suffix) == 0 &&
          std::find(typed.begin(), typed.end(), name) == typed.end()) {
        name = name.substr(0, name.size() - len);
      }
    }
    EXPECT_NE(std::find(typed.begin(), typed.end(), name), typed.end())
        << "sample before # TYPE: " << line;
    // The value parses as a number.
    const size_t value_at = line.rfind(' ');
    char* parse_end = nullptr;
    std::strtod(line.c_str() + value_at + 1, &parse_end);
    EXPECT_EQ(*parse_end, '\0') << line;
    ++samples;
  }
  EXPECT_GE(samples, 4u);
  // The summary family carries quantile labels.
  EXPECT_NE(text.find("alex_wal_commit_wait_ns{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("alex_wal_commit_wait_ns{quantile=\"0.99\"}"),
            std::string::npos);
}

// The # HELP catalogue: known metrics get real prose, per-op latency
// families match by prefix, unknown names fall back but never break the
// format.
TEST_F(ObsTest, PrometheusHelpCatalogue) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("epoch.retired")->Increment();
  reg.GetHistogram("op.insert.latency_ns.all")->Record(100);
  reg.GetCounter("test.unknown_metric")->Increment();
  const std::string text = reg.SnapshotPrometheus();
  EXPECT_NE(text.find("# HELP alex_epoch_retired "), std::string::npos);
  // Catalogue prose, not the fallback.
  EXPECT_EQ(MetricsRegistry::MetricHelp("epoch.retired").rfind("Metric ", 0),
            std::string::npos);
  EXPECT_EQ(MetricsRegistry::MetricHelp("op.insert.latency_ns.all")
                .rfind("Metric ", 0),
            std::string::npos);
  EXPECT_EQ(MetricsRegistry::MetricHelp("test.unknown_metric"),
            "Metric test.unknown_metric");
}

TEST_F(ObsTest, SlowOpThresholdStartsAtDefaultAndIsSettable) {
  SlowOpRing ring;
  EXPECT_EQ(ring.threshold_ns(), SlowOpRing::kDefaultThresholdNs);
  ring.set_threshold_ns(5555);
  EXPECT_EQ(ring.threshold_ns(), 5555u);
}

TEST_F(ObsTest, SlowOpRecordsCarryCompletionTimestamps) {
  SlowOpRing ring;
  ring.Push(OpType::kGet, 0, 1000, OpContext{});
  ring.Push(OpType::kGet, 0, 1000, OpContext{});
  const std::vector<SlowOpRecord> records = ring.Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_GT(records[0].ts_ns, 0u);
  EXPECT_GE(records[1].ts_ns, records[0].ts_ns);
}

TEST_F(ObsTest, ScopedOpTimerRecordsPerShardLatency) {
  SetEnabled(true);
  MetricsRegistry& reg = MetricsRegistry::Global();
  { ScopedOpTimer timer(OpType::kGet, 3); }
  EXPECT_EQ(reg.OpLatencySnapshot(OpType::kGet).Count(), 1u);
  EXPECT_EQ(reg.GetHistogram("op.get.latency_ns.shard_3")->Count(), 1u);
  // Shard indexes past the tracked cap fold into the "all" slot.
  { ScopedOpTimer timer(OpType::kGet, MetricsRegistry::kMaxTrackedShards); }
  { ScopedOpTimer timer(OpType::kGet, kShardAll); }
  EXPECT_EQ(reg.GetHistogram("op.get.latency_ns.shard_all")->Count(), 2u);
  EXPECT_EQ(reg.OpLatencySnapshot(OpType::kGet).Count(), 3u);
}

TEST_F(ObsTest, ScopedOpTimerCapturesSlowOpWithContext) {
  SetEnabled(true);
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.slow_ops().set_threshold_ns(0);  // every op is "slow"
  {
    ScopedOpTimer timer(OpType::kInsert);
    timer.set_shard(5);
    // What the inner layers do while the op runs:
    ALEX_OBS_CTX_ADD(descent_retries, 2);
    ALEX_OBS_CTX_ADD(leaf_splits, 1);
    ALEX_OBS_CTX_ADD(wal_wait_ns, 1234);
  }
  const std::vector<SlowOpRecord> records = reg.slow_ops().Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].op, OpType::kInsert);
  EXPECT_EQ(records[0].shard, 5u);
  EXPECT_EQ(records[0].descent_retries, 2u);
  EXPECT_EQ(records[0].leaf_splits, 1u);
  EXPECT_EQ(records[0].wal_wait_ns, 1234u);
  // A second op must start from a clean context: the timer resets it.
  { ScopedOpTimer timer(OpType::kGet, 0); }
  const std::vector<SlowOpRecord> again = reg.slow_ops().Snapshot();
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(again[1].op, OpType::kGet);
  EXPECT_EQ(again[1].descent_retries, 0u);
  EXPECT_EQ(again[1].wal_wait_ns, 0u);
}

TEST_F(ObsTest, FastOpsStayOutOfTheSlowOpRing) {
  SetEnabled(true);
  MetricsRegistry& reg = MetricsRegistry::Global();
  // Default threshold is 10ms; an empty scope is nanoseconds.
  { ScopedOpTimer timer(OpType::kGet, 0); }
  EXPECT_EQ(reg.slow_ops().captured(), 0u);
  EXPECT_EQ(reg.OpLatencySnapshot(OpType::kGet).Count(), 1u);
}

// With the runtime flag off every instrumentation site must be inert:
// nothing registered, nothing recorded, nothing traced.
TEST_F(ObsTest, DisabledFlagMakesEverySiteInert) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.slow_ops().set_threshold_ns(0);
  ALEX_OBS_COUNTER_INC("test.disabled_counter");
  ALEX_OBS_GAUGE_SET("test.disabled_gauge", 9);
  ALEX_OBS_HIST_RECORD("test.disabled_hist", 9);
  ALEX_OBS_CTX_ADD(descent_retries, 9);
  { ScopedOpTimer timer(OpType::kInsert, 1); }
  EXPECT_EQ(reg.NonZeroMetricCount(), 0u);
  EXPECT_EQ(reg.slow_ops().captured(), 0u);
  EXPECT_EQ(reg.OpLatencySnapshot(OpType::kInsert).Count(), 0u);
}

TEST_F(ObsTest, ScopedLatencyTimerRecordsRegardlessOfFlag) {
  // Benches opt into this timer explicitly; it does not consult the flag.
  MetricsRegistry& reg = MetricsRegistry::Global();
  Histogram* h = reg.GetHistogram("test.latency_timer");
  { ScopedLatencyTimer timer(h); }
  EXPECT_EQ(h->Count(), 1u);
  { ScopedLatencyTimer timer(nullptr); }  // nullptr disables cleanly
  EXPECT_EQ(h->Count(), 1u);
}

TEST_F(ObsTest, ClockConvertsTicks) {
  EXPECT_EQ(TicksToNs(0), 0u);
  EXPECT_GT(NsPerTick(), 0.0);
  const uint64_t t0 = NowTicks();
  const uint64_t t1 = NowTicks();
  EXPECT_GE(t1, t0);
}

}  // namespace
}  // namespace alex::obs
