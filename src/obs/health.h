// Health watchdog: a sampler thread, a metrics time-series ring, and a
// table of rules that turn raw telemetry into verdicts.
//
// The metrics layer (obs/metrics.h) can tell an operator *what* the
// numbers are; it cannot notice that epoch reclamation has silently stalled, that WAL
// group commit has regressed 10x, or that one shard has taken all the
// traffic. This header closes that loop:
//
//   - SampledMetrics is one fixed-shape snapshot of the rules' inputs
//     (epoch counters, WAL commit-wait histogram buckets, write-gate
//     waits, per-shard op counts, slow-op ring capture count, block-cache
//     hits and misses). The monitor keeps the newest 64 in a SeqRing
//     (obs/seq_ring.h).
//   - kRules holds one row per detector: the metric it names, how its
//     observed value is read from a window, and its warn/critical values.
//     Rules evaluate over *deltas* between consecutive samples (the
//     incremental-evaluation idiom from modular Datalog materialisation:
//     never re-derive from absolute counters what the previous sample
//     already paid for). One loop judges every row into a HealthVerdict
//     (level, offending metric, observed vs threshold); the merged
//     HealthReport's level is the max across detectors.
//   - Every per-detector level change appends one kHealthTransition event
//     to the journal (obs/journal.h), so "when did this start" has an
//     answer with a timestamp and the neighbouring structural events.
//
// Two rules (WAL commit-wait p99, block-cache miss ratio) are judged
// against an EWMA baseline instead of absolute values. The baseline
// only absorbs windows judged healthy — a sustained regression keeps
// firing instead of teaching the baseline that slow is normal.
//
// Threading: one mutex serializes EvaluateSample (sampler thread, manual
// SampleNow, and synthetic-injection tests); the ring and report are
// published lock-free for readers. The sampler thread ticks on a
// condition variable and *skips* sampling while obs::Enabled() is false —
// that is what lets bench/obs_overhead.cc run the thread through both
// arms of its A/B harness and charge the watchdog's cost only to the
// enabled arm.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/seq_ring.h"
#include "util/histogram.h"

namespace alex::obs {

// ---------------------------------------------------------------------------
// The time-series sample.

/// One snapshot of the registry state the rules read.
struct SampledMetrics {
  uint64_t ts_ns = 0;

  // Epoch-based reclamation.
  uint64_t epoch_advances = 0;
  uint64_t epoch_advance_stalls = 0;
  int64_t epoch_retired_unreclaimed = 0;  // gauge

  // WAL group commit: cumulative count/sum/max plus the full cumulative
  // bucket vector, so a *windowed* latency distribution falls out of
  // bucket deltas between two samples.
  uint64_t wal_commit_count = 0;
  uint64_t wal_commit_sum_ns = 0;
  uint64_t wal_commit_max_ns = 0;
  uint64_t wal_commit_buckets[util::Log2Histogram::kNumBuckets] = {};

  // Per-shard write gate.
  uint64_t gate_contended = 0;
  uint64_t gate_wait_count = 0;
  uint64_t gate_wait_sum_ns = 0;

  // Slow-op ring + shard shape.
  uint64_t slow_ops_captured = 0;
  int64_t size_skew_x100 = 0;  // gauge, largest/mean * 100

  // Per-shard-slot cumulative op counts (slot kMaxTrackedShards is the
  // cross-shard/overflow slot; excluded from traffic skew).
  uint64_t shard_ops[MetricsRegistry::kMaxTrackedShards + 1] = {};
  uint64_t total_ops = 0;

  // Cold-tier block cache (tier/block_cache.h).
  uint64_t tier_cache_hits = 0;
  uint64_t tier_cache_misses = 0;
};

// ---------------------------------------------------------------------------
// Verdicts.

enum class HealthLevel : uint8_t { kOk = 0, kWarn = 1, kCritical = 2 };

inline const char* LevelName(HealthLevel level) {
  switch (level) {
    case HealthLevel::kOk: return "ok";
    case HealthLevel::kWarn: return "warn";
    case HealthLevel::kCritical: return "critical";
  }
  return "?";
}

enum class HealthDetector : uint8_t {
  kEpochStall = 0,    // reclamation pinned: stalls without advances
  kRetiredGrowth,     // retired-unreclaimed backlog beyond bounds
  kWalCommitWait,     // windowed commit-wait p99 vs EWMA baseline
  kWriteGateWait,     // mean contended write-gate wait spike
  kShardSkew,         // per-shard size or traffic imbalance
  kSlowOpBurst,       // slow-op ring captures per window
  kTierCacheMiss,     // cold-tier cache miss ratio vs EWMA baseline
};
constexpr size_t kNumHealthDetectors = 7;

inline const char* DetectorName(HealthDetector d) {
  switch (d) {
    case HealthDetector::kEpochStall: return "epoch_stall";
    case HealthDetector::kRetiredGrowth: return "retired_growth";
    case HealthDetector::kWalCommitWait: return "wal_commit_wait";
    case HealthDetector::kWriteGateWait: return "write_gate_wait";
    case HealthDetector::kShardSkew: return "shard_skew";
    case HealthDetector::kSlowOpBurst: return "slow_op_burst";
    case HealthDetector::kTierCacheMiss: return "tier_cache_miss";
  }
  return "?";
}

/// One detector's judgement of one sample window.
struct HealthVerdict {
  HealthDetector detector = HealthDetector::kEpochStall;
  HealthLevel level = HealthLevel::kOk;
  const char* metric = "";  // offending metric (registry name)
  double observed = 0.0;
  double threshold = 0.0;  // the warn threshold that applied
};

inline std::string VerdictToJson(const HealthVerdict& v) {
  return std::string("{\"detector\": \"") + DetectorName(v.detector) +
         "\", \"level\": \"" + LevelName(v.level) + "\", \"metric\": \"" +
         v.metric + "\", \"observed\": " + std::to_string(v.observed) +
         ", \"threshold\": " + std::to_string(v.threshold) + "}";
}

/// The merged judgement: worst level across detectors, plus headline
/// rates for the newest window.
struct HealthReport {
  HealthLevel level = HealthLevel::kOk;
  uint64_t samples = 0;   // samples evaluated since start/reset
  uint64_t ts_ns = 0;     // timestamp of the newest sample
  uint64_t window_ns = 0; // newest inter-sample window
  double ops_per_sec = 0.0;
  double wal_commits_per_sec = 0.0;
  std::array<HealthVerdict, kNumHealthDetectors> verdicts{};

  std::string ToJson() const {
    std::string out = std::string("{\"level\": \"") + LevelName(level) +
                      "\", \"samples\": " + std::to_string(samples) +
                      ", \"ts_ns\": " + std::to_string(ts_ns) +
                      ", \"window_ns\": " + std::to_string(window_ns) +
                      ", \"ops_per_sec\": " + std::to_string(ops_per_sec) +
                      ", \"wal_commits_per_sec\": " +
                      std::to_string(wal_commits_per_sec) + ", \"verdicts\": [";
    for (size_t i = 0; i < verdicts.size(); ++i) {
      if (i > 0) out += ", ";
      out += VerdictToJson(verdicts[i]);
    }
    out += "]}";
    return out;
  }
};

// ---------------------------------------------------------------------------
// The rule table.

/// What a rule reads from one window: the observed value, whether the
/// window qualifies to be judged at all, and the metric to name when it
/// is not the rule's own.
struct Observation {
  double value = 0.0;
  bool judged = true;
  const char* metric = nullptr;
};

/// One detector as data. An absolute rule warns at `observed >= warn`
/// and goes critical at `observed >= critical`. A baselined rule
/// multiplies its baseline by `warn`/`critical` instead, never going
/// below `floor`; the first judged window seeds that baseline and is Ok.
struct HealthRule {
  HealthDetector detector;
  const char* metric;
  Observation (*observe)(const SampledMetrics& prev,
                         const SampledMetrics& cur);
  double warn;
  double critical;
  bool baselined;
  double floor;
};

/// EWMA weight of the newest Ok window in a baselined rule's baseline.
constexpr double kBaselineAlpha = 0.25;

namespace rules {

inline uint64_t Delta(uint64_t cur, uint64_t prev) {
  return cur >= prev ? cur - prev : 0;  // tolerate test-only resets
}

/// Stalled reclamation attempts. A stall only matters when nothing
/// advanced and a backlog exists: a window with both stalls and advances
/// is ordinary contention.
inline Observation EpochStalls(const SampledMetrics& prev,
                               const SampledMetrics& cur) {
  return {static_cast<double>(
              Delta(cur.epoch_advance_stalls, prev.epoch_advance_stalls)),
          Delta(cur.epoch_advances, prev.epoch_advances) == 0 &&
              cur.epoch_retired_unreclaimed > 0};
}

/// The retired-but-unreclaimed backlog.
inline Observation RetiredBacklog(const SampledMetrics&,
                                  const SampledMetrics& cur) {
  return {static_cast<double>(cur.epoch_retired_unreclaimed)};
}

/// The window's commit-wait p99, rebuilt from bucket deltas (>= 16
/// commits). The cumulative max is the only max available; Quantile
/// clamps against it, which can only under-report the windowed p99 —
/// never inflate.
inline Observation WalCommitP99(const SampledMetrics& prev,
                                const SampledMetrics& cur) {
  if (Delta(cur.wal_commit_count, prev.wal_commit_count) < 16) {
    return {0.0, false};
  }
  uint64_t bucket_delta[util::Log2Histogram::kNumBuckets];
  for (int b = 0; b < util::Log2Histogram::kNumBuckets; ++b) {
    bucket_delta[b] =
        Delta(cur.wal_commit_buckets[b], prev.wal_commit_buckets[b]);
  }
  util::Log2Histogram window;
  window.AddFolded(bucket_delta, util::Log2Histogram::kNumBuckets,
                   Delta(cur.wal_commit_sum_ns, prev.wal_commit_sum_ns),
                   cur.wal_commit_max_ns);
  return {static_cast<double>(window.Quantile(0.99))};
}

/// Mean wait of contended write-gate acquisitions (>= 4 per window).
inline Observation GateWaitMean(const SampledMetrics& prev,
                                const SampledMetrics& cur) {
  const uint64_t waits = Delta(cur.gate_wait_count, prev.gate_wait_count);
  if (Delta(cur.gate_contended, prev.gate_contended) < 4 || waits == 0) {
    return {0.0, false};
  }
  return {static_cast<double>(
              Delta(cur.gate_wait_sum_ns, prev.gate_wait_sum_ns)) /
          static_cast<double>(waits)};
}

/// The worse of size skew (the rebalancer's own gauge, largest/mean
/// x100) and traffic skew: per-shard op deltas over >= 2 active shards
/// and >= 256 ops, the overflow slot excluded (it mixes cross-shard ops
/// from every shard).
inline Observation ShardSkew(const SampledMetrics& prev,
                             const SampledMetrics& cur) {
  Observation size{static_cast<double>(cur.size_skew_x100)};
  uint64_t window_ops = 0, max_ops = 0;
  size_t active = 0;
  for (size_t slot = 0; slot < MetricsRegistry::kMaxTrackedShards; ++slot) {
    const uint64_t d = Delta(cur.shard_ops[slot], prev.shard_ops[slot]);
    if (d > 0) {
      ++active;
      window_ops += d;
      max_ops = std::max(max_ops, d);
    }
  }
  if (active < 2 || window_ops < 256) return size;
  const double mean =
      static_cast<double>(window_ops) / static_cast<double>(active);
  const int64_t traffic_x100 =
      static_cast<int64_t>(100.0 * static_cast<double>(max_ops) / mean);
  if (traffic_x100 <= cur.size_skew_x100) return size;
  return {static_cast<double>(traffic_x100), true,
          "op.shard_traffic_skew_x100"};
}

/// Slow ops the ring captured in the window.
inline Observation SlowOpBurst(const SampledMetrics& prev,
                               const SampledMetrics& cur) {
  return {static_cast<double>(
      Delta(cur.slow_ops_captured, prev.slow_ops_captured))};
}

/// The window's block-cache miss ratio (>= 64 lookups).
inline Observation TierMissRatio(const SampledMetrics& prev,
                                 const SampledMetrics& cur) {
  const uint64_t misses =
      Delta(cur.tier_cache_misses, prev.tier_cache_misses);
  const uint64_t lookups =
      Delta(cur.tier_cache_hits, prev.tier_cache_hits) + misses;
  if (lookups < 64) return {0.0, false};
  return {static_cast<double>(misses) / static_cast<double>(lookups)};
}

}  // namespace rules

/// Every detector, in HealthDetector order. The WAL floor keeps noise in
/// sub-100us commit waits from ever firing; the tier floor keeps a cold
/// cache's first touches from firing.
inline constexpr HealthRule kRules[kNumHealthDetectors] = {
    {HealthDetector::kEpochStall, "epoch.advance_stalls", rules::EpochStalls,
     4, 16, false, 0},
    {HealthDetector::kRetiredGrowth, "epoch.retired_unreclaimed",
     rules::RetiredBacklog, 4096, 65536, false, 0},
    {HealthDetector::kWalCommitWait, "wal.commit_wait_ns",
     rules::WalCommitP99, 4, 16, true, 100'000},
    {HealthDetector::kWriteGateWait, "shard.write_gate_wait_ns",
     rules::GateWaitMean, 1'000'000, 10'000'000, false, 0},
    {HealthDetector::kShardSkew, "shard.size_skew_x100", rules::ShardSkew,
     400, 1600, false, 0},
    {HealthDetector::kSlowOpBurst, "slow_ops.captured", rules::SlowOpBurst,
     16, 64, false, 0},
    {HealthDetector::kTierCacheMiss, "tier.cache_misses",
     rules::TierMissRatio, 4, 16, true, 0.02},
};

// ---------------------------------------------------------------------------
// The monitor.

class HealthMonitor {
 public:
  static constexpr uint64_t kDefaultIntervalMs = 100;
  using Ring = SeqRing<SampledMetrics, 64>;

  /// The process-wide monitor, deliberately leaked like the registry.
  static HealthMonitor& Global() {
    static HealthMonitor* global = new HealthMonitor();
    return *global;
  }

  /// Samples every kDefaultIntervalMs unless ALEX_OBS_SAMPLE_MS overrides
  /// it (clamped to at least 1).
  HealthMonitor()
      : interval_ms_(std::max<uint64_t>(
            1, EnvOverrideU64("ALEX_OBS_SAMPLE_MS", kDefaultIntervalMs))),
        registry_(&MetricsRegistry::Global()) {
    // Resolve every watched metric once; registration is idempotent and
    // the pointers are valid forever, so Collect() never takes the
    // registry mutex.
    epoch_advances_ = registry_->GetCounter("epoch.advances");
    epoch_advance_stalls_ = registry_->GetCounter("epoch.advance_stalls");
    epoch_retired_unreclaimed_ =
        registry_->GetGauge("epoch.retired_unreclaimed");
    wal_commit_wait_ = registry_->GetHistogram("wal.commit_wait_ns");
    gate_contended_ = registry_->GetCounter("shard.write_gate_contended");
    gate_wait_ = registry_->GetHistogram("shard.write_gate_wait_ns");
    size_skew_ = registry_->GetGauge("shard.size_skew_x100");
    tier_cache_hits_ = registry_->GetCounter("tier.cache_hits");
    tier_cache_misses_ = registry_->GetCounter("tier.cache_misses");
    transitions_ = registry_->GetCounter("health.transitions");
  }

  ~HealthMonitor() { Stop(); }
  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Runtime cadence setter; the running sampler picks it up on its next
  /// tick.
  void SetIntervalMs(uint64_t ms) {
    interval_ms_.store(std::max<uint64_t>(1, ms), std::memory_order_relaxed);
  }
  uint64_t interval_ms() const {
    return interval_ms_.load(std::memory_order_relaxed);
  }

  /// Samples evaluated since construction/reset (counts manual SampleNow
  /// and injected samples too; the sampler thread's disabled-arm ticks do
  /// not sample and so do not count).
  uint64_t samples() const { return samples_.load(std::memory_order_relaxed); }

  const Ring& ring() const { return ring_; }

  /// Collects one snapshot from the live registry and evaluates it.
  void SampleNow() { EvaluateSample(Collect()); }

  /// Evaluates one sample against the previous one: pushes it into the
  /// time-series ring, judges every rule over the deltas, publishes the
  /// merged report, and journals one kHealthTransition event per detector
  /// whose level changed. Public so tests can inject synthetic samples
  /// and drive each rule across its edges deterministically.
  void EvaluateSample(const SampledMetrics& sample) {
    std::lock_guard<std::mutex> lock(mutex_);
    ring_.Push(sample);

    HealthReport report;
    report.samples = samples_.load(std::memory_order_relaxed) + 1;
    report.ts_ns = sample.ts_ns;
    if (have_last_) {
      report.window_ns =
          sample.ts_ns > last_.ts_ns ? sample.ts_ns - last_.ts_ns : 0;
      const double window_s = static_cast<double>(report.window_ns) / 1e9;
      if (window_s > 0) {
        report.ops_per_sec =
            static_cast<double>(rules::Delta(sample.total_ops,
                                             last_.total_ops)) /
            window_s;
        report.wal_commits_per_sec =
            static_cast<double>(rules::Delta(sample.wal_commit_count,
                                             last_.wal_commit_count)) /
            window_s;
      }
    }

    for (size_t i = 0; i < kNumHealthDetectors; ++i) {
      HealthVerdict& v = report.verdicts[i];
      if (have_last_) {
        v = Judge(i, last_, sample);
      } else {  // first sample: no window to judge, Ok with identities
        v.detector = kRules[i].detector;
        v.metric = kRules[i].metric;
      }
      report.level = std::max(report.level, v.level);
      if (v.level != levels_[i]) {  // journal exactly one event per edge
        GlobalJournal().Append(
            EventType::kHealthTransition, kShardAll, /*wal_id=*/0, /*lsn=*/0,
            /*a=*/static_cast<int64_t>(i),
            /*b=*/static_cast<int64_t>(levels_[i]) * 256 +
                static_cast<int64_t>(v.level));
        transitions_->Increment();
        levels_[i] = v.level;
      }
    }

    last_ = sample;
    have_last_ = true;
    samples_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> rlock(report_mutex_);
      report_ = report;
    }
  }

  HealthReport Report() const {
    std::lock_guard<std::mutex> lock(report_mutex_);
    return report_;
  }
  std::string ReportJson() const { return Report().ToJson(); }

  /// Starts the background sampler thread (no-op if already running).
  /// `interval_ms` overrides the cadence when nonzero. The thread ticks
  /// even while obs is disabled but only samples when Enabled() — so an
  /// A/B harness flipping the flag charges the watchdog's cost to the
  /// enabled arm only.
  bool Start(uint64_t interval_ms = 0) {
    std::lock_guard<std::mutex> lock(thread_control_mutex_);
    if (thread_.joinable()) return false;
    if (interval_ms > 0) SetIntervalMs(interval_ms);
    stop_.store(false, std::memory_order_relaxed);
    thread_ = std::thread([this] { SamplerLoop(); });
    return true;
  }

  void Stop() {
    std::lock_guard<std::mutex> lock(thread_control_mutex_);
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> tick(tick_mutex_);
      stop_.store(true, std::memory_order_relaxed);
    }
    tick_cv_.notify_all();
    thread_.join();
  }

  bool running() const {
    std::lock_guard<std::mutex> lock(thread_control_mutex_);
    return thread_.joinable();
  }

  /// Clears all evaluation state (samples, ring, baseline, levels,
  /// report). Test-only; must not run concurrently with the sampler
  /// thread — Stop() first.
  void ResetForTest() {
    std::lock_guard<std::mutex> lock(mutex_);
    ring_.Reset();
    have_last_ = false;
    last_ = SampledMetrics{};
    samples_.store(0, std::memory_order_relaxed);
    baselines_.fill(0.0);
    levels_.fill(HealthLevel::kOk);
    std::lock_guard<std::mutex> rlock(report_mutex_);
    report_ = HealthReport{};
  }

  /// One live snapshot of the watched registry metrics.
  SampledMetrics Collect() const {
    SampledMetrics s;
    s.ts_ns = TicksToNs(NowTicks());
    s.epoch_advances = epoch_advances_->Load();
    s.epoch_advance_stalls = epoch_advance_stalls_->Load();
    s.epoch_retired_unreclaimed = epoch_retired_unreclaimed_->Load();
    const util::Log2Histogram wal = wal_commit_wait_->Snapshot();
    s.wal_commit_count = wal.Count();
    s.wal_commit_sum_ns = wal.Sum();
    s.wal_commit_max_ns = wal.Max();
    for (int b = 0; b < util::Log2Histogram::kNumBuckets; ++b) {
      s.wal_commit_buckets[b] = wal.count(b);
    }
    s.gate_contended = gate_contended_->Load();
    s.gate_wait_count = gate_wait_->Count();
    s.gate_wait_sum_ns = gate_wait_->Sum();
    s.slow_ops_captured = registry_->slow_ops().captured();
    s.size_skew_x100 = size_skew_->Load();
    s.tier_cache_hits = tier_cache_hits_->Load();
    s.tier_cache_misses = tier_cache_misses_->Load();
    for (size_t slot = 0; slot <= MetricsRegistry::kMaxTrackedShards;
         ++slot) {
      s.shard_ops[slot] = registry_->OpCountForShardSlot(slot);
      s.total_ops += s.shard_ops[slot];
    }
    return s;
  }

 private:
  /// Rule i's verdict on the window prev -> cur. A baselined rule's
  /// baseline is seeded by its first judged window and learns only from
  /// windows judged Ok, so a sustained regression keeps firing.
  HealthVerdict Judge(size_t i, const SampledMetrics& prev,
                      const SampledMetrics& cur) {
    const HealthRule& rule = kRules[i];
    const Observation o = rule.observe(prev, cur);
    double& baseline = baselines_[i];
    auto bar = [&](double x) {
      return rule.baselined ? std::max(rule.floor, baseline * x) : x;
    };
    HealthVerdict v;
    v.detector = rule.detector;
    v.metric = o.metric != nullptr ? o.metric : rule.metric;
    v.observed = o.value;
    if (o.judged && rule.baselined && baseline <= 0.0) {
      baseline = o.value;  // nothing to regress from yet
    } else if (o.judged) {
      v.level = o.value >= bar(rule.critical) ? HealthLevel::kCritical
                : o.value >= bar(rule.warn)   ? HealthLevel::kWarn
                                              : HealthLevel::kOk;
      if (rule.baselined && v.level == HealthLevel::kOk) {
        baseline =
            (1.0 - kBaselineAlpha) * baseline + kBaselineAlpha * o.value;
      }
    }
    v.threshold = bar(rule.warn);
    return v;
  }

  void SamplerLoop() {
    std::unique_lock<std::mutex> lock(tick_mutex_);
    while (!stop_.load(std::memory_order_relaxed)) {
      const uint64_t ms = interval_ms();
      tick_cv_.wait_for(lock, std::chrono::milliseconds(ms), [this] {
        return stop_.load(std::memory_order_relaxed);
      });
      if (stop_.load(std::memory_order_relaxed)) break;
      // Tick-skip while disabled: the thread exists in both arms of an
      // A/B harness, but sampling cost lands only in the enabled arm.
      if (!Enabled()) continue;
      lock.unlock();
      SampleNow();
      lock.lock();
    }
  }

  std::atomic<uint64_t> interval_ms_;
  MetricsRegistry* const registry_;

  // Watched metrics, resolved once.
  Counter* epoch_advances_ = nullptr;
  Counter* epoch_advance_stalls_ = nullptr;
  Gauge* epoch_retired_unreclaimed_ = nullptr;
  Histogram* wal_commit_wait_ = nullptr;
  Counter* gate_contended_ = nullptr;
  Histogram* gate_wait_ = nullptr;
  Gauge* size_skew_ = nullptr;
  Counter* tier_cache_hits_ = nullptr;
  Counter* tier_cache_misses_ = nullptr;
  Counter* transitions_ = nullptr;

  // Evaluation state, under mutex_.
  std::mutex mutex_;
  Ring ring_;
  SampledMetrics last_{};
  bool have_last_ = false;
  std::array<double, kNumHealthDetectors> baselines_{};  // baselined rules
  std::array<HealthLevel, kNumHealthDetectors> levels_{};
  std::atomic<uint64_t> samples_{0};

  // Published report, under its own mutex so readers never contend with
  // a long evaluation.
  mutable std::mutex report_mutex_;
  HealthReport report_;

  // Sampler thread.
  mutable std::mutex thread_control_mutex_;
  std::mutex tick_mutex_;
  std::condition_variable tick_cv_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace alex::obs
