// Health watchdog: a sampler thread, a metrics time-series ring, and
// rule-based detectors that turn raw telemetry into verdicts.
//
// PR 8's metrics layer can tell an operator *what* the numbers are; it
// cannot notice that epoch reclamation has silently stalled, that WAL
// group commit has regressed 10x, or that one shard has taken all the
// traffic. This header closes that loop:
//
//   - SampledMetrics is one fixed-shape snapshot of the health-relevant
//     registry state (epoch counters, WAL commit-wait histogram buckets,
//     write-gate waits, per-shard op counts, slow-op ring capture
//     count).
//   - SampleRing publishes snapshots through the same seqlock idiom as
//     SlowOpRing, generalized to a word-array payload: the writer marks
//     the slot odd, stores sizeof(SampledMetrics)/8 relaxed words, and
//     marks it even; readers copy and re-check. Readers never block the
//     sampler and never observe a torn snapshot.
//   - Detectors evaluate over *deltas* between consecutive samples (the
//     incremental-evaluation idiom from modular Datalog materialisation:
//     never re-derive from absolute counters what the previous sample
//     already paid for). Each produces a HealthVerdict (level, offending
//     metric, observed vs threshold); the merged HealthReport's level is
//     the max across detectors.
//   - Every per-detector level change appends one kHealthTransition event
//     to the journal (obs/journal.h), so "when did this start" has an
//     answer with a timestamp and the neighbouring structural events.
//
// The WAL commit-wait detector is the only stateful one beyond last-sample
// deltas: it maintains an EWMA baseline of the *windowed* p99 (computed by
// folding per-sample bucket-count deltas back into a Log2Histogram) and
// fires on regression relative to that baseline. The baseline only
// absorbs windows judged healthy — a sustained regression keeps firing
// instead of teaching the baseline that slow is normal.
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
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/journal.h"
#include "obs/metrics.h"
#include "util/histogram.h"

namespace alex::obs {

// ---------------------------------------------------------------------------
// The time-series sample.

/// One snapshot of the health-relevant registry state. Trivially copyable
/// and 8-byte-word-shaped by construction so SampleRing can publish it as
/// an array of relaxed atomic words.
struct SampledMetrics {
  uint64_t ts_ns = 0;

  // Epoch-based reclamation.
  uint64_t epoch_retired = 0;
  uint64_t epoch_freed = 0;
  uint64_t epoch_advances = 0;
  uint64_t epoch_advance_stalls = 0;
  int64_t epoch_retired_unreclaimed = 0;  // gauge
  int64_t epoch_global = 0;               // gauge

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

static_assert(std::is_trivially_copyable<SampledMetrics>::value,
              "SampleRing publishes SampledMetrics as raw words");
static_assert(sizeof(SampledMetrics) % sizeof(uint64_t) == 0,
              "SampledMetrics must be a whole number of 64-bit words");

/// Fixed-size time-series ring for SampledMetrics: the SlowOpRing seqlock
/// protocol generalized to a word-array payload. Single writer (the
/// monitor serializes Push under its mutex); any number of lock-free
/// readers.
class SampleRing {
 public:
  static constexpr size_t kCapacity = 64;  // power of two
  static constexpr size_t kWords = sizeof(SampledMetrics) / sizeof(uint64_t);

  /// Total samples ever pushed (the ring keeps the newest kCapacity).
  uint64_t pushed() const { return next_.load(std::memory_order_relaxed); }

  void Push(const SampledMetrics& sample) {
    uint64_t words[kWords];
    std::memcpy(words, &sample, sizeof(sample));
    const uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
    Slot& s = slots_[ticket & (kCapacity - 1)];
    s.seq.store(2 * ticket + 1, std::memory_order_release);
    for (size_t w = 0; w < kWords; ++w) {
      s.words[w].store(words[w], std::memory_order_relaxed);
    }
    s.seq.store(2 * ticket + 2, std::memory_order_release);
  }

  /// Stable samples, oldest first.
  std::vector<SampledMetrics> Snapshot() const {
    struct Keyed {
      uint64_t ticket;
      SampledMetrics sample;
    };
    std::vector<Keyed> keyed;
    keyed.reserve(kCapacity);
    for (const Slot& s : slots_) {
      const uint64_t seq = s.seq.load(std::memory_order_acquire);
      if (seq == 0 || (seq & 1) != 0) continue;  // empty or being written
      uint64_t words[kWords];
      for (size_t w = 0; w < kWords; ++w) {
        words[w] = s.words[w].load(std::memory_order_relaxed);
      }
      if (s.seq.load(std::memory_order_acquire) != seq) continue;  // reused
      Keyed k;
      k.ticket = seq / 2 - 1;
      std::memcpy(&k.sample, words, sizeof(k.sample));
      keyed.push_back(k);
    }
    std::sort(keyed.begin(), keyed.end(),
              [](const Keyed& a, const Keyed& b) { return a.ticket < b.ticket; });
    std::vector<SampledMetrics> out;
    out.reserve(keyed.size());
    for (const Keyed& k : keyed) out.push_back(k.sample);
    return out;
  }

  /// Test-only; must not race Push().
  void Reset() {
    next_.store(0, std::memory_order_relaxed);
    for (Slot& s : slots_) s.seq.store(0, std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::atomic<uint64_t> seq{0};
    std::array<std::atomic<uint64_t>, kWords> words{};
  };

  std::atomic<uint64_t> next_{0};
  std::array<Slot, kCapacity> slots_{};
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
// Options.

/// Detector thresholds and sampler cadence. Defaults are deliberately
/// conservative multiples of healthy steady-state behaviour; every field
/// is plain data so tests can drive rules across their edges directly.
struct HealthOptions {
  /// Sampler cadence. ALEX_OBS_SAMPLE_MS overrides via FromEnv().
  uint64_t sample_interval_ms = 100;

  // kEpochStall: fires only when a window saw reclamation *attempts* stall
  // with zero successful advances while a backlog exists.
  uint64_t epoch_stall_warn = 4;
  uint64_t epoch_stall_critical = 16;

  // kRetiredGrowth: absolute retired-but-unreclaimed backlog.
  int64_t retired_warn = 4096;
  int64_t retired_critical = 65536;

  // kWalCommitWait: windowed p99 vs EWMA baseline. The floor keeps noise
  // in sub-100us commit waits from ever firing the rule.
  double wal_p99_warn_factor = 4.0;
  double wal_p99_critical_factor = 16.0;
  uint64_t wal_p99_floor_ns = 100'000;
  uint64_t wal_min_window_commits = 16;
  double wal_baseline_alpha = 0.25;  // EWMA weight of the newest Ok window

  // kWriteGateWait: mean wait of *contended* gate acquisitions.
  uint64_t gate_wait_warn_ns = 1'000'000;
  uint64_t gate_wait_critical_ns = 10'000'000;
  uint64_t gate_min_contended = 4;

  // kShardSkew: size skew from the gauge (largest/mean x100, matching the
  // rebalancer's trigger shape) and traffic skew from per-shard op deltas.
  int64_t skew_warn_x100 = 400;
  int64_t skew_critical_x100 = 1600;
  uint64_t traffic_min_window_ops = 256;

  // kSlowOpBurst: ring captures per window.
  uint64_t slow_op_warn = 16;
  uint64_t slow_op_critical = 64;

  // kTierCacheMiss: windowed cold-tier miss ratio vs EWMA baseline (the
  // kWalCommitWait shape applied to a rate instead of a latency). The
  // floor keeps a cold cache's first touches from firing the rule.
  double tier_miss_warn_factor = 4.0;
  double tier_miss_critical_factor = 16.0;
  double tier_miss_floor = 0.02;
  uint64_t tier_min_window_lookups = 64;
  double tier_baseline_alpha = 0.25;

  static HealthOptions FromEnv() {
    HealthOptions opt;
    opt.sample_interval_ms =
        std::max<uint64_t>(1, EnvOverrideU64("ALEX_OBS_SAMPLE_MS",
                                             opt.sample_interval_ms));
    return opt;
  }
};

// ---------------------------------------------------------------------------
// The monitor.

class HealthMonitor {
 public:
  /// The process-wide monitor, deliberately leaked like the registry.
  static HealthMonitor& Global() {
    static HealthMonitor* global = new HealthMonitor(HealthOptions::FromEnv());
    return *global;
  }

  explicit HealthMonitor(HealthOptions options = HealthOptions::FromEnv())
      : options_(options),
        interval_ms_(options.sample_interval_ms),
        registry_(&MetricsRegistry::Global()) {
    // Resolve every watched metric once; registration is idempotent and
    // the pointers are valid forever, so Collect() never takes the
    // registry mutex.
    epoch_retired_ = registry_->GetCounter("epoch.retired");
    epoch_freed_ = registry_->GetCounter("epoch.freed");
    epoch_advances_ = registry_->GetCounter("epoch.advances");
    epoch_advance_stalls_ = registry_->GetCounter("epoch.advance_stalls");
    epoch_retired_unreclaimed_ =
        registry_->GetGauge("epoch.retired_unreclaimed");
    epoch_global_ = registry_->GetGauge("epoch.global_epoch");
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

  const HealthOptions& options() const { return options_; }
  void set_options(const HealthOptions& options) {
    std::lock_guard<std::mutex> lock(mutex_);
    options_ = options;
    interval_ms_.store(options.sample_interval_ms,
                       std::memory_order_relaxed);
  }

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

  const SampleRing& ring() const { return ring_; }

  /// Collects one snapshot from the live registry and evaluates it.
  void SampleNow() { EvaluateSample(Collect()); }

  /// Evaluates one sample against the previous one: pushes it into the
  /// time-series ring, runs every detector over the deltas, publishes the
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
      const SampledMetrics& prev = last_;
      report.window_ns =
          sample.ts_ns > prev.ts_ns ? sample.ts_ns - prev.ts_ns : 0;
      const double window_s =
          report.window_ns > 0 ? static_cast<double>(report.window_ns) / 1e9
                               : 0.0;
      const uint64_t d_ops = Delta(sample.total_ops, prev.total_ops);
      const uint64_t d_commits =
          Delta(sample.wal_commit_count, prev.wal_commit_count);
      if (window_s > 0) {
        report.ops_per_sec = static_cast<double>(d_ops) / window_s;
        report.wal_commits_per_sec = static_cast<double>(d_commits) / window_s;
      }
      report.verdicts[0] = JudgeEpochStall(prev, sample);
      report.verdicts[1] = JudgeRetiredGrowth(sample);
      report.verdicts[2] = JudgeWalCommitWait(prev, sample);
      report.verdicts[3] = JudgeWriteGateWait(prev, sample);
      report.verdicts[4] = JudgeShardSkew(prev, sample);
      report.verdicts[5] = JudgeSlowOpBurst(prev, sample);
      report.verdicts[6] = JudgeTierCacheMiss(prev, sample);
    } else {
      // First sample: no window to judge; all detectors report Ok with
      // their identities filled in.
      for (size_t i = 0; i < kNumHealthDetectors; ++i) {
        report.verdicts[i].detector = static_cast<HealthDetector>(i);
      }
      report.verdicts[0].metric = "epoch.advance_stalls";
      report.verdicts[1].metric = "epoch.retired_unreclaimed";
      report.verdicts[2].metric = "wal.commit_wait_ns";
      report.verdicts[3].metric = "shard.write_gate_wait_ns";
      report.verdicts[4].metric = "shard.size_skew_x100";
      report.verdicts[5].metric = "slow_ops.captured";
      report.verdicts[6].metric = "tier.cache_misses";
    }

    for (const HealthVerdict& v : report.verdicts) {
      report.level = std::max(report.level, v.level);
    }

    // Journal exactly one transition event per detector edge.
    for (size_t i = 0; i < kNumHealthDetectors; ++i) {
      const HealthLevel prev_level = levels_[i];
      const HealthLevel new_level = report.verdicts[i].level;
      if (new_level != prev_level) {
        GlobalJournal().Append(
            EventType::kHealthTransition, kShardAll, /*wal_id=*/0, /*lsn=*/0,
            /*a=*/static_cast<int64_t>(i),
            /*b=*/static_cast<int64_t>(prev_level) * 256 +
                static_cast<int64_t>(new_level));
        transitions_->Increment();
        levels_[i] = new_level;
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
    wal_baseline_p99_ns_ = 0.0;
    tier_miss_baseline_ = 0.0;
    levels_.fill(HealthLevel::kOk);
    std::lock_guard<std::mutex> rlock(report_mutex_);
    report_ = HealthReport{};
  }

  /// One live snapshot of the watched registry metrics.
  SampledMetrics Collect() const {
    SampledMetrics s;
    s.ts_ns = TicksToNs(NowTicks());
    s.epoch_retired = epoch_retired_->Load();
    s.epoch_freed = epoch_freed_->Load();
    s.epoch_advances = epoch_advances_->Load();
    s.epoch_advance_stalls = epoch_advance_stalls_->Load();
    s.epoch_retired_unreclaimed = epoch_retired_unreclaimed_->Load();
    s.epoch_global = epoch_global_->Load();
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
  static uint64_t Delta(uint64_t cur, uint64_t prev) {
    return cur >= prev ? cur - prev : 0;  // tolerate test-only resets
  }

  static HealthVerdict Verdict(HealthDetector d, HealthLevel level,
                               const char* metric, double observed,
                               double threshold) {
    HealthVerdict v;
    v.detector = d;
    v.level = level;
    v.metric = metric;
    v.observed = observed;
    v.threshold = threshold;
    return v;
  }

  HealthVerdict JudgeEpochStall(const SampledMetrics& prev,
                                const SampledMetrics& cur) const {
    const uint64_t stalls =
        Delta(cur.epoch_advance_stalls, prev.epoch_advance_stalls);
    const uint64_t advances = Delta(cur.epoch_advances, prev.epoch_advances);
    HealthLevel level = HealthLevel::kOk;
    // A stall only matters when nothing advanced and a backlog exists: a
    // window with both stalls and advances is ordinary contention.
    if (advances == 0 && cur.epoch_retired_unreclaimed > 0) {
      if (stalls >= options_.epoch_stall_critical) {
        level = HealthLevel::kCritical;
      } else if (stalls >= options_.epoch_stall_warn) {
        level = HealthLevel::kWarn;
      }
    }
    return Verdict(HealthDetector::kEpochStall, level, "epoch.advance_stalls",
                   static_cast<double>(stalls),
                   static_cast<double>(options_.epoch_stall_warn));
  }

  HealthVerdict JudgeRetiredGrowth(const SampledMetrics& cur) const {
    const int64_t backlog = cur.epoch_retired_unreclaimed;
    HealthLevel level = HealthLevel::kOk;
    if (backlog >= options_.retired_critical) {
      level = HealthLevel::kCritical;
    } else if (backlog >= options_.retired_warn) {
      level = HealthLevel::kWarn;
    }
    return Verdict(HealthDetector::kRetiredGrowth, level,
                   "epoch.retired_unreclaimed", static_cast<double>(backlog),
                   static_cast<double>(options_.retired_warn));
  }

  HealthVerdict JudgeWalCommitWait(const SampledMetrics& prev,
                                   const SampledMetrics& cur) {
    const uint64_t commits =
        Delta(cur.wal_commit_count, prev.wal_commit_count);
    HealthLevel level = HealthLevel::kOk;
    double p99 = 0.0;
    double warn_at = std::max(
        static_cast<double>(options_.wal_p99_floor_ns),
        wal_baseline_p99_ns_ * options_.wal_p99_warn_factor);
    if (commits >= options_.wal_min_window_commits) {
      // Reconstruct the window's distribution from bucket deltas. The
      // cumulative max is the only max available; Quantile clamps against
      // it, which can only under-report the windowed p99 — never inflate.
      uint64_t bucket_delta[util::Log2Histogram::kNumBuckets];
      for (int b = 0; b < util::Log2Histogram::kNumBuckets; ++b) {
        bucket_delta[b] =
            Delta(cur.wal_commit_buckets[b], prev.wal_commit_buckets[b]);
      }
      util::Log2Histogram window;
      window.AddFolded(bucket_delta, util::Log2Histogram::kNumBuckets,
                       Delta(cur.wal_commit_sum_ns, prev.wal_commit_sum_ns),
                       cur.wal_commit_max_ns);
      p99 = static_cast<double>(window.Quantile(0.99));
      if (wal_baseline_p99_ns_ <= 0.0) {
        // First qualifying window seeds the baseline and is Ok by
        // definition: there is nothing to regress from yet.
        wal_baseline_p99_ns_ = p99;
      } else {
        const double crit_at = std::max(
            static_cast<double>(options_.wal_p99_floor_ns),
            wal_baseline_p99_ns_ * options_.wal_p99_critical_factor);
        if (p99 >= crit_at) {
          level = HealthLevel::kCritical;
        } else if (p99 >= warn_at) {
          level = HealthLevel::kWarn;
        } else {
          // Only healthy windows teach the baseline, so a sustained
          // regression keeps firing instead of becoming the new normal.
          wal_baseline_p99_ns_ =
              (1.0 - options_.wal_baseline_alpha) * wal_baseline_p99_ns_ +
              options_.wal_baseline_alpha * p99;
        }
      }
      warn_at = std::max(static_cast<double>(options_.wal_p99_floor_ns),
                         wal_baseline_p99_ns_ * options_.wal_p99_warn_factor);
    }
    return Verdict(HealthDetector::kWalCommitWait, level, "wal.commit_wait_ns",
                   p99, warn_at);
  }

  HealthVerdict JudgeWriteGateWait(const SampledMetrics& prev,
                                   const SampledMetrics& cur) const {
    const uint64_t contended = Delta(cur.gate_contended, prev.gate_contended);
    const uint64_t waits = Delta(cur.gate_wait_count, prev.gate_wait_count);
    const uint64_t wait_ns =
        Delta(cur.gate_wait_sum_ns, prev.gate_wait_sum_ns);
    HealthLevel level = HealthLevel::kOk;
    double mean_ns = 0.0;
    if (contended >= options_.gate_min_contended && waits > 0) {
      mean_ns = static_cast<double>(wait_ns) / static_cast<double>(waits);
      if (mean_ns >= static_cast<double>(options_.gate_wait_critical_ns)) {
        level = HealthLevel::kCritical;
      } else if (mean_ns >= static_cast<double>(options_.gate_wait_warn_ns)) {
        level = HealthLevel::kWarn;
      }
    }
    return Verdict(HealthDetector::kWriteGateWait, level,
                   "shard.write_gate_wait_ns", mean_ns,
                   static_cast<double>(options_.gate_wait_warn_ns));
  }

  HealthVerdict JudgeShardSkew(const SampledMetrics& prev,
                               const SampledMetrics& cur) const {
    // Size skew: the rebalancer's own gauge (largest/mean x100).
    int64_t worst_x100 = cur.size_skew_x100;
    const char* metric = "shard.size_skew_x100";
    // Traffic skew: per-shard op deltas over the window, overflow slot
    // excluded (it mixes cross-shard ops from every shard).
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
    if (active >= 2 && window_ops >= options_.traffic_min_window_ops) {
      const double mean =
          static_cast<double>(window_ops) / static_cast<double>(active);
      const int64_t traffic_x100 =
          static_cast<int64_t>(100.0 * static_cast<double>(max_ops) / mean);
      if (traffic_x100 > worst_x100) {
        worst_x100 = traffic_x100;
        metric = "op.shard_traffic_skew_x100";
      }
    }
    HealthLevel level = HealthLevel::kOk;
    if (worst_x100 >= options_.skew_critical_x100) {
      level = HealthLevel::kCritical;
    } else if (worst_x100 >= options_.skew_warn_x100) {
      level = HealthLevel::kWarn;
    }
    return Verdict(HealthDetector::kShardSkew, level, metric,
                   static_cast<double>(worst_x100),
                   static_cast<double>(options_.skew_warn_x100));
  }

  HealthVerdict JudgeSlowOpBurst(const SampledMetrics& prev,
                                 const SampledMetrics& cur) const {
    const uint64_t burst =
        Delta(cur.slow_ops_captured, prev.slow_ops_captured);
    HealthLevel level = HealthLevel::kOk;
    if (burst >= options_.slow_op_critical) {
      level = HealthLevel::kCritical;
    } else if (burst >= options_.slow_op_warn) {
      level = HealthLevel::kWarn;
    }
    return Verdict(HealthDetector::kSlowOpBurst, level, "slow_ops.captured",
                   static_cast<double>(burst),
                   static_cast<double>(options_.slow_op_warn));
  }

  HealthVerdict JudgeTierCacheMiss(const SampledMetrics& prev,
                                   const SampledMetrics& cur) {
    const uint64_t hits = Delta(cur.tier_cache_hits, prev.tier_cache_hits);
    const uint64_t misses =
        Delta(cur.tier_cache_misses, prev.tier_cache_misses);
    const uint64_t lookups = hits + misses;
    HealthLevel level = HealthLevel::kOk;
    double ratio = 0.0;
    double warn_at =
        std::max(options_.tier_miss_floor,
                 tier_miss_baseline_ * options_.tier_miss_warn_factor);
    if (lookups >= options_.tier_min_window_lookups) {
      ratio = static_cast<double>(misses) / static_cast<double>(lookups);
      if (tier_miss_baseline_ <= 0.0) {
        // First qualifying window seeds the baseline and is Ok by
        // definition, exactly like the WAL commit-wait rule.
        tier_miss_baseline_ = ratio;
      } else {
        const double crit_at = std::max(
            options_.tier_miss_floor,
            tier_miss_baseline_ * options_.tier_miss_critical_factor);
        if (ratio >= crit_at) {
          level = HealthLevel::kCritical;
        } else if (ratio >= warn_at) {
          level = HealthLevel::kWarn;
        } else {
          // Only healthy windows teach the baseline: a working set that
          // outgrew the cache keeps firing instead of normalizing.
          tier_miss_baseline_ =
              (1.0 - options_.tier_baseline_alpha) * tier_miss_baseline_ +
              options_.tier_baseline_alpha * ratio;
        }
      }
      warn_at =
          std::max(options_.tier_miss_floor,
                   tier_miss_baseline_ * options_.tier_miss_warn_factor);
    }
    return Verdict(HealthDetector::kTierCacheMiss, level,
                   "tier.cache_misses", ratio, warn_at);
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

  HealthOptions options_;  // mutated only under mutex_
  std::atomic<uint64_t> interval_ms_;
  MetricsRegistry* const registry_;

  // Watched metrics, resolved once.
  Counter* epoch_retired_ = nullptr;
  Counter* epoch_freed_ = nullptr;
  Counter* epoch_advances_ = nullptr;
  Counter* epoch_advance_stalls_ = nullptr;
  Gauge* epoch_retired_unreclaimed_ = nullptr;
  Gauge* epoch_global_ = nullptr;
  Histogram* wal_commit_wait_ = nullptr;
  Counter* gate_contended_ = nullptr;
  Histogram* gate_wait_ = nullptr;
  Gauge* size_skew_ = nullptr;
  Counter* tier_cache_hits_ = nullptr;
  Counter* tier_cache_misses_ = nullptr;
  Counter* transitions_ = nullptr;

  // Evaluation state, under mutex_.
  std::mutex mutex_;
  SampleRing ring_;
  SampledMetrics last_{};
  bool have_last_ = false;
  double wal_baseline_p99_ns_ = 0.0;
  double tier_miss_baseline_ = 0.0;
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
