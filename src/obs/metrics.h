// Process-wide observability: a metrics registry (counters / gauges /
// log2-bucketed histograms), a per-operation latency layer, and a slow-op
// trace ring buffer.
//
// Design constraints, in order:
//
//   1. A *disabled* hot path must cost one predictable branch. Every
//      instrumentation site goes through the ALEX_OBS_* macros below, which
//      expand to `if (Enabled()) { ... }` with the registry lookup hidden in
//      a function-local static *inside* the enabled branch — so with the
//      runtime flag off the whole site is one relaxed atomic load and one
//      never-taken branch. That runtime flag is the only switch.
//
//   2. An *enabled* hot path must never make unrelated threads share a
//      cache line. Counters are striped: each live thread owns one of
//      kStripes cache-line-aligned atomic cells (MetricStripePool) and
//      updates it with a relaxed load + store; threads beyond the pool
//      share an overflow cell through fetch_add, so counts stay exact
//      however many threads run — the sharded conservation tests depend
//      on that. Load() folds the stripes.
//
//   3. Snapshots (JSON / Prometheus text exposition) may be slow; they take
//      the registry mutex and fold the atomics. Hot-path writers never
//      touch that mutex: instrumentation sites cache their metric pointer
//      (pointers stay valid forever — the registry only grows, and the
//      global instance is deliberately leaked).
//
// Timing uses raw TSC reads on x86-64 (calibrated once against
// steady_clock), because two steady_clock calls per operation would by
// themselves blow the <3% enabled-overhead budget that
// bench/obs_overhead.cc measures.
//
// The per-operation layer: ScopedOpTimer wraps one public index operation,
// records its latency into a per-(op, shard) histogram, and — when the
// latency exceeds SlowOpRing::threshold_ns() — captures a structured trace
// record (op, shard, duration, descent and probe retries, leaf splits
// escalated, WAL commit wait) into the slow-op ring (a SeqRing,
// obs/seq_ring.h). The context fields are accumulated by the inner layers
// through a thread-local OpContext that the timer resets on construction,
// which keeps the layers decoupled: the core index bumps "descent retry"
// without knowing whether a sharded op, a bench loop, or nothing at all is
// watching. ScopedOpTimer is not reentrant (one live timer per thread);
// public index operations do not nest, which is the only place it is used.
//
// Thread-safety: everything here is safe to call concurrently. Reset
// functions are test/bench-only and must not race writers.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/seq_ring.h"
#include "util/histogram.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <x86intrin.h>
#define ALEX_OBS_RDTSC 1
#else
#define ALEX_OBS_RDTSC 0
#endif

namespace alex::obs {

// ---------------------------------------------------------------------------
// Runtime enable flag.

inline std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> flag{false};
  return flag;
}
/// True when instrumentation is recording. Relaxed load: sites tolerate a
/// stale value for a few operations around the flip.
inline bool Enabled() {
  return EnabledFlag().load(std::memory_order_relaxed);
}
inline void SetEnabled(bool on) {
  EnabledFlag().store(on, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Clock: raw TSC on x86-64, steady_clock elsewhere.

/// Raw monotonic tick count. Convert with TicksToNs().
inline uint64_t NowTicks() {
#if ALEX_OBS_RDTSC
  return __rdtsc();
#else
  return static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Nanoseconds per tick, calibrated once (on x86-64: a ~200us spin against
/// steady_clock at first use; constant TSC is assumed, as on every machine
/// this code targets).
inline double NsPerTick() {
#if ALEX_OBS_RDTSC
  static const double ns_per_tick = [] {
    const auto wall0 = std::chrono::steady_clock::now();
    const uint64_t tick0 = __rdtsc();
    double ns = 0.0;
    uint64_t ticks = 0;
    do {
      ns = std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - wall0)
               .count();
      ticks = __rdtsc() - tick0;
    } while (ns < 2e5 || ticks == 0);
    return ns / static_cast<double>(ticks);
  }();
  return ns_per_tick;
#else
  using Period = std::chrono::steady_clock::period;
  return 1e9 * static_cast<double>(Period::num) /
         static_cast<double>(Period::den);
#endif
}

inline uint64_t TicksToNs(uint64_t ticks) {
  return static_cast<uint64_t>(static_cast<double>(ticks) * NsPerTick());
}

// ---------------------------------------------------------------------------
// Metric primitives.

/// Number of single-writer stripes in striped metrics (counters and
/// histograms). Each live thread owns a private stripe while one is free —
/// single writer, so updates are RMW-free relaxed load + store pairs with
/// no lock prefix — and threads beyond kMetricStripes - 1 live ones share
/// the overflow stripe (index kMetricStripes - 1) through atomic RMWs.
constexpr size_t kMetricStripes = 16;

/// The exclusive stripes not owned by a live thread. A thread takes one at
/// its first metric update and gives it back at exit, as EpochManager
/// threads give back their slots, so threads that come and go (a bench's
/// client threads, round after round) keep finding private stripes. The
/// mutex orders the old owner's last store to a stripe before the new
/// owner's first load of it, which keeps load + store updates exact.
class MetricStripePool {
 public:
  static MetricStripePool& Global() {
    // Leaked, so threads that exit during static destruction can still
    // give their stripes back.
    static MetricStripePool* pool = new MetricStripePool();
    return *pool;
  }

  /// A free exclusive stripe, or the overflow stripe when none is free.
  size_t Acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) return kMetricStripes - 1;
    const size_t stripe = free_.back();
    free_.pop_back();
    return stripe;
  }

  void Release(size_t stripe) {
    if (stripe == kMetricStripes - 1) return;
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(stripe);
  }

 private:
  MetricStripePool() {
    for (size_t s = kMetricStripes - 1; s-- > 0;) free_.push_back(s);
  }

  std::mutex mu_;
  std::vector<size_t> free_;  // lowest stripe last, so handed out first
};

/// This thread's stripe: taken from the pool at first use, returned when
/// the thread exits.
inline size_t ThreadMetricStripe() {
  struct Owner {
    size_t stripe = MetricStripePool::Global().Acquire();
    ~Owner() { MetricStripePool::Global().Release(stripe); }
  };
  thread_local const Owner owner;
  return owner.stripe;
}

/// Monotone counter, striped across cache lines. Exact: exclusive-stripe
/// threads update with plain relaxed load + store, overflow threads with
/// fetch_add; Load() folds every stripe. Each cell is monotone, so
/// concurrent readers see a non-decreasing total. Reset() assumes
/// quiescence (no concurrent Add).
class Counter {
 public:
  static constexpr size_t kStripes = kMetricStripes;

  void Add(uint64_t delta) {
    const size_t s = ThreadMetricStripe();
    std::atomic<uint64_t>& cell = stripes_[s].value;
    if (__builtin_expect(s < kStripes - 1, 1)) {
      cell.store(cell.load(std::memory_order_relaxed) + delta,
                 std::memory_order_relaxed);
    } else {
      cell.fetch_add(delta, std::memory_order_relaxed);
    }
  }
  void Increment() { Add(1); }

  uint64_t Load() const {
    uint64_t sum = 0;
    for (const Stripe& s : stripes_) {
      sum += s.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

  void Reset() {
    for (Stripe& s : stripes_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> value{0};
  };

  std::array<Stripe, kStripes> stripes_{};
};

/// Last-value gauge (e.g. retired-but-unreclaimed node count).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Load() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Concurrent log2 histogram: the atomic mirror of util::Log2Histogram,
/// striped like Counter. An exclusive-stripe thread records with three
/// RMW-free relaxed load + store pairs (bucket, sum, conditional max);
/// overflow threads use atomic RMWs on the shared stripe. Count/Sum/Max
/// and Snapshot() fold every stripe into a plain Log2Histogram for
/// quantiles. A snapshot taken against concurrent writers may tear across
/// fields (count vs sum); each field is individually consistent. Reset()
/// assumes quiescence (no concurrent Record).
class Histogram {
 public:
  static constexpr int kNumBuckets = util::Log2Histogram::kNumBuckets;
  static constexpr size_t kStripes = kMetricStripes;

  void Record(uint64_t value) {
    const size_t s = ThreadMetricStripe();
    Stripe& st = stripes_[s];
    const int bucket = util::Log2Histogram::BucketOf(value);
    if (__builtin_expect(s < kStripes - 1, 1)) {
      st.counts[bucket].store(
          st.counts[bucket].load(std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      st.sum.store(st.sum.load(std::memory_order_relaxed) + value,
                   std::memory_order_relaxed);
      if (value > st.max.load(std::memory_order_relaxed)) {
        st.max.store(value, std::memory_order_relaxed);
      }
    } else {
      st.counts[bucket].fetch_add(1, std::memory_order_relaxed);
      st.sum.fetch_add(value, std::memory_order_relaxed);
      uint64_t prev = st.max.load(std::memory_order_relaxed);
      while (value > prev && !st.max.compare_exchange_weak(
                                 prev, value, std::memory_order_relaxed)) {
      }
    }
  }

  uint64_t Count() const {
    uint64_t total = 0;
    for (const Stripe& st : stripes_) {
      for (const auto& c : st.counts) {
        total += c.load(std::memory_order_relaxed);
      }
    }
    return total;
  }
  uint64_t Sum() const {
    uint64_t total = 0;
    for (const Stripe& st : stripes_) {
      total += st.sum.load(std::memory_order_relaxed);
    }
    return total;
  }
  uint64_t Max() const {
    uint64_t m = 0;
    for (const Stripe& st : stripes_) {
      m = std::max(m, st.max.load(std::memory_order_relaxed));
    }
    return m;
  }

  util::Log2Histogram Snapshot() const {
    uint64_t counts[kNumBuckets] = {};
    for (const Stripe& st : stripes_) {
      for (int b = 0; b < kNumBuckets; ++b) {
        counts[b] += st.counts[b].load(std::memory_order_relaxed);
      }
    }
    util::Log2Histogram out;
    out.AddFolded(counts, kNumBuckets, Sum(), Max());
    return out;
  }

  void Reset() {
    for (Stripe& st : stripes_) {
      for (auto& c : st.counts) c.store(0, std::memory_order_relaxed);
      st.sum.store(0, std::memory_order_relaxed);
      st.max.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Stripe {
    std::array<std::atomic<uint64_t>, kNumBuckets> counts{};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
  };

  std::array<Stripe, kStripes> stripes_{};
};

// ---------------------------------------------------------------------------
// Per-operation latency layer.

enum class OpType : uint8_t {
  kGet = 0,
  kContains,
  kInsert,
  kErase,
  kUpdate,
  kRangeScan,
  kScan,
  kAggregate,
  kMultiGet,
  kMultiInsert,
  kMultiErase,
};
constexpr size_t kNumOpTypes = 11;

inline const char* OpName(OpType op) {
  switch (op) {
    case OpType::kGet: return "get";
    case OpType::kContains: return "contains";
    case OpType::kInsert: return "insert";
    case OpType::kErase: return "erase";
    case OpType::kUpdate: return "update";
    case OpType::kRangeScan: return "range_scan";
    case OpType::kScan: return "scan";
    case OpType::kAggregate: return "aggregate";
    case OpType::kMultiGet: return "multi_get";
    case OpType::kMultiInsert: return "multi_insert";
    case OpType::kMultiErase: return "multi_erase";
  }
  return "?";
}

/// Shard argument for operations that span shards (scans, batches) or run
/// before routing resolves.
constexpr uint32_t kShardAll = ~0u;

/// Per-thread context accumulated by the inner layers during one operation
/// and harvested by ScopedOpTimer for the slow-op trace. Reset by the timer
/// at operation start.
struct OpContext {
  uint32_t descent_retries = 0;  // retired-leaf re-descends
  uint32_t probe_retries = 0;    // leaf probes that failed validation
  uint32_t leaf_splits = 0;      // splits escalated by this op
  uint64_t wal_wait_ns = 0;      // time inside WAL group commit
};

inline OpContext& TlsOpContext() {
  thread_local OpContext ctx;
  return ctx;
}

/// One captured slow operation. `ts_ns` is the capture (completion) time
/// on the TicksToNs clock, so slow ops can be placed on the same timeline
/// as journal events in the Chrome-trace export.
struct SlowOpRecord {
  uint64_t ticket = 0;  // monotone capture index; higher = more recent
  uint64_t ts_ns = 0;   // completion timestamp
  OpType op = OpType::kGet;
  uint32_t shard = 0;  // kShardAll for cross-shard ops
  uint64_t duration_ns = 0;
  uint32_t descent_retries = 0;
  uint32_t probe_retries = 0;
  uint32_t leaf_splits = 0;
  uint64_t wal_wait_ns = 0;
};

/// The slow-op trace: a capture threshold plus a SeqRing of the newest
/// kCapacity records (obs/seq_ring.h states what a snapshot guarantees).
class SlowOpRing {
 public:
  static constexpr size_t kCapacity = 256;
  static constexpr uint64_t kDefaultThresholdNs = 10'000'000;  // 10 ms

  void set_threshold_ns(uint64_t ns) {
    threshold_ns_.store(ns, std::memory_order_relaxed);
  }
  uint64_t threshold_ns() const {
    return threshold_ns_.load(std::memory_order_relaxed);
  }

  /// Total records ever captured (not the live count: the ring keeps the
  /// most recent kCapacity).
  uint64_t captured() const { return ring_.pushed(); }

  void Push(OpType op, uint32_t shard, uint64_t duration_ns,
            const OpContext& ctx) {
    SlowOpRecord rec;
    rec.ts_ns = TicksToNs(NowTicks());
    rec.op = op;
    rec.shard = shard;
    rec.duration_ns = duration_ns;
    rec.descent_retries = ctx.descent_retries;
    rec.probe_retries = ctx.probe_retries;
    rec.leaf_splits = ctx.leaf_splits;
    rec.wal_wait_ns = ctx.wal_wait_ns;
    ring_.Push(rec);
  }

  /// Stable records, oldest first.
  std::vector<SlowOpRecord> Snapshot() const {
    std::vector<SlowOpRecord> out;
    for (const auto& e : ring_.Snapshot()) {
      out.push_back(e.record);
      out.back().ticket = e.ticket;
    }
    return out;
  }

  /// Test/bench-only; must not race Push().
  void Reset() { ring_.Reset(); }

 private:
  std::atomic<uint64_t> threshold_ns_{kDefaultThresholdNs};
  SeqRing<SlowOpRecord, kCapacity> ring_;
};

// ---------------------------------------------------------------------------
// Registry.

class MetricsRegistry {
 public:
  /// Per-shard latency slots 0..kMaxTrackedShards-1; shard indexes at or
  /// past the cap, and cross-shard ops (kShardAll), fold into one overflow
  /// slot named "all".
  static constexpr size_t kMaxTrackedShards = 32;

  /// The process-wide registry. Deliberately leaked so metric pointers
  /// cached in function-local statics stay valid through static
  /// destruction.
  static MetricsRegistry& Global() {
    static MetricsRegistry* global = new MetricsRegistry();
    return *global;
  }

  /// Named lookups create on first use and are idempotent; returned
  /// pointers are valid forever. Registration takes a mutex — hot paths
  /// must cache the pointer (the ALEX_OBS_* macros do).
  Counter* GetCounter(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = counters_[name];
    if (slot == nullptr) slot = std::make_unique<Counter>();
    return slot.get();
  }

  Gauge* GetGauge(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = gauges_[name];
    if (slot == nullptr) slot = std::make_unique<Gauge>();
    return slot.get();
  }

  Histogram* GetHistogram(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = histograms_[name];
    if (slot == nullptr) slot = std::make_unique<Histogram>();
    return slot.get();
  }

  /// The per-(op, shard) latency histogram ("op.<name>.latency_ns.<shard>").
  /// Hot path: two array indexes + one acquire load once the slot exists.
  Histogram* OpLatency(OpType op, uint32_t shard) {
    const size_t slot_idx =
        shard < kMaxTrackedShards ? shard : kMaxTrackedShards;
    std::atomic<Histogram*>& slot =
        op_latency_[static_cast<size_t>(op)][slot_idx];
    Histogram* h = slot.load(std::memory_order_acquire);
    if (h != nullptr) return h;
    const std::string name =
        std::string("op.") + OpName(op) + ".latency_ns.shard_" +
        (slot_idx == kMaxTrackedShards ? std::string("all")
                                       : std::to_string(slot_idx));
    h = GetHistogram(name);
    slot.store(h, std::memory_order_release);
    return h;
  }

  /// One op's latency distribution merged across every shard slot.
  util::Log2Histogram OpLatencySnapshot(OpType op) const {
    util::Log2Histogram merged;
    for (const auto& slot : op_latency_[static_cast<size_t>(op)]) {
      const Histogram* h = slot.load(std::memory_order_acquire);
      if (h != nullptr) merged.Merge(h->Snapshot());
    }
    return merged;
  }

  SlowOpRing& slow_ops() { return slow_ops_; }
  const SlowOpRing& slow_ops() const { return slow_ops_; }

  /// Total operations recorded against one per-shard latency slot, summed
  /// across op types. Cheap relative to a full snapshot: only slots some
  /// operation has actually touched have a histogram to fold, so in a
  /// 4-shard run this reads 4-5 histograms per op type, not 33. The health
  /// sampler uses this for per-shard traffic-skew deltas.
  uint64_t OpCountForShardSlot(size_t slot_idx) const {
    if (slot_idx > kMaxTrackedShards) return 0;
    uint64_t total = 0;
    for (size_t op = 0; op < kNumOpTypes; ++op) {
      const Histogram* h =
          op_latency_[op][slot_idx].load(std::memory_order_acquire);
      if (h != nullptr) total += h->Count();
    }
    return total;
  }

  /// Metrics whose value is currently nonzero (counters > 0, gauges != 0,
  /// histograms with at least one sample).
  size_t NonZeroMetricCount() const {
    std::lock_guard<std::mutex> lock(mu_);
    size_t n = 0;
    for (const auto& [name, c] : counters_) n += c->Load() > 0 ? 1 : 0;
    for (const auto& [name, g] : gauges_) n += g->Load() != 0 ? 1 : 0;
    for (const auto& [name, h] : histograms_) n += h->Count() > 0 ? 1 : 0;
    return n;
  }

  /// One JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, max, p50, p99, p999}},
  /// "slow_ops": [...]}.
  std::string SnapshotJson() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "{\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, c] : counters_) {
      AppendKey(&out, &first, name);
      out += std::to_string(c->Load());
    }
    out += "},\n  \"gauges\": {";
    first = true;
    for (const auto& [name, g] : gauges_) {
      AppendKey(&out, &first, name);
      out += std::to_string(g->Load());
    }
    out += "},\n  \"histograms\": {";
    first = true;
    for (const auto& [name, h] : histograms_) {
      AppendKey(&out, &first, name);
      const util::Log2Histogram snap = h->Snapshot();
      out += "{\"count\": " + std::to_string(snap.Count()) +
             ", \"sum\": " + std::to_string(snap.Sum()) +
             ", \"max\": " + std::to_string(snap.Max()) +
             ", \"p50\": " + std::to_string(snap.Quantile(0.50)) +
             ", \"p99\": " + std::to_string(snap.Quantile(0.99)) +
             ", \"p999\": " + std::to_string(snap.Quantile(0.999)) + "}";
    }
    out += "},\n  \"slow_ops\": [";
    first = true;
    for (const SlowOpRecord& rec : slow_ops_.Snapshot()) {
      if (!first) out += ", ";
      first = false;
      out += "{\"op\": \"";
      out += OpName(rec.op);
      out += "\", \"shard\": ";
      out += rec.shard == kShardAll ? std::string("\"all\"")
                                    : std::to_string(rec.shard);
      out += ", \"ts_ns\": " + std::to_string(rec.ts_ns) +
             ", \"duration_ns\": " + std::to_string(rec.duration_ns) +
             ", \"descent_retries\": " + std::to_string(rec.descent_retries) +
             ", \"probe_retries\": " + std::to_string(rec.probe_retries) +
             ", \"leaf_splits\": " + std::to_string(rec.leaf_splits) +
             ", \"wal_wait_ns\": " + std::to_string(rec.wal_wait_ns) + "}";
    }
    out += "]\n}";
    return out;
  }

  /// Human-readable help text for a metric family, keyed by the internal
  /// (pre-sanitization) name. Known families get specific text; everything
  /// else gets a generic line so every exposition family still carries a
  /// # HELP entry.
  static std::string MetricHelp(const std::string& name) {
    static const std::map<std::string, const char*> kCatalog = {
        {"epoch.retired", "Nodes retired into epoch-based reclamation"},
        {"epoch.freed", "Retired nodes actually freed by reclamation"},
        {"epoch.advances", "Successful global epoch advances"},
        {"epoch.advance_stalls",
         "Reclamation attempts that found a pinned older epoch"},
        {"epoch.retired_unreclaimed",
         "Nodes retired but not yet freed (reclamation backlog)"},
        {"epoch.global_epoch", "Current global reclamation epoch"},
        {"wal.fsyncs", "WAL fsync/fdatasync calls issued"},
        {"wal.bytes_written", "Record bytes appended to WAL segments"},
        {"wal.commit_batches", "WAL appends (one per Log or LogBatch)"},
        {"wal.records_logged", "Records appended to the WAL"},
        {"wal.commit_wait_ns",
         "Time a committing thread waited inside WAL group commit"},
        {"wal.commit_batch_bytes", "Bytes per multi-record WAL batch"},
        {"wal.commit_batch_records", "Records per multi-record WAL batch"},
        {"shard.write_gate_contended",
         "Write-gate acquisitions that found the gate held"},
        {"shard.write_gate_wait_ns",
         "Wait time for contended write-gate acquisitions"},
        {"shard.topology_splits", "Committed shard split transactions"},
        {"shard.topology_merges", "Committed shard merge transactions"},
        {"shard.topology_rebalances",
         "Committed shard rebalance transactions"},
        {"shard.size_skew_x100",
         "Largest shard size over mean shard size, times 100"},
        {"core.leaf_latch_contended",
         "Leaf latch acquisitions that found the latch held"},
        {"core.leaf_latch_wait_ns",
         "Wait time for contended leaf latch acquisitions"},
        {"core.probe_retries",
         "Optimistic leaf probes that failed version validation"},
        {"core.probe_latch_fallbacks",
         "Point reads that took the shared leaf latch after failed probes"},
        {"health.transitions", "Health detector state transitions"},
        {"tier.cache_hits", "Cold-tier block cache hits"},
        {"tier.cache_misses", "Cold-tier block cache misses"},
        {"tier.cache_evictions", "Cold-tier blocks evicted from the cache"},
        {"tier.block_verify_failures",
         "Cold-tier block reads whose block failed its checksum"},
        {"tier.demotions", "Resident shards demoted to cold segments"},
        {"tier.promotions", "Cold segments promoted back to resident"},
        {"tier.compactions",
         "Cold-shard compactions (delta overlay folded into a new segment)"},
        {"tier.cold_bytes", "Bytes held in cold-tier segment files"},
    };
    const auto it = kCatalog.find(name);
    if (it != kCatalog.end()) return it->second;
    if (name.rfind("op.", 0) == 0 && name.find(".latency_ns.") != std::string::npos) {
      return "Per-operation latency (" + name + ")";
    }
    return "Metric " + name;
  }

  /// Prometheus text exposition format, version 0.0.4. Counters and gauges
  /// as their own types; histograms as summaries (quantile labels + _sum +
  /// _count). Every family carries # HELP and # TYPE metadata. Metric
  /// names are prefixed "alex_" and sanitized to [a-zA-Z0-9_].
  std::string SnapshotPrometheus() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    for (const auto& [name, c] : counters_) {
      const std::string prom = PrometheusName(name);
      out += "# HELP " + prom + " " + MetricHelp(name) + "\n";
      out += "# TYPE " + prom + " counter\n";
      out += prom + " " + std::to_string(c->Load()) + "\n";
    }
    for (const auto& [name, g] : gauges_) {
      const std::string prom = PrometheusName(name);
      out += "# HELP " + prom + " " + MetricHelp(name) + "\n";
      out += "# TYPE " + prom + " gauge\n";
      out += prom + " " + std::to_string(g->Load()) + "\n";
    }
    for (const auto& [name, h] : histograms_) {
      const std::string prom = PrometheusName(name);
      const util::Log2Histogram snap = h->Snapshot();
      out += "# HELP " + prom + " " + MetricHelp(name) + "\n";
      out += "# TYPE " + prom + " summary\n";
      out += prom + "{quantile=\"0.5\"} " +
             std::to_string(snap.Quantile(0.50)) + "\n";
      out += prom + "{quantile=\"0.99\"} " +
             std::to_string(snap.Quantile(0.99)) + "\n";
      out += prom + "{quantile=\"0.999\"} " +
             std::to_string(snap.Quantile(0.999)) + "\n";
      out += prom + "_sum " + std::to_string(snap.Sum()) + "\n";
      out += prom + "_count " + std::to_string(snap.Count()) + "\n";
    }
    return out;
  }

  /// Zeroes every metric and the slow-op ring. Registered metric objects
  /// stay valid (cached pointers keep working). Test/bench-only; must not
  /// race hot-path writers.
  void ResetAll() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, c] : counters_) c->Reset();
    for (auto& [name, g] : gauges_) g->Reset();
    for (auto& [name, h] : histograms_) h->Reset();
    slow_ops_.Reset();
  }

 private:
  MetricsRegistry() = default;

  static void AppendKey(std::string* out, bool* first,
                        const std::string& name) {
    if (!*first) *out += ", ";
    *first = false;
    *out += '"';
    *out += name;  // metric names are code constants, no escaping needed
    *out += "\": ";
  }

  static std::string PrometheusName(const std::string& name) {
    std::string out = "alex_";
    for (const char c : name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_';
      out += ok ? c : '_';
    }
    return out;
  }

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::array<std::array<std::atomic<Histogram*>, kMaxTrackedShards + 1>,
             kNumOpTypes>
      op_latency_{};
  SlowOpRing slow_ops_;
};

// ---------------------------------------------------------------------------
// Scoped timers.

/// Times one public index operation: records the latency into the
/// per-(op, shard) histogram and, past the slow-op threshold, captures the
/// thread's OpContext into the trace ring. Construct at operation entry
/// (resets the context); call set_shard() once routing resolves.
class ScopedOpTimer {
 public:
  explicit ScopedOpTimer(OpType op, uint32_t shard = kShardAll) {
    if (__builtin_expect(Enabled(), 0)) {
      active_ = true;
      op_ = op;
      shard_ = shard;
      TlsOpContext() = OpContext{};
      start_ticks_ = NowTicks();
    }
  }

  void set_shard(uint32_t shard) { shard_ = shard; }

  ScopedOpTimer(const ScopedOpTimer&) = delete;
  ScopedOpTimer& operator=(const ScopedOpTimer&) = delete;

  ~ScopedOpTimer() {
    if (!active_) return;
    const uint64_t ns = TicksToNs(NowTicks() - start_ticks_);
    MetricsRegistry& reg = MetricsRegistry::Global();
    reg.OpLatency(op_, shard_)->Record(ns);
    SlowOpRing& ring = reg.slow_ops();
    if (__builtin_expect(ns >= ring.threshold_ns(), 0)) {
      ring.Push(op_, shard_, ns, TlsOpContext());
    }
  }

 private:
  uint64_t start_ticks_ = 0;
  OpType op_ = OpType::kGet;
  uint32_t shard_ = kShardAll;
  bool active_ = false;
};

/// Generic scoped latency timer into one registry histogram — the shared
/// accounting path the benches use instead of hand-rolled recorders. Always
/// records when given a histogram (benches opt in explicitly; pass nullptr
/// to disable).
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(Histogram* h)
      : h_(h), start_ticks_(h != nullptr ? NowTicks() : 0) {}

  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

  ~ScopedLatencyTimer() {
    if (h_ != nullptr) h_->Record(TicksToNs(NowTicks() - start_ticks_));
  }

 private:
  Histogram* h_;
  uint64_t start_ticks_;
};

}  // namespace alex::obs

// ---------------------------------------------------------------------------
// Instrumentation-site macros. Each site caches its metric pointer in a
// function-local static *inside* the enabled branch, so a disabled site is
// one relaxed load + one never-taken branch.

#define ALEX_OBS_COUNTER_ADD(name, delta)                          \
  do {                                                             \
    if (__builtin_expect(::alex::obs::Enabled(), 0)) {             \
      static ::alex::obs::Counter* const alex_obs_counter_ =       \
          ::alex::obs::MetricsRegistry::Global().GetCounter(name); \
      alex_obs_counter_->Add(delta);                               \
    }                                                              \
  } while (0)

#define ALEX_OBS_COUNTER_INC(name) ALEX_OBS_COUNTER_ADD(name, 1)

#define ALEX_OBS_GAUGE_SET(name, value)                          \
  do {                                                           \
    if (__builtin_expect(::alex::obs::Enabled(), 0)) {           \
      static ::alex::obs::Gauge* const alex_obs_gauge_ =         \
          ::alex::obs::MetricsRegistry::Global().GetGauge(name); \
      alex_obs_gauge_->Set(static_cast<int64_t>(value));         \
    }                                                            \
  } while (0)

#define ALEX_OBS_HIST_RECORD(name, value)                            \
  do {                                                               \
    if (__builtin_expect(::alex::obs::Enabled(), 0)) {               \
      static ::alex::obs::Histogram* const alex_obs_hist_ =          \
          ::alex::obs::MetricsRegistry::Global().GetHistogram(name); \
      alex_obs_hist_->Record(static_cast<uint64_t>(value));          \
    }                                                                \
  } while (0)

#define ALEX_OBS_CTX_ADD(field, delta)                 \
  do {                                                 \
    if (__builtin_expect(::alex::obs::Enabled(), 0)) { \
      ::alex::obs::TlsOpContext().field += (delta);    \
    }                                                  \
  } while (0)

// Lock-wait instrumentation: when enabled, try-lock first; only a
// *contended* acquisition pays the two extra clock reads. The uncontended
// enabled path costs the same as a plain lock.
#define ALEX_OBS_TIMED_SHARED_LOCK(lk, m, contended_name, wait_hist_name)  \
  std::shared_lock<std::decay_t<decltype(m)>> lk(m, std::defer_lock);      \
  if (__builtin_expect(::alex::obs::Enabled(), 0)) {                       \
    if (!lk.try_lock()) {                                                  \
      ALEX_OBS_COUNTER_INC(contended_name);                                \
      const uint64_t alex_obs_lock_t0_ = ::alex::obs::NowTicks();          \
      lk.lock();                                                           \
      ALEX_OBS_HIST_RECORD(wait_hist_name,                                 \
                           ::alex::obs::TicksToNs(::alex::obs::NowTicks() - \
                                                  alex_obs_lock_t0_));     \
    }                                                                      \
  } else {                                                                 \
    lk.lock();                                                             \
  }

#define ALEX_OBS_TIMED_UNIQUE_LOCK(lk, m, contended_name, wait_hist_name)  \
  std::unique_lock<std::decay_t<decltype(m)>> lk(m, std::defer_lock);      \
  if (__builtin_expect(::alex::obs::Enabled(), 0)) {                       \
    if (!lk.try_lock()) {                                                  \
      ALEX_OBS_COUNTER_INC(contended_name);                                \
      const uint64_t alex_obs_lock_t0_ = ::alex::obs::NowTicks();          \
      lk.lock();                                                           \
      ALEX_OBS_HIST_RECORD(wait_hist_name,                                 \
                           ::alex::obs::TicksToNs(::alex::obs::NowTicks() - \
                                                  alex_obs_lock_t0_));     \
    }                                                                      \
  } else {                                                                 \
    lk.lock();                                                             \
  }
