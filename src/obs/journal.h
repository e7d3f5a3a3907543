// Bounded structured event journal: the system's causal history.
//
// Metrics (obs/metrics.h) say how much and how fast; they cannot say what
// *happened*. The journal records the rare, structural events — topology
// transactions, checkpoints, recoveries, WAL errors, bulk loads, health
// state transitions — as fixed-shape records with timestamps and causal
// context (shard index, wal id, LSN), so a stall or a corruption can be
// traced back through the exact sequence of structural changes that
// preceded it. SIGNAL-style process queries over event logs need
// structured records, not free text; every event therefore carries two
// type-specific integer arguments instead of a message string (the schema
// per type is documented on EventType).
//
// Storage is a SeqRing of the newest kCapacity events (obs/seq_ring.h
// states what a snapshot guarantees). Events are rare (they sit on
// structural seams, not the op hot path), so the optional file sink — one
// JSON line per event, appended under a mutex — costs nothing that
// matters.
//
// Instrumentation sites go through ALEX_OBS_EVENT, which follows the
// metrics macros' contract: one predicted branch when the runtime flag is
// off, nothing at all under -DALEX_DISABLE_OBS. The health monitor
// (obs/health.h) appends its transition events directly — it only runs by
// explicit request, so it needs no flag gate.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/seq_ring.h"

namespace alex::obs {

/// What happened. The `a` / `b` arguments per type:
///   kTopologySplit/kMerge/kRebalance  a = victim count, b = child count;
///       shard = first victim index, wal_id = first victim's log id (0
///       unlogged), lsn = first victim's seal LSN (0 unlogged).
///   kCheckpoint   a = manifest generation, b = shard count; lsn = highest
///       checkpoint LSN across shards.
///   kRecovery     a = WAL records replayed, b = recovered shard count.
///   kBulkLoad     a = keys loaded, b = shard count.
///   kWalEnabled   a = shard count; wal_id = first shard's log id.
///   kWalError     a = wal::WalStatus as int; wal_id/lsn = failing log.
///   kHealthTransition  a = health detector id, b = packed edge
///       (old_level * 256 + new_level); see obs/health.h.
///   kTierDemotion/kTierPromotion/kTierCompaction  a = keys in the shard,
///       b = cold segment id (the new segment for demotion/compaction,
///       the retired one for promotion); shard = victim index.
enum class EventType : uint8_t {
  kTopologySplit = 0,
  kTopologyMerge,
  kTopologyRebalance,
  kCheckpoint,
  kRecovery,
  kBulkLoad,
  kWalEnabled,
  kWalError,
  kHealthTransition,
  kTierDemotion,
  kTierPromotion,
  kTierCompaction,
};

inline const char* EventName(EventType type) {
  switch (type) {
    case EventType::kTopologySplit: return "topology_split";
    case EventType::kTopologyMerge: return "topology_merge";
    case EventType::kTopologyRebalance: return "topology_rebalance";
    case EventType::kCheckpoint: return "checkpoint";
    case EventType::kRecovery: return "recovery";
    case EventType::kBulkLoad: return "bulk_load";
    case EventType::kWalEnabled: return "wal_enabled";
    case EventType::kWalError: return "wal_error";
    case EventType::kHealthTransition: return "health_transition";
    case EventType::kTierDemotion: return "tier_demotion";
    case EventType::kTierPromotion: return "tier_promotion";
    case EventType::kTierCompaction: return "tier_compaction";
  }
  return "?";
}

/// One journal record. `ts_ns` shares the clock of the slow-op ring
/// (TicksToNs(NowTicks())), so journal events and slow-op spans land on
/// one timeline in the Chrome-trace export.
struct JournalEvent {
  uint64_t ticket = 0;  // monotone append index; higher = more recent
  uint64_t ts_ns = 0;
  EventType type = EventType::kCheckpoint;
  uint32_t shard = 0;   // kShardAll when no single shard applies
  uint64_t wal_id = 0;  // 0 when no log is involved
  uint64_t lsn = 0;     // 0 when no LSN applies
  int64_t a = 0;        // type-specific, see EventType
  int64_t b = 0;        // type-specific, see EventType
};

/// One event as a JSON object (shared by SnapshotJson, the file sink and
/// the bench artifacts).
inline std::string EventToJson(const JournalEvent& e) {
  std::string out = "{\"ticket\": " + std::to_string(e.ticket) +
                    ", \"ts_ns\": " + std::to_string(e.ts_ns) +
                    ", \"type\": \"";
  out += EventName(e.type);
  out += "\", \"shard\": ";
  out += e.shard == kShardAll ? std::string("\"all\"")
                              : std::to_string(e.shard);
  out += ", \"wal_id\": " + std::to_string(e.wal_id) +
         ", \"lsn\": " + std::to_string(e.lsn) +
         ", \"a\": " + std::to_string(e.a) +
         ", \"b\": " + std::to_string(e.b) + "}";
  return out;
}

/// The append-only ring + optional file sink. Append() is safe from any
/// thread; Snapshot() is wait-free with respect to appenders.
class EventJournal {
 public:
  static constexpr size_t kCapacity = 512;  // power of two

  /// The process-wide journal, deliberately leaked like the metrics
  /// registry (instrumentation sites may fire during static destruction).
  static EventJournal& Global() {
    static EventJournal* global = new EventJournal();
    return *global;
  }

  EventJournal() = default;
  ~EventJournal() { CloseFileSink(); }
  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  /// Total events ever appended (the ring keeps the newest kCapacity).
  uint64_t recorded() const { return ring_.pushed(); }

  void Append(EventType type, uint32_t shard, uint64_t wal_id, uint64_t lsn,
              int64_t a, int64_t b) {
    JournalEvent e;
    e.ts_ns = TicksToNs(NowTicks());
    e.type = type;
    e.shard = shard;
    e.wal_id = wal_id;
    e.lsn = lsn;
    e.a = a;
    e.b = b;
    e.ticket = ring_.Push(e);
    if (sink_armed_.load(std::memory_order_acquire)) WriteSinkLine(e);
  }

  /// Stable records, oldest first.
  std::vector<JournalEvent> Snapshot() const {
    std::vector<JournalEvent> out;
    for (const auto& entry : ring_.Snapshot()) {
      out.push_back(entry.record);
      out.back().ticket = entry.ticket;
    }
    return out;
  }

  /// JSON array of the newest `max_events` records, oldest first.
  std::string SnapshotJson(size_t max_events = kCapacity) const {
    std::vector<JournalEvent> events = Snapshot();
    const size_t skip =
        events.size() > max_events ? events.size() - max_events : 0;
    std::string out = "[";
    for (size_t i = skip; i < events.size(); ++i) {
      if (i > skip) out += ", ";
      out += EventToJson(events[i]);
    }
    out += "]";
    return out;
  }

  /// Opens (truncating) a JSON-lines file that every subsequent Append
  /// also writes to. Returns false when the file cannot be opened.
  bool SetFileSink(const std::string& path) {
    std::lock_guard<std::mutex> lock(sink_mutex_);
    if (sink_ != nullptr) std::fclose(sink_);
    sink_ = std::fopen(path.c_str(), "w");
    sink_armed_.store(sink_ != nullptr, std::memory_order_release);
    return sink_ != nullptr;
  }

  void CloseFileSink() {
    std::lock_guard<std::mutex> lock(sink_mutex_);
    sink_armed_.store(false, std::memory_order_release);
    if (sink_ != nullptr) {
      std::fclose(sink_);
      sink_ = nullptr;
    }
  }

  /// Test/bench-only; must not race Append().
  void Reset() { ring_.Reset(); }

 private:

  void WriteSinkLine(const JournalEvent& e) {
    const std::string line = EventToJson(e);
    std::lock_guard<std::mutex> lock(sink_mutex_);
    if (sink_ == nullptr) return;
    std::fwrite(line.data(), 1, line.size(), sink_);
    std::fputc('\n', sink_);
    std::fflush(sink_);  // events are rare; keep the tail crash-readable
  }

  SeqRing<JournalEvent, kCapacity> ring_;
  std::atomic<bool> sink_armed_{false};
  std::mutex sink_mutex_;
  std::FILE* sink_ = nullptr;  // under sink_mutex_
};

inline EventJournal& GlobalJournal() { return EventJournal::Global(); }

}  // namespace alex::obs

// Instrumentation-site macro, following the ALEX_OBS_* contract: a
// disabled site is one relaxed load and a never-taken branch;
// -DALEX_DISABLE_OBS removes it entirely.
#if defined(ALEX_DISABLE_OBS)

#define ALEX_OBS_EVENT(type, shard, wal_id, lsn, a, b) \
  do {                                                 \
  } while (0)

#else  // !ALEX_DISABLE_OBS

#define ALEX_OBS_EVENT(type, shard, wal_id, lsn, a, b)                     \
  do {                                                                     \
    if (__builtin_expect(::alex::obs::Enabled(), 0)) {                     \
      ::alex::obs::GlobalJournal().Append(                                 \
          type, static_cast<uint32_t>(shard),                              \
          static_cast<uint64_t>(wal_id), static_cast<uint64_t>(lsn),       \
          static_cast<int64_t>(a), static_cast<int64_t>(b));               \
    }                                                                      \
  } while (0)

#endif  // ALEX_DISABLE_OBS
