// Sharded index service layer: N independent ConcurrentAlex shards behind
// a range router (ROADMAP "production scale"; the step past the paper's
// single in-process tree that §7 gestures at).
//
// Why: even with the lock-free read path, one ConcurrentAlex has
// tree-global choke points — bulk loads swap a single root, every split
// retires through one epoch manager, and a hot leaf's latch serializes all
// writers of that range. Range-partitioning the key space makes those
// costs per-shard: bulk loads, splits, epoch advancement and leaf latches
// in different shards never interact, so the index scales with cores and
// a crashed process can restore shard-by-shard.
//
// Architecture:
//
//      ShardedAlex
//        table_  ──► Table { ShardRouter, shards[] }     (immutable)
//                          │
//          ┌───────────────┼──────────────────┐
//          ▼               ▼                  ▼
//       Shard 0         Shard 1    ...     Shard N-1
//     ConcurrentAlex  cold segment       ConcurrentAlex
//     (-inf, b0)      [b0, b1)           [b_{N-2}, +inf)
//
// A Shard serves its own data ops (Get, Apply, Scan, Aggregate, ...)
// from whichever tier holds it: a resident ConcurrentAlex, or a cold
// segment + delta overlay (src/tier/). This layer routes, gates, logs
// and runs topology without branching on the tier.
//
// Protocol (mirrors the index's own EBR design one level up):
//
//   Routing.   `table_` points at an immutable Table: a ShardRouter (a
//     branchless upper bound over the shard boundaries — router.h) plus
//     the shard array. Readers pin an epoch guard (util/epoch.h), load the
//     table with one seq_cst load, route, and operate on the shard with no
//     shard-layer locking of any kind.
//
//   Writes.   Writers additionally hold the target shard's `write_gate`
//     shared for the duration of one committed operation and re-route if
//     the shard is marked retired. The gate is what lets a rebalance drain
//     a shard: writers of *other* shards never contend on it, and readers
//     never touch it. There is no global key counter: size() sums the
//     per-shard counts, so writes to disjoint shards share no cache line
//     at the shard layer, and the split skew check (which must read every
//     shard's size) is amortized to every 1024th key committed into a
//     shard.
//
//   Topology transactions.   Every topology change — a *split* (one hot
//     shard → kSplitWays children, triggered by the skew check or the
//     absolute bound), a *merge* (two adjacent small shards → one child,
//     triggered by the inverse skew check when erases shrink them under
//     the configured floor), and an explicit *rebalance* (re-even the
//     boundaries of an adjacent run, shard count unchanged) — runs
//     through one protocol, ExecuteTopologyTxn:
//
//       1. drain   the victims' write gates, taken exclusive in
//                  ascending order (in-flight writers finish, new ones
//                  wait or re-route);
//       2. build   the child shards off to the side from the victims'
//                  now write-quiescent contents;
//       3. log     open the children's WAL segments (directory-fsynced
//                  at creation) whose lineage names every victim —
//                  multi-parent via the kTopology record;
//       4. publish the replacement Table with one store;
//       5. seal    the victims' logs at the publish LSN (the drain
//                  guarantees no record lands in between — asserted);
//       6. retire  the victims (stragglers re-route) and the old Table
//                  through EBR.
//
//     The protocol's invariants live in that one function: gates are
//     drained before any seal, the seal LSN equals the publish LSN, and
//     parents are retired only after the children's segments are
//     durable in the directory. Readers concurrently inside a victim
//     keep reading it: its contents are never erased, and the Table
//     (and with it the victim shard) is freed only two epoch advances
//     after retirement.
//
//   Scans.   A cross-shard RangeScan, Scan or Aggregate pins one table
//     and visits the overlapping shards in ascending order on the calling
//     thread; shards are disjoint ascending ranges, so concatenation is
//     already sorted. Same read-committed contract as
//     ConcurrentAlex::Scan; RangeScan is a Scan whose visitor stops once
//     it holds enough records.
//
//   Durability.   A shard has one durable form, resident or cold:
//     manifest entry + tier/segment.h segment + WAL tail. SaveTo
//     quiesces writers (all gates, in shard order), writes one fresh
//     segment per shard (a clean cold shard's existing segment is
//     referenced as-is) plus a checksummed manifest (manifest.h v7)
//     holding the boundaries, per-shard key counts, tier tags, segment
//     ids and wal lineage anchors; the manifest rename is the commit
//     point. LoadFrom rebuilds the whole table off to the
//     side and publishes it only when every segment validated, mapping
//     each failure to a distinct core::SnapshotStatus. Recovery with a
//     manifest is *boundary-preserving* and shard-parallel: the
//     manifest's boundary array is the recovered topology, and each
//     shard replays its own log-tail lineage into a segment + delta
//     overlay independently on a small thread pool (a merge child's
//     records are range-filtered back to the shards they came from);
//     shards tagged resident are then bulk-loaded from that merged
//     stream.
//
//   Write-ahead logging.   EnableWal attaches one src/wal/ log per shard
//     and anchors it with a checkpoint. From then on every write is
//     log-before-apply under the same shared gate that already covers the
//     apply, so a checkpoint's exclusive gates see log and index in
//     lockstep. SaveTo doubles as the checkpoint: it records each log's
//     LSN in the manifest, rotates the logs, and deletes everything the
//     checkpoint made redundant. LoadFrom doubles as recovery: segments
//     first, then the per-shard log tails replayed in wal-id order
//     (parent-before-child across shard splits — wal/wal_format.h), with
//     a torn final record truncated and every other corruption surfaced
//     as a distinct wal::WalStatus in the RecoveryReport. A shard split
//     seals the victim's log at the publish LSN (under the same
//     exclusive gate that drained its writers) and opens fresh segments
//     for the replacements. Recovery linearizes concurrent same-key
//     writes in log order, which for operations that overlapped in real
//     time may differ from apply order — either is a valid linearization
//     of the acknowledged history.
//
// Lock order: rebalance_mutex_ → write_gate(s) in ascending shard order.
// Point writes take exactly one gate shared and no mutex; reads take
// nothing. One epoch guard per operation: the shards share this layer's
// reclamation domain (the guard ConcurrentAlex pins internally is a
// reentrant no-op on ours).
#pragma once

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <shared_mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/concurrent_alex.h"
#include "core/config.h"
#include "core/serialization.h"
#include "obs/inspect.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "shard/manifest.h"
#include "shard/router.h"
#include "tier/block_cache.h"
#include "tier/segment.h"
#include "util/epoch.h"
#include "wal/log_reader.h"
#include "wal/log_writer.h"
#include "wal/wal_format.h"

namespace alex::shard {

/// Tuning for ShardedAlex.
struct ShardedOptions {
  /// Shard count targeted by BulkLoad/LoadFrom (rebalances may grow it).
  size_t num_shards = 8;
  /// Split a shard once its size exceeds `rebalance_skew` times the mean
  /// shard size.
  double rebalance_skew = 4.0;
  /// Never split a shard smaller than this (keeps pathological churn away
  /// from tiny indexes).
  size_t min_rebalance_keys = 4096;
  /// Absolute per-shard size bound (0 = none). Lets a single-shard or
  /// uniformly growing table split even when no relative skew exists.
  size_t max_shard_keys = 1u << 20;
  /// Merge two adjacent shards once their *combined* size falls under
  /// this floor (the inverse of the skew check: two small shards whose
  /// union is still a small shard). 0 disables merges. Keep it at or
  /// below min_rebalance_keys so a fresh merge child cannot immediately
  /// re-trip the split trigger.
  size_t merge_threshold_keys = 0;
  // ---- Cold tier (src/tier/) ----
  /// Block-cache capacity in bytes for cold-segment reads: the table
  /// of verified blocks (tier/block_cache.h) gets one slot per block's
  /// worth. Size it to the hot portion of the cold tier.
  size_t tier_cache_bytes = 16u << 20;
  /// Directory/prefix where demotion writes its segment files. Empty
  /// defers to the WAL prefix; demotion fails when neither is set.
  std::string tier_prefix;
  /// Configuration applied to every shard's ConcurrentAlex.
  core::Config shard_config;
};

// Fixed shard-layer policy. Cold segments use tier::kDefaultBlockBytes
// blocks.

/// How many shards one split turns the victim into.
inline constexpr size_t kSplitWays = 2;
/// Width of the pool that builds or writes whole shards: bulk load,
/// checkpoint segment writes and recovery's per-shard replay (clamped to
/// the shard count and the hardware concurrency).
inline constexpr size_t kBuildThreads = 8;
/// TieringTick is a no-op until the traffic window since the previous
/// tick holds at least this many routed operations.
inline constexpr uint64_t kTierMinWindowOps = 1024;
/// TieringTick never demotes a shard holding fewer keys than this (tiny
/// shards are not worth a segment file).
inline constexpr size_t kTierMinDemoteKeys = 1024;
/// TieringTick demotes a resident shard whose share of the window's
/// traffic fell under this fraction of the fair (1/n) share.
inline constexpr double kTierDemoteFraction = 0.1;
/// TieringTick promotes a cold shard whose share of the window's traffic
/// reached this many times the fair share ...
inline constexpr double kTierPromoteShare = 1.0;
/// ... or whose delta overlay accumulated this many resident entries (a
/// write-heavy cold shard pays double bookkeeping; bring it back).
inline constexpr size_t kTierPromoteDeltaKeys = 256;

/// A range-partitioned, range-routed collection of ConcurrentAlex
/// shards. All methods are safe to call from any thread. Point operations
/// are linearizable; scans are read-committed (see the protocol above).
template <typename K, typename P>
class ShardedAlex {
 public:
  explicit ShardedAlex(const ShardedOptions& options = ShardedOptions())
      : options_(options),
        block_cache_(options.tier_cache_bytes,
                     kKeysPerBlock * (sizeof(K) + sizeof(P))) {
    auto* table = new Table();
    table->shards.push_back(
        std::make_shared<Shard>(options_.shard_config, &epoch_));
    table_.store(table, std::memory_order_seq_cst);
  }

  /// Retired tables drain through the epoch manager's destructor. Callers
  /// must guarantee quiescence, as for any destructor.
  ~ShardedAlex() {
    StopTiering();
    delete table_.load(std::memory_order_relaxed);
  }

  ShardedAlex(const ShardedAlex&) = delete;
  ShardedAlex& operator=(const ShardedAlex&) = delete;

  /// Replaces the contents with `n` strictly-increasing keys, partitioned
  /// evenly across (at most) options.num_shards shards. Concurrent
  /// operations that landed in the old table linearize before the bulk
  /// load; in-flight writers are drained shard by shard. While the WAL is
  /// enabled the load seals the old shards' logs, opens fresh ones, and
  /// re-checkpoints automatically (the bulk-loaded contents exist in no
  /// log, so only a checkpoint can anchor them); a checkpoint failure
  /// disables logging — nothing could truthfully be called durable
  /// without the anchor — and records kCheckpointFailed in
  /// last_wal_error().
  void BulkLoad(const K* keys, const P* payloads, size_t n) {
    std::lock_guard<std::mutex> rebalance(rebalance_mutex_);
    Table* next = Partition(keys, payloads, n);
    if (wal_enabled_ && !AttachFreshLogs(&next->shards, /*parents=*/{})) {
      // Could not open log files: surface the error and stop logging
      // rather than silently running some shards unlogged.
      wal_enabled_ = false;
      last_wal_error_.store(wal::WalStatus::kIoError,
                            std::memory_order_relaxed);
      ALEX_OBS_EVENT(obs::EventType::kWalError, obs::kShardAll, 0, 0,
                     static_cast<int>(wal::WalStatus::kIoError), 0);
    }
    // The sealed logs keep the old lineage replayable until the
    // checkpoint below supersedes it.
    ReplaceTable(next);
    ALEX_OBS_EVENT(obs::EventType::kBulkLoad, obs::kShardAll, 0, 0, n,
                   next->shards.size());
    if (wal_enabled_ &&
        SaveToLocked(wal_prefix_) != core::SnapshotStatus::kOk) {
      // The bulk-loaded baseline now exists in no checkpoint and no log;
      // continuing to log would let a recovery silently roll the index
      // back to the pre-load state while claiming the post-load writes
      // were durable. Fail closed: stop logging and surface the error.
      DetachLogs(table_.load(std::memory_order_seq_cst));
      wal_enabled_ = false;
      last_wal_error_.store(wal::WalStatus::kCheckpointFailed,
                            std::memory_order_relaxed);
      ALEX_OBS_EVENT(obs::EventType::kWalError, obs::kShardAll, 0, 0,
                     static_cast<int>(wal::WalStatus::kCheckpointFailed), 0);
    }
  }

  /// Inserts; false on duplicate. One route + one shard-gate shared lock
  /// on top of the shard's own insert path. When the commit leaves the
  /// target shard oversized, the split runs synchronously on this thread
  /// before returning (the relative skew check itself is amortized — see
  /// MaybeSplit).
  bool Insert(K key, const P& payload) {
    return Write(obs::OpType::kInsert, wal::WalRecordType::kInsert, key,
                 payload);
  }

  /// Removes `key`; false when absent. An erase that leaves the target
  /// shard (plus an adjacent neighbor) under the merge floor triggers a
  /// merge transaction on this thread before returning; like the split
  /// skew check, the check is amortized to every kSkewCheckInterval-th
  /// commit into the shard.
  bool Erase(K key) {
    return Write(obs::OpType::kErase, wal::WalRecordType::kErase, key, P{});
  }

  /// Overwrites an existing payload; false when absent.
  bool Update(K key, const P& payload) {
    return Write(obs::OpType::kUpdate, wal::WalRecordType::kUpdate, key,
                 payload);
  }

  // ---- Batched operations ----
  //
  // MultiGet routes each key once, in caller order. Keys of cold shards
  // read through the tier as Get does; every other key goes straight
  // into ConcurrentAlex::GroupGet, which walks a group of them through
  // their shards' trees together with the group's cache misses
  // overlapped. The batch is never sorted.
  //
  // Write batches are sorted once (an index permutation, so callers'
  // arrays stay in caller order) and executed as one *shard run* at a
  // time: the maximal stretch of consecutive sorted keys routing to one
  // shard. Costs amortized per run instead of per key: one write-gate
  // shared lock, one WAL group-commit batch (one reservation in the
  // mapped log and at most one fdatasync(2) for the whole run), and,
  // inside the shard, one epoch guard with one leaf latch per leaf run.
  // The router is evaluated once per run; run boundaries come from the
  // router's own shard lower bounds, one comparison per key.
  //
  // Batches are not atomic as a unit; each key linearizes individually,
  // exactly like the scalar ops.

  /// Batched Get. Fills `payloads[i]`/`found[i]` per key (caller order);
  /// returns the number found. Lock-free at the shard layer, like Get.
  /// Every routed key is charged to its shard's traffic, one update of
  /// this thread's stripe per run of consecutive keys routed to the same
  /// shard.
  size_t MultiGet(const K* keys, size_t n, P* payloads, bool* found) const {
    if (n == 0) return 0;
    obs::ScopedOpTimer op_timer(obs::OpType::kMultiGet);
    util::EpochManager::Guard guard(epoch_);
    const Table* table = table_.load(std::memory_order_seq_cst);
    const Shard* run_shard = nullptr;
    uint64_t run_keys = 0;
    size_t cold_hits = 0;
    // GroupGet asks for each key's tree once, in caller order: route the
    // key there, and serve a cold shard's key through the tier on the
    // spot.
    auto route = [&](size_t i) -> const core::ConcurrentAlex<K, P>* {
      const Shard* shard = table->shards[table->router.Route(keys[i])].get();
      if (shard != run_shard) {
        if (run_shard != nullptr) {
          run_shard->traffic.Add(run_keys);
        }
        run_shard = shard;
        run_keys = 0;
      }
      ++run_keys;
      if (!shard->cold()) return &shard->index;
      found[i] = shard->Get(keys[i], &payloads[i], &block_cache_);
      if (found[i]) ++cold_hits;
      return nullptr;
    };
    const size_t hits = core::ConcurrentAlex<K, P>::GroupGet(
        route, keys, n, payloads, found);
    run_shard->traffic.Add(run_keys);
    return hits + cold_hits;
  }

  /// Batched Insert; `inserted[i]` (when non-null, caller order) reports
  /// per-key success (false = duplicate, or the run's WAL batch failed).
  /// Returns the number inserted. Log-before-apply per run: the whole
  /// run's records group-commit as one WAL batch before any of the run
  /// is applied, and a failed batch fails the whole run closed.
  size_t MultiInsert(const K* keys, const P* payloads, size_t n,
                     bool* inserted = nullptr) {
    return MultiWrite(obs::OpType::kMultiInsert, wal::WalRecordType::kInsert,
                      keys, payloads, n, inserted);
  }

  /// Batched Erase; `erased[i]` (when non-null, caller order) reports
  /// per-key success. Returns the number erased. One WAL group-commit
  /// batch per shard run, like MultiInsert.
  size_t MultiErase(const K* keys, size_t n, bool* erased = nullptr) {
    return MultiWrite(obs::OpType::kMultiErase, wal::WalRecordType::kErase,
                      keys, nullptr, n, erased);
  }

  /// Copies the payload of `key` into `*out`; returns false when absent.
  /// No shard-layer locking and no shared write: epoch guard + table load
  /// + route, a traffic charge to this thread's stripe, then the shard's
  /// validated leaf probe (ConcurrentAlex::Get).
  bool Get(K key, P* out) const {
    obs::ScopedOpTimer op_timer(obs::OpType::kGet);
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    const size_t idx = table->router.Route(key);
    op_timer.set_shard(static_cast<uint32_t>(idx));
    Shard* shard = table->shards[idx].get();
    shard->traffic.Increment();
    return shard->Get(key, out, &block_cache_);
  }

  /// True when `key` is present (same lock-free path as Get).
  bool Contains(K key) const {
    obs::ScopedOpTimer op_timer(obs::OpType::kContains);
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    const size_t idx = table->router.Route(key);
    op_timer.set_shard(static_cast<uint32_t>(idx));
    Shard* shard = table->shards[idx].get();
    shard->traffic.Increment();
    P ignored;
    return shard->Get(key, &ignored, &block_cache_);
  }

  /// Cross-shard range scan: up to `max_results` records with key >=
  /// `start`, in key order, into `out` (cleared first). From the shard
  /// that holds `start` on, each shard runs its one Scan with a visitor
  /// that writes straight into `out` and stops once it is full.
  /// Read-committed, like Scan; the
  /// whole scan uses the table pinned at entry, so a concurrent rebalance
  /// never tears it.
  size_t RangeScan(K start, size_t max_results,
                   std::vector<std::pair<K, P>>* out) const {
    out->clear();
    obs::ScopedOpTimer op_timer(obs::OpType::kRangeScan);
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    size_t left = max_results;
    const auto take = [&](const K& key, const P& payload) {
      out->emplace_back(key, payload);
      return --left != 0;
    };
    for (size_t s = table->router.Route(start);
         left != 0 && s < table->shards.size(); ++s) {
      Shard* shard = table->shards[s].get();
      shard->traffic.Increment();
      shard->Scan(start, core::KeyTop<K>(), take);
    }
    return out->size();
  }

  /// Cross-shard streaming scan of [lo, hi], visiting every record in
  /// ascending key order as visit(key, payload) on the calling thread; a
  /// visitor returning bool stops the scan by returning false (see
  /// ConcurrentAlex::Scan). One routing table is pinned for the whole
  /// scan; each overlapping shard's Scan streams straight into the
  /// visitor in shard order (the shards are disjoint ascending key
  /// ranges, so the concatenation is sorted) with zero buffering. Nothing
  /// is spawned: per-call worker threads cost more than a short range
  /// scan itself, and under a closed-loop client per core they only
  /// queue for a core. Read-committed per leaf. Returns the number of
  /// records visited, the one that stopped the scan included.
  template <typename Visitor>
  size_t Scan(K lo, K hi, Visitor&& visit) const {
    if (hi < lo) return 0;
    obs::ScopedOpTimer op_timer(obs::OpType::kScan);
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    const size_t last = table->router.Route(hi);
    bool more = true;
    const auto step = [&](const K& key, const P& payload) {
      return more = core::VisitRecord(visit, key, payload);
    };
    size_t total = 0;
    for (size_t s = table->router.Route(lo); more && s <= last; ++s) {
      total += table->shards[s]->Scan(lo, hi, step);
    }
    return total;
  }

  /// Cross-shard aggregate with full pushdown: the spec travels below the
  /// router into each overlapping shard, where each leaf folds
  /// count/sum/min/max without materializing a single record; the partial
  /// aggregates merge at the router in ascending shard order (so double
  /// sums are deterministic). The shards are visited one after another on
  /// the calling thread under the routing table pinned at entry. A caller
  /// that wants one huge aggregate spread over cores can split [lo, hi]
  /// into disjoint ascending subranges, aggregate each on its own thread
  /// and Merge the partials in range order. Read-committed per leaf, like
  /// Scan.
  core::AggResult<K, P> Aggregate(K lo, K hi,
                                  const core::AggSpec<P>& spec = {}) const {
    core::AggResult<K, P> result;
    if (hi < lo) return result;
    obs::ScopedOpTimer op_timer(obs::OpType::kAggregate);
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    const size_t last = table->router.Route(hi);
    for (size_t s = table->router.Route(lo); s <= last; ++s) {
      result.Merge(table->shards[s]->Aggregate(lo, hi, spec));
    }
    return result;
  }

  /// Total key count: the sum of per-shard counts, point-in-time per
  /// shard. There is deliberately no global counter for writers to
  /// contend on.
  size_t size() const {
    util::EpochManager::Guard guard(epoch_);
    return TotalKeys(table_.load(std::memory_order_seq_cst));
  }

  size_t num_shards() const {
    util::EpochManager::Guard guard(epoch_);
    return table_.load(std::memory_order_seq_cst)->shards.size();
  }

  /// Completed shard splits (diagnostics/tests).
  uint64_t rebalance_count() const {
    return rebalances_.load(std::memory_order_relaxed);
  }

  /// Completed shard merges (diagnostics/tests).
  uint64_t merge_count() const {
    return merges_.load(std::memory_order_relaxed);
  }

  /// Total topology transactions (splits + merges + rebalances)
  /// committed over the index's lifetime; persisted by checkpoints and
  /// restored by LoadFrom, so the epoch is monotone across restarts.
  uint64_t topology_epoch() const {
    return topology_epoch_.load(std::memory_order_relaxed);
  }

  /// Explicitly re-evens the boundaries of every shard whose range
  /// intersects [lo_key, hi_key] — shard count unchanged, each child
  /// holding ~1/n of the victims' combined keys. The operator hook for
  /// un-carving a region after a churn storm; runs through the same
  /// topology transaction as splits and merges. One transaction handles
  /// at most wal::kMaxTopologyParents victims (a child's lineage record
  /// must name every one); a wider range is clamped — call again to
  /// continue. Cold victims are taken like resident ones (streamed
  /// through their segment + overlay); every child is resident. Returns
  /// false when the range maps to a single shard, a rival transaction is
  /// in flight, or the victims hold fewer keys than shards.
  bool Rebalance(K lo_key, K hi_key) {
    if (hi_key < lo_key) return false;
    util::EpochManager::Guard guard(epoch_);
    std::unique_lock<std::mutex> rebalance(rebalance_mutex_,
                                           std::try_to_lock);
    if (!rebalance.owns_lock()) return false;
    Table* table = table_.load(std::memory_order_seq_cst);
    const size_t lo = table->router.Route(lo_key);
    const size_t hi = std::min(table->router.Route(hi_key) + 1,
                               lo + wal::kMaxTopologyParents);
    if (hi - lo < 2) return false;
    return ExecuteTopologyTxn(TopologyOp::kRebalance, table, lo, hi,
                              hi - lo);
  }

  // ---- Tiered storage ----
  //
  // A shard is either *resident* (a ConcurrentAlex, the default) or
  // *cold*: its contents sealed into one checksummed, mmap-backed,
  // read-only segment (tier/segment.h) plus a small resident delta
  // overlay for post-demotion writes. Cold reads search the mapping in
  // place, checksumming a block the first time the verified-block table
  // (tier/block_cache.h) sees it. Demotion, promotion
  // and compaction replace the one victim shard in a copied table —
  // same publish/retire protocol as a topology transaction, but the
  // shard's WAL log *moves* to the replacement instead of being sealed:
  // the logical shard (and its LSN stream) continues across the tier
  // transition, so recovery needs no tier-specific lineage handling.
  // Topology transactions take cold victims as they are and build
  // resident children; only demotion turns a shard cold.

  /// Demotes shard `idx` to a cold segment written at the tier prefix
  /// (options.tier_prefix, defaulting to the WAL prefix). kOk when the
  /// shard is already cold; kIoError when no prefix is configured or the
  /// segment cannot be written durably. An empty shard demotes to an
  /// empty segment.
  core::SnapshotStatus DemoteShard(size_t idx) {
    std::lock_guard<std::mutex> rebalance(rebalance_mutex_);
    return DemoteShardLocked(idx);
  }

  /// Promotes cold shard `idx` back to a resident ConcurrentAlex built
  /// from the merged segment+overlay stream. kOk when already resident.
  core::SnapshotStatus PromoteShard(size_t idx) {
    std::lock_guard<std::mutex> rebalance(rebalance_mutex_);
    return PromoteShardLocked(idx);
  }

  /// Compacts cold shard `idx`: folds its delta overlay into a fresh
  /// segment (dropping overwritten and erased keys; an emptied shard
  /// folds into an empty segment), emptying the overlay. A clean overlay
  /// is a no-op.
  core::SnapshotStatus CompactShard(size_t idx) {
    std::lock_guard<std::mutex> rebalance(rebalance_mutex_);
    return CompactShardLocked(idx);
  }

  /// Compacts every cold shard with a dirty overlay; returns how many
  /// compactions ran. The WAL-side effect matters as much as the
  /// segment: the next checkpoint references the compacted segments
  /// as-is, so the checkpoint-to-checkpoint replay chain shrinks by
  /// every record the fold retired.
  size_t Compact() {
    std::lock_guard<std::mutex> rebalance(rebalance_mutex_);
    util::EpochManager::Guard guard(epoch_);
    size_t ran = 0;
    const size_t shards =
        table_.load(std::memory_order_seq_cst)->shards.size();
    for (size_t i = 0; i < shards; ++i) {
      Table* table = table_.load(std::memory_order_seq_cst);
      if (i >= table->shards.size()) break;
      Shard* shard = table->shards[i].get();
      if (shard->DeltaEntries() == 0) continue;  // resident, or clean
      if (CompactShardLocked(i) == core::SnapshotStatus::kOk) ++ran;
    }
    return ran;
  }

  /// One pass of the traffic-driven tiering policy. Reads each shard's
  /// routed-operation count since the previous tick; when the window
  /// holds at least kTierMinWindowOps, demotes resident shards whose
  /// share fell under kTierDemoteFraction of fair (and that hold
  /// kTierMinDemoteKeys keys), and promotes cold shards
  /// whose share reached kTierPromoteShare of fair or whose overlay
  /// grew past kTierPromoteDeltaKeys entries. Returns the number of
  /// tier transitions; skips (returns 0) when a rival topology
  /// transaction holds the rebalance lock.
  size_t TieringTick() {
    std::unique_lock<std::mutex> rebalance(rebalance_mutex_,
                                           std::try_to_lock);
    if (!rebalance.owns_lock()) return 0;
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    const size_t n = table->shards.size();
    std::vector<uint64_t> window(n);
    uint64_t total = 0;
    for (size_t i = 0; i < n; ++i) {
      Shard* shard = table->shards[i].get();
      const uint64_t now = shard->traffic.Load();
      window[i] = now - shard->traffic_mark;
      total += window[i];
    }
    if (total < kTierMinWindowOps) return 0;
    for (size_t i = 0; i < n; ++i) {
      Shard* shard = table->shards[i].get();
      shard->traffic_mark = shard->traffic.Load();
    }
    const double fair =
        static_cast<double>(total) / static_cast<double>(n);
    size_t transitions = 0;
    // Tier transitions replace shards in place (count and order are
    // stable), so the indices gathered above stay valid across our own
    // publishes; the rebalance lock excludes everyone else's.
    for (size_t i = 0; i < n; ++i) {
      const Shard* shard =
          table_.load(std::memory_order_seq_cst)->shards[i].get();
      if (shard->cold()) {
        const bool hot_again =
            static_cast<double>(window[i]) >=
            fair * kTierPromoteShare;
        const bool overlay_heavy =
            shard->DeltaEntries() >= kTierPromoteDeltaKeys;
        if ((hot_again || overlay_heavy) &&
            PromoteShardLocked(i) == core::SnapshotStatus::kOk) {
          ++transitions;
        }
      } else {
        const bool idle = static_cast<double>(window[i]) <=
                          fair * kTierDemoteFraction;
        if (idle && shard->size() >= kTierMinDemoteKeys &&
            DemoteShardLocked(i) == core::SnapshotStatus::kOk) {
          ++transitions;
        }
      }
    }
    return transitions;
  }

  /// Starts a background thread running TieringTick every
  /// `interval_ms`. Idempotent; StopTiering (or the destructor) joins
  /// it.
  void StartTiering(uint64_t interval_ms) {
    std::lock_guard<std::mutex> lock(tiering_mutex_);
    if (tiering_thread_.joinable()) return;
    tiering_stop_ = false;
    tiering_thread_ = std::thread([this, interval_ms] {
      std::unique_lock<std::mutex> lock(tiering_mutex_);
      while (!tiering_stop_) {
        tiering_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms));
        if (tiering_stop_) break;
        lock.unlock();
        TieringTick();
        lock.lock();
      }
    });
  }

  void StopTiering() {
    std::thread worker;
    {
      std::lock_guard<std::mutex> lock(tiering_mutex_);
      if (!tiering_thread_.joinable()) return;
      tiering_stop_ = true;
      worker = std::move(tiering_thread_);
    }
    tiering_cv_.notify_all();
    worker.join();
  }

  /// Tier of shard `idx` (diagnostics/tests).
  bool IsShardCold(size_t idx) const {
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    return idx < table->shards.size() && table->shards[idx]->cold();
  }

  size_t cold_shard_count() const {
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    size_t count = 0;
    for (const auto& shard : table->shards) {
      count += shard->cold() ? 1 : 0;
    }
    return count;
  }

  /// Bytes held in cold-tier segment files (the live table's).
  uint64_t ColdBytes() const {
    util::EpochManager::Guard guard(epoch_);
    return ColdBytesOf(table_.load(std::memory_order_seq_cst));
  }

  uint64_t demotion_count() const {
    return demotions_.load(std::memory_order_relaxed);
  }
  uint64_t promotion_count() const {
    return promotions_.load(std::memory_order_relaxed);
  }
  uint64_t compaction_count() const {
    return compactions_.load(std::memory_order_relaxed);
  }

  /// The cold-tier block cache (stats for benches/tests).
  const tier::BlockCache& block_cache() const { return block_cache_; }

  /// Current shard lower bounds (diagnostics/tests).
  std::vector<K> ShardBoundaries() const {
    util::EpochManager::Guard guard(epoch_);
    return table_.load(std::memory_order_seq_cst)->router.boundaries();
  }

  /// Shard index `key` routes to (diagnostics/tests).
  size_t ShardOf(K key) const {
    util::EpochManager::Guard guard(epoch_);
    return table_.load(std::memory_order_seq_cst)->router.Route(key);
  }

  /// Whole-table accounting; call only while no writers are in flight
  /// (bench/reporting hook), like the per-shard equivalents.
  size_t IndexSizeBytes() const {
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    size_t total = table->router.SizeBytes();
    for (const auto& shard : table->shards) total += shard->IndexBytes();
    return total;
  }

  size_t DataSizeBytes() const {
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    size_t total = 0;
    for (const auto& shard : table->shards) total += shard->DataBytes();
    return total;
  }

  // ---- Durability ----

  /// Path of the manifest for `prefix`; each shard's contents live in a
  /// tier::SegmentPath(prefix, id) file the manifest names.
  static std::string ManifestPath(const std::string& prefix) {
    return prefix + ".manifest";
  }

  /// Writes one segment file per shard plus the manifest. Quiesces
  /// writers for the duration (all gates, ascending shard order), so the
  /// checkpoint is a fully consistent point-in-time image; readers are
  /// never blocked. The save is all-or-nothing with respect to a
  /// previous checkpoint at the same prefix: segments are written under
  /// fresh ids the committed manifest never references, the manifest is
  /// committed with an atomic rename, and only then are unreferenced
  /// files removed — a failure at any step leaves the old checkpoint
  /// loadable.
  ///
  /// With the WAL enabled (and `prefix` equal to the WAL prefix) this is
  /// the *checkpoint*: the manifest records each shard log's LSN, the
  /// logs rotate onto fresh segments, and every log segment the
  /// checkpoint made redundant is deleted. Saving to a different prefix
  /// is a plain export and leaves the logs alone.
  core::SnapshotStatus SaveTo(const std::string& prefix) const {
    std::lock_guard<std::mutex> rebalance(rebalance_mutex_);
    return SaveToLocked(prefix);
  }

  /// Replaces the contents from a SaveTo image — and, when WAL segments
  /// exist at the prefix, *recovers*: each shard's log tail (records
  /// past its checkpoint LSN) is replayed over its segment in wal-id
  /// order. The replacement table is built entirely off to the side and
  /// published only when the manifest, every shard segment, and every
  /// log segment validated; on any non-kOk status the live index is
  /// untouched. A segment the manifest references but the filesystem
  /// lacks yields kMissingShard; a segment whose key count disagrees
  /// with the manifest, or whose keys fall outside the shard's boundary
  /// range (a swapped or foreign file), yields kManifestMismatch; a
  /// flipped block byte yields kSegmentCorrupt and a segment whose keys
  /// are out of order kUnsortedKeys; an unreplayable log
  /// yields kWalReplayFailed with the distinct wal::WalStatus (and, on
  /// success, replay counts) in `*report`. A torn final record is
  /// tolerated: replay truncates it away and loses at most that one
  /// unacknowledged write.
  ///
  /// Recovery does not resume logging: call EnableWal afterwards, whose
  /// anchor checkpoint also retires the replayed segments.
  core::SnapshotStatus LoadFrom(const std::string& prefix,
                                wal::RecoveryReport* report = nullptr) {
    std::lock_guard<std::mutex> rebalance(rebalance_mutex_);
    if (report != nullptr) *report = wal::RecoveryReport{};
    // While this index is itself logging, quiesce its writers for the
    // whole load: replay must never read (let alone truncate as "torn")
    // a batch a live group commit is still appending. Holding the gates
    // — rather than sealing the logs up front — means a load that
    // *fails* validation leaves the live index logging exactly as
    // before; only a successful load ends the old lineage.
    const bool was_logging = wal_enabled_;
    std::vector<std::unique_lock<std::shared_mutex>> quiesce;
    if (was_logging) {
      Table* live = table_.load(std::memory_order_seq_cst);
      quiesce.reserve(live->shards.size());
      for (const auto& shard : live->shards) {
        quiesce.emplace_back(shard->write_gate);
      }
    }
    ShardManifest<K> manifest;
    bool have_manifest = false;
    {
      // Distinguish "no checkpoint was ever committed" (recovery can
      // still proceed from the logs alone) from an unreadable/corrupt one.
      std::FILE* probe = std::fopen(ManifestPath(prefix).c_str(), "rb");
      if (probe != nullptr) {
        std::fclose(probe);
        const core::SnapshotStatus status =
            ReadManifest<K>(ManifestPath(prefix), &manifest);
        if (status != core::SnapshotStatus::kOk) return status;
        have_manifest = true;
      }
    }
    const std::vector<wal::WalSegmentFile> wal_files =
        wal::ListWalSegments(prefix);
    if (!have_manifest && wal_files.empty()) {
      return core::SnapshotStatus::kIoError;  // nothing at this prefix
    }

    // Open (mmap) and fully verify every shard's segment, resident and
    // cold alike.
    std::vector<std::shared_ptr<tier::ColdSegment<K, P>>> segments(
        manifest.num_shards());
    for (size_t i = 0; i < manifest.num_shards(); ++i) {
      const std::string path =
          tier::SegmentPath(prefix, manifest.segment_ids[i]);
      auto segment = std::make_shared<tier::ColdSegment<K, P>>();
      // The full audit pays one data pass, so a flipped block byte or an
      // out-of-order run surfaces now, not on some future read.
      const core::SnapshotStatus status =
          tier::OpenAudited(segment.get(), path, manifest.segment_ids[i]);
      // Only a file that is actually gone is "missing"; one that exists
      // but cannot be opened or mapped stays kIoError.
      if (status == core::SnapshotStatus::kIoError &&
          ::access(path.c_str(), F_OK) != 0 && errno == ENOENT) {
        return core::SnapshotStatus::kMissingShard;
      }
      if (status != core::SnapshotStatus::kOk) return status;
      if (segment->num_keys() != manifest.shard_keys[i]) {
        return core::SnapshotStatus::kManifestMismatch;
      }
      // Segments are sorted, so min/max bound the whole file: every key
      // must lie inside the shard's boundary range. Catches swapped or
      // replaced files even when the key counts happen to agree.
      if (segment->num_keys() > 0 &&
          (!KeyInShard(segment->min_key(), i, manifest.boundaries) ||
           !KeyInShard(segment->max_key(), i, manifest.boundaries))) {
        return core::SnapshotStatus::kManifestMismatch;
      }
      segments[i] = std::move(segment);
    }

    std::unique_ptr<Table> next;
    wal::RecoveryReport local_report;
    wal::RecoveryReport* rep = report != nullptr ? report : &local_report;
    if (have_manifest) {
      // Boundary-preserving recovery: the manifest's boundary array IS
      // the recovered topology, and each shard replays independently
      // (with no logs at the prefix, over zero lineages).
      const core::SnapshotStatus status = RecoverBoundaryPreserving(
          prefix, manifest, &segments, was_logging, rep, &next);
      if (status != core::SnapshotStatus::kOk) return status;
    } else {
      // Logs-alone recovery: no checkpoint ever committed, so there is
      // no topology to preserve — merge everything into one logical map
      // and partition fresh. Ascending wal-id order is parent-before-
      // child across topology changes, the only cross-log ordering
      // replay needs.
      std::map<K, P> state;
      // Never physically truncate while the segments might belong to
      // this index's own live logs (their writers map the files).
      const wal::WalStatus wal_status = wal::ReplayWal<K, P>(
          prefix, /*checkpoint_lsns=*/{}, &state, rep,
          /*truncate_torn_tail=*/!was_logging,
          /*require_known_roots=*/false);
      if (wal_status != wal::WalStatus::kOk) {
        return core::SnapshotStatus::kWalReplayFailed;
      }

      std::vector<K> keys;
      std::vector<P> payloads;
      keys.reserve(state.size());
      payloads.reserve(state.size());
      for (const auto& [key, payload] : state) {
        keys.push_back(key);
        payloads.push_back(payload);
      }
      next.reset(Partition(keys.data(), payloads.data(), keys.size()));
    }

    if (have_manifest) {
      topology_epoch_.store(manifest.topology_epoch,
                            std::memory_order_relaxed);
    }
    next_wal_id_ =
        std::max({next_wal_id_, manifest.next_wal_id, rep->max_wal_id + 1});
    // Fresh segment ids must clear the manifest's counter AND every
    // segment file on disk (a crashed demotion can leave a stray whose
    // id the crashed-away counter never persisted).
    next_segment_id_ = std::max(next_segment_id_, manifest.next_segment_id);
    {
      std::string dir, base;
      wal::SplitPrefixPath(prefix, &dir, &base);
      std::vector<std::string> names;
      if (wal::ListDirectory(dir, &names)) {
        for (const std::string& name : names) {
          uint64_t id = 0;
          if (tier::ParseSegmentFileName(name, base, &id)) {
            next_segment_id_ = std::max(next_segment_id_, id + 1);
          }
        }
      }
    }
    // The recovered table starts unlogged (see the method comment); any
    // logs of the replaced table belong to an abandoned lineage, get
    // sealed below, and are swept by the next checkpoint. The quiesce
    // gates must drop before the retire loop re-takes them.
    wal_enabled_ = false;
    quiesce.clear();
    [[maybe_unused]] const size_t recovered_shards = next->shards.size();
    ReplaceTable(next.release());
    ALEX_OBS_EVENT(obs::EventType::kRecovery, obs::kShardAll, 0, 0,
                   rep->records_replayed, recovered_shards);
    return core::SnapshotStatus::kOk;
  }

  // ---- Write-ahead logging ----

  /// Starts logging every write to per-shard logs at `prefix` and
  /// anchors them with an initial checkpoint (so recovery always has a
  /// checkpoint to replay onto). Typical lifecycles:
  ///
  ///   fresh:    ShardedAlex idx; idx.BulkLoad(...); idx.EnableWal(p);
  ///   restart:  ShardedAlex idx; idx.LoadFrom(p);   idx.EnableWal(p);
  ///
  /// The anchor checkpoint also sweeps any segments a previous
  /// incarnation left at the prefix, so enable-after-recover retires the
  /// very logs that were just replayed. Fails with kAlreadyEnabled when
  /// logging is already on, kIoError when a log file cannot be opened,
  /// and kCheckpointFailed when the anchor checkpoint cannot commit (in
  /// which case logging stays off and the index is unchanged).
  wal::WalStatus EnableWal(
      const std::string& prefix,
      const wal::WalOptions& options = wal::WalOptions()) {
    std::lock_guard<std::mutex> rebalance(rebalance_mutex_);
    if (wal_enabled_) return wal::WalStatus::kAlreadyEnabled;
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    // New ids must clear whatever is already on disk at this prefix so
    // fresh segments never collide with (or get mistaken for) old ones.
    for (const wal::WalSegmentFile& f : wal::ListWalSegments(prefix)) {
      if (f.wal_id >= next_wal_id_) next_wal_id_ = f.wal_id + 1;
    }
    wal_prefix_ = prefix;
    wal_options_ = options;
    if (!AttachFreshLogs(&table->shards, /*parents=*/{})) {
      DetachLogs(table);
      ALEX_OBS_EVENT(obs::EventType::kWalError, obs::kShardAll, 0, 0,
                     static_cast<int>(wal::WalStatus::kIoError), 0);
      return wal::WalStatus::kIoError;
    }
    wal_enabled_ = true;
    if (SaveToLocked(prefix) != core::SnapshotStatus::kOk) {
      DetachLogs(table);
      wal_enabled_ = false;
      ALEX_OBS_EVENT(obs::EventType::kWalError, obs::kShardAll, 0, 0,
                     static_cast<int>(wal::WalStatus::kCheckpointFailed), 0);
      return wal::WalStatus::kCheckpointFailed;
    }
    ALEX_OBS_EVENT(obs::EventType::kWalEnabled, obs::kShardAll,
                   table->shards.empty() || table->shards[0]->log == nullptr
                       ? 0
                       : table->shards[0]->log->wal_id(),
                   0, table->shards.size(), 0);
    return wal::WalStatus::kOk;
  }

  bool wal_enabled() const {
    std::lock_guard<std::mutex> rebalance(rebalance_mutex_);
    return wal_enabled_;
  }

  /// First WAL failure the write path swallowed (writes fail closed —
  /// they return false — but bool returns cannot say why). kOk when none.
  wal::WalStatus last_wal_error() const {
    return last_wal_error_.load(std::memory_order_relaxed);
  }

  /// Full structural check: per-shard invariants, strictly increasing
  /// boundaries, every key routed to the shard that holds it, and the
  /// global count. Requires quiescence. Test hook; O(n).
  bool CheckInvariants() const {
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    const std::vector<K>& bounds = table->router.boundaries();
    if (bounds.size() + 1 != table->shards.size()) return false;
    for (size_t i = 1; i < bounds.size(); ++i) {
      if (!(bounds[i - 1] < bounds[i])) return false;
    }
    size_t total = 0;
    for (size_t i = 0; i < table->shards.size(); ++i) {
      const auto& shard = table->shards[i];
      if (!shard->index.CheckInvariants()) return false;
      // Visitor-based drain: routing is checked record by record as the
      // scan streams — nothing is materialized. Cold shards stream the
      // merged overlay+segment view, which also exercises key order.
      bool routed_ok = true;
      K prev{};
      bool have_prev = false;
      const size_t scanned = shard->Scan(
          core::KeyBottom<K>(), core::KeyTop<K>(),
          [&](const K& key, const P&) {
            if (table->router.Route(key) != i) routed_ok = false;
            if (have_prev && !(prev < key)) routed_ok = false;
            prev = key;
            have_prev = true;
          });
      if (!routed_ok) return false;
      if (scanned != shard->size()) return false;
      total += scanned;
    }
    return total == size();
  }

  /// Structural introspection (obs/inspect.h): per-shard tree shape —
  /// depth, leaf count, fill factor, gap density, exact model-error
  /// distribution, chain length — plus the merged totals, stamped with
  /// the topology epoch the walk observed. Safe against concurrent
  /// operations (epoch-guarded, per-leaf shared latches); the result is
  /// read-committed per leaf, like a scan.
  obs::StructureReport Inspect() const {
    obs::StructureReport report;
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    report.topology_epoch = topology_epoch_.load(std::memory_order_relaxed);
    report.shards.reserve(table->shards.size());
    for (size_t i = 0; i < table->shards.size(); ++i) {
      obs::ShardStructure s;
      s.shard = static_cast<uint32_t>(i);
      s.cold = table->shards[i]->cold();
      s.tree = table->shards[i]->index.CollectStructure();
      report.total.Merge(s.tree);
      report.shards.push_back(std::move(s));
    }
    return report;
  }

 private:
  /// One shard: its contents, resident or cold, plus the write gate that
  /// lets a rebalance drain it. Shards are shared between successive
  /// tables (via shared_ptr) and die with the last table that references
  /// them, two epoch advances after that table retired.
  ///
  /// The shard's own data methods (size, Get, Apply, ApplyRun, Scan,
  /// Aggregate, Contents and the byte accounting) are the only
  /// place an operation chooses a tier; ShardedAlex routes, gates, logs
  /// and runs topology without knowing which tier serves the op.
  struct Shard {
    Shard(const core::Config& config, util::EpochManager* epoch)
        : index(config, epoch) {}
    // The resident tree; empty while the shard is cold.
    core::ConcurrentAlex<K, P> index;
    // The shard's write-ahead log; null while the WAL is disabled.
    // Written under the exclusive gate (attach/detach), read under the
    // shared gate (the write path) — never touched by readers.
    std::shared_ptr<wal::ShardLog<K, P>> log;
    // Writers hold this shared for one committed operation; rebalance,
    // bulk load and save hold it exclusive. Readers never touch it.
    mutable std::shared_mutex write_gate;
    // Set under the exclusive gate, after the replacement table is
    // published: writers that still routed here re-route.
    std::atomic<bool> retired{false};
    // Committed inserts + erases, driving the amortized skew check.
    // Shard-local, so writers to different shards share no cache line.
    std::atomic<uint64_t> commit_count{0};

    // ---- Cold tier ----
    //
    // A *cold* shard holds its checkpointed contents in one immutable
    // mmap-backed segment (tier/segment.h) instead of the tree, plus a
    // small resident *delta overlay* for the writes that landed since
    // demotion. Reads consult the overlay first (a tombstone hides a
    // segment key), then the segment mapping in place. `segment`
    // is set once when the cold replacement shard is built and never
    // reassigned, so the lock-free read path can test cold() with no
    // synchronization beyond the table load that published the shard.
    std::shared_ptr<tier::ColdSegment<K, P>> segment;
    struct DeltaEntry {
      P payload{};
      bool tombstone = false;
    };
    mutable std::shared_mutex delta_mutex;
    std::map<K, DeltaEntry> delta;
    // Live key count of a cold shard (segment keys minus tombstones plus
    // overlay inserts); resident shards use index.size() instead.
    std::atomic<uint64_t> cold_live{0};
    // Routed operations since the shard was built — the signal the
    // tiering policy reads. Striped per thread (obs::Counter), so the
    // readers that charge it share no cache line; Load() is exact.
    // `traffic_mark` is the policy's cursor into it, touched only under
    // rebalance_mutex_.
    mutable obs::Counter traffic;
    uint64_t traffic_mark = 0;

    bool cold() const { return segment != nullptr; }

    /// Live key count.
    uint64_t size() const {
      return cold() ? cold_live.load(std::memory_order_relaxed)
                    : index.size();
    }

    /// Point read; a cold one goes through `cache`.
    bool Get(const K& key, P* out, tier::BlockCache* cache) const {
      if (!cold()) return index.Get(key, out);
      return ColdGet(key, out, cache);
    }

    /// Applies one write with the WAL's replay semantics: kInsert is
    /// insert-if-absent, kErase erases, kUpdate overwrites-if-present
    /// (`payload` is ignored for kErase). Returns whether it took effect.
    /// Callers hold the write gate shared and have logged the record, or
    /// own a shard no table publishes yet (recovery). A cold write
    /// mutates only the overlay, under its exclusive lock; segment
    /// membership checks read the raw mapping (no cache pollution).
    bool Apply(wal::WalRecordType type, const K& key, const P& payload) {
      if (!cold()) {
        switch (type) {
          case wal::WalRecordType::kInsert:
            return index.Insert(key, payload);
          case wal::WalRecordType::kErase:
            return index.Erase(key);
          case wal::WalRecordType::kUpdate:
            return index.Update(key, payload);
          default:
            return false;
        }
      }
      std::unique_lock<std::shared_mutex> lock(delta_mutex);
      const auto it = delta.find(key);
      const bool in_delta = it != delta.end();
      const bool present =
          in_delta ? !it->second.tombstone : segment->Contains(key);
      switch (type) {
        case wal::WalRecordType::kInsert:  // fresh key or tombstone revival
          if (present) return false;
          cold_live.fetch_add(1, std::memory_order_relaxed);
          break;
        case wal::WalRecordType::kUpdate:  // shadows a segment key
          if (!present) return false;
          break;
        case wal::WalRecordType::kErase:
          if (!present) return false;
          cold_live.fetch_sub(1, std::memory_order_relaxed);
          if (in_delta && !segment->Contains(key)) {
            delta.erase(it);  // an overlay-only key disappears outright
          } else {
            delta[key] = DeltaEntry{P{}, true};  // hide the segment key
          }
          return true;
        default:
          return false;
      }
      delta[key] = DeltaEntry{payload, false};
      return true;
    }

    /// Applies one sorted run of same-type writes (`payloads` may be null
    /// for kErase), filling ok[k] per key; returns how many took effect.
    /// A resident run takes ConcurrentAlex's batched path: one epoch
    /// guard and one leaf latch per leaf run.
    size_t ApplyRun(wal::WalRecordType type, const K* keys,
                    const P* payloads, size_t n, bool* ok) {
      if (!cold() && type == wal::WalRecordType::kInsert) {
        return index.MultiInsert(keys, payloads, n, ok);
      }
      if (!cold() && type == wal::WalRecordType::kErase) {
        return index.MultiErase(keys, n, ok);
      }
      size_t count = 0;
      for (size_t k = 0; k < n; ++k) {
        ok[k] = Apply(type, keys[k], payloads == nullptr ? P{} : payloads[k]);
        count += ok[k] ? 1 : 0;
      }
      return count;
    }

    /// Streams [lo, hi] in ascending key order as visit(key, payload),
    /// which may return bool to stop (ConcurrentAlex::Scan); returns the
    /// records visited.
    template <typename Visitor>
    size_t Scan(const K& lo, const K& hi, Visitor&& visit) const {
      if (!cold()) return index.Scan(lo, hi, visit);
      return ColdScan(lo, hi, visit);
    }

    /// Aggregate pushdown. A cold shard folds one merged overlay+segment
    /// stream with the same spec semantics as the resident per-leaf
    /// folds (core/concurrent_alex.h AggregateLeafSlots).
    core::AggResult<K, P> Aggregate(const K& lo, const K& hi,
                                    const core::AggSpec<P>& spec) const {
      if (!cold()) return index.Aggregate(lo, hi, spec);
      core::AggResult<K, P> r;
      ColdScan(lo, hi, [&](const K& key, const P& payload) {
        if constexpr (std::is_arithmetic_v<P>) {
          if (spec.has_payload_filter &&
              (payload < spec.filter_lo || spec.filter_hi < payload)) {
            return true;
          }
        }
        ++r.count;
        if (spec.count_only) return true;
        if (spec.field == core::AggField::kKeys) {
          r.keys.Add(key);
        } else if constexpr (std::is_arithmetic_v<P>) {
          r.payloads.Add(payload);
        }
        return true;
      });
      return r;
    }

    /// Streams the whole shard into sorted key/payload arrays: the input
    /// of every segment write, tier transition and topology child. Callers
    /// keep the shard write-quiescent (exclusive gate, or a shard not yet
    /// published).
    void Contents(std::vector<K>* keys, std::vector<P>* payloads) const {
      keys->reserve(size());
      payloads->reserve(size());
      Scan(core::KeyBottom<K>(), core::KeyTop<K>(),
           [&](const K& key, const P& payload) {
             keys->push_back(key);
             payloads->push_back(payload);
           });
    }

    /// Resident index footprint. A cold shard's is the segment's fence
    /// model + per-block checksums; its mapped data blocks live on disk
    /// and in the kernel's page cache, never in a user-space copy.
    size_t IndexBytes() const {
      return cold() ? segment->MetaSizeBytes() : index.IndexSizeBytes();
    }

    /// Resident data footprint; a cold shard's is its overlay.
    size_t DataBytes() const {
      return cold() ? DeltaEntries() * (sizeof(K) + sizeof(P))
                    : index.DataSizeBytes();
    }

    /// Segment file bytes; 0 for a resident shard.
    uint64_t ColdBytes() const {
      return cold() ? segment->file_bytes() : 0;
    }

    /// Marks the shard retired, once the replacement table is published
    /// and with the exclusive gate held: writers still routed here
    /// re-route. Also forgets the segment's verified blocks; readers
    /// still inside the shard may verify a few again, which then age out.
    void Retire(tier::BlockCache* cache) {
      retired.store(true, std::memory_order_seq_cst);
      if (cold()) cache->EraseSegment(segment->cache_id());
    }

    /// True when the shard is cold and its segment file lives at `prefix`
    /// (the demotion or compaction that built it committed it there).
    bool SegmentAt(const std::string& prefix) const {
      return cold() &&
             segment->path() == tier::SegmentPath(prefix, segment->id());
    }

    /// Overlay entries; always 0 for a resident shard.
    size_t DeltaEntries() const {
      std::shared_lock<std::shared_mutex> lock(delta_mutex);
      return delta.size();
    }

   private:
    /// Cold point read: the overlay first (a tombstone hides a segment
    /// key), then an in-block search of the segment mapping in place.
    /// The block is checksummed before `cache` first vouches for it. A
    /// block that fails (a demoted or compacted segment is never fully
    /// audited, only LoadFrom's are) is counted in
    /// tier.block_verify_failures, never enters the cache, and is still
    /// searched as it is: Get has no error channel, and recovery's audit
    /// reports the segment kSegmentCorrupt. Kept out of Get so the
    /// resident path stays small.
    bool ColdGet(const K& key, P* out, tier::BlockCache* cache) const {
      {
        std::shared_lock<std::shared_mutex> lock(delta_mutex);
        const auto it = delta.find(key);
        if (it != delta.end()) {
          if (it->second.tombstone) return false;
          *out = it->second.payload;
          return true;
        }
      }
      if (key < segment->min_key() || segment->max_key() < key) {
        return false;
      }
      const size_t b = segment->BlockOfKey(key);
      cache->Verified(segment->cache_id(), b, [&] {
        return segment->VerifyBlock(b) == core::SnapshotStatus::kOk;
      });
      return tier::ColdSegment<K, P>::SearchBlock(
          segment->BlockData(b), segment->BlockKeys(b), key, out);
    }

    /// Merged scan of a cold shard over [lo, hi]: the overlay slice is
    /// snapshotted under the shared lock (so the segment stream — which
    /// reads the mapping, not the cache — never runs under it), then
    /// merge-joined with the segment in ascending key order. A `visit`
    /// returning bool stops the scan by returning false
    /// (core::VisitRecord). Returns the records visited.
    template <typename Visitor>
    size_t ColdScan(const K& lo, const K& hi, Visitor&& visit) const {
      std::vector<std::pair<K, DeltaEntry>> overlay;
      {
        std::shared_lock<std::shared_mutex> lock(delta_mutex);
        for (auto it = delta.lower_bound(lo);
             it != delta.end() && !(hi < it->first); ++it) {
          overlay.emplace_back(it->first, it->second);
        }
      }
      size_t d = 0;
      size_t count = 0;
      bool stopped = false;
      segment->ScanUntil(lo, hi, [&](const K& key, const P& payload) {
        while (d < overlay.size() && overlay[d].first < key) {
          const auto& e = overlay[d];
          ++d;
          if (e.second.tombstone) continue;
          ++count;
          if (!core::VisitRecord(visit, e.first, e.second.payload)) {
            stopped = true;
            return false;
          }
        }
        if (d < overlay.size() && !(key < overlay[d].first)) {
          const DeltaEntry e = overlay[d].second;
          ++d;
          if (e.tombstone) return true;  // erased segment key
          ++count;  // updated segment key: overlay payload wins
          if (!core::VisitRecord(visit, key, e.payload)) {
            stopped = true;
            return false;
          }
          return true;
        }
        ++count;
        if (!core::VisitRecord(visit, key, payload)) {
          stopped = true;
          return false;
        }
        return true;
      });
      for (; !stopped && d < overlay.size(); ++d) {
        if (overlay[d].second.tombstone) continue;
        ++count;
        if (!core::VisitRecord(visit, overlay[d].first,
                               overlay[d].second.payload)) {
          break;
        }
      }
      return count;
    }
  };

  /// An immutable routing table: published with one store, read under an
  /// epoch guard, retired through EBR when replaced.
  struct Table {
    ShardRouter<K> router;
    std::vector<std::shared_ptr<Shard>> shards;
  };

  static size_t TotalKeys(const Table* table) {
    size_t total = 0;
    for (const auto& shard : table->shards) total += shard->size();
    return total;
  }

  static uint64_t ColdBytesOf(const Table* table) {
    uint64_t bytes = 0;
    for (const auto& shard : table->shards) bytes += shard->ColdBytes();
    return bytes;
  }

  // ---- WAL plumbing ----

  /// Logs one run of `n` same-type writes as one WAL group-commit batch
  /// (no-op while the WAL is off). Called with the shard's gate held
  /// shared, which is what orders it against checkpoints: a checkpoint's
  /// exclusive gate waits out the whole log+apply pair. False = the run
  /// could not be committed; the caller must fail all of it (fail
  /// closed, never apply an unlogged write).
  bool LogBatch(Shard* shard, wal::WalRecordType type, const K* keys,
                const P* payloads, size_t n) {
    if (shard->log == nullptr) return true;
    // The log itself feeds the op-context's wal_wait_ns from the commit
    // wait it already measures — no extra clock reads here.
    const wal::WalStatus status =
        shard->log->LogBatch(type, keys, payloads, n);
    if (status == wal::WalStatus::kOk) return true;
    wal::WalStatus expected = wal::WalStatus::kOk;
    last_wal_error_.compare_exchange_strong(expected, status,
                                            std::memory_order_relaxed);
    ALEX_OBS_EVENT(obs::EventType::kWalError, obs::kShardAll,
                   shard->log->wal_id(), shard->log->last_lsn(),
                   static_cast<int>(status), 0);
    return false;
  }

  // ---- Write path ----

  /// The one routed point write: route → gate → re-route if retired →
  /// traffic → log → Apply → post-commit topology check.
  bool Write(obs::OpType op, wal::WalRecordType type, K key,
             const P& payload) {
    obs::ScopedOpTimer op_timer(op);
    util::EpochManager::Guard guard(epoch_);
    while (true) {
      Table* table = table_.load(std::memory_order_seq_cst);
      const size_t idx = table->router.Route(key);
      op_timer.set_shard(static_cast<uint32_t>(idx));
      Shard* shard = table->shards[idx].get();
      ALEX_OBS_TIMED_SHARED_LOCK(gate, shard->write_gate,
                                 "shard.write_gate_contended",
                                 "shard.write_gate_wait_ns");
      if (shard->retired.load(std::memory_order_seq_cst)) {
        continue;  // raced a topology transaction or bulk load: re-route
      }
      shard->traffic.Increment();
      // Log-before-apply: records replay with Apply's semantics, so a
      // write that fails below is a no-op on replay too.
      if (!LogBatch(shard, type, &key,
                    type == wal::WalRecordType::kErase ? nullptr : &payload,
                    1)) {
        return false;
      }
      const bool applied = shard->Apply(type, key, payload);
      gate.unlock();
      AfterCommit(table, shard, type, key, applied ? 1 : 0);
      return applied;
    }
  }

  /// The batched write: sorts the batch once (an index permutation, so
  /// the caller's arrays stay in caller order), then routes, gates, logs
  /// and applies one shard run at a time, like Write does one key.
  /// `payloads` is null for kErase; `ok` (when non-null) receives the
  /// per-key results in caller order.
  size_t MultiWrite(obs::OpType op, wal::WalRecordType type, const K* keys,
                    const P* payloads, size_t n, bool* ok) {
    if (n == 0) return 0;
    obs::ScopedOpTimer op_timer(op);
    std::vector<size_t> order;
    std::vector<K> sorted_keys;
    SortBatch(keys, n, &order, &sorted_keys);
    std::vector<P> sorted_payloads;
    if (payloads != nullptr) {
      sorted_payloads.resize(n);
      for (size_t k = 0; k < n; ++k) sorted_payloads[k] = payloads[order[k]];
    }
    const std::unique_ptr<bool[]> run_ok(new bool[n]());
    size_t count = 0;
    util::EpochManager::Guard guard(epoch_);
    size_t i = 0;
    while (i < n) {
      Table* table = table_.load(std::memory_order_seq_cst);
      const size_t idx = table->router.Route(sorted_keys[i]);
      Shard* shard = table->shards[idx].get();
      const size_t j = RunEnd(table, idx, sorted_keys, i);
      ALEX_OBS_TIMED_SHARED_LOCK(gate, shard->write_gate,
                                 "shard.write_gate_contended",
                                 "shard.write_gate_wait_ns");
      if (shard->retired.load(std::memory_order_seq_cst)) {
        continue;  // raced a topology transaction: re-route from key i
      }
      const size_t len = j - i;
      shard->traffic.Add(len);
      const P* run_payloads =
          payloads == nullptr ? nullptr : sorted_payloads.data() + i;
      if (!LogBatch(shard, type, sorted_keys.data() + i, run_payloads,
                    len)) {
        i = j;  // fail the run closed; later runs surface the same error
        continue;
      }
      const size_t applied = shard->ApplyRun(
          type, sorted_keys.data() + i, run_payloads, len, run_ok.get() + i);
      gate.unlock();
      count += applied;
      AfterCommit(table, shard, type, sorted_keys[j - 1], applied);
      i = j;
    }
    if (ok != nullptr) {
      for (size_t k = 0; k < n; ++k) ok[order[k]] = run_ok[k];
    }
    return count;
  }

  /// Post-commit topology check after `applied` inserts or erases landed
  /// in `shard` (gate already released). The amortized tick fires when
  /// the shard's commit counter crosses a multiple of kSkewCheckInterval
  /// — derived from the shard's own counter, so exactly one committer
  /// observes each crossing however commits interleave, and a batch
  /// increment cannot jump past it. Cold shards never trigger a split or
  /// merge: tiering owns their lifecycle.
  void AfterCommit(Table* table, Shard* shard, wal::WalRecordType type,
                   const K& hint_key, size_t applied) {
    if (applied == 0 || type == wal::WalRecordType::kUpdate ||
        shard->cold()) {
      return;
    }
    const uint64_t before =
        shard->commit_count.fetch_add(applied, std::memory_order_relaxed);
    const bool tick = before / kSkewCheckInterval !=
                      (before + applied) / kSkewCheckInterval;
    if (type == wal::WalRecordType::kInsert) {
      MaybeSplit(table, shard, hint_key, tick);
    } else {
      MaybeMerge(hint_key, tick);
    }
  }

  // ---- Batch plumbing ----

  /// Sorts a batch by key through an index permutation: `order[k]` is the
  /// caller index of the k-th smallest key, `sorted_keys[k]` that key.
  static void SortBatch(const K* keys, size_t n, std::vector<size_t>* order,
                        std::vector<K>* sorted_keys) {
    order->resize(n);
    std::iota(order->begin(), order->end(), size_t{0});
    // Ties break on the original position so duplicate keys keep their
    // batch order — the first occurrence is the one whose insert wins,
    // exactly as a scalar loop over the batch would behave.
    std::sort(order->begin(), order->end(), [keys](size_t a, size_t b) {
      return keys[a] < keys[b] || (keys[a] == keys[b] && a < b);
    });
    sorted_keys->resize(n);
    for (size_t k = 0; k < n; ++k) (*sorted_keys)[k] = keys[(*order)[k]];
  }

  /// First index in (i, n] of `sorted_keys` that no longer routes to
  /// shard `idx` of `table`: shards own contiguous ascending ranges, so
  /// the run ends at the first key reaching the next shard's lower bound.
  static size_t RunEnd(const Table* table, size_t idx,
                       const std::vector<K>& sorted_keys, size_t i) {
    const size_t n = sorted_keys.size();
    if (idx + 1 >= table->shards.size()) return n;
    const K next_lo = table->router.LowerBoundOf(idx + 1);
    size_t j = i + 1;
    while (j < n && sorted_keys[j] < next_lo) ++j;
    return j;
  }

  /// Opens one fresh log (new wal id, seq 1, LSN 0) per shard and
  /// attaches it under the shard's exclusive gate. A non-empty
  /// `parents` list makes these topology children: the segment header
  /// names the first parent and the log's first record is a kTopology
  /// record listing all of them, fdatasync-durable before the child can
  /// acknowledge data. On any failure every log created here is removed
  /// again and false is returned. Caller holds rebalance_mutex_ (which
  /// guards next_wal_id_).
  bool AttachFreshLogs(std::vector<std::shared_ptr<Shard>>* shards,
                       const std::vector<uint64_t>& parents) {
    std::vector<std::shared_ptr<wal::ShardLog<K, P>>> logs;
    logs.reserve(shards->size());
    for (size_t i = 0; i < shards->size(); ++i) {
      auto log = std::make_shared<wal::ShardLog<K, P>>(
          wal_prefix_, next_wal_id_, parents.empty() ? 0 : parents.front(),
          /*seq=*/1, /*start_lsn=*/0, wal_options_);
      bool ok = log->Open() == wal::WalStatus::kOk;
      if (ok && !parents.empty()) {
        ok = log->LogTopology(parents) == wal::WalStatus::kOk;
      }
      if (!ok) {
        std::remove(log->current_path().c_str());
        for (const auto& created : logs) {
          std::remove(created->current_path().c_str());
        }
        return false;
      }
      ++next_wal_id_;
      logs.push_back(std::move(log));
    }
    for (size_t i = 0; i < shards->size(); ++i) {
      std::unique_lock<std::shared_mutex> gate((*shards)[i]->write_gate);
      (*shards)[i]->log = std::move(logs[i]);
    }
    return true;
  }

  void DetachLogs(Table* table) {
    for (const auto& shard : table->shards) {
      std::unique_lock<std::shared_mutex> gate(shard->write_gate);
      if (shard->log != nullptr) {
        std::remove(shard->log->current_path().c_str());
        shard->log.reset();
      }
    }
  }

  // ---- Boundary-preserving recovery ----

  /// True when `key` lies in manifest shard `shard`'s range
  /// [bounds[shard-1], bounds[shard]), open at both extremes.
  static bool KeyInShard(const K& key, size_t shard,
                         const std::vector<K>& bounds) {
    if (shard > 0 && key < bounds[shard - 1]) return false;
    if (shard < bounds.size() && !(key < bounds[shard])) return false;
    return true;
  }

  /// Runs fn(i) for i in [0, n) on a small thread pool: the one pool for
  /// every job that builds or writes whole shards — Partition's bulk
  /// loads, SaveToLocked's segment writes and RecoverBoundaryPreserving's
  /// per-shard replay. Each is embarrassingly parallel: distinct shards
  /// build distinct state, and every fn(i) writes only slot i of its
  /// outputs. Width: kBuildThreads, clamped to the shard count and the
  /// hardware concurrency (the jobs are CPU-bound; oversubscription only
  /// adds contention). Workers claim shards off an atomic cursor; a width
  /// of 1 runs inline with no spawns. The caller's epoch guard keeps
  /// whatever it pinned alive for the workers. fn must not throw.
  template <typename Fn>
  void ParallelOverShards(size_t n, Fn&& fn) const {
    size_t workers = std::min(n, kBuildThreads);
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw > 0) workers = std::min<size_t>(workers, hw);
    if (workers <= 1) {
      for (size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    std::atomic<size_t> cursor{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&cursor, n, &fn] {
        for (size_t i = cursor.fetch_add(1, std::memory_order_relaxed); i < n;
             i = cursor.fetch_add(1, std::memory_order_relaxed)) {
          fn(i);
        }
      });
    }
    for (auto& t : pool) t.join();
  }

  /// Rebuilds the table with the manifest's exact boundary array, each
  /// shard recovered independently: its segment plus every log lineage
  /// rooted at its checkpoint anchor, replayed in ascending wal-id order
  /// into a delta overlay over the segment (the cold-shard form, which
  /// Shard::Apply writes with the WAL's replay semantics). Shards the
  /// manifest tags resident are then bulk-loaded from the merged stream. A
  /// topology child's records are range-filtered back to the manifest
  /// shards its parents anchor (a merge child spans several; each key's
  /// full history threads through logs of ascending id, so the filtered
  /// per-shard order is the true per-key order). Shards replay in
  /// parallel on a small thread pool — recovery is shard-parallel by
  /// construction because no two shards share mutable state. Fills one
  /// ShardReplayStats per shard in `rep->shards`.
  core::SnapshotStatus RecoverBoundaryPreserving(
      const std::string& prefix, const ShardManifest<K>& manifest,
      std::vector<std::shared_ptr<tier::ColdSegment<K, P>>>* segments,
      bool was_logging, wal::RecoveryReport* rep,
      std::unique_ptr<Table>* out) {
    std::map<uint64_t, uint64_t> checkpoints;
    std::map<uint64_t, size_t> root_shard;
    for (size_t i = 0; i < manifest.wal_ids.size(); ++i) {
      if (manifest.wal_ids[i] != 0) {
        checkpoints[manifest.wal_ids[i]] = manifest.checkpoint_lsns[i];
        root_shard[manifest.wal_ids[i]] = i;
      }
    }
    // Read + validate every lineage once (the expensive, checksummed
    // pass), then anchor the lineage graph: with a manifest, an orphan
    // lineage holding records must fail rather than replay over the
    // wrong baseline. Never physically truncate while the segments
    // might belong to this index's own live logs.
    std::vector<wal::WalLineage<K, P>> lineages;
    wal::WalStatus ws = wal::ReadWalLineages<K, P>(
        prefix, checkpoints, &lineages, rep,
        /*truncate_torn_tail=*/!was_logging);
    if (ws == wal::WalStatus::kOk) {
      ws = wal::AnchorLineages(&lineages, checkpoints,
                               /*require_known_roots=*/true, rep);
    }
    if (ws != wal::WalStatus::kOk) {
      return core::SnapshotStatus::kWalReplayFailed;
    }
    // Feed map: which manifest shards each lineage replays into. A
    // checkpoint root feeds its own shard; a topology child feeds the
    // union of its parents' shards (ascending wal-id order makes one
    // pass suffice — parents resolve before children).
    std::map<uint64_t, std::vector<size_t>> owners;
    std::vector<std::vector<size_t>> feeds(lineages.size());
    for (size_t l = 0; l < lineages.size(); ++l) {
      if (!lineages[l].anchored) continue;
      std::vector<size_t>& shards_of = feeds[l];
      const auto root = root_shard.find(lineages[l].wal_id);
      if (root != root_shard.end()) {
        shards_of.push_back(root->second);
      } else {
        for (const uint64_t parent : lineages[l].parents) {
          const auto it = owners.find(parent);
          if (it != owners.end()) {
            shards_of.insert(shards_of.end(), it->second.begin(),
                             it->second.end());
          }
        }
        std::sort(shards_of.begin(), shards_of.end());
        shards_of.erase(std::unique(shards_of.begin(), shards_of.end()),
                        shards_of.end());
      }
      owners[lineages[l].wal_id] = shards_of;
    }

    const size_t n = manifest.num_shards();
    auto next = std::make_unique<Table>();
    next->router = ShardRouter<K>(manifest.boundaries);
    next->shards.resize(n);
    rep->shards.assign(n, wal::ShardReplayStats{});
    Table* next_raw = next.get();
    // Per-shard replay, in parallel: workers touch disjoint slots of
    // next->shards and rep->shards.
    ParallelOverShards(n, [&](size_t i) {
      wal::ShardReplayStats& stats = (*rep).shards[i];
      stats.shard = i;
      stats.wal_id = manifest.wal_ids.size() > i ? manifest.wal_ids[i] : 0;
      auto shard = std::make_shared<Shard>(options_.shard_config, &epoch_);
      shard->cold_live.store((*segments)[i]->num_keys(),
                             std::memory_order_relaxed);
      shard->segment = std::move((*segments)[i]);
      for (size_t l = 0; l < lineages.size(); ++l) {
        if (std::find(feeds[l].begin(), feeds[l].end(), i) ==
            feeds[l].end()) {
          continue;
        }
        if (lineages[l].tail_truncated) stats.tail_truncated = true;
        for (const wal::WalRecord<K, P>& rec : lineages[l].records) {
          if (!KeyInShard(rec.key, i, manifest.boundaries)) continue;
          if (rec.lsn <= lineages[l].checkpoint_lsn) {
            ++stats.records_skipped;
            continue;
          }
          shard->Apply(rec.type, rec.key, rec.payload);
          ++stats.records_replayed;
        }
      }
      if (manifest.IsCold(i)) {
        next_raw->shards[i] = std::move(shard);
        return;
      }
      std::vector<K> keys;
      std::vector<P> payloads;
      shard->Contents(&keys, &payloads);
      auto resident =
          std::make_shared<Shard>(options_.shard_config, &epoch_);
      resident->index.BulkLoad(keys.data(), payloads.data(), keys.size());
      next_raw->shards[i] = std::move(resident);
    });
    for (const wal::ShardReplayStats& stats : rep->shards) {
      rep->records_replayed += stats.records_replayed;
      rep->records_skipped += stats.records_skipped;
    }
    *out = std::move(next);
    return core::SnapshotStatus::kOk;
  }

  /// SaveTo minus the rebalance lock (BulkLoad and EnableWal checkpoint
  /// while already holding it). See SaveTo for the contract.
  core::SnapshotStatus SaveToLocked(const std::string& prefix) const {
    util::EpochManager::Guard guard(epoch_);
    // rebalance_mutex_ (held by the caller) excludes table replacement,
    // so this table stays current for the whole save.
    Table* table = table_.load(std::memory_order_seq_cst);
    std::vector<std::unique_lock<std::shared_mutex>> gates;
    gates.reserve(table->shards.size());
    for (const auto& shard : table->shards) {
      gates.emplace_back(shard->write_gate);
    }
    const bool wal_checkpoint = wal_enabled_ && prefix == wal_prefix_;
    // A committed checkpoint at this prefix numbers the next one, and
    // its id watermark keeps the segments written below off every id it
    // references: they are written in place, so reusing one would
    // overwrite the previous checkpoint before this one commits.
    ShardManifest<K> previous;
    const bool had_previous =
        ReadManifest<K>(ManifestPath(prefix), &previous) ==
        core::SnapshotStatus::kOk;
    ShardManifest<K> manifest;
    manifest.generation = had_previous ? previous.generation + 1 : 1;
    if (had_previous) {
      next_segment_id_ = std::max(next_segment_id_, previous.next_segment_id);
    }
    manifest.boundaries = table->router.boundaries();
    manifest.next_wal_id = wal_checkpoint ? next_wal_id_ : 0;
    manifest.topology_epoch =
        topology_epoch_.load(std::memory_order_relaxed);
    // Segment ids, assigned here in shard order before anything is
    // written. A shard with a clean overlay whose segment is already
    // durable at this prefix (the demotion/compaction that built it
    // committed it) is referenced as-is — the checkpoint writes zero
    // bytes for it. Every other shard streams into a fresh segment at
    // `prefix`; a dirty cold shard keeps serving its current
    // segment+overlay, and only the manifest references the folded copy.
    const size_t n = table->shards.size();
    std::vector<uint64_t> segment_ids(n);
    std::vector<bool> fresh(n, false);
    for (size_t i = 0; i < n; ++i) {
      const Shard* shard = table->shards[i].get();
      if (shard->SegmentAt(prefix) && shard->DeltaEntries() == 0) {
        segment_ids[i] = shard->segment->id();
      } else {
        segment_ids[i] = next_segment_id_++;
        fresh[i] = true;
      }
    }
    // The fresh segments are written on the build pool. A file needs no
    // staging name: nothing reaches it before the manifest rename, so
    // when any write fails the save commits nothing and the segments the
    // other workers wrote are strays for the next save's sweep, as after
    // a crash.
    std::vector<core::SnapshotStatus> written(n, core::SnapshotStatus::kOk);
    ParallelOverShards(n, [&](size_t i) {
      if (!fresh[i]) return;
      std::vector<K> keys;
      std::vector<P> payloads;
      table->shards[i]->Contents(&keys, &payloads);
      const std::string path = tier::SegmentPath(prefix, segment_ids[i]);
      written[i] = tier::WriteSegmentFile<K, P>(
          path, keys.data(), payloads.data(), keys.size(), kKeysPerBlock);
      // Durable before the manifest can reference it (and before the
      // WAL segments it supersedes are deleted below).
      if (written[i] == core::SnapshotStatus::kOk && !wal::SyncPath(path)) {
        written[i] = core::SnapshotStatus::kIoError;
      }
    });
    // The lowest-numbered shard that failed names the status.
    for (const core::SnapshotStatus status : written) {
      if (status != core::SnapshotStatus::kOk) return status;
    }
    manifest.shard_keys.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const Shard* shard = table->shards[i].get();
      manifest.shard_keys.push_back(shard->size());
      manifest.tier_tags.push_back(shard->cold() ? internal::kTierCold
                                                 : internal::kTierResident);
      manifest.segment_ids.push_back(segment_ids[i]);
      // With the gates held, log and index are in lockstep: this
      // checkpoint holds exactly the effects of records up to last_lsn().
      const auto& log = shard->log;
      if (wal_checkpoint && log != nullptr) {
        manifest.wal_ids.push_back(log->wal_id());
        manifest.checkpoint_lsns.push_back(log->last_lsn());
      } else {
        manifest.wal_ids.push_back(0);
        manifest.checkpoint_lsns.push_back(0);
      }
    }
    manifest.next_segment_id = next_segment_id_;
    // Commit: write the manifest beside its final name, then rename over
    // it (atomic replace on POSIX).
    const std::string tmp = ManifestPath(prefix) + ".tmp";
    const core::SnapshotStatus status = WriteManifest(tmp, manifest);
    if (status != core::SnapshotStatus::kOk) return status;
    if (!wal::SyncPath(tmp)) {
      std::remove(tmp.c_str());
      return core::SnapshotStatus::kIoError;
    }
    if (std::rename(tmp.c_str(), ManifestPath(prefix).c_str()) != 0) {
      std::remove(tmp.c_str());
      return core::SnapshotStatus::kIoError;
    }
    // Persist the rename (and the new segments' directory entries): only
    // now is the checkpoint durably committed and the cleanup below
    // allowed to destroy what it superseded.
    {
      std::string dir, base;
      wal::SplitPrefixPath(prefix, &dir, &base);
      if (!wal::SyncPath(dir)) return core::SnapshotStatus::kIoError;
    }
    {
      // Committed: journal the checkpoint with the highest LSN any shard
      // anchored (the point recovery replays from).
      uint64_t max_lsn = 0;
      for (const uint64_t lsn : manifest.checkpoint_lsns) {
        max_lsn = std::max(max_lsn, lsn);
      }
      ALEX_OBS_EVENT(obs::EventType::kCheckpoint, obs::kShardAll, 0, max_lsn,
                     manifest.generation, table->shards.size());
    }
    // Post-commit, best-effort cleanup: every segment neither the new
    // manifest nor the live table references (the superseded
    // checkpoint's, strays from crashed saves and demotions), and —
    // after a checkpoint rotation — every WAL segment the checkpoint
    // covers.
    SweepStaleSegments(prefix, manifest.segment_ids, table);
    if (wal_checkpoint) {
      for (const auto& shard : table->shards) {
        if (shard->log != nullptr) {
          shard->log->Rotate();  // failure keeps the old segment current
        }
      }
      SweepStaleWalSegments(prefix, table);
    } else if (!wal_enabled_) {
      // This manifest records no checkpoint LSNs, so any segment left at
      // the prefix (e.g. the logs a recovery just replayed) would replay
      // *from LSN 0 over this newer checkpoint* at the next load. They
      // are superseded by the committed checkpoint: remove them all.
      // Skipped while logging is live: `prefix` could then be a spelled-
      // differently alias of wal_prefix_ (./db vs db), and sweeping
      // would unlink the live logs' current segments. (Recovery guards
      // the leftover-segment case anyway: with a manifest, an
      // unanchored lineage never replays.)
      SweepStaleWalSegments(prefix, /*table=*/nullptr);
    }
    return core::SnapshotStatus::kOk;
  }

  /// Removes every WAL segment at the prefix that is not some live
  /// shard's *current* segment (all of them when `table` is null — a
  /// save without a checkpoint). Only called after a manifest commit,
  /// when the checkpoint has made the swept segments (rotated-out seqs,
  /// sealed split victims, abandoned or replayed lineages) redundant.
  void SweepStaleWalSegments(const std::string& prefix,
                             Table* table) const {
    std::vector<std::pair<uint64_t, uint64_t>> keep;
    if (table != nullptr) {
      keep.reserve(table->shards.size());
      for (const auto& shard : table->shards) {
        if (shard->log != nullptr) {
          keep.emplace_back(shard->log->wal_id(), shard->log->seq());
        }
      }
    }
    for (const wal::WalSegmentFile& f : wal::ListWalSegments(prefix)) {
      if (std::find(keep.begin(), keep.end(),
                    std::make_pair(f.wal_id, f.seq)) == keep.end()) {
        std::remove(f.path.c_str());
      }
    }
  }

  // ---- Tier lifecycle (all called with rebalance_mutex_ held) ----

  /// Where demotion writes segment files.
  std::string TierPrefix() const {
    return options_.tier_prefix.empty() ? wal_prefix_
                                        : options_.tier_prefix;
  }

  /// Keys per cold-segment block.
  static constexpr size_t kKeysPerBlock =
      tier::KeysPerBlock<K, P>(tier::kDefaultBlockBytes);

  /// Writes `n` records as segment `id` at `prefix`, fsyncs the file
  /// and then its directory. Like SaveToLocked's segments it is written
  /// in place under its fresh id: no manifest references that id yet, so
  /// a crash mid-write leaves a stray that the next checkpoint's sweep
  /// removes. On success opens the segment and returns it through `*out`.
  core::SnapshotStatus WriteAndOpenSegment(
      const std::string& prefix, uint64_t id, const K* keys,
      const P* payloads, size_t n,
      std::shared_ptr<tier::ColdSegment<K, P>>* out) const {
    const std::string path = tier::SegmentPath(prefix, id);
    core::SnapshotStatus status =
        tier::WriteSegmentFile<K, P>(path, keys, payloads, n, kKeysPerBlock);
    if (status != core::SnapshotStatus::kOk) return status;
    std::string dir, base;
    wal::SplitPrefixPath(prefix, &dir, &base);
    if (!wal::SyncPath(path) || !wal::SyncPath(dir)) {
      std::remove(path.c_str());
      return core::SnapshotStatus::kIoError;
    }
    auto segment = std::make_shared<tier::ColdSegment<K, P>>();
    status = segment->Open(path, id);
    if (status != core::SnapshotStatus::kOk) {
      std::remove(path.c_str());
      return status;
    }
    *out = std::move(segment);
    return core::SnapshotStatus::kOk;
  }

  /// A fresh table of `n` strictly-increasing records partitioned evenly
  /// across (at most) options.num_shards resident shards, bulk-loaded on
  /// the build pool. Nothing else can see the table until the caller
  /// publishes it, so each worker fills its own slot without a lock.
  Table* Partition(const K* keys, const P* payloads, size_t n) const {
    const size_t shards = std::max<size_t>(
        1, std::min(options_.num_shards, std::max<size_t>(n, 1)));
    auto* table = new Table();
    table->router = ShardRouter<K>::FitFromSortedKeys(keys, n, shards);
    table->shards.resize(shards);
    ParallelOverShards(shards, [&](size_t j) {
      const size_t lo = j * n / shards;
      const size_t hi = (j + 1) * n / shards;
      auto shard = std::make_shared<Shard>(options_.shard_config, &epoch_);
      shard->index.BulkLoad(keys + lo, payloads + lo, hi - lo);
      table->shards[j] = std::move(shard);
    });
    return table;
  }

  /// Publishes `next` in place of the whole table (bulk load, load):
  /// drains every old shard's in-flight writers, retires it so stragglers
  /// re-route into `next`, and seals its log — once every gate has
  /// cycled, no further commit can land in the old table. The old table
  /// then retires through EBR.
  void ReplaceTable(Table* next) {
    Table* old = table_.exchange(next, std::memory_order_seq_cst);
    util::EpochManager::Guard guard(epoch_);
    for (const auto& shard : old->shards) {
      std::unique_lock<std::shared_mutex> gate(shard->write_gate);
      shard->Retire(&block_cache_);
      if (shard->log != nullptr) shard->log->Seal();
    }
    epoch_.Retire(old);
    epoch_.TryReclaim();
  }

  /// Publishes a copy of the current table with shard `idx` replaced,
  /// then retires the victim. The victim's log MOVES to the replacement
  /// (not sealed): the logical shard continues, so its LSN stream must
  /// too. Runs the same drain→publish→retire steps as a topology
  /// transaction, for one shard.
  void ReplaceShard(Table* table, size_t idx,
                    std::shared_ptr<Shard> replacement,
                    std::unique_lock<std::shared_mutex>* gate) {
    Shard* victim = table->shards[idx].get();
    replacement->log = victim->log;
    replacement->traffic_mark = 0;
    auto* next = new Table();
    next->router = table->router;
    next->shards = table->shards;
    next->shards[idx] = std::move(replacement);
    table_.store(next, std::memory_order_seq_cst);
    victim->Retire(&block_cache_);
    victim->log.reset();
    gate->unlock();
    epoch_.Retire(table);
    epoch_.TryReclaim();
    ALEX_OBS_GAUGE_SET("tier.cold_bytes",
                       static_cast<double>(ColdBytesOf(next)));
  }

  core::SnapshotStatus DemoteShardLocked(size_t idx) {
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    if (idx >= table->shards.size()) {
      return core::SnapshotStatus::kIoError;
    }
    if (table->shards[idx]->cold()) return core::SnapshotStatus::kOk;
    return SealColdLocked(table, idx, obs::EventType::kTierDemotion);
  }

  core::SnapshotStatus CompactShardLocked(size_t idx) {
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    if (idx >= table->shards.size()) {
      return core::SnapshotStatus::kIoError;
    }
    if (table->shards[idx]->DeltaEntries() == 0) {
      return core::SnapshotStatus::kOk;  // resident, or a clean overlay
    }
    return SealColdLocked(table, idx, obs::EventType::kTierCompaction);
  }

  /// Demotion and compaction are one transition: stream shard `idx` (a
  /// resident tree, or a cold segment + overlay) into a fresh segment at
  /// the tier prefix and replace it with a clean cold shard serving that
  /// segment. Caller holds rebalance_mutex_ and an epoch guard.
  core::SnapshotStatus SealColdLocked(Table* table, size_t idx,
                                      obs::EventType event) {
    const std::string prefix = TierPrefix();
    if (prefix.empty()) return core::SnapshotStatus::kIoError;
    Shard* victim = table->shards[idx].get();
    std::unique_lock<std::shared_mutex> gate(victim->write_gate);
    std::vector<K> keys;
    std::vector<P> payloads;
    victim->Contents(&keys, &payloads);
    const uint64_t seg_id = next_segment_id_++;
    std::shared_ptr<tier::ColdSegment<K, P>> segment;
    const core::SnapshotStatus status =
        WriteAndOpenSegment(prefix, seg_id, keys.data(), payloads.data(),
                            keys.size(), &segment);
    if (status != core::SnapshotStatus::kOk) return status;
    auto cold = std::make_shared<Shard>(options_.shard_config, &epoch_);
    cold->segment = std::move(segment);
    cold->cold_live.store(keys.size(), std::memory_order_relaxed);
    ReplaceShard(table, idx, std::move(cold), &gate);
    if (event == obs::EventType::kTierDemotion) {
      demotions_.fetch_add(1, std::memory_order_relaxed);
      ALEX_OBS_COUNTER_INC("tier.demotions");
    } else {
      compactions_.fetch_add(1, std::memory_order_relaxed);
      ALEX_OBS_COUNTER_INC("tier.compactions");
    }
    ALEX_OBS_EVENT(event, static_cast<uint32_t>(idx), 0, 0,
                   static_cast<int64_t>(keys.size()),
                   static_cast<int64_t>(seg_id));
    return core::SnapshotStatus::kOk;
  }

  core::SnapshotStatus PromoteShardLocked(size_t idx) {
    util::EpochManager::Guard guard(epoch_);
    Table* table = table_.load(std::memory_order_seq_cst);
    if (idx >= table->shards.size()) {
      return core::SnapshotStatus::kIoError;
    }
    Shard* victim = table->shards[idx].get();
    if (!victim->cold()) return core::SnapshotStatus::kOk;
    std::unique_lock<std::shared_mutex> gate(victim->write_gate);
    std::vector<K> keys;
    std::vector<P> payloads;
    victim->Contents(&keys, &payloads);
    [[maybe_unused]] const uint64_t old_segment = victim->segment->id();
    auto resident =
        std::make_shared<Shard>(options_.shard_config, &epoch_);
    resident->index.BulkLoad(keys.data(), payloads.data(), keys.size());
    // The segment file is NOT unlinked here: the committed manifest may
    // still reference it (a crash before the next checkpoint must be
    // able to reopen it). The next checkpoint's sweep collects it.
    ReplaceShard(table, idx, std::move(resident), &gate);
    promotions_.fetch_add(1, std::memory_order_relaxed);
    ALEX_OBS_COUNTER_INC("tier.promotions");
    ALEX_OBS_EVENT(obs::EventType::kTierPromotion,
                   static_cast<uint32_t>(idx), 0, 0,
                   static_cast<int64_t>(keys.size()),
                   static_cast<int64_t>(old_segment));
    return core::SnapshotStatus::kOk;
  }

  /// Removes segment files at `prefix` that neither the committed
  /// manifest (`keep`) nor the live table references — strays a crashed
  /// writer left half-written among them. Post-commit, best-effort, like
  /// the WAL sweep; the one sweeper of shard files.
  void SweepStaleSegments(const std::string& prefix,
                          std::vector<uint64_t> keep,
                          const Table* table) const {
    for (const auto& shard : table->shards) {
      if (shard->SegmentAt(prefix)) keep.push_back(shard->segment->id());
    }
    std::string dir, base;
    wal::SplitPrefixPath(prefix, &dir, &base);
    std::vector<std::string> names;
    if (!wal::ListDirectory(dir, &names)) return;
    for (const std::string& name : names) {
      uint64_t id = 0;
      if (!tier::ParseSegmentFileName(name, base, &id)) continue;
      if (std::find(keep.begin(), keep.end(), id) == keep.end()) {
        std::remove((dir + "/" + name).c_str());
      }
    }
  }

  bool ShouldSplit(size_t shard_keys, size_t total,
                   size_t num_shards) const {
    if (shard_keys < options_.min_rebalance_keys) return false;
    if (options_.max_shard_keys > 0 &&
        shard_keys > options_.max_shard_keys) {
      return true;
    }
    const double mean = static_cast<double>(total) /
                        static_cast<double>(num_shards);
    return static_cast<double>(shard_keys) >
           options_.rebalance_skew * mean;
  }

  /// The inverse of the skew check: two adjacent small shards whose
  /// combined size is still under the merge floor fold into one.
  bool ShouldMerge(size_t a_keys, size_t b_keys) const {
    return options_.merge_threshold_keys > 0 &&
           a_keys + b_keys < options_.merge_threshold_keys;
  }

  /// Post-commit split trigger. The absolute bound costs one load of the
  /// just-written shard's own size; the relative skew check must read
  /// every shard's size, so it runs only when `tick` is set (AfterCommit:
  /// the shard's commit counter crossed a multiple of the interval) — the
  /// write hot path performs no cross-shard reads.
  static constexpr uint64_t kSkewCheckInterval = 1024;

  void MaybeSplit(Table* table, Shard* shard, K hint_key, bool tick) {
    const size_t shard_keys = shard->size();
    if (shard_keys < options_.min_rebalance_keys) return;
    const bool over_absolute = options_.max_shard_keys > 0 &&
                               shard_keys > options_.max_shard_keys;
    if (!over_absolute && !tick) {
      return;
    }
    // The tick path reads every shard's size anyway; fold the pass into
    // one loop and publish the size-skew gauge (largest/mean x100, the
    // same shape ShouldSplit tests) for the health watchdog.
    size_t total = 0;
    size_t largest = 0;
    for (const auto& s : table->shards) {
      const size_t keys = s->size();
      total += keys;
      largest = std::max(largest, keys);
    }
    if (tick && total > 0) {
      [[maybe_unused]] const double mean =
          static_cast<double>(total) /
          static_cast<double>(table->shards.size());
      ALEX_OBS_GAUGE_SET("shard.size_skew_x100",
                         100.0 * static_cast<double>(largest) / mean);
    }
    if (!ShouldSplit(shard_keys, total, table->shards.size())) {
      return;
    }
    std::unique_lock<std::mutex> rebalance(rebalance_mutex_,
                                           std::try_to_lock);
    if (!rebalance.owns_lock()) return;  // a rival transaction is running
    Table* current = table_.load(std::memory_order_seq_cst);
    const size_t idx = current->router.Route(hint_key);
    // Re-check under the lock: a rival may already have split this
    // range, or erases may have deflated it.
    if (!ShouldSplit(current->shards[idx]->size(),
                     TotalKeys(current), current->shards.size())) {
      return;
    }
    ExecuteTopologyTxn(TopologyOp::kSplit, current, idx, idx + 1,
                       kSplitWays);
  }

  /// Post-erase merge trigger, amortized exactly like the split skew
  /// check (`tick` derives from the shard's own counter). Picks the
  /// smaller adjacent neighbor as the co-victim. Unlike MaybeSplit there
  /// is no cheap pre-check against the caller's table: the decision needs
  /// the neighbors' sizes, which are only stable under the rebalance
  /// lock.
  void MaybeMerge(K hint_key, bool tick) {
    if (options_.merge_threshold_keys == 0) return;
    if (!tick) return;
    std::unique_lock<std::mutex> rebalance(rebalance_mutex_,
                                           std::try_to_lock);
    if (!rebalance.owns_lock()) return;
    Table* current = table_.load(std::memory_order_seq_cst);
    if (current->shards.size() < 2) return;
    const size_t idx = current->router.Route(hint_key);
    size_t lo;
    if (idx == 0) {
      lo = 0;
    } else if (idx + 1 == current->shards.size()) {
      lo = idx - 1;
    } else {
      lo = current->shards[idx - 1]->size() <=
                   current->shards[idx + 1]->size()
               ? idx - 1
               : idx;
    }
    if (!ShouldMerge(current->shards[lo]->size(),
                     current->shards[lo + 1]->size())) {
      return;
    }
    ExecuteTopologyTxn(TopologyOp::kMerge, current, lo, lo + 2, 1);
  }

  /// Which maintenance module a topology transaction runs; all three
  /// share every step of the protocol below.
  enum class TopologyOp { kSplit, kMerge, kRebalance };

  /// The one protocol every topology change runs through: replaces the
  /// adjacent victim shards [lo, hi) of `table` (the current table,
  /// loaded under rebalance_mutex_) with `ways` children holding the
  /// same keys, evenly partitioned. Caller holds rebalance_mutex_ and
  /// an epoch guard. Returns true when the replacement table was
  /// published; false aborts cleanly (too few keys to partition, or
  /// child log files could not be opened).
  ///
  /// The protocol's invariants are asserted here and nowhere else:
  ///   - victims' gates are drained (held exclusive) before their logs
  ///     are read, and stay held until after the seal;
  ///   - the seal LSN equals the publish LSN — no record can land in a
  ///     victim's log between the drain and its seal;
  ///   - parents are retired only after every child's segment file is
  ///     durable in the directory (ShardLog::Open fsyncs the directory
  ///     entry before returning).
  bool ExecuteTopologyTxn(TopologyOp op, Table* table, size_t lo,
                          size_t hi, size_t ways) {
    assert(lo < hi && hi <= table->shards.size());
    assert(ways >= 1);
    // Drain: victims' write gates exclusive, ascending — in-flight
    // writers finish, new ones wait here or re-route after publish.
    std::vector<std::unique_lock<std::shared_mutex>> gates;
    gates.reserve(hi - lo);
    for (size_t i = lo; i < hi; ++i) {
      gates.emplace_back(table->shards[i]->write_gate);
    }
    // With the gates drained the victims' logs cannot move: capture
    // their LSNs now and assert them unchanged at the seal.
    std::vector<uint64_t> parent_ids;
    std::vector<uint64_t> drained_lsns;
    for (size_t i = lo; i < hi; ++i) {
      const auto& log = table->shards[i]->log;
      if (log != nullptr) {
        parent_ids.push_back(log->wal_id());
        drained_lsns.push_back(log->last_lsn());
      }
    }
    // Build: stream the write-quiescent victims (adjacent ascending
    // ranges, so shard order is key order) straight into the children's
    // bulk-load arrays through the visitor scan — no intermediate
    // pair buffer, each record copied exactly once. The drained gates
    // make the victim sizes exact, so every child's cut is known before
    // the stream starts; the cut key observed when the stream crosses a
    // child boundary becomes that child's split key.
    size_t n = 0;
    for (size_t i = lo; i < hi; ++i) n += table->shards[i]->size();
    // A split needs at least one key per child to cut its split keys
    // from; a merge (one child) works even on empty victims.
    if (ways > 1 && n < ways) return false;  // abort; gates release
    std::vector<K> split_keys;
    split_keys.reserve(ways - 1);
    std::vector<std::vector<K>> part_keys(ways);
    std::vector<std::vector<P>> part_payloads(ways);
    for (size_t j = 0; j < ways; ++j) {
      const size_t quota = (j + 1) * n / ways - j * n / ways;
      part_keys[j].reserve(quota);
      part_payloads[j].reserve(quota);
    }
    size_t child_idx = 0;
    // First global record index belonging to the next child; n >= ways
    // (checked above) guarantees every child's cut is distinct, so a
    // single comparison per record advances the target correctly.
    size_t next_cut = ways > 1 ? n / ways : n;
    size_t streamed = 0;
    for (size_t i = lo; i < hi; ++i) {
      table->shards[i]->Scan(
          core::KeyBottom<K>(), core::KeyTop<K>(),
          [&](const K& key, const P& payload) {
            if (streamed == next_cut && child_idx + 1 < ways) {
              ++child_idx;
              next_cut = (child_idx + 1) * n / ways;
              split_keys.push_back(key);
            }
            part_keys[child_idx].push_back(key);
            part_payloads[child_idx].push_back(payload);
            ++streamed;
          });
    }
    assert(streamed == n);
    (void)streamed;
    std::vector<std::shared_ptr<Shard>> children;
    children.reserve(ways);
    for (size_t j = 0; j < ways; ++j) {
      auto child = std::make_shared<Shard>(options_.shard_config, &epoch_);
      child->index.BulkLoad(part_keys[j].data(), part_payloads[j].data(),
                            part_keys[j].size());
      // Return each child's build arrays as soon as it is loaded, so the
      // transaction's peak extra memory is the partitions plus one
      // child — not every child at once.
      std::vector<K>().swap(part_keys[j]);
      std::vector<P>().swap(part_payloads[j]);
      children.push_back(std::move(child));
    }
    // Log: fresh child logs whose lineage names every victim (the
    // multi-parent kTopology record), opened — and directory-fsynced —
    // before the children can become reachable. On failure the
    // transaction is simply abandoned (it is an optimization, and
    // running a shard unlogged is not an option). Callers keep the
    // victim count within the record's parent cap.
    assert(parent_ids.size() <= wal::kMaxTopologyParents);
    if (wal_enabled_ && !parent_ids.empty() &&
        !AttachFreshLogs(&children, parent_ids)) {
      last_wal_error_.store(wal::WalStatus::kIoError,
                            std::memory_order_relaxed);
      return false;
    }
    // Publish: one store; readers pick the new table up immediately.
    auto* next = new Table();
    next->router = ShardRouter<K>(ShardRouter<K>::SpliceBoundaries(
        table->router.boundaries(), lo, hi, split_keys));
    next->shards.reserve(table->shards.size() - (hi - lo) + ways);
    next->shards.insert(next->shards.end(), table->shards.begin(),
                        table->shards.begin() +
                            static_cast<std::ptrdiff_t>(lo));
    next->shards.insert(next->shards.end(), children.begin(),
                        children.end());
    next->shards.insert(next->shards.end(),
                        table->shards.begin() +
                            static_cast<std::ptrdiff_t>(hi),
                        table->shards.end());
    table_.store(next, std::memory_order_seq_cst);
    // Retire + seal: victims re-route stragglers, and each victim's log
    // is sealed at the publish LSN — the drain guarantees no record
    // landed since the capture above, which is the invariant that lets
    // recovery treat "sealed log + children" as one atomic hand-off.
    size_t logged = 0;
    for (size_t i = lo; i < hi; ++i) {
      Shard* victim = table->shards[i].get();
      victim->Retire(&block_cache_);
      if (victim->log != nullptr) {
        assert(victim->log->last_lsn() == drained_lsns[logged] &&
               "a record landed in a drained victim before its seal");
        (void)drained_lsns;
        victim->log->Seal();
        ++logged;
      }
    }
    (void)logged;
    switch (op) {
      case TopologyOp::kSplit:
        rebalances_.fetch_add(1, std::memory_order_relaxed);
        ALEX_OBS_COUNTER_INC("shard.topology_splits");
        ALEX_OBS_EVENT(obs::EventType::kTopologySplit, lo,
                       parent_ids.empty() ? 0 : parent_ids[0],
                       drained_lsns.empty() ? 0 : drained_lsns[0], hi - lo,
                       ways);
        break;
      case TopologyOp::kMerge:
        merges_.fetch_add(1, std::memory_order_relaxed);
        ALEX_OBS_COUNTER_INC("shard.topology_merges");
        ALEX_OBS_EVENT(obs::EventType::kTopologyMerge, lo,
                       parent_ids.empty() ? 0 : parent_ids[0],
                       drained_lsns.empty() ? 0 : drained_lsns[0], hi - lo,
                       ways);
        break;
      case TopologyOp::kRebalance:
        ALEX_OBS_COUNTER_INC("shard.topology_rebalances");
        ALEX_OBS_EVENT(obs::EventType::kTopologyRebalance, lo,
                       parent_ids.empty() ? 0 : parent_ids[0],
                       drained_lsns.empty() ? 0 : drained_lsns[0], hi - lo,
                       ways);
        break;
    }
    topology_epoch_.fetch_add(1, std::memory_order_relaxed);
    ALEX_OBS_GAUGE_SET("tier.cold_bytes",
                       static_cast<double>(ColdBytesOf(next)));
    // The old table (and, once no newer table shares them, its replaced
    // shards) is freed only after every reader that could hold it
    // unpins. The gates release on scope exit, after the seal.
    epoch_.Retire(table);
    epoch_.TryReclaim();
    return true;
  }

  ShardedOptions options_;
  // Cold-tier verified-block table; mutable because the lock-free read
  // path (const) enters blocks into it.
  mutable tier::BlockCache block_cache_;
  mutable util::EpochManager epoch_;
  // Serializes table replacement (rebalance, bulk load, save/load). Never
  // touched by point reads or writes.
  mutable std::mutex rebalance_mutex_;
  std::atomic<Table*> table_{nullptr};
  std::atomic<uint64_t> rebalances_{0};
  std::atomic<uint64_t> merges_{0};
  // Splits + merges + rebalances ever committed; checkpoints persist it
  // and LoadFrom restores it (monotone across restarts).
  std::atomic<uint64_t> topology_epoch_{0};
  // WAL configuration; all guarded by rebalance_mutex_ (every site that
  // enables logging, allocates a wal id, or checkpoints holds it).
  std::string wal_prefix_;
  wal::WalOptions wal_options_;
  bool wal_enabled_ = false;
  uint64_t next_wal_id_ = 1;
  std::atomic<wal::WalStatus> last_wal_error_{wal::WalStatus::kOk};
  // Next cold-segment id, guarded by rebalance_mutex_ (mutable: a
  // checkpoint — SaveToLocked, const — may need a fresh id to fold a
  // dirty overlay). Checkpoints persist it, LoadFrom restores it.
  mutable uint64_t next_segment_id_ = 1;
  std::atomic<uint64_t> demotions_{0};
  std::atomic<uint64_t> promotions_{0};
  std::atomic<uint64_t> compactions_{0};
  // Background tiering thread (StartTiering/StopTiering).
  std::mutex tiering_mutex_;
  std::condition_variable tiering_cv_;
  std::thread tiering_thread_;
  bool tiering_stop_ = false;
};

}  // namespace alex::shard
