// Thread-safe ALEX with a lock-free read path (paper §7, "Concurrency
// Control").
//
// Readers descend the RMI under only an *epoch guard* (util/epoch.h) — no
// tree-wide mutex, no shared-counter RMW, no shared write of any kind —
// and a point read then probes its leaf optimistically, writing nothing
// there either. Writers take the leaf's latch exclusively; splits lock
// only the victim's parent inner node and the victim leaf, never the
// tree. The protocol:
//
//   Descent.   `root_` and every inner-node child slot are atomics; the
//     descent does one seq_cst load per level (a plain load on x86, an
//     acquire load on ARM — see util/epoch.h for why seq_cst). Inner
//     nodes are immutable once published except for their child slots, so
//     no inner-node latching is ever needed.
//
//   Leaf probes.   Every leaf carries a version word (DataNode::version):
//     a retired bit, a writer-active bit and a count of write brackets. A
//     writer enters a leaf only through a DataNode::WriteLatch, which
//     takes the exclusive latch and keeps writer-active set for the whole
//     of every in-place mutation. A point read (Get, Contains, each key of
//     MultiGet) loads the version, probes the leaf's published storage
//     block with acquire loads and reloads the version
//     (DataNode::TryFind) — a seqlock read (Boehm, MSPC 2012), as in
//     optimistic lock coupling (Leis et al., DaMoN 2016). An unchanged
//     version means the probe saw one state between write brackets, which
//     is its answer; a changed one means probe again, and after
//     kProbeAttempts failures the read takes the shared latch, so a
//     write-hot leaf cannot starve it. Writers store into a published
//     block with release stores, and a rebuild (expansion, contraction)
//     fills a fresh block, publishes it with one release store and
//     retires the old one through the epoch manager: a probe never reads
//     freed memory, nor past the block it loaded. Scans, aggregates and
//     structure walks read under the shared latch.
//
//   Validation.   A split replaces a leaf with a new subtree; a reader
//     may race it and land on the replaced leaf. The retired bit is set
//     inside the splitter's write bracket, before the replacement is
//     published. A reader that finds it set — in the version its probe
//     read, or after taking the shared latch — re-descends from the root
//     and retries (rare: only on the split of the very leaf being
//     probed). Clear means the leaf is live and its contents
//     authoritative — the pre-split leaf still holds every key it ever
//     held, so even a reader racing the publication reads correct data.
//
//   Splits.   An insert that hits the adaptive-RMI split bound releases
//     its leaf latch, locks the parent's split mutex (or the root mutex
//     when the leaf is the root), re-latches and re-validates the leaf,
//     and re-attempts the insert — another thread may have already split
//     or made room. If the split proceeds it builds the replacement off to
//     the side with the single-threaded index's builder (Alex::BuildSplit):
//     new leaves that each take a contiguous run of the victim's parent
//     slots when it owns several (a sideways split, no new inner node),
//     else a new inner node over new leaves (a downward split). It splices
//     the new leaves into the sibling chain (serialized by a chain mutex so
//     live leaves' links always describe the live chain), marks the victim
//     retired, and publishes with one seq_cst store per owned parent slot
//     (or the root). Between those stores a reader lands either on the
//     retired victim, and re-descends, or on a complete new node. The
//     victim is then *retired* through epoch-based reclamation, not
//     deleted: it is freed only after every reader that could still hold
//     it has unpinned. Splits of leaves under different parents run fully
//     in parallel.
//
//   Bulk load.   Builds a complete replacement tree off to the side,
//     swaps `root_` with one store, then walks the old tree — taking each
//     inner split mutex and each leaf latch once — marking every leaf
//     retired and handing every node to the reclaimer. Operations that
//     committed into the old tree linearize before the bulk load.
//
// Guarantees: point operations (Get/Contains/Insert/Erase/Update/Put) are
// linearizable — a write takes effect inside its write bracket on a live
// leaf, a read at the first version load of its validated probe (or
// inside its shared-latch section). Range scans are read-committed per
// leaf: each leaf's contribution is a consistent snapshot taken under its
// shared latch, but a scan crossing leaves may miss or observe writes
// that land behind or ahead of it. Memory reclamation is quiescent-safe:
// the epoch manager frees a retired node only two epoch advances after
// retirement and drains everything on destruction, so the index leaks
// nothing (ASan-verified).
//
// Lock order (deadlock freedom): parent split mutex (or root mutex) →
// leaf latch → chain mutex. The bulk-load quiescer takes inner split
// mutexes strictly top-down. No path ever takes a second leaf latch or an
// ancestor's split mutex while holding a descendant's.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/alex.h"
#include "core/config.h"
#include "core/data_node.h"
#include "core/node.h"
#include "obs/inspect.h"
#include "obs/metrics.h"
#include "util/aggregate.h"
#include "util/epoch.h"
#include "util/prefetch.h"

namespace alex::core {

/// What an Aggregate call computes per record in the key range.
enum class AggField : uint8_t {
  kKeys,      ///< aggregate the keys themselves
  kPayloads,  ///< aggregate the payloads (arithmetic payload types only)
};

/// Pushed-down aggregate description. The engine always computes the
/// fused count/sum/min/max of the selected field in one pass; `count_only`
/// skips the value fold when the caller just wants cardinality (a popcount
/// of the occupancy bitmap). The optional payload filter restricts the
/// aggregate to records whose payload lies in [filter_lo, filter_hi]
/// (arithmetic payloads only).
template <typename P>
struct AggSpec {
  AggField field = AggField::kKeys;
  bool count_only = false;
  bool has_payload_filter = false;
  P filter_lo{};
  P filter_hi{};
};

/// Result of an Aggregate call. `count` is the number of records in the
/// key range that passed the filter; `keys`/`payloads` hold the value
/// aggregates for whichever field the spec selected (the other stays
/// empty). Partial results merge associatively via Merge — the engine
/// merges leaves and shards in ascending key order, so double sums are
/// deterministic run-to-run.
template <typename K, typename P>
struct AggResult {
  uint64_t count = 0;
  util::AggState<K> keys;
  util::AggState<P> payloads;

  void Merge(const AggResult& o) {
    count += o.count;
    keys.Merge(o.keys);
    if constexpr (std::is_arithmetic_v<P>) payloads.Merge(o.payloads);
  }
};

/// Hands one record to a scan visitor and says whether the scan goes on:
/// a visitor returning void visits the whole range, one returning bool
/// stops the scan by returning false.
template <typename Visitor, typename K, typename P>
bool VisitRecord(Visitor& visit, const K& key, const P& payload) {
  using Result = std::invoke_result_t<Visitor&, const K&, const P&>;
  static_assert(std::is_void_v<Result> || std::is_same_v<Result, bool>,
                "a scan visitor returns void or bool");
  if constexpr (std::is_void_v<Result>) {
    visit(key, payload);
    return true;
  } else {
    return visit(key, payload);
  }
}

/// The largest value a key can take, +infinity for floating-point keys:
/// the upper end of a range read that is unbounded above.
template <typename K>
constexpr K KeyTop() {
  return std::numeric_limits<K>::has_infinity
             ? std::numeric_limits<K>::infinity()
             : std::numeric_limits<K>::max();
}

/// The smallest value a key can take, -infinity for floating-point keys:
/// the lower end of a range read that is unbounded below.
template <typename K>
constexpr K KeyBottom() {
  return std::numeric_limits<K>::has_infinity
             ? -std::numeric_limits<K>::infinity()
             : std::numeric_limits<K>::lowest();
}

/// A lock-free-read, node-level-locked ALEX. All methods are safe to call
/// from any thread. Pointer-returning lookups are deliberately not
/// exposed — a payload pointer would escape the epoch guard — so reads
/// copy the payload out. Keys and payloads must be trivially copyable and
/// fit one lock-free atomic access, since a probe loads them while a
/// writer may be storing them.
template <typename K, typename P>
class ConcurrentAlex {
  static_assert(container::kAtomicSlot<K> && container::kAtomicSlot<P>,
                "ConcurrentAlex keys and payloads must be trivially "
                "copyable and lock-free atomic-sized");

 public:
  using DataNodeT = typename Alex<K, P>::DataNodeT;

  explicit ConcurrentAlex(const Config& config = Config())
      : owned_epoch_(new util::EpochManager()),
        epoch_(owned_epoch_.get()),
        index_(config, epoch_) {}

  /// Shares an external reclamation domain instead of owning one. The
  /// shard layer passes its own manager here so one sharded operation
  /// pins exactly one epoch guard: the guard the index takes below is
  /// then a reentrant no-op on the caller's pin (see util/epoch.h).
  /// `shared_epoch` must outlive the index and every node it retires.
  ConcurrentAlex(const Config& config, util::EpochManager* shared_epoch)
      : epoch_(shared_epoch), index_(config, epoch_) {}

  /// Retired nodes drain through the epoch manager's destructor; the live
  /// tree is freed by the inner Alex. Callers must guarantee quiescence
  /// (no in-flight operations), as for any destructor.
  ~ConcurrentAlex() = default;

  /// Replaces the contents. Concurrent operations that landed in the old
  /// tree linearize before the bulk load; readers mid-descent retry onto
  /// the new tree via leaf retirement.
  void BulkLoad(const K* keys, const P* payloads, size_t n) {
    Node* fresh = index_.BuildDetached(keys, payloads, n);
    Node* old;
    {
      std::lock_guard<std::mutex> root_lock(root_split_mutex_);
      old = index_.root_.exchange(fresh, std::memory_order_seq_cst);
    }
    util::EpochManager::Guard guard(*epoch_);
    // The quiescer counts the old tree's final keys as it drains each
    // leaf's latch. Every counter bump for an old-tree commit happens
    // under the leaf latch, so that count captures exactly the old tree's
    // contribution to num_keys_ — replacing it with `n` as a delta keeps
    // concurrent new-tree commits (which the store-a-constant approach
    // would overwrite) intact.
    const size_t old_total = QuiesceAndRetire(old);
    index_.num_keys_.fetch_add(n - old_total, std::memory_order_relaxed);
    epoch_->TryReclaim();
  }

  /// Copies the payload of `key` into `*out`; returns false when absent.
  /// Epoch guard + validated leaf probes: no shared write anywhere unless
  /// the leaf stays write-hot through kProbeAttempts probes.
  bool Get(K key, P* out) const {
    util::EpochManager::Guard guard(*epoch_);
    while (true) {
      const Probe result = ProbeLeaf(DescendAcquire(key), key, out);
      if (result != Probe::kRetired) return result == Probe::kFound;
      CountDescentRetry();  // raced a split: re-descend
    }
  }

  /// True when `key` is present (Get's path).
  bool Contains(K key) const {
    P ignored;
    return Get(key, &ignored);
  }

  /// Inserts; false on duplicate. Fast path: epoch guard + exclusive leaf
  /// latch, so inserts into disjoint leaves run in parallel and never
  /// block readers of other leaves. A split locks only the parent inner
  /// node and the victim leaf.
  bool Insert(K key, const P& payload) {
    bool inserted = false;
    InsertOrPut(key, payload, /*overwrite_duplicate=*/false, &inserted);
    return inserted;
  }

  /// Inserts or overwrites, atomically with respect to other operations
  /// on the key's leaf.
  void Put(K key, const P& payload) {
    bool inserted = false;
    InsertOrPut(key, payload, /*overwrite_duplicate=*/true, &inserted);
  }

  /// Removes `key`; false when absent. Contraction (a rebuild within the
  /// same node object) happens under the leaf latch; the structure never
  /// changes, so erase never escalates.
  bool Erase(K key) {
    util::EpochManager::Guard guard(*epoch_);
    while (true) {
      DataNodeT* leaf = DescendAcquire(key);
      WriteLatch latch(leaf);
      if (leaf->IsRetired()) { CountDescentRetry(); continue; }
      if (!leaf->Erase(key)) return false;
      index_.num_keys_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }

  /// Overwrites an existing payload; false when absent (leaf-exclusive:
  /// the write must not race shared readers copying the payload).
  bool Update(K key, const P& payload) {
    util::EpochManager::Guard guard(*epoch_);
    while (true) {
      DataNodeT* leaf = DescendAcquire(key);
      WriteLatch latch(leaf);
      if (leaf->IsRetired()) { CountDescentRetry(); continue; }
      return leaf->UpdatePayload(key, payload);
    }
  }

  // ---- Batched point operations ----
  //
  // MultiGet takes keys in any order and walks them through the tree in
  // groups of kMultiGetGroup, one level at a time (GroupGet): every key of
  // the group computes and prefetches its next node before any of them
  // dereferences one, so the cache misses of the group's descents overlap
  // instead of queueing (group prefetching, Chen, Ailamaki, Gibbons &
  // Mowry, ICDE 2004). MultiInsert and MultiErase need keys sorted
  // ascending: each *leaf run*, the maximal stretch of consecutive keys
  // owned by the same leaf, takes one descent cascade (O(log run) routing
  // probes instead of one per key) and one leaf latch. Leaf ownership is a
  // contiguous key interval, so sortedness is what makes runs contiguous
  // and the galloped run-boundary search valid; ShardedAlex sorts write
  // batches before calling these. MultiGet pins one epoch guard per
  // group, MultiInsert and MultiErase one per call. Per-key results match
  // the scalar ops exactly; batches are NOT atomic as a unit: each key
  // linearizes individually, in batch order.

  /// Keys that one GroupGet pass walks through the tree together.
  static constexpr size_t kMultiGetGroup = 16;

  /// Batched Get over keys in any order. Fills `payloads[i]`/`found[i]`
  /// for each key; returns the number found.
  size_t MultiGet(const K* keys, size_t n, P* payloads, bool* found) const {
    return GroupGet([this](size_t) { return this; }, keys, n, payloads,
                    found);
  }

  /// The batched lookup over (tree, key) pairs: key i is looked up in
  /// `tree_at(i)`, a `const ConcurrentAlex*`; a null tree skips key i and
  /// leaves its outputs untouched. Every tree must share one epoch
  /// manager, as the shard layer's shards do. Returns the number found.
  ///
  /// Each group of kMultiGetGroup keys descends level by level: one pass
  /// computes every pending key's child slot and prefetches it, the next
  /// loads each child pointer and prefetches the child's head, which holds
  /// a leaf's version word and block pointer. At the leaves, one pass
  /// prefetches each key's block header and the next its predicted-slot
  /// lines (key, bitmap word, payload); only then does each key make one
  /// validated probe (DataNode::TryFind), so per-key linearizability is
  /// Get's. A key whose probe fails — a writer moved the version, or a
  /// racing split retired the leaf — takes Get's whole path instead.
  ///
  /// `tree_at` is called once per key, in key order, as the key's group
  /// starts, and may do work of its own: the shard layer routes there and
  /// serves cold shards' keys through the tier.
  template <typename TreeAt>
  static size_t GroupGet(TreeAt tree_at, const K* keys, size_t n,
                         P* payloads, bool* found) {
    size_t hits = 0;
    for (size_t base = 0; base < n; base += kMultiGetGroup) {
      const size_t m = std::min(kMultiGetGroup, n - base);
      const ConcurrentAlex* tree[kMultiGetGroup];
      const Node* node[kMultiGetGroup];
      size_t slot[kMultiGetGroup];
      size_t pending[kMultiGetGroup];  // group members above the leaves
      size_t live = 0;
      const ConcurrentAlex* first = nullptr;
      for (size_t k = 0; k < m; ++k) {
        tree[k] = tree_at(base + k);
        if (tree[k] == nullptr) continue;
        if (live == 0) first = tree[k];
        pending[live++] = k;
      }
      if (first == nullptr) continue;
      util::EpochManager::Guard guard(*first->epoch_);
      for (size_t j = 0; j < live; ++j) {
        const size_t k = pending[j];
        assert(tree[k]->epoch_ == first->epoch_);
        node[k] = tree[k]->index_.root_.load(std::memory_order_seq_cst);
        util::PrefetchReadRange(node[k], kNodeHeadBytes);
      }
      while (true) {
        size_t inner = 0;
        for (size_t j = 0; j < live; ++j) {
          const size_t k = pending[j];
          if (node[k]->is_leaf()) continue;
          const auto* parent = static_cast<const InnerNodeT*>(node[k]);
          slot[k] = parent->ChildSlotFor(static_cast<double>(keys[base + k]));
          parent->PrefetchSlot(slot[k]);
          pending[inner++] = k;
        }
        live = inner;
        if (live == 0) break;
        for (size_t j = 0; j < live; ++j) {
          const size_t k = pending[j];
          node[k] =
              static_cast<const InnerNodeT*>(node[k])->ChildAcquire(slot[k]);
          util::PrefetchReadRange(node[k], kNodeHeadBytes);
        }
      }
      // At the leaves: one pass prefetches each key's block header, the
      // next reads it to prefetch the key's predicted-slot lines, and only
      // then does each key probe.
      for (size_t k = 0; k < m; ++k) {
        if (tree[k] != nullptr) {
          static_cast<const DataNodeT*>(node[k])->PrefetchBlock();
        }
      }
      for (size_t k = 0; k < m; ++k) {
        if (tree[k] != nullptr) {
          static_cast<const DataNodeT*>(node[k])->PrefetchFor(keys[base + k]);
        }
      }
      for (size_t k = 0; k < m; ++k) {
        if (tree[k] == nullptr) continue;
        const size_t i = base + k;
        const Probe result = static_cast<const DataNodeT*>(node[k])->TryFind(
            keys[i], &payloads[i]);
        if (result == Probe::kRetry || result == Probe::kRetired) {
          // The one probe failed: take Get's path, which re-descends and
          // probes again before it falls back to the shared latch.
          if (result == Probe::kRetired) {
            CountDescentRetry();
          } else {
            CountProbeRetry();
          }
          found[i] = tree[k]->Get(keys[i], &payloads[i]);
        } else {
          found[i] = result == Probe::kFound;
        }
        if (found[i]) ++hits;
      }
    }
    return hits;
  }

  /// Batched Insert. `inserted[i]` (when non-null) reports per-key
  /// success (false = duplicate); returns the number inserted. A key that
  /// hits the split bound escalates through the same SplitOrCommit path
  /// as the scalar insert, then the batch resumes.
  size_t MultiInsert(const K* keys, const P* payloads, size_t n,
                     bool* inserted = nullptr) {
    assert(std::is_sorted(keys, keys + n));
    size_t count = 0;
    util::EpochManager::Guard guard(*epoch_);
    size_t i = 0;
    while (i < n) {
      InnerNodeT* parent = nullptr;
      DataNodeT* leaf = DescendAcquire(keys[i], &parent);
      bool need_escalate = false;
      {
        WriteLatch latch(leaf);
        if (leaf->IsRetired()) { CountDescentRetry(); continue; }
        const size_t j = RunEnd(keys, n, i, leaf);
        size_t run_inserted = 0;
        while (i < j) {
          const InsertResult result = leaf->Insert(keys[i], payloads[i]);
          if (result == InsertResult::kNeedsSplit) {
            need_escalate = true;
            break;
          }
          const bool ok = result == InsertResult::kOk;
          if (inserted != nullptr) inserted[i] = ok;
          if (ok) ++run_inserted;
          ++i;
        }
        // Commits must be visible in num_keys_ before the latch drops
        // (the bulk-load quiescer counts per leaf under the latch).
        if (run_inserted > 0) {
          index_.num_keys_.fetch_add(run_inserted,
                                     std::memory_order_relaxed);
          count += run_inserted;
        }
      }
      if (need_escalate) {
        bool ok = false;
        if (SplitOrCommit(keys[i], payloads[i], leaf, parent,
                          /*overwrite_duplicate=*/false, &ok)) {
          if (inserted != nullptr) inserted[i] = ok;
          if (ok) ++count;
          ++i;
        }
        // else: a split happened; re-descend and retry the same key.
      }
    }
    return count;
  }

  /// Batched Erase. `erased[i]` (when non-null) reports per-key success;
  /// returns the number erased. Erase never escalates, so each run is one
  /// exclusive-latch critical section.
  size_t MultiErase(const K* keys, size_t n, bool* erased = nullptr) {
    assert(std::is_sorted(keys, keys + n));
    size_t count = 0;
    util::EpochManager::Guard guard(*epoch_);
    size_t i = 0;
    while (i < n) {
      DataNodeT* leaf = DescendAcquire(keys[i]);
      WriteLatch latch(leaf);
      if (leaf->IsRetired()) { CountDescentRetry(); continue; }
      const size_t j = RunEnd(keys, n, i, leaf);
      size_t run_erased = 0;
      for (; i < j; ++i) {
        const bool ok = leaf->Erase(keys[i]);
        if (erased != nullptr) erased[i] = ok;
        if (ok) ++run_erased;
      }
      if (run_erased > 0) {
        index_.num_keys_.fetch_sub(run_erased, std::memory_order_relaxed);
        count += run_erased;
      }
    }
    return count;
  }

  /// Up to `max_results` records with key >= `start`, in key order, into
  /// `out` (cleared first): a Scan up to KeyTop whose visitor stops once
  /// `out` is full. Returns the number read.
  size_t RangeScan(K start, size_t max_results,
                   std::vector<std::pair<K, P>>* out) const {
    out->clear();
    size_t left = max_results;
    if (left == 0) return 0;
    Scan(start, KeyTop<K>(),
         [&](const K& key, const P& payload) {
           out->emplace_back(key, payload);
           return --left != 0;
         });
    return out->size();
  }

  /// Streaming range scan: visits every record with key in [lo, hi] in
  /// ascending key order as visit(key, payload), never materializing
  /// through an intermediate buffer. A visitor returning void visits the
  /// whole range; one returning bool stops the scan when it returns
  /// false. Read-committed per leaf (WalkRange). The visitor runs under
  /// the leaf's shared latch: it must be cheap, must not block, and must
  /// not call back into this index. Returns the number of records
  /// visited, the one that stopped the scan included.
  template <typename Visitor>
  size_t Scan(K lo, K hi, Visitor&& visit) const {
    size_t total = 0;
    WalkRange(lo, hi, [&](const Storage& leaf, size_t slot_lo,
                          size_t slot_hi) {
      bool more = true;
      total += leaf.VisitSlots(slot_lo, slot_hi,
                               [&](const K& key, const P& payload) {
                                 return more = VisitRecord(visit, key, payload);
                               });
      return more;
    });
    return total;
  }

  /// Pushed-down aggregate over [lo, hi]: count/sum/min/max folded inside
  /// each leaf over its occupied slots (util/aggregate.h, one walk of the
  /// occupancy bitmap), merged across leaves in key order. No record is
  /// ever copied out. Same walk and consistency contract as Scan.
  AggResult<K, P> Aggregate(K lo, K hi, const AggSpec<P>& spec = {}) const {
    AggResult<K, P> result;
    WalkRange(lo, hi, [&](const Storage& leaf, size_t slot_lo,
                          size_t slot_hi) {
      AggregateLeafSlots(leaf, slot_lo, slot_hi, spec, &result);
      return true;
    });
    return result;
  }

  size_t size() const { return index_.size(); }

  /// Whole-tree accounting walks every node's internals without latches;
  /// call only while no writers are in flight (bench/reporting hook).
  size_t IndexSizeBytes() const {
    util::EpochManager::Guard guard(*epoch_);
    return index_.IndexSizeBytes();
  }

  size_t DataSizeBytes() const {
    util::EpochManager::Guard guard(*epoch_);
    return index_.DataSizeBytes();
  }

  /// Snapshot of the operation counters. Counters are relaxed atomics, so
  /// no lock is needed; the snapshot is point-in-time per counter.
  Stats GetStats() const { return index_.stats(); }

  /// The reclamation engine, exposed read-only for tests/diagnostics
  /// (epoch(), retired_count(), freed_count()).
  const util::EpochManager& epoch_manager() const { return *epoch_; }

  /// Full structural-invariant check. Requires quiescence (no concurrent
  /// writers). Test hook.
  bool CheckInvariants() const {
    util::EpochManager::Guard guard(*epoch_);
    return index_.CheckInvariants();
  }

  /// Structural introspection walk (obs/inspect.h): per-leaf fill factor,
  /// gap density, depth and tracked-model-error distributions, plus the
  /// sibling-chain length. Safe against concurrent operations: the walk
  /// runs under an epoch guard, visits each leaf under its shared latch,
  /// and skips (but counts) leaves a racing split retired mid-walk — so
  /// the result is read-committed, not a frozen point-in-time image.
  obs::TreeStructure CollectStructure() const {
    obs::TreeStructure out;
    util::EpochManager::Guard guard(*epoch_);
    CollectNode(index_.root_.load(std::memory_order_seq_cst), 0, &out);
    // Chain length via the scan path's own pointers: leftmost leaf, then
    // next-leaf links. Bounded in case a burst of splits grows the chain
    // under us faster than the subtree count we just took.
    const DataNodeT* leaf = DescendAcquire(std::numeric_limits<K>::lowest());
    const uint64_t bound = out.leaf_count + out.retired_seen + 64;
    uint64_t chain = 0;
    while (leaf != nullptr && chain < bound) {
      ++chain;
      leaf = leaf->next_leaf_acquire();
    }
    out.chain_length = chain;
    return out;
  }

  // ---- Test hooks for the lock-freedom contract ----

  /// Enters the leaf owning `key` as a writer (its WriteLatch) and
  /// returns the latch. While held, the leaf cannot be written, split or
  /// retired, and its readers wait out their probes on its shared latch —
  /// but reads and writes of *other* leaves must still complete, which is
  /// exactly what the lock-free-read-path test asserts.
  typename DataNodeT::WriteLatch LatchLeafForTest(K key) {
    util::EpochManager::Guard guard(*epoch_);
    while (true) {
      DataNodeT* leaf = DescendAcquire(key);
      WriteLatch latch(leaf);
      // Only a latched *live* leaf may outlive the guard: retirement
      // requires this exclusive latch, so a live leaf cannot be retired
      // (or freed) while the caller holds the returned lock. A leaf that
      // was already retired when we latched it could be reclaimed the
      // moment the guard dies — re-descend instead of returning it.
      if (!leaf->IsRetired()) return latch;
    }
  }

  /// Holds every tree-scoped mutex the write path can take (the root
  /// transition mutex and the sibling-chain mutex). Reads must not block
  /// on either; the test verifies they complete while these are held.
  std::pair<std::unique_lock<std::mutex>, std::unique_lock<std::mutex>>
  LockStructuralMutexesForTest() {
    return {std::unique_lock<std::mutex>(root_split_mutex_),
            std::unique_lock<std::mutex>(chain_mutex_)};
  }

 private:
  using InnerNodeT = InnerNode;
  using Storage = typename DataNodeT::StorageBase;
  using WriteLatch = typename DataNodeT::WriteLatch;
  using Probe = typename DataNodeT::Probe;

  /// Bytes of a node's head that GroupGet prefetches on reaching it,
  /// before it knows the node's kind: all of an inner node's routing
  /// fields, and a leaf's version word and block pointer.
  static constexpr size_t kNodeHeadBytes = 192;

  /// Optimistic probes a point read makes before it takes the shared
  /// latch instead.
  static constexpr int kProbeAttempts = 4;

  /// Telemetry for a failed leaf validation (the leaf retired under a
  /// racing structural change): the operation re-descends from the root.
  static void CountDescentRetry() {
    ALEX_OBS_COUNTER_INC("core.descent_retries");
    ALEX_OBS_CTX_ADD(descent_retries, 1);
  }

  /// Telemetry for an optimistic probe whose version check failed.
  static void CountProbeRetry() {
    ALEX_OBS_COUNTER_INC("core.probe_retries");
    ALEX_OBS_CTX_ADD(probe_retries, 1);
  }

  /// The one range walk behind Scan, Aggregate and RangeScan (§5.2.3):
  /// streams the leaves that overlap [lo, hi] along the sibling chain,
  /// each under its shared latch, and calls fn(storage, slot_lo, slot_hi)
  /// once per leaf whose slots [slot_lo, slot_hi) hold keys of the range
  /// not yet visited; fn returns false to stop the walk. The walk stops by
  /// itself at the first leaf that already holds a key above `hi`. When
  /// the chain hands it a retired leaf (a split replaced it mid-walk), it
  /// re-descends from the root at the last key it handed out, whose strict
  /// upper bound then starts the next slot run: read-committed per leaf,
  /// and each key visited at most once, in order.
  template <typename Fn>
  void WalkRange(K lo, K hi, Fn&& fn) const {
    if (hi < lo) return;
    util::EpochManager::Guard guard(*epoch_);
    K resume = lo;
    bool emitted = false;
    const DataNodeT* leaf = DescendAcquire(resume);
    while (leaf != nullptr) {
      ALEX_OBS_TIMED_SHARED_LOCK(latch, leaf->latch(),
                                 "core.leaf_latch_contended",
                                 "core.leaf_latch_wait_ns");
      if (leaf->IsRetired()) {
        CountDescentRetry();
        latch.unlock();
        leaf = DescendAcquire(resume);
        continue;
      }
      const Storage& s = leaf->storage();
      const size_t slot_lo = emitted ? leaf->UpperBoundSlot(resume)
                                     : leaf->LowerBoundSlot(resume);
      const size_t slot_hi = leaf->UpperBoundSlot(hi);
      if (slot_lo < slot_hi) {
        if (!fn(s, slot_lo, slot_hi)) return;
        resume = s.key_at(s.PrevOccupied(slot_hi));
        emitted = true;
      }
      if (slot_hi < s.capacity()) return;  // holds a key above hi
      const DataNodeT* next = leaf->next_leaf_acquire();
      latch.unlock();
      leaf = next;
    }
  }

  /// Point read of `key` in `leaf` (caller holds an epoch guard): up to
  /// kProbeAttempts validated probes (DataNode::TryFind), then the shared
  /// latch. Returns kFound, kAbsent or kRetired (re-descend).
  static Probe ProbeLeaf(const DataNodeT* leaf, K key, P* out) {
    for (int attempt = 0; attempt < kProbeAttempts; ++attempt) {
      const Probe result = leaf->TryFind(key, out);
      if (result != Probe::kRetry) return result;
      CountProbeRetry();
    }
    ALEX_OBS_COUNTER_INC("core.probe_latch_fallbacks");
    ALEX_OBS_TIMED_SHARED_LOCK(latch, leaf->latch(),
                               "core.leaf_latch_contended",
                               "core.leaf_latch_wait_ns");
    if (leaf->IsRetired()) return Probe::kRetired;
    const P* p = leaf->Find(key);
    if (p == nullptr) return Probe::kAbsent;
    *out = *p;
    return Probe::kFound;
  }

  /// Recursive helper for CollectStructure: inner nodes contribute to the
  /// node counts (merged partitions — consecutive slots sharing one child
  /// pointer — are visited once); each live leaf contributes its stats
  /// under its shared latch, including its exact model error, measured
  /// here in one pass over the leaf.
  void CollectNode(Node* node, uint64_t depth,
                   obs::TreeStructure* out) const {
    if (node == nullptr) return;
    if (node->is_leaf()) {
      DataNodeT* leaf = static_cast<DataNodeT*>(node);
      std::shared_lock<std::shared_mutex> latch(leaf->latch());
      if (leaf->IsRetired()) {
        ++out->retired_seen;
        return;
      }
      ++out->leaf_count;
      out->min_depth =
          out->leaf_count == 1 ? depth : std::min(out->min_depth, depth);
      out->max_depth = std::max(out->max_depth, depth);
      out->depth_sum += depth;
      out->keys += leaf->storage().num_keys();
      out->capacity += leaf->storage().capacity();
      if (leaf->has_model()) {
        out->model_error.Record(leaf->MaxModelError());
      } else {
        ++out->unbounded_leaves;
      }
      return;
    }
    InnerNodeT* inner = static_cast<InnerNodeT*>(node);
    ++out->inner_count;
    Node* prev = nullptr;
    for (size_t i = 0; i < inner->num_children(); ++i) {
      Node* child = inner->ChildAcquire(i);
      if (child == prev) continue;  // merged partition: one child, many slots
      prev = child;
      CollectNode(child, depth + 1, out);
    }
  }

  /// Folds the occupied slots [slot_lo, slot_hi) of one latched live leaf
  /// into `out` per `spec`. An unfiltered count is a popcount; every
  /// other aggregate folds the occupied slots in ascending order (a
  /// filtered count counts the slots whose payload passes the filter, a
  /// filtered value aggregate folds only those). With non-arithmetic
  /// payloads, payload aggregation degrades to a pure count and filters
  /// are unsupported.
  static void AggregateLeafSlots(const Storage& leaf, size_t slot_lo,
                                 size_t slot_hi, const AggSpec<P>& spec,
                                 AggResult<K, P>* out) {
    if constexpr (std::is_arithmetic_v<P>) {
      if (spec.has_payload_filter) {
        if (spec.count_only) {
          out->count += leaf.CountPayloadSlotsBetween(
              slot_lo, slot_hi, spec.filter_lo, spec.filter_hi);
          return;
        }
        util::AggState<K> ks;
        util::AggState<P> ps;
        const bool keys_field = spec.field == AggField::kKeys;
        leaf.VisitSlots(slot_lo, slot_hi, [&](const K& k, const P& p) {
          if (p < spec.filter_lo || spec.filter_hi < p) return true;
          if (keys_field) {
            ks.Add(k);
          } else {
            ps.Add(p);
          }
          return true;
        });
        out->count += keys_field ? ks.count : ps.count;
        out->keys.Merge(ks);
        out->payloads.Merge(ps);
        return;
      }
      if (!spec.count_only && spec.field == AggField::kPayloads) {
        const util::AggState<P> st =
            leaf.AggregatePayloadSlots(slot_lo, slot_hi);
        out->count += st.count;
        out->payloads.Merge(st);
        return;
      }
    }
    if (spec.count_only || spec.field == AggField::kPayloads) {
      out->count += leaf.CountSlots(slot_lo, slot_hi);
      return;
    }
    const util::AggState<K> st = leaf.AggregateKeySlots(slot_lo, slot_hi);
    out->count += st.count;
    out->keys.Merge(st);
  }

  /// The lock-free descent: one seq_cst load per level. Must be called
  /// under an epoch guard; the returned leaf stays allocated (though
  /// possibly retired) until the guard is released.
  DataNodeT* DescendAcquire(K key, InnerNodeT** parent_out = nullptr) const {
    Node* node = index_.root_.load(std::memory_order_seq_cst);
    InnerNodeT* parent = nullptr;
    while (!node->is_leaf()) {
      parent = static_cast<InnerNodeT*>(node);
      node = parent->ChildForAcquire(static_cast<double>(key));
    }
    if (parent_out != nullptr) *parent_out = parent;
    return static_cast<DataNodeT*>(node);
  }

  /// First index in (i, n] whose key no longer routes to `leaf`, found by
  /// galloping + binary search over the routing function — O(log run)
  /// descents per run instead of one per key. Requires sorted keys (leaf
  /// ownership is a contiguous interval, so membership is monotone) and
  /// the caller holding `leaf`'s latch under an epoch guard: the latch
  /// pins the leaf live, and a concurrent split elsewhere can only shrink
  /// the run (the excluded keys re-descend on the next iteration).
  size_t RunEnd(const K* keys, size_t n, size_t i,
                const DataNodeT* leaf) const {
    size_t lo = i + 1;
    size_t step = 1;
    while (i + step < n && DescendAcquire(keys[i + step]) == leaf) {
      lo = i + step + 1;
      step <<= 1;
    }
    size_t hi = std::min(n, i + step);
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (DescendAcquire(keys[mid]) == leaf) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  void InsertOrPut(K key, const P& payload, bool overwrite_duplicate,
                   bool* inserted) {
    util::EpochManager::Guard guard(*epoch_);
    while (true) {
      InnerNodeT* parent = nullptr;
      DataNodeT* leaf = DescendAcquire(key, &parent);
      {
        WriteLatch latch(leaf);
        if (leaf->IsRetired()) { CountDescentRetry(); continue; }
        const InsertResult result = leaf->Insert(key, payload);
        if (result == InsertResult::kOk) {
          index_.num_keys_.fetch_add(1, std::memory_order_relaxed);
          *inserted = true;
          return;
        }
        if (result == InsertResult::kDuplicate) {
          if (overwrite_duplicate) leaf->UpdatePayload(key, payload);
          *inserted = false;
          return;
        }
        // kNeedsSplit: drop the latch before taking the parent's split
        // mutex — splitters lock parent before leaf, and taking them in
        // the opposite order here would deadlock.
      }
      if (SplitOrCommit(key, payload, leaf, parent, overwrite_duplicate,
                        inserted)) {
        return;
      }
      // A split happened (ours or a rival's): re-descend and retry.
    }
  }

  /// Escalation path for an insert that hit the split bound. Locks the
  /// structural scope (parent split mutex, or the root mutex when the
  /// victim is the root leaf), revalidates, and either commits the
  /// operation (returns true) or performs a split and returns false so
  /// the caller re-descends into the new subtree.
  bool SplitOrCommit(K key, const P& payload, DataNodeT* leaf,
                     InnerNodeT* parent, bool overwrite_duplicate,
                     bool* inserted) {
    std::unique_lock<std::mutex> structural(
        parent != nullptr ? parent->split_mutex() : root_split_mutex_);
    if (parent == nullptr &&
        index_.root_.load(std::memory_order_seq_cst) != leaf) {
      return false;  // the root changed under us; re-descend
    }
    WriteLatch latch(leaf);
    if (leaf->IsRetired()) {
      CountDescentRetry();
      return false;  // a rival split won; re-descend
    }
    // The world may have moved while we were unlatched (a rival insert or
    // erase can change the outcome), so re-attempt the insert first.
    InsertResult result = leaf->Insert(key, payload);
    if (result == InsertResult::kOk) {
      index_.num_keys_.fetch_add(1, std::memory_order_relaxed);
      *inserted = true;
      return true;
    }
    if (result == InsertResult::kDuplicate) {
      if (overwrite_duplicate) leaf->UpdatePayload(key, payload);
      *inserted = false;
      return true;
    }
    if (!SplitLeafLocked(leaf, parent)) {
      // Degenerate key distribution: splitting cannot partition the node.
      // Insert past the bound instead (the node keeps expanding).
      result = leaf->Insert(key, payload, /*allow_split_request=*/false);
      *inserted = (result == InsertResult::kOk);
      if (*inserted) {
        index_.num_keys_.fetch_add(1, std::memory_order_relaxed);
      } else if (overwrite_duplicate &&
                 result == InsertResult::kDuplicate) {
        leaf->UpdatePayload(key, payload);
      }
      return true;
    }
    return false;  // split done; caller re-descends to place the key
  }

  /// Splits `leaf` under the structural scope lock + exclusive leaf latch
  /// (both held by the caller). Returns false when the key distribution
  /// cannot be partitioned. On success the victim is retired through EBR.
  bool SplitLeafLocked(DataNodeT* leaf, InnerNodeT* parent) {
    // The replacement (new leaves, and a new inner node when the split
    // goes downward) is built off to the side by the same code the
    // single-threaded split uses; only the publication protocol differs
    // below.
    typename Alex<K, P>::Split split;
    if (!index_.BuildSplit(leaf, parent, &split)) return false;
    // Splice the new leaves into the sibling chain. All splices serialize
    // on the chain mutex, so a live leaf's links always describe the live
    // chain; the victim keeps its outgoing links, and scanners that reach
    // it after retirement re-descend.
    {
      std::lock_guard<std::mutex> chain(chain_mutex_);
      Alex<K, P>::LinkLeaves(split.leaves, leaf->prev_leaf(),
                             leaf->next_leaf(), /*publish=*/true);
    }
    // Retire-then-publish: a reader that still reaches the old leaf
    // latches it and finds the flag; one that reads a new slot value
    // lands in a complete replacement.
    leaf->MarkRetired();
    index_.InstallSplit(split, parent, /*publish=*/true);
    ++index_.stats_->num_splits;
    ALEX_OBS_COUNTER_INC("core.leaf_splits");
    ALEX_OBS_CTX_ADD(leaf_splits, 1);
    // Freed only after every reader that could hold it unpins; our own
    // guard keeps it alive through the latch release below.
    epoch_->Retire(leaf);
    epoch_->MaybeReclaim();
    return true;
  }

  /// Bulk-load teardown of a detached tree: marks every leaf retired (so
  /// racing operations retry onto the new tree) and hands every node to
  /// the reclaimer. Takes each inner split mutex top-down — serializing
  /// with any in-flight split below that inner — and each leaf latch once
  /// to drain leaf-local writers. Returns the tree's final key count,
  /// observed leaf by leaf under the latch.
  size_t QuiesceAndRetire(Node* node) {
    if (node->is_leaf()) {
      auto* leaf = static_cast<DataNodeT*>(node);
      size_t drained;
      {
        WriteLatch latch(leaf);
        drained = leaf->storage().num_keys();
        leaf->MarkRetired();
      }
      epoch_->Retire(leaf);
      return drained;
    }
    auto* inner = static_cast<InnerNodeT*>(node);
    size_t drained = 0;
    {
      std::lock_guard<std::mutex> structural(inner->split_mutex());
      // Holding the split mutex pins this node's slot array: no split can
      // publish under it, and a split that already published left its new
      // subtree in the slots, where this walk retires it too.
      Node* prev = nullptr;
      for (size_t i = 0; i < inner->num_children(); ++i) {
        Node* child = inner->child(i);
        if (child != prev) drained += QuiesceAndRetire(child);
        prev = child;
      }
    }
    epoch_->Retire(inner);
    return drained;
  }

  // Owned when default-constructed; null when the caller shares a
  // domain. Declared before index_ so a drain of retired nodes (which
  // happens in the manager's destructor) runs after the live tree is
  // gone either way.
  std::unique_ptr<util::EpochManager> owned_epoch_;
  util::EpochManager* const epoch_;
  // Guards the root slot's structural transitions (root-leaf split, bulk
  // load swap). Never touched by reads.
  std::mutex root_split_mutex_;
  // Serializes sibling-chain splices across splits. Never touched by
  // reads; point writes never touch it either.
  std::mutex chain_mutex_;
  Alex<K, P> index_;
};

}  // namespace alex::core
