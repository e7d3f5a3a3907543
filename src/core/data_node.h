// ALEX leaf data nodes (paper §3.3). A data node owns
//
//   * one storage array, either a Gapped Array or a PMA (Config::layout),
//   * its own linear model, retrained on every expansion/contraction and
//     rescaled to the array capacity (Alg. 3), and
//   * sibling links so range scans stream across leaves (§5.2.3).
//
// Every build of the array (bulk load, split child, expansion,
// contraction) goes through one Rebuild: train the model on the sorted
// keys, then place them model-based (Alg. 3) in one forward pass that
// also writes the gap fills (container::GappedStorage::PlaceSorted) into
// a new storage block that holds the model too. An expansion or
// contraction packs the node's own old block into that sorted input, so
// no pair is copied into a fresh buffer first, and retires the old block
// once the new one is published.
//
// Concurrency (core/concurrent_alex.h). A writer enters the node only
// through a WriteLatch: the exclusive latch with a version bracket inside
// it. A point read either probes optimistically (TryFind: version,
// probe, version — no shared write) or takes the shared latch.
//
// Lookups predict a slot with the model and correct it with exponential
// search outward from the prediction (§3.2). The node stores no error
// bound: model-based inserts keep the error small, so exponential search
// costs O(log error) without one (Fig. 11).
//
// Inserts follow Alg. 1 (GA) / Alg. 2 (PMA): predict the position, correct
// it for sorted order, place the key; expand (and retrain) when the density
// bound is hit (GA) or the PMA reports failure. When adaptive-RMI splitting
// is enabled, a node that reaches the maximum key bound reports
// kNeedsSplit and the index splits it (§3.4.2).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <shared_mutex>
#include <utility>
#include <variant>

#include "containers/gapped_array.h"
#include "containers/pma.h"
#include "core/config.h"
#include "core/node.h"
#include "models/linear_model.h"
#include "obs/metrics.h"
#include "util/epoch.h"

namespace alex::core {

/// Outcome of a data-node insert attempt.
enum class InsertResult {
  kOk,         ///< inserted
  kDuplicate,  ///< key already present; ALEX rejects duplicates (§7)
  kNeedsSplit  ///< node is at the ARMI max-keys bound; caller must split
};

/// Leaf node storing keys and payloads (paper Fig. 2, bottom layer).
template <typename K, typename P>
class DataNode : public Node {
 public:
  using GappedArrayT = container::GappedArray<K, P>;
  using PmaT = container::Pma<K, P>;
  using StorageBase = container::GappedStorage<K, P>;

  /// Nodes with fewer keys than this use plain binary search and no model
  /// ("cold start", §3.3.3).
  static constexpr size_t kMinModelKeys = 32;
  /// Smallest data-node capacity (slots); contraction stops here.
  static constexpr size_t kMinNodeCapacity = 16;

  /// Builds the node directly from `n` sorted, distinct keys (empty by
  /// default), as BulkLoad does.
  DataNode(const Config& config, Stats* stats, const K* keys = nullptr,
           const P* payloads = nullptr, size_t n = 0)
      : Node(/*is_leaf=*/true), config_(&config), stats_(stats) {
    if (config.layout == NodeLayout::kPackedMemoryArray) {
      storage_.template emplace<PmaT>();
    }
    storage_base_ = Visit([](auto& s) -> StorageBase* { return &s; });
    BulkLoad(keys, payloads, n);
  }

  ~DataNode() override = default;

  /// The leaf's storage, whichever layout it is: slots, keys, payloads,
  /// occupancy, counts, aggregates and the storage invariants are read
  /// here directly (container::GappedStorage). The node keeps only the
  /// reads that need its model (Find, FindSlotOf, LowerBoundSlot,
  /// UpperBoundSlot, PredictSlot).
  const StorageBase& storage() const { return *storage_base_; }

  bool has_model() const { return storage_base_->block()->has_model(); }

  /// Retires replaced storage blocks through `reclaimer` instead of
  /// freeing them at once (ConcurrentAlex: optimistic probes may still
  /// read them).
  void set_reclaimer(util::EpochManager* reclaimer) {
    storage_base_->set_reclaimer(reclaimer);
  }

  /// Exact max |slot - Predict(key)| over the occupied slots, computed
  /// on demand in one pass over the node. Introspection only (the caller
  /// holds the latch); lookups never need it, because exponential search
  /// from the predicted slot is correct for any prediction error. 0 for a
  /// model-less node.
  size_t MaxModelError() const {
    if (!has_model()) return 0;
    const StorageBase& s = storage();
    size_t max_err = 0;
    s.bitmap().ForEachSet(0, s.capacity(), [&](size_t i) {
      const size_t pred = s.PredictSlot(s.key_at(i));
      const size_t err = pred > i ? pred - i : i - pred;
      if (err > max_err) max_err = err;
      return true;
    });
    return max_err;
  }

  /// Software-prefetches the header of the published storage block (what
  /// PrefetchFor reads). Caller holds an epoch guard.
  void PrefetchBlock() const {
    util::PrefetchRead(storage_base_->block_acquire());
  }

  /// Software-prefetches the slots a probe of `key` will touch, predicted
  /// from the published block's own header. Safe without the latch: the
  /// header never changes once published, and the caller's epoch guard
  /// keeps a block that a racing rebuild replaces allocated.
  void PrefetchFor(K key) const {
    StorageBase::PrefetchProbe(storage_base_->block_acquire(), key);
  }

  /// Outcome of one optimistic probe (TryFind).
  enum class Probe {
    kFound,    ///< key present; payload copied out
    kAbsent,   ///< key absent
    kRetired,  ///< leaf unlinked by a split or bulk load: re-descend
    kRetry,    ///< a writer was active or the version moved: answer void
  };

  /// One optimistic probe for `key` that writes no shared memory: load
  /// the version (acquire), probe the published block with acquire loads
  /// (container::GappedStorage::FindSlotIn<true>), copy the payload, then
  /// reload the version. A writer's release stores into the block pair
  /// with those acquire loads, so a probe that read anything a writer
  /// stored also sees the bracket the writer opened first, and the
  /// reloaded version differs: a mixed answer is never returned. The
  /// caller holds an epoch guard, which keeps the node and any block it
  /// loads allocated.
  Probe TryFind(K key, P* out) const {
    const uint64_t before = version_.load(std::memory_order_acquire);
    if ((before & kRetiredBit) != 0) return Probe::kRetired;
    if ((before & kWriterBit) != 0) return Probe::kRetry;
    const auto* block = storage_base_->block_acquire();
    const size_t slot = StorageBase::template FindSlotIn<true>(
        block, key, block->PredictSlot(key));
    const bool hit = slot < block->capacity();
    P value{};
    if (hit) value = container::LoadSlot<true>(block->payloads() + slot);
    if (version_.load(std::memory_order_acquire) != before) {
      return Probe::kRetry;
    }
    if (!hit) return Probe::kAbsent;
    *out = value;
    return Probe::kFound;
  }

  // Sibling links are atomics so the concurrent wrapper can splice the
  // leaf chain around a split while scans stream along it. Single-threaded
  // paths use the relaxed accessors (plain loads/stores after
  // optimization); concurrent scans and splices use the seq_cst ones.
  DataNode* prev_leaf() const {
    return prev_leaf_.load(std::memory_order_relaxed);
  }
  DataNode* next_leaf() const {
    return next_leaf_.load(std::memory_order_relaxed);
  }
  void set_prev_leaf(DataNode* leaf) {
    prev_leaf_.store(leaf, std::memory_order_relaxed);
  }
  void set_next_leaf(DataNode* leaf) {
    next_leaf_.store(leaf, std::memory_order_relaxed);
  }
  DataNode* prev_leaf_acquire() const {
    return prev_leaf_.load(std::memory_order_seq_cst);
  }
  DataNode* next_leaf_acquire() const {
    return next_leaf_.load(std::memory_order_seq_cst);
  }
  void publish_prev_leaf(DataNode* leaf) {
    prev_leaf_.store(leaf, std::memory_order_seq_cst);
  }
  void publish_next_leaf(DataNode* leaf) {
    next_leaf_.store(leaf, std::memory_order_seq_cst);
  }

  /// Per-leaf reader-writer latch (paper §7). ConcurrentAlex takes it
  /// shared for scans and for a point read whose optimistic probes kept
  /// failing; writers take it exclusively, through a WriteLatch only.
  /// Single-threaded Alex never touches it.
  std::shared_mutex& latch() const { return latch_; }

  /// The one way a writer enters a leaf: the exclusive latch, with the
  /// version bracket inside it. Construction latches and marks the
  /// version "writer active"; unlock() (or destruction) advances the
  /// version past the bracket, then releases the latch. Every in-place
  /// mutation — an insert and its shifts, an erase, an update, a PMA
  /// rebalance, an expansion or contraction, a split's TakeSorted, the
  /// retirement — runs inside one, so an optimistic probe that overlaps
  /// any of them sees the version move (TryFind).
  class WriteLatch {
   public:
    explicit WriteLatch(DataNode* leaf) : leaf_(leaf) {
      // Every write reads the block header; start that miss before the
      // latch's locked instruction rather than after it.
      leaf->PrefetchBlock();
      ALEX_OBS_TIMED_UNIQUE_LOCK(latch, leaf->latch_,
                                 "core.leaf_latch_contended",
                                 "core.leaf_latch_wait_ns");
      latch.release();
      // Relaxed suffices: every store the bracket covers is a release
      // store (a slot or the block pointer), which orders this one first.
      leaf->version_.store(
          leaf->version_.load(std::memory_order_relaxed) + kWriterBit,
          std::memory_order_relaxed);
    }
    ~WriteLatch() { unlock(); }
    WriteLatch(WriteLatch&& other) noexcept
        : leaf_(std::exchange(other.leaf_, nullptr)) {}
    WriteLatch(const WriteLatch&) = delete;
    WriteLatch& operator=(const WriteLatch&) = delete;
    WriteLatch& operator=(WriteLatch&&) = delete;

    /// Closes the bracket and releases the latch (idempotent).
    void unlock() {
      if (leaf_ == nullptr) return;
      // Adding kWriterBit again clears it and carries into the count.
      leaf_->version_.store(
          leaf_->version_.load(std::memory_order_relaxed) + kWriterBit,
          std::memory_order_release);
      leaf_->latch_.unlock();
      leaf_ = nullptr;
    }

   private:
    DataNode* leaf_;
  };

  /// Leaf version word. Bit 0 is the *retired* flag: set (inside a
  /// WriteLatch) by the split or bulk load that unlinks this leaf from
  /// the tree, immediately before the replacement is published; a reader
  /// that finds it set raced a structural change and must re-descend from
  /// the root. Bit 1 is set while a writer is inside its WriteLatch. The
  /// upper bits count completed write brackets, so any write moves the
  /// word.
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }
  bool IsRetired() const {
    return (version_.load(std::memory_order_acquire) & kRetiredBit) != 0;
  }
  /// Marks the leaf dead. Caller holds the leaf's WriteLatch.
  void MarkRetired() {
    version_.fetch_or(kRetiredBit, std::memory_order_relaxed);
  }

  /// Rebuilds the node from `n` sorted, distinct keys. Chooses capacity
  /// c·n (c = expansion factor), trains the model when the node is warm
  /// enough, and places keys model-based (Alg. 3).
  void BulkLoad(const K* keys, const P* payloads, size_t n) {
    size_t capacity = static_cast<size_t>(
        static_cast<double>(n) * config_->ExpansionFactor() + 0.5);
    if (capacity < kMinNodeCapacity) capacity = kMinNodeCapacity;
    Rebuild(keys, payloads, n, capacity);
  }

  /// Predicted slot for `key` — the model's prediction, or the array
  /// midpoint during cold start (§3.3.3: binary search until warm).
  size_t PredictSlot(K key) const { return storage_base_->PredictSlot(key); }

  /// Point lookup (Alg. 3, Lookup). Returns a pointer to the payload or
  /// nullptr when absent. Single storage dispatch; the lookup counter is
  /// maintained by the stats-aware wrapper paths, not here, to keep the
  /// hot path free of read-modify-writes.
  P* Find(K key) {
    return const_cast<P*>(std::as_const(*this).Find(key));
  }

  /// Const point lookup: reads only, so shared-latch holders never write.
  const P* Find(K key) const {
    const size_t slot = FindSlotOf(key);
    if (slot == storage_base_->capacity()) return nullptr;
    return &storage_base_->payload_at(slot);
  }

  /// Slot of `key`, or the storage's capacity() when absent.
  size_t FindSlotOf(K key) const {
    return storage_base_->FindSlot(key, PredictSlot(key));
  }

  /// First occupied slot with key >= `key`, or capacity().
  size_t LowerBoundSlot(K key) const {
    return storage_base_->LowerBoundSlot(key, PredictSlot(key));
  }

  /// First occupied slot with key > `key`, or capacity(). With
  /// LowerBoundSlot this brackets a [lo, hi] key range as a slot range in
  /// two model-guided exponential searches — the range walk's per-leaf
  /// "filter by key range" step.
  size_t UpperBoundSlot(K key) const {
    return storage_base_->UpperBoundSlot(key, PredictSlot(key));
  }

  /// Inserts (Alg. 1 for GA, Alg. 2 for PMA). `allow_split_request` lets
  /// the index bypass the max-keys bound when a split is impossible
  /// (degenerate key distributions).
  InsertResult Insert(K key, const P& payload,
                      bool allow_split_request = true) {
    // ARMI bound: a node at the maximum key bound must split, not expand
    // (§3.4.2), so fully-packed regions stay small.
    if (allow_split_request && config_->rmi_mode == RmiMode::kAdaptive &&
        config_->allow_splitting &&
        storage_base_->num_keys() >= config_->max_data_node_keys) {
      // Reject duplicates before asking for a split.
      if (FindSlotOf(key) != storage_base_->capacity()) {
        return InsertResult::kDuplicate;
      }
      return InsertResult::kNeedsSplit;
    }
    if (auto* ga = std::get_if<GappedArrayT>(&storage_)) {
      // Alg. 1 line 3: expand when the upper density limit would be hit.
      if (static_cast<double>(ga->num_keys() + 1) >
          config_->density_upper * static_cast<double>(ga->capacity())) {
        Expand();
        ga = &std::get<GappedArrayT>(storage_);
      }
      const bool ok = ga->Insert(key, payload, PredictSlot(key));
      if (!ok) return InsertResult::kDuplicate;
    } else {
      auto& pma = std::get<PmaT>(storage_);
      auto status = pma.Insert(key, payload, PredictSlot(key));
      while (status == PmaT::InsertStatus::kFull) {
        Expand();  // PMA expands by doubling (Alg. 3 line 12)
        status = std::get<PmaT>(storage_).Insert(key, payload,
                                                 PredictSlot(key));
      }
      if (status == PmaT::InsertStatus::kDuplicate) {
        return InsertResult::kDuplicate;
      }
    }
    if (stats_ != nullptr) ++stats_->num_inserts;
    SyncShiftStats();
    return InsertResult::kOk;
  }

  /// Removes `key`; contracts the node when it becomes sparse (§3.2:
  /// "in the same way that ALEX nodes expand upon inserts, ALEX nodes can
  /// also contract upon deletes").
  bool Erase(K key) {
    if (!storage_base_->Erase(key, PredictSlot(key))) return false;
    if (stats_ != nullptr) ++stats_->num_erases;
    MaybeContract();
    SyncShiftStats();
    return true;
  }

  /// Overwrites the payload of `key`; returns false when absent (§3.2:
  /// value-only updates are find + write).
  bool UpdatePayload(K key, const P& payload) {
    const size_t slot = FindSlotOf(key);
    if (slot == storage_base_->capacity()) return false;
    storage_base_->SetPayload(slot, payload);
    return true;
  }

  /// Expands the array and re-inserts model-based (Alg. 3, Expand).
  /// GA grows by 1/d; PMA doubles.
  void Expand() {
    const size_t capacity = storage_base_->capacity();
    size_t new_capacity;
    if (std::holds_alternative<GappedArrayT>(storage_)) {
      new_capacity = static_cast<size_t>(
          static_cast<double>(capacity) / config_->density_upper + 0.5);
      if (new_capacity <= capacity) new_capacity = capacity + 1;
    } else {
      new_capacity = capacity * 2;
    }
    const SortedRun run = TakeSorted();
    Rebuild(run.keys, run.payloads, run.n, new_capacity);
    if (stats_ != nullptr) ++stats_->num_expansions;
  }

  using SortedRun = typename StorageBase::SortedRun;

  /// Hands the node's pairs out in key order, packed into the front of its
  /// own block (container::GappedStorage::TakeSorted). The run stays valid
  /// until the next BulkLoad replaces the block, or until the node is
  /// freed.
  SortedRun TakeSorted() {
    RetireStorageCounters();
    return storage_base_->TakeSorted();
  }

  /// Index-size contribution: the model (2 doubles) + node metadata
  /// (paper §5.1 counts "models ... as well as pointers and metadata").
  size_t IndexSizeBytes() const {
    return model::LinearModel::SizeBytes() + kNodeMetadataBytes;
  }

  /// Cumulative element moves, surviving rebuilds.
  uint64_t TotalShifts() const {
    return retired_shifts_ + storage_base_->num_shifts();
  }

  /// Publishes shift counts into `stats` deltas; called by the index after
  /// each mutating operation.
  void SyncShiftStats() {
    if (stats_ == nullptr) return;
    const uint64_t total = TotalShifts();
    stats_->num_shifts += total - last_synced_shifts_;
    last_synced_shifts_ = total;
  }

 private:
  template <typename F>
  auto Visit(F&& f) {
    if (auto* ga = std::get_if<GappedArrayT>(&storage_)) {
      return f(*ga);
    }
    return f(std::get<PmaT>(storage_));
  }

  void MaybeContract() {
    if (config_->density_lower <= 0.0) return;
    const size_t cap = storage_base_->capacity();
    if (cap <= kMinNodeCapacity) return;
    if (static_cast<double>(storage_base_->num_keys()) >=
        config_->density_lower * static_cast<double>(cap)) {
      return;
    }
    const SortedRun run = TakeSorted();
    BulkLoad(run.keys, run.payloads, run.n);
    if (stats_ != nullptr) ++stats_->num_contractions;
  }

  /// The one build of the array: a new block of `new_capacity` slots (at
  /// least n + 1, rounded up to a power of two for a PMA), the model
  /// retrained on the keys and scaled to them, and the keys placed
  /// model-based — or evenly spaced while the node is too small for a
  /// model (§3.3.3).
  void Rebuild(const K* keys, const P* payloads, size_t n,
               size_t new_capacity) {
    RetireStorageCounters();
    if (new_capacity < n + 1) new_capacity = n + 1;  // always keep one gap
    if (std::holds_alternative<PmaT>(storage_)) {
      new_capacity = PmaT::RoundCapacity(new_capacity);
    }
    const bool has_model = n >= kMinModelKeys;
    const model::LinearModel model =
        has_model ? model::TrainCdfModel(keys, n, new_capacity)
                  : model::LinearModel();
    Visit([&](auto& s) {
      if (has_model && config_->model_based_placement) {
        s.BuildFromSorted(keys, payloads, n, new_capacity, model);
      } else {
        s.BuildFromSortedUniform(keys, payloads, n, new_capacity,
                                 has_model ? &model : nullptr);
      }
    });
  }

  // Accumulates the storage's shift counter before the storage is rebuilt
  // (rebuilds reset the embedded counter).
  void RetireStorageCounters() {
    retired_shifts_ += storage_base_->num_shifts();
  }

  static constexpr uint64_t kRetiredBit = 1;
  static constexpr uint64_t kWriterBit = 2;

  const Config* config_;
  Stats* stats_;
  // The storage's base class, fixed at construction because the
  // alternative never changes: every operation both layouts share goes
  // through it, and the variant is visited only where they differ.
  StorageBase* storage_base_ = nullptr;
  // The version word sits right before the storage, whose first member is
  // the block pointer, so a probe's first two loads share a line.
  std::atomic<uint64_t> version_{0};
  std::variant<GappedArrayT, PmaT> storage_;
  mutable std::shared_mutex latch_;
  uint64_t retired_shifts_ = 0;
  uint64_t last_synced_shifts_ = 0;
  std::atomic<DataNode*> prev_leaf_{nullptr};
  std::atomic<DataNode*> next_leaf_{nullptr};
};

}  // namespace alex::core
