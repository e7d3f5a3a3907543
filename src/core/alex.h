// ALEX — the adaptive learned index (paper §3).
//
// An Alex<K, P> is an in-memory, updatable, sorted map from arithmetic keys
// to payloads, implemented as a recursive model index (RMI) of linear
// models above gapped leaf arrays:
//
//   * lookups traverse the RMI with one model inference per level, then
//     exponential-search the leaf from the predicted slot (§3.2),
//   * inserts are model-based — the key goes where the model predicts —
//     which keeps predictions accurate as data grows (§3.2, §5.3),
//   * leaves expand (retraining their model) when they hit their density
//     bound, and contract after deletes (§3.3),
//   * with adaptive RMI, initialization bounds every leaf to
//     `max_data_node_keys` keys (Alg. 4), with root partitions that expect
//     half that bound so bulk-loaded leaves have room to grow (§3.4.1),
//   * when splitting is enabled, a full leaf that owns several slots of
//     its parent splits sideways into them; only a leaf that cannot (the
//     root, a one-slot leaf, or one whose keys all route to one slot)
//     splits downward under a new inner node, growing the tree like a
//     B+Tree without rebalancing (§3.4.2).
//
// The class supports bulk load, point lookup, insert, delete, payload
// update, lower-bound iteration and range scans. Duplicate keys are
// rejected (paper §7).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/data_node.h"
#include "core/node.h"
#include "models/linear_model.h"

namespace alex::core {

template <typename K, typename P>
class ConcurrentAlex;

/// First index in sorted keys[lo, hi) whose bucket under `model` (one of
/// `partitions`) is >= `bucket`, or hi. A binary search: the model is
/// non-decreasing in the key, as inner-node routing already requires.
template <typename K>
size_t PartitionBound(const model::LinearModel& model, const K* keys,
                      size_t lo, size_t hi, size_t bucket,
                      size_t partitions) {
  return static_cast<size_t>(
      std::partition_point(keys + lo, keys + hi,
                           [&](const K& key) {
                             return model.Predict(static_cast<double>(key),
                                                  partitions) < bucket;
                           }) -
      keys);
}

/// Partition boundary indices for sorted keys[lo, hi) under `model` with
/// `partitions` buckets: bounds[j] is the first index whose predicted
/// bucket is >= j (bounds[0] = lo, bounds[partitions] = hi), found with
/// O(partitions · log n) predictions.
template <typename K>
void PartitionBoundaries(const model::LinearModel& model, const K* keys,
                         size_t lo, size_t hi, size_t partitions,
                         std::vector<size_t>* bounds) {
  bounds->resize(partitions + 1);
  (*bounds)[0] = lo;
  for (size_t j = 1; j < partitions; ++j) {
    (*bounds)[j] =
        PartitionBound(model, keys, (*bounds)[j - 1], hi, j, partitions);
  }
  (*bounds)[partitions] = hi;
}

/// The ALEX index. `K` is any arithmetic type; `P` is any copyable
/// payload. Model predictions cast keys to double, so integer keys beyond
/// 2^53 lose precision in the *prediction* only — search and equality
/// always compare exact `K` values, so correctness holds over the full
/// domain (including int64 min/max; see alex_edge_test) and only lookup
/// locality degrades.
template <typename K, typename P>
class Alex {
 public:
  using DataNodeT = DataNode<K, P>;

  /// Root partitions an adaptive bulk load makes per `max_data_node_keys`
  /// keys: each root partition expects half the key bound, so its leaf
  /// has room to grow before it splits (§3.4.1).
  static constexpr size_t kRootPartitionsPerMaxLeaf = 2;

  /// Forward iterator over (key, payload) pairs in key order, streaming
  /// across leaves through sibling links and skipping gaps via the bitmap
  /// (§5.2.3).
  class Iterator {
   public:
    Iterator() = default;
    Iterator(DataNodeT* leaf, size_t slot) : leaf_(leaf), slot_(slot) {
      SkipToOccupied();
    }

    bool IsEnd() const { return leaf_ == nullptr; }
    K key() const { return leaf_->storage().key_at(slot_); }
    const P& payload() const { return leaf_->storage().payload_at(slot_); }

    Iterator& operator++() {
      ++slot_;
      SkipToOccupied();
      return *this;
    }

    /// Steps to the previous key; becomes end() when stepping before the
    /// first key. Walking backwards uses the prev-leaf sibling links.
    Iterator& operator--() {
      if (leaf_ == nullptr) return *this;
      size_t prev = leaf_->storage().PrevOccupied(slot_);
      while (prev >= leaf_->storage().capacity()) {
        leaf_ = leaf_->prev_leaf();
        if (leaf_ == nullptr) {
          slot_ = 0;
          return *this;
        }
        prev = leaf_->storage().LastOccupied();
      }
      slot_ = prev;
      return *this;
    }

    bool operator==(const Iterator& other) const {
      return leaf_ == other.leaf_ && (leaf_ == nullptr ||
                                      slot_ == other.slot_);
    }
    bool operator!=(const Iterator& other) const {
      return !(*this == other);
    }

   private:
    // Normalizes (leaf_, slot_) to the first occupied slot at or after the
    // current position, crossing leaves as needed; end() when exhausted.
    void SkipToOccupied() {
      while (leaf_ != nullptr) {
        slot_ = leaf_->storage().bitmap().NextSet(slot_);
        if (slot_ < leaf_->storage().capacity()) return;
        leaf_ = leaf_->next_leaf();
        slot_ = 0;
      }
    }

    DataNodeT* leaf_ = nullptr;
    size_t slot_ = 0;
  };

  explicit Alex(const Config& config = Config())
      : config_(std::make_unique<Config>(config)),
        stats_(std::make_unique<Stats>()) {
    SetRoot(NewLeaf());
  }

  ~Alex() { DeleteSubtree(root()); }

  Alex(const Alex&) = delete;
  Alex& operator=(const Alex&) = delete;

  Alex(Alex&& other) noexcept
      : config_(std::move(other.config_)),
        stats_(std::move(other.stats_)),
        block_reclaimer_(other.block_reclaimer_),
        root_(other.root()),
        num_keys_(other.num_keys_.load(std::memory_order_relaxed)) {
    other.SetRoot(nullptr);
    other.num_keys_.store(0, std::memory_order_relaxed);
  }

  Alex& operator=(Alex&& other) noexcept {
    if (this != &other) {
      DeleteSubtree(root());
      config_ = std::move(other.config_);
      stats_ = std::move(other.stats_);
      block_reclaimer_ = other.block_reclaimer_;
      SetRoot(other.root());
      num_keys_.store(other.num_keys_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
      other.SetRoot(nullptr);
      other.num_keys_.store(0, std::memory_order_relaxed);
    }
    return *this;
  }

  const Config& config() const { return *config_; }
  const Stats& stats() const { return *stats_; }
  size_t size() const { return num_keys_.load(std::memory_order_relaxed); }
  bool empty() const { return size() == 0; }

  /// Bulk-loads from `n` strictly-increasing keys, replacing any existing
  /// contents. Static RMI builds a two-level root→leaves hierarchy
  /// (§3.2); adaptive RMI runs Algorithm 4.
  void BulkLoad(const K* keys, const P* payloads, size_t n) {
    DeleteSubtree(root());
    SetRoot(BuildDetached(keys, payloads, n));
    num_keys_ = n;
  }

  /// Convenience overload for (key, payload) pair vectors.
  void BulkLoad(const std::vector<std::pair<K, P>>& pairs) {
    std::vector<K> keys;
    std::vector<P> payloads;
    keys.reserve(pairs.size());
    payloads.reserve(pairs.size());
    for (const auto& [k, p] : pairs) {
      keys.push_back(k);
      payloads.push_back(p);
    }
    BulkLoad(keys.data(), payloads.data(), keys.size());
  }

  /// Point lookup; returns a pointer to the payload or nullptr.
  P* Find(K key) {
    ++stats_->num_lookups;
    return TraverseToLeaf(key)->Find(key);
  }

  /// Const lookup. Does not bump the lookup counter, so concurrent
  /// readers holding only shared ownership never write (see
  /// ConcurrentAlex).
  const P* Find(K key) const { return TraverseToLeaf(key)->Find(key); }

  /// True when `key` is present.
  bool Contains(K key) const { return Find(key) != nullptr; }

  /// Inserts (key, payload). Returns false when the key already exists
  /// (ALEX rejects duplicates, §7).
  bool Insert(K key, const P& payload) {
    while (true) {
      InnerNode* parent = nullptr;
      DataNodeT* leaf = TraverseToLeaf(key, &parent);
      const InsertResult result = leaf->Insert(key, payload);
      switch (result) {
        case InsertResult::kOk:
          ++num_keys_;
          return true;
        case InsertResult::kDuplicate:
          return false;
        case InsertResult::kNeedsSplit:
          if (!SplitLeaf(leaf, parent)) {
            // Degenerate key distribution: splitting cannot partition the
            // node. Insert past the bound instead (the node keeps
            // expanding as needed).
            if (leaf->Insert(key, payload,
                             /*allow_split_request=*/false) ==
                InsertResult::kOk) {
              ++num_keys_;
              return true;
            }
            return false;
          }
          break;  // re-traverse into the new children
      }
    }
  }

  /// Removes `key`; returns false when absent.
  bool Erase(K key) {
    DataNodeT* leaf = TraverseToLeaf(key);
    if (!leaf->Erase(key)) return false;
    --num_keys_;
    return true;
  }

  /// Overwrites the payload of an existing key (§3.2: payload-only
  /// updates are find + write). Returns false when absent.
  bool Update(K key, const P& payload) {
    return TraverseToLeaf(key)->UpdatePayload(key, payload);
  }

  /// Replaces the key of an existing entry, preserving its payload (§3.2:
  /// key updates combine a delete and an insert). Fails (false) when
  /// `old_key` is absent or `new_key` already exists.
  bool UpdateKey(K old_key, K new_key) {
    if (old_key == new_key) return Contains(old_key);
    P* payload = Find(old_key);
    if (payload == nullptr || Contains(new_key)) return false;
    const P saved = *payload;
    Erase(old_key);
    return Insert(new_key, saved);
  }

  /// Iterator at the first key, or end when empty.
  Iterator begin() { return Iterator(LeftmostLeaf(), 0); }
  Iterator end() { return Iterator(); }

  /// Iterator at the last (largest) key, or end when empty. Combine with
  /// `operator--` for reverse traversal.
  Iterator Last() {
    DataNodeT* leaf = RightmostLeaf();
    // Rightmost leaves may be empty (e.g. after splits of skewed data);
    // walk back to the last leaf that holds a key.
    while (leaf != nullptr && leaf->storage().empty()) {
      leaf = leaf->prev_leaf();
    }
    if (leaf == nullptr) return Iterator();
    return Iterator(leaf, leaf->storage().LastOccupied());
  }

  /// Iterator at the first key >= `key`.
  Iterator LowerBound(K key) {
    DataNodeT* leaf = TraverseToLeaf(key);
    return Iterator(leaf, leaf->LowerBoundSlot(key));
  }

  /// Reads up to `max_results` pairs with key >= `start`, in key order
  /// (the range-scan read of §5.1.2). Returns the number read. Scans run
  /// leaf-at-a-time over the occupancy bitmap (§5.2.3), crossing leaves
  /// through sibling links; the visitor stops the walk mid-leaf once it
  /// holds `max_results` pairs.
  size_t RangeScan(K start, size_t max_results,
                   std::vector<std::pair<K, P>>* out) const {
    out->clear();
    size_t left = max_results;
    const auto take = [&](const K& key, const P& payload) {
      out->emplace_back(key, payload);
      return --left != 0;
    };
    const DataNodeT* leaf = TraverseToLeaf(start);
    for (size_t slot = leaf->LowerBoundSlot(start);
         leaf != nullptr && left != 0; leaf = leaf->next_leaf(), slot = 0) {
      leaf->storage().VisitSlots(slot, leaf->storage().capacity(), take);
    }
    return out->size();
  }

  /// Leaf responsible for `key` — the read-only RMI descent (one model
  /// inference per inner level, no comparisons). Exposed so concurrency
  /// wrappers can latch the leaf before touching its contents.
  const DataNodeT* FindLeaf(K key) const { return TraverseToLeaf(key); }
  DataNodeT* FindLeaf(K key) { return TraverseToLeaf(key); }

  /// Index size: all models + child pointers + node metadata (§5.1).
  size_t IndexSizeBytes() const {
    size_t total = 0;
    VisitNodes([&](const Node* node) {
      if (node->is_leaf()) {
        total += static_cast<const DataNodeT*>(node)->IndexSizeBytes();
      } else {
        total += static_cast<const InnerNode*>(node)->IndexSizeBytes();
      }
    });
    return total;
  }

  /// Data size: allocated key/payload arrays + bitmaps (§5.1).
  size_t DataSizeBytes() const {
    size_t total = 0;
    VisitNodes([&](const Node* node) {
      if (node->is_leaf()) {
        total +=
            static_cast<const DataNodeT*>(node)->storage().DataSizeBytes();
      }
    });
    return total;
  }

  /// Structural statistics for the drilldown experiments.
  struct TreeShape {
    size_t num_inner_nodes = 0;
    size_t num_data_nodes = 0;
    size_t num_models = 0;  ///< inner models + warm leaf models
    size_t max_depth = 0;   ///< leaf depth; 0 when the root is a leaf
    size_t root_slots = 0;  ///< the root's child slots; 0 for a root leaf
  };

  TreeShape Shape() const {
    TreeShape shape;
    ComputeShape(root_, 0, &shape);
    if (!root()->is_leaf()) {
      shape.root_slots = static_cast<const InnerNode*>(root())->num_children();
    }
    return shape;
  }

  /// Calls `fn(const DataNodeT&)` for every leaf, left to right.
  template <typename F>
  void ForEachLeaf(F&& fn) const {
    for (const DataNodeT* leaf = LeftmostLeaf(); leaf != nullptr;
         leaf = leaf->next_leaf()) {
      fn(*leaf);
    }
  }

  /// Verifies all structural invariants: per-leaf storage invariants,
  /// globally sorted leaf chain, key count, and parent→child consistency
  /// (every key routes to the leaf that holds it). Test hook; O(n · depth).
  bool CheckInvariants() const {
    size_t counted = 0;
    bool have_prev = false;
    K prev{};
    for (const DataNodeT* leaf = LeftmostLeaf(); leaf != nullptr;
         leaf = leaf->next_leaf()) {
      const auto& s = leaf->storage();
      if (!s.CheckInvariants()) return false;
      for (size_t i = s.FirstOccupied(); i < s.capacity();
           i = s.NextOccupied(i)) {
        const K k = s.key_at(i);
        if (have_prev && !(prev < k)) return false;
        if (TraverseToLeaf(k) != leaf) return false;
        prev = k;
        have_prev = true;
        ++counted;
      }
    }
    return counted == num_keys_;
  }

 private:
  /// The concurrent wrapper's index: leaves retire replaced storage
  /// blocks through `block_reclaimer`.
  Alex(const Config& config, util::EpochManager* block_reclaimer)
      : config_(std::make_unique<Config>(config)),
        stats_(std::make_unique<Stats>()),
        block_reclaimer_(block_reclaimer) {
    SetRoot(NewLeaf());
  }

  /// A leaf built directly from `n` sorted keys (empty by default).
  DataNodeT* NewLeaf(const K* keys = nullptr, const P* payloads = nullptr,
                     size_t n = 0) {
    auto* leaf = new DataNodeT(*config_, stats_.get(), keys, payloads, n);
    leaf->set_reclaimer(block_reclaimer_);
    return leaf;
  }

  // Single-threaded root access: relaxed, compiles to a plain load/store.
  // The root is atomic so the concurrent wrapper can swap whole trees and
  // publish root splits without a tree-wide lock.
  Node* root() const { return root_.load(std::memory_order_relaxed); }
  void SetRoot(Node* node) {
    root_.store(node, std::memory_order_relaxed);
  }

  /// Builds a complete tree (RMI + linked leaves) for `n` sorted keys
  /// without touching root_. The concurrent wrapper uses this to prepare a
  /// replacement tree off to the side and swap it in with one store.
  Node* BuildDetached(const K* keys, const P* payloads, size_t n) {
    if (n == 0) return NewLeaf();
    std::vector<DataNodeT*> leaves;
    Node* built;
    if (config_->rmi_mode == RmiMode::kStatic) {
      built = BuildStatic(keys, payloads, n, &leaves);
    } else {
      built = BuildAdaptive(keys, payloads, 0, n, /*depth=*/0, &leaves);
    }
    LinkLeaves(leaves, nullptr, nullptr, /*publish=*/false);
    return built;
  }

  DataNodeT* TraverseToLeaf(K key, InnerNode** parent_out = nullptr) {
    Node* node = root();
    InnerNode* parent = nullptr;
    while (!node->is_leaf()) {
      parent = static_cast<InnerNode*>(node);
      node = parent->ChildFor(static_cast<double>(key));
    }
    if (parent_out != nullptr) *parent_out = parent;
    return static_cast<DataNodeT*>(node);
  }

  // Genuinely const descent: never yields a mutable leaf, so const readers
  // (and shared-latch holders in the locking wrappers) cannot write
  // anywhere.
  const DataNodeT* TraverseToLeaf(K key) const {
    const Node* node = root();
    while (!node->is_leaf()) {
      node = static_cast<const InnerNode*>(node)->ChildFor(
          static_cast<double>(key));
    }
    return static_cast<const DataNodeT*>(node);
  }

  DataNodeT* LeftmostLeaf() const {
    Node* node = root();
    while (!node->is_leaf()) {
      node = static_cast<InnerNode*>(node)->child(0);
    }
    return static_cast<DataNodeT*>(node);
  }

  DataNodeT* RightmostLeaf() const {
    Node* node = root();
    while (!node->is_leaf()) {
      auto* inner = static_cast<InnerNode*>(node);
      node = inner->child(inner->num_children() - 1);
    }
    return static_cast<DataNodeT*>(node);
  }

  // ---- Static RMI (§3.2) ----

  Node* BuildStatic(const K* keys, const P* payloads, size_t n,
                    std::vector<DataNodeT*>* leaves) {
    size_t num_leaves = config_->num_models;
    if (num_leaves == 0) {
      num_leaves = n / config_->srmi_keys_per_model;
    }
    if (num_leaves <= 1) {
      DataNodeT* leaf = NewLeaf(keys, payloads, n);
      leaves->push_back(leaf);
      return leaf;
    }
    auto* root = new InnerNode();
    root->set_model(model::TrainCdfModel(keys, n, num_leaves));
    root->ResetChildren(num_leaves);
    std::vector<size_t> bounds;
    PartitionBoundaries(root->model(), keys, 0, n, num_leaves, &bounds);
    for (size_t j = 0; j < num_leaves; ++j) {
      DataNodeT* leaf = NewLeaf(keys + bounds[j], payloads + bounds[j],
                                bounds[j + 1] - bounds[j]);
      root->SetChild(j, leaf);
      leaves->push_back(leaf);
    }
    return root;
  }

  // ---- Adaptive RMI (§3.4.1, Alg. 4) ----

  Node* BuildAdaptive(const K* keys, const P* payloads, size_t lo,
                      size_t hi, size_t depth,
                      std::vector<DataNodeT*>* leaves) {
    const size_t n = hi - lo;
    if (n <= config_->max_data_node_keys ||
        depth >= config_->max_rmi_depth) {
      DataNodeT* leaf = NewLeaf(keys + lo, payloads + lo, n);
      leaves->push_back(leaf);
      return leaf;
    }
    // Root: kRootPartitionsPerMaxLeaf partitions per max_keys keys, so
    // each expects half the bound and its leaf has room to grow; non-root:
    // fixed tuned partition count (§3.4.1).
    const size_t partitions =
        depth == 0
            ? std::max<size_t>(
                  2, (kRootPartitionsPerMaxLeaf * n +
                      config_->max_data_node_keys - 1) /
                         config_->max_data_node_keys)
            : config_->inner_node_partitions;
    const model::LinearModel model =
        model::TrainCdfModel(keys + lo, n, partitions);
    std::vector<size_t> bounds;
    PartitionBoundaries(model, keys, lo, hi, partitions, &bounds);
    // Degenerate model: every key in one partition -> stop recursing.
    size_t non_empty = 0;
    for (size_t j = 0; j < partitions; ++j) {
      if (bounds[j + 1] > bounds[j]) ++non_empty;
    }
    if (non_empty <= 1) {
      DataNodeT* leaf = NewLeaf(keys + lo, payloads + lo, n);
      leaves->push_back(leaf);
      return leaf;
    }
    auto* inner = new InnerNode();
    inner->set_model(model);
    inner->ResetChildren(partitions);
    size_t j = 0;
    while (j < partitions) {
      const size_t part_size = bounds[j + 1] - bounds[j];
      if (part_size > config_->max_data_node_keys) {
        // Oversized partition: recurse (Alg. 4 lines 8-10).
        inner->SetChild(j, BuildAdaptive(keys, payloads, bounds[j],
                                         bounds[j + 1], depth + 1, leaves));
        ++j;
        continue;
      }
      // Merge subsequent partitions while staying under the bound
      // (Alg. 4 lines 12-20); all merged slots point at one leaf.
      size_t j2 = j + 1;
      size_t accumulated = part_size;
      while (j2 < partitions &&
             accumulated + (bounds[j2 + 1] - bounds[j2]) <=
                 config_->max_data_node_keys) {
        accumulated += bounds[j2 + 1] - bounds[j2];
        ++j2;
      }
      DataNodeT* leaf =
          NewLeaf(keys + bounds[j], payloads + bounds[j], accumulated);
      leaves->push_back(leaf);
      for (size_t jj = j; jj < j2; ++jj) inner->SetChild(jj, leaf);
      j = j2;
    }
    return inner;
  }

  // ---- Node splitting on inserts (§3.4.2) ----

  /// A full leaf's replacement, built off to the side by BuildSplit. A
  /// sideways split (`inner` null) gives `leaves[j]` the victim's parent
  /// slots [slot_end[j - 1], slot_end[j]) (slot_end[-1] = slot_lo). A
  /// downward split puts `inner`, a new inner node over `leaves`, in every
  /// slot the victim owned ([slot_lo, slot_end[0])), or at the root when
  /// the victim was the root (slot_end empty).
  struct Split {
    InnerNode* inner = nullptr;
    std::vector<DataNodeT*> leaves;
    size_t slot_lo = 0;
    std::vector<size_t> slot_end;
  };

  // Builds the replacement for a full `leaf` under `parent` (null for the
  // root) without touching sibling links or parent slots; shared between
  // the single-threaded split below and the lock-scoped concurrent split
  // (ConcurrentAlex). A leaf that owns several parent slots splits
  // sideways: its keys are cut at parent-slot boundaries into up to
  // `split_fanout` leaves of balanced size, each taking a contiguous run
  // of the victim's slots, and the tree grows no deeper. Otherwise the
  // leaf's model becomes an inner node model (§3.4.2: "The corresponding
  // leaf level model in RMI now becomes an inner level model"), data is
  // distributed to children by that model, and each child trains its own.
  // The new leaves are built from the victim's pairs packed in its own
  // block (DataNode::TakeSorted), which the victim keeps until the caller
  // frees or retires it — so a probe that still reads the victim never
  // reads freed memory. Returns false, with the leaf reloaded from its own
  // keys, when the key distribution cannot be partitioned (caller falls
  // back to expansion).
  bool BuildSplit(DataNodeT* leaf, InnerNode* parent, Split* out) {
    const typename DataNodeT::SortedRun run = leaf->TakeSorted();
    const K* keys = run.keys;
    const P* payloads = run.payloads;
    const size_t n = run.n;
    const size_t fanout = std::max<size_t>(2, config_->split_fanout);
    if (n == 0) {
      leaf->BulkLoad(keys, payloads, n);
      return false;
    }
    if (parent != nullptr) {
      const auto [lo, hi] = parent->OwnedSlots(
          leaf, parent->ChildSlotFor(static_cast<double>(keys[0])));
      out->slot_lo = lo;
      std::vector<size_t> key_end;
      CutAtParentSlots(*parent, keys, n, lo, hi, fanout, &out->slot_end,
                       &key_end);
      if (key_end.size() >= 2) {
        size_t begin = 0;
        for (const size_t end : key_end) {
          out->leaves.push_back(
              NewLeaf(keys + begin, payloads + begin, end - begin));
          begin = end;
        }
        return true;
      }
      out->slot_end.assign(1, hi);
    }
    const model::LinearModel model = model::TrainCdfModel(keys, n, fanout);
    // The model is non-decreasing, so every key falls in one bucket
    // exactly when the first and the last key do: no progress possible.
    if (model.Predict(static_cast<double>(keys[0]), fanout) ==
        model.Predict(static_cast<double>(keys[n - 1]), fanout)) {
      leaf->BulkLoad(keys, payloads, n);
      return false;
    }
    auto* inner = new InnerNode();
    inner->set_model(model);
    inner->ResetChildren(fanout);
    size_t begin = 0;
    for (size_t j = 0; j < fanout; ++j) {
      const size_t end =
          j + 1 == fanout
              ? n
              : PartitionBound(model, keys, begin, n, j + 1, fanout);
      out->leaves.push_back(
          NewLeaf(keys + begin, payloads + begin, end - begin));
      inner->SetChild(j, out->leaves.back());
      begin = end;
    }
    out->inner = inner;
    return true;
  }

  // Cuts sorted keys[0, n), which route to `parent`'s slots [lo, hi), at
  // slot boundaries into at most `fanout` non-empty runs, each cut at the
  // slot boundary nearest an even share of the keys. Appends each run's
  // end slot to `slot_end` and its end key index to `key_end`; a single
  // run means every key routes to one slot.
  static void CutAtParentSlots(const InnerNode& parent, const K* keys,
                               size_t n, size_t lo, size_t hi, size_t fanout,
                               std::vector<size_t>* slot_end,
                               std::vector<size_t>* key_end) {
    const size_t m = hi - lo;
    // first[i]: index of the first key routed to slot lo + i or later.
    std::vector<size_t> first(m + 1, n);
    first[0] = 0;
    for (size_t i = 1; i < m; ++i) {
      first[i] = PartitionBound(parent.model(), keys, first[i - 1], n,
                                lo + i, parent.num_children());
    }
    const size_t runs = std::min(fanout, m);
    size_t last = 0;  // the current run's first slot, relative to lo
    for (size_t g = 1; g < runs; ++g) {
      const size_t target = std::max<size_t>(1, g * n / runs);
      const auto miss = [&](size_t i) {
        return first[i] > target ? first[i] - target : target - first[i];
      };
      // The slot boundaries either side of the target; a cut before slot
      // i must leave keys on both of its sides.
      const size_t above = static_cast<size_t>(
          std::lower_bound(first.begin() + last + 1, first.begin() + m,
                           target) -
          first.begin());
      size_t best = 0;  // 0: no cut
      for (const size_t i : {above - 1, above}) {
        if (i > last && i < m && first[last] < first[i] && first[i] < n &&
            (best == 0 || miss(i) < miss(best))) {
          best = i;
        }
      }
      if (best == 0) continue;
      slot_end->push_back(lo + best);
      key_end->push_back(first[best]);
      last = best;
    }
    slot_end->push_back(hi);
    key_end->push_back(n);
  }

  // Points the victim's parent slots (the root when `parent` is null) at
  // `split`'s replacement. With `publish` every store is seq_cst, so
  // concurrent readers see only fully built nodes.
  void InstallSplit(const Split& split, InnerNode* parent, bool publish) {
    if (parent == nullptr) {
      root_.store(split.inner, publish ? std::memory_order_seq_cst
                                       : std::memory_order_relaxed);
      return;
    }
    size_t slot = split.slot_lo;
    for (size_t j = 0; j < split.slot_end.size(); ++j) {
      Node* node = split.inner;
      if (node == nullptr) node = split.leaves[j];
      for (; slot < split.slot_end[j]; ++slot) {
        if (publish) {
          parent->PublishChild(slot, node);
        } else {
          parent->SetChild(slot, node);
        }
      }
    }
  }

  // Splits a full `leaf` (sideways into its parent's slots, or downward
  // under a new inner node; see BuildSplit). Returns false when the key
  // distribution cannot be partitioned (caller falls back to expansion).
  bool SplitLeaf(DataNodeT* leaf, InnerNode* parent) {
    Split split;
    if (!BuildSplit(leaf, parent, &split)) return false;
    LinkLeaves(split.leaves, leaf->prev_leaf(), leaf->next_leaf(),
               /*publish=*/false);
    InstallSplit(split, parent, /*publish=*/false);
    delete leaf;
    ++stats_->num_splits;
    return true;
  }

  // Chains `leaves` left-to-right and splices the chain between `before`
  // and `after`. With `publish` the two stores that make the chain
  // reachable from `before` and `after` are seq_cst, so a concurrent
  // scanner that follows them sees the fully linked chain.
  static void LinkLeaves(const std::vector<DataNodeT*>& leaves,
                         DataNodeT* before, DataNodeT* after, bool publish) {
    const size_t count = leaves.size();
    for (size_t j = 0; j < count; ++j) {
      leaves[j]->set_prev_leaf(j == 0 ? before : leaves[j - 1]);
      leaves[j]->set_next_leaf(j + 1 < count ? leaves[j + 1] : after);
    }
    if (publish) {
      if (before != nullptr) before->publish_next_leaf(leaves.front());
      if (after != nullptr) after->publish_prev_leaf(leaves.back());
    } else {
      if (before != nullptr) before->set_next_leaf(leaves.front());
      if (after != nullptr) after->set_prev_leaf(leaves.back());
    }
  }

  // Visits every node exactly once (merged partitions repeat child
  // pointers, but repeats are consecutive by construction).
  template <typename F>
  void VisitNodes(F&& fn) const {
    VisitSubtree(root(), fn);
  }

  template <typename F>
  static void VisitSubtree(const Node* node, F&& fn) {
    if (node == nullptr) return;
    fn(node);
    if (node->is_leaf()) return;
    const auto* inner = static_cast<const InnerNode*>(node);
    const Node* prev = nullptr;
    for (size_t i = 0; i < inner->num_children(); ++i) {
      const Node* child = inner->child(i);
      if (child != prev) VisitSubtree(child, fn);
      prev = child;
    }
  }

  void ComputeShape(const Node* node, size_t depth, TreeShape* shape) const {
    if (node->is_leaf()) {
      ++shape->num_data_nodes;
      if (static_cast<const DataNodeT*>(node)->has_model()) {
        ++shape->num_models;
      }
      if (depth > shape->max_depth) shape->max_depth = depth;
      return;
    }
    ++shape->num_inner_nodes;
    ++shape->num_models;
    const auto* inner = static_cast<const InnerNode*>(node);
    const Node* prev = nullptr;
    for (size_t i = 0; i < inner->num_children(); ++i) {
      const Node* child = inner->child(i);
      if (child != prev) ComputeShape(child, depth + 1, shape);
      prev = child;
    }
  }

  static void DeleteSubtree(Node* node) {
    if (node == nullptr) return;
    if (!node->is_leaf()) {
      auto* inner = static_cast<InnerNode*>(node);
      Node* prev = nullptr;
      for (size_t i = 0; i < inner->num_children(); ++i) {
        Node* child = inner->child(i);
        if (child != prev) DeleteSubtree(child);
        prev = child;
      }
    }
    delete node;
  }

  // The concurrent wrapper builds on the leaf-level API (FindLeaf +
  // per-leaf latches) and maintains num_keys_ itself when it commits
  // leaf-local inserts/erases without going through Insert/Erase. It
  // also descends through root_ with its own memory ordering, splits
  // leaves under node-level locks, and sets block_reclaimer_.
  friend class ConcurrentAlex<K, P>;

  std::unique_ptr<Config> config_;
  std::unique_ptr<Stats> stats_;
  // Where leaves retire replaced storage blocks: null (free at once)
  // unless a concurrent wrapper's probes may still read them.
  util::EpochManager* block_reclaimer_ = nullptr;
  // Atomic so the concurrent wrapper can publish root splits and whole-tree
  // swaps; single-threaded paths use relaxed ops (plain loads/stores).
  std::atomic<Node*> root_{nullptr};
  std::atomic<size_t> num_keys_{0};
};

}  // namespace alex::core
