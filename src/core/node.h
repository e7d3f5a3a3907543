// RMI node base types. The RMI (paper Fig. 2) is a tree of inner nodes —
// each a linear model over a child-pointer array — above leaf data nodes.
// Consecutive child pointers may reference the same child ("merged
// partitions", Alg. 4), so a child lookup is one model inference plus one
// pointer dereference, with no search (paper §6: "We use a model to split
// the key space, similar to a trie, but no search is required until we
// reach the leaf level").
//
// Child pointers live in a fixed-size std::atomic<Node*> slot array so one
// node representation serves both the single-threaded index and the
// lock-free concurrent wrapper:
//
//   * single-threaded paths use relaxed loads/stores (`child`, `SetChild`),
//     which compile to the same plain moves as a raw pointer array;
//   * the concurrent read path descends with seq_cst loads
//     (`ChildAcquire`/`ChildForAcquire`) and splits publish each finished
//     leaf or subtree with one seq_cst store per slot (`PublishChild`) —
//     see core/concurrent_alex.h for why seq_cst rather than acq/rel.
//
// Each inner node also carries a split mutex: the lock a concurrent split
// takes instead of any tree-wide lock, serializing structural changes to
// this node's slots only (splits under different parents run in parallel).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <memory>
#include <mutex>
#include <utility>

#include "models/linear_model.h"

namespace alex::core {

/// Bytes charged per node for header/metadata when accounting index size
/// (paper §5.1 includes "pointers and metadata").
inline constexpr size_t kNodeMetadataBytes = 32;

/// Common base for inner and data nodes. No virtual dispatch on the hot
/// path: traversal branches on `is_leaf` and casts.
class Node {
 public:
  explicit Node(bool is_leaf) : is_leaf_(is_leaf) {}
  virtual ~Node() = default;

  bool is_leaf() const { return is_leaf_; }

 private:
  bool is_leaf_;
};

/// Inner RMI node: a linear model that maps a key to one of
/// `num_children()` pointers. The model *defines* the partitioning: the
/// child for `key` is slot `model.Predict(key, num_children())`, so
/// routing is exact by construction and never requires key comparisons.
class InnerNode : public Node {
 public:
  InnerNode() : Node(/*is_leaf=*/false) {}

  model::LinearModel& model() { return model_; }
  const model::LinearModel& model() const { return model_; }
  void set_model(const model::LinearModel& m) { model_ = m; }

  /// (Re)allocates the slot array with `n` null children. Must complete
  /// before the node is published to concurrent readers; the array size is
  /// immutable afterwards.
  void ResetChildren(size_t n) {
    children_ = std::make_unique<std::atomic<Node*>[]>(n);
    num_children_ = n;
    for (size_t i = 0; i < n; ++i) {
      children_[i].store(nullptr, std::memory_order_relaxed);
    }
  }

  size_t num_children() const { return num_children_; }

  /// Single-threaded child read (plain load after optimization).
  Node* child(size_t i) const {
    return children_[i].load(std::memory_order_relaxed);
  }

  /// Concurrent-descent child read. seq_cst so a reader whose epoch pin
  /// ordered after a retirement cannot observe the pre-split pointer (see
  /// util/epoch.h header); costs the same as an acquire load on x86/ARM.
  Node* ChildAcquire(size_t i) const {
    return children_[i].load(std::memory_order_seq_cst);
  }

  /// Single-threaded child write (build paths, pre-publication setup).
  void SetChild(size_t i, Node* c) {
    children_[i].store(c, std::memory_order_relaxed);
  }

  /// Publishes a finished subtree into slot `i` for concurrent readers.
  void PublishChild(size_t i, Node* c) {
    children_[i].store(c, std::memory_order_seq_cst);
  }

  /// Index of the child slot responsible for `key`.
  size_t ChildSlotFor(double key) const {
    return model_.Predict(key, num_children_);
  }

  /// Child responsible for `key` (single-threaded).
  Node* ChildFor(double key) const { return child(ChildSlotFor(key)); }

  /// Child responsible for `key` (concurrent descent).
  Node* ChildForAcquire(double key) const {
    return ChildAcquire(ChildSlotFor(key));
  }

  /// Prefetch hint for slot `i`, issued ahead of ChildAcquire(i).
  void PrefetchSlot(size_t i) const { __builtin_prefetch(&children_[i], 0, 3); }

  /// The slots [lo, hi) that `owner` holds, found by walking outward from
  /// `slot_hint`, any slot it holds — e.g. `ChildSlotFor(a key of the
  /// child)`. The slots one child holds are contiguous by construction
  /// (merged partitions, Alg. 4; sideways splits keep each new leaf's run
  /// contiguous), so this touches only the owned range and its two
  /// boundary slots.
  std::pair<size_t, size_t> OwnedSlots(const Node* owner,
                                       size_t slot_hint) const {
    assert(slot_hint < num_children_);
    assert(child(slot_hint) == owner);
    size_t lo = slot_hint;
    while (lo > 0 && child(lo - 1) == owner) --lo;
    size_t hi = slot_hint + 1;
    while (hi < num_children_ && child(hi) == owner) ++hi;
    return {lo, hi};
  }

  /// Serializes structural changes to this node's slots (leaf splits under
  /// this parent). Concurrent splits lock only this and the victim leaf —
  /// never the whole tree — so splits of leaves under different parents
  /// proceed in parallel. Single-threaded Alex never touches it.
  std::mutex& split_mutex() const { return split_mutex_; }

  /// Index-size contribution: model + child pointers + metadata (§5.1).
  size_t IndexSizeBytes() const {
    return model::LinearModel::SizeBytes() +
           num_children_ * sizeof(std::atomic<Node*>) + kNodeMetadataBytes;
  }

 private:
  model::LinearModel model_;
  mutable std::mutex split_mutex_;
  std::unique_ptr<std::atomic<Node*>[]> children_;
  size_t num_children_ = 0;
};

}  // namespace alex::core
