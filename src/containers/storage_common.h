// Storage machinery shared by the two ALEX leaf layouts (paper §3.3):
// the Gapped Array and the Packed Memory Array. Both store keys in a
// partially-filled sorted array where
//
//   * a per-slot bitmap marks which slots hold real keys vs. gaps
//     (paper §5.2.3),
//   * every gap holds a copy of the closest key to its right (trailing
//     gaps hold the last key), so the raw array is non-decreasing and
//     exponential search works unmodified (paper §3.3.1), and
//   * bulk placement is *model-based*: each key goes to the slot its linear
//     model predicts, colliding keys go to the first gap to the right
//     (paper Alg. 3, ModelBasedInsert). PlaceSorted does this in one
//     forward pass that also writes the gap fills, so a build touches each
//     slot once; UniformSlots spaces keys evenly instead (cold start, PMA
//     rebalances).
//
// The layouts differ only in their *insert* policy (shift toward the
// nearest gap vs. PMA density-bound rebalancing), which lives in the
// derived classes.
//
// One block per leaf. All of a leaf's storage is one allocation, a
// LeafBlock: a header holding the leaf's model and capacity, then the
// occupancy bitmap words, the keys and the payloads. A build (bulk load,
// expansion, contraction) fills a new block with plain stores and
// publishes it with one release store of the block pointer, so whoever
// loads the pointer sees one consistent (model, capacity, arrays) tuple.
// The header never changes after that. In-place mutations (inserts and
// their shifts, erases, payload updates, PMA rebalances, TakeSorted)
// store into the published block's slots with atomic release stores,
// because an optimistic probe (core/concurrent_alex.h) may be loading the
// same slots: FindSlotIn<true> is that probe's search, all acquire loads.
// A replaced block goes to the storage's reclaimer (an epoch manager)
// when one is set, so no probe that still holds it reads freed memory;
// without one (single-threaded Alex) it is freed at once.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>

#include "models/linear_model.h"
#include "util/aggregate.h"
#include "util/bitmap.h"
#include "util/epoch.h"
#include "util/prefetch.h"
#include "util/search.h"

namespace alex::container {

/// True when a T slot can be loaded and stored as one lock-free atomic
/// access. ConcurrentAlex requires it of its keys and payloads; a
/// single-threaded Alex may store any copyable payload.
template <typename T>
inline constexpr bool kAtomicSlot =
    std::is_trivially_copyable_v<T> &&
    (sizeof(T) == 1 || sizeof(T) == 2 || sizeof(T) == 4 || sizeof(T) == 8);

/// Stores into a slot of a published block: a release store, so a probe
/// that loads the new value also sees the version bracket its writer
/// opened first. A payload type that is not kAtomicSlot never has
/// concurrent readers and is stored plainly.
template <typename T>
inline void StoreSlot(T* slot, const T& value) {
  if constexpr (kAtomicSlot<T>) {
    __atomic_store(slot, const_cast<T*>(&value), __ATOMIC_RELEASE);
  } else {
    *slot = value;
  }
}

/// Loads a slot: an acquire load for an optimistic probe (kSync), which
/// may race a writer's StoreSlot; a plain load for everyone who excludes
/// writers.
template <bool kSync, typename T>
inline T LoadSlot(const T* slot) {
  if constexpr (kSync) {
    static_assert(kAtomicSlot<T>, "optimistic probes need atomic slots");
    T value;
    __atomic_load(slot, &value, __ATOMIC_ACQUIRE);
    return value;
  } else {
    return *slot;
  }
}

/// Placement slot of sorted key i when `n` keys spread evenly over `span`
/// slots from `lo`: lo + floor(i * span / n). Used when no model is
/// available ("cold start", paper §3.3.3) and by PMA rebalances.
inline auto UniformSlots(size_t lo, size_t span, size_t n) {
  const double step =
      n == 0 ? 0.0 : static_cast<double>(span) / static_cast<double>(n);
  return [lo, step](size_t i) {
    return lo + static_cast<size_t>(step * static_cast<double>(i));
  };
}

/// Placement slot of sorted key i: the slot a model scaled to `capacity`
/// predicts for keys[i] (paper Alg. 3).
template <typename K>
auto ModelSlots(const K* keys, const model::LinearModel& model,
                size_t capacity) {
  return [keys, model, capacity](size_t i) {
    return model.Predict(static_cast<double>(keys[i]), capacity);
  };
}

/// One leaf's storage in one allocation: this header, then the bitmap
/// words, the keys and the payloads of `capacity` slots.
template <typename K, typename P>
class LeafBlock {
 public:
  /// A block of `capacity` slots with every bitmap bit clear. Key and
  /// payload slots are left unwritten: a build writes every key slot, and
  /// a gap's payload is never read. Debug builds fill them with a poison
  /// pattern instead, so a build that skips a key slot shows up in the
  /// layout tests. `model` (null: none) predicts slots scaled to
  /// `capacity`.
  static LeafBlock* Create(size_t capacity, const model::LinearModel* model) {
    void* raw = ::operator new(AllocBytes(capacity), std::align_val_t{kAlign});
    auto* block = new (raw) LeafBlock();
    block->capacity_ = capacity;
    block->has_model_ = model != nullptr;
    if (model != nullptr) block->model_ = *model;
    std::memset(block->words(), 0,
                util::BitmapView::WordsFor(capacity) * sizeof(uint64_t));
#ifndef NDEBUG
    std::memset(static_cast<void*>(block->keys()), 0xA5,
                capacity * sizeof(K));
#endif
    if constexpr (!std::is_trivially_default_constructible_v<P>) {
      for (size_t i = 0; i < capacity; ++i) new (block->payloads() + i) P();
    } else {
#ifndef NDEBUG
      std::memset(static_cast<void*>(block->payloads()), 0xA5,
                  capacity * sizeof(P));
#endif
    }
    return block;
  }

  /// Frees a block from Create (type-erased, so it can be an epoch
  /// manager's deleter).
  static void Destroy(void* raw) {
    auto* block = static_cast<LeafBlock*>(raw);
    if constexpr (!std::is_trivially_destructible_v<P>) {
      for (size_t i = 0; i < block->capacity_; ++i) block->payloads()[i].~P();
    }
    block->~LeafBlock();
    ::operator delete(raw, std::align_val_t{kAlign});
  }

  /// The shared zero-capacity block of a storage that was never built.
  /// Never freed; its slot accessors point past it and are never read.
  static LeafBlock* Empty() {
    static LeafBlock empty;
    return &empty;
  }

  size_t capacity() const { return capacity_; }
  bool has_model() const { return has_model_; }
  const model::LinearModel& model() const { return model_; }

  /// Predicted slot for `key`: the model's prediction, or the midpoint
  /// while the leaf has no model (§3.3.3: binary search until warm).
  size_t PredictSlot(K key) const {
    return has_model_ ? model_.Predict(static_cast<double>(key), capacity_)
                      : capacity_ / 2;
  }

  uint64_t* words() const {
    return reinterpret_cast<uint64_t*>(At(WordsOffset()));
  }
  K* keys() const { return reinterpret_cast<K*>(At(KeysOffset(capacity_))); }
  P* payloads() const {
    return reinterpret_cast<P*>(At(PayloadsOffset(capacity_)));
  }
  util::BitmapView bitmap() const { return {words(), capacity_}; }

 private:
  LeafBlock() = default;

  static constexpr size_t RoundUp(size_t n, size_t a) {
    return (n + a - 1) / a * a;
  }
  static constexpr size_t kAlign =
      alignof(P) > util::kCacheLineBytes ? alignof(P) : util::kCacheLineBytes;
  static constexpr size_t WordsOffset() {
    return RoundUp(sizeof(LeafBlock), alignof(uint64_t));
  }
  static constexpr size_t KeysOffset(size_t capacity) {
    return RoundUp(WordsOffset() + util::BitmapView::WordsFor(capacity) * 8,
                   alignof(K));
  }
  static constexpr size_t PayloadsOffset(size_t capacity) {
    return RoundUp(KeysOffset(capacity) + capacity * sizeof(K), alignof(P));
  }
  static constexpr size_t AllocBytes(size_t capacity) {
    return PayloadsOffset(capacity) + capacity * sizeof(P);
  }
  char* At(size_t offset) const {
    return const_cast<char*>(reinterpret_cast<const char*>(this)) + offset;
  }

  model::LinearModel model_;
  size_t capacity_ = 0;
  bool has_model_ = false;
};

/// Base class holding one leaf's block and all layout-independent
/// operations. `K` must be an arithmetic key type; `P` is an arbitrary
/// copyable payload.
template <typename K, typename P>
class GappedStorage {
 public:
  using Block = LeafBlock<K, P>;

  GappedStorage() = default;
  // The owner is being destroyed, so no probe can still reach the block.
  ~GappedStorage() { Free(blk()); }
  GappedStorage(const GappedStorage&) = delete;
  GappedStorage& operator=(const GappedStorage&) = delete;

  /// Where replaced blocks go: an epoch manager that frees each once no
  /// reader pinned before its replacement remains, or null to free at
  /// once (no concurrent readers).
  void set_reclaimer(util::EpochManager* reclaimer) { reclaimer_ = reclaimer; }

  size_t capacity() const { return blk()->capacity(); }
  size_t num_keys() const { return num_keys_; }
  bool empty() const { return num_keys_ == 0; }

  /// Fraction of slots occupied by real keys.
  double density() const {
    return capacity() == 0
               ? 0.0
               : static_cast<double>(num_keys_) /
                     static_cast<double>(capacity());
  }

  /// The current block, for a caller that holds the owner's latch or is
  /// its only thread.
  const Block* block() const { return blk(); }

  /// The current block for a probe that holds no latch: the acquire load
  /// pairs with the release store that published it.
  const Block* block_acquire() const {
    return block_.load(std::memory_order_acquire);
  }

  /// True when slot `i` holds a real key (not a gap-fill copy).
  bool IsOccupied(size_t i) const { return bitmap().Get(i); }

  const K& key_at(size_t i) const { return blk()->keys()[i]; }
  const P& payload_at(size_t i) const { return blk()->payloads()[i]; }
  void SetPayload(size_t i, const P& payload) {
    StoreSlot(blk()->payloads() + i, payload);
  }

  util::BitmapView bitmap() const { return blk()->bitmap(); }

  /// First occupied slot, or capacity() when empty.
  size_t FirstOccupied() const { return bitmap().NextSet(0); }

  /// Next occupied slot strictly after `i`, or capacity().
  size_t NextOccupied(size_t i) const { return bitmap().NextSet(i + 1); }

  /// Last occupied slot strictly before `i`, or capacity() when none.
  size_t PrevOccupied(size_t i) const {
    return i == 0 ? capacity() : bitmap().PrevSet(i - 1);
  }

  /// Last occupied slot, or capacity() when empty.
  size_t LastOccupied() const { return PrevOccupied(capacity()); }

  /// Total element moves performed by inserts/rebalances since
  /// construction (Figure 8's "shifts per insert" numerator).
  uint64_t num_shifts() const { return num_shifts_; }

  /// Heap bytes of the key/payload arrays plus the bitmap — the node's
  /// contribution to ALEX "data size" (paper §5.1). The block header is
  /// the node's model and metadata, which its index size counts.
  size_t DataSizeBytes() const {
    return capacity() * (sizeof(K) + sizeof(P)) + bitmap().SizeBytes();
  }

  /// Predicted slot for `key` under the current block's model.
  size_t PredictSlot(K key) const { return blk()->PredictSlot(key); }

  /// Smallest occupied slot whose key is >= `key`, searching outward from
  /// `predicted` (exponential search, paper §3.2). Returns capacity() when
  /// every key is < `key`.
  size_t LowerBoundSlot(K key, size_t predicted) const {
    const Block* b = blk();
    const size_t pos = util::ExponentialSearchLowerBound(
        b->keys(), b->capacity(), key, predicted);
    return b->bitmap().NextSet(pos);
  }

  /// Smallest occupied slot whose key is > `key`.
  size_t UpperBoundSlot(K key, size_t predicted) const {
    const Block* b = blk();
    const size_t pos = util::ExponentialSearchUpperBound(
        b->keys(), b->capacity(), key, predicted);
    return b->bitmap().NextSet(pos);
  }

  /// Slot of `key` if present, else capacity().
  size_t FindSlot(K key, size_t predicted) const {
    return FindSlotIn<false>(blk(), key, predicted);
  }

  /// Slot of `key` in `block`, or its capacity when absent.
  ///
  /// The direct-hit fast path is the payoff of model-based insertion
  /// (§3.2): when the key sits exactly where the model predicted — the
  /// common case after bulk load (Fig. 7b) — the lookup is O(1) with no
  /// search at all. With kSync every key and bitmap word is read through
  /// an acquire load, so an optimistic probe may run this against a
  /// writer; its answer then stands only if the leaf's version did not
  /// change meanwhile (core::DataNode::TryFind). Every index it reads is
  /// bounded by the block's own capacity, so a torn read costs a wrong
  /// answer that validation discards, never an out-of-bounds access.
  template <bool kSync>
  static size_t FindSlotIn(const Block* block, K key, size_t predicted) {
    const size_t cap = block->capacity();
    const K* keys = block->keys();
    const util::BitmapView bits = block->bitmap();
    if (predicted < cap && LoadSlot<kSync>(keys + predicted) == key &&
        bits.template Get<kSync>(predicted)) {
      return predicted;
    }
    const size_t pos = util::ExponentialSearchLowerBoundBy(
        [keys](size_t i) { return LoadSlot<kSync>(keys + i); }, cap, key,
        predicted);
    const size_t slot = bits.template NextSet<kSync>(pos);
    if (slot < cap && LoadSlot<kSync>(keys + slot) == key) return slot;
    return cap;
  }

  /// Software-prefetches the lines a probe of `key` in `block` reads: the
  /// predicted slot's key, its bitmap word and its payload.
  static void PrefetchProbe(const Block* block, K key) {
    if (block->capacity() == 0) return;
    const size_t predicted = block->PredictSlot(key);
    util::PrefetchRead(block->keys(), predicted * sizeof(K));
    util::PrefetchRead(block->words(), (predicted >> 6) * sizeof(uint64_t));
    util::PrefetchRead(block->payloads(), predicted * sizeof(P));
  }

  /// Removes `key` if present; returns true on success. Both layouts
  /// erase alike: the slot is cleared, nothing rebalances, and the owning
  /// data node handles contraction (§3.2: deletes are strictly easier
  /// than inserts).
  bool Erase(K key, size_t predicted) {
    const size_t slot = FindSlot(key, predicted);
    if (slot == capacity()) return false;
    EraseAt(slot);
    return true;
  }

  /// Removes the key at occupied slot `slot`, restoring the gap-fill
  /// invariant for the slot and any gap run ending at it.
  void EraseAt(size_t slot) {
    const size_t cap = capacity();
    K* const keys = blk()->keys();
    util::BitmapView bits = bitmap();
    assert(bits.Get(slot));
    bits.Clear(slot);
    --num_keys_;
    K fill;
    const size_t right = bits.NextSet(slot + 1);
    if (right < cap) {
      fill = keys[right];
    } else {
      // Erased the last occupied key. Trailing gaps beyond `slot` keep
      // their remnant values — each is >= the erased key >= the new fill,
      // so the array stays non-decreasing without an O(capacity) rewrite.
      const size_t left = slot == 0 ? cap : bits.PrevSet(slot - 1);
      if (left < cap) {
        fill = keys[left];
      } else {
        // Node is now empty: K{} has no ordering relation to the
        // remnants, so reset them all (once per node drain).
        fill = K{};
        for (size_t i = slot + 1; i < cap; ++i) StoreSlot(keys + i, fill);
      }
    }
    // The cleared slot and the contiguous gap run to its left all pointed
    // at the erased key; repoint them at the new closest-right key.
    size_t i = slot;
    while (true) {
      StoreSlot(keys + i, fill);
      if (i == 0 || bits.Get(i - 1)) break;
      --i;
    }
  }

  /// Visits the occupied slots in [slot_lo, slot_hi) in ascending order as
  /// visit(key, payload), which returns false to stop the walk (like
  /// util::BitmapView::ForEachSet), without materializing anything.
  /// Returns the number of slots visited, the one that stopped the walk
  /// included. The per-leaf step of every range read (§5.2.3).
  template <typename Visitor>
  size_t VisitSlots(size_t slot_lo, size_t slot_hi, Visitor&& visit) const {
    const Block* b = blk();
    const K* keys = b->keys();
    const P* payloads = b->payloads();
    size_t got = 0;
    b->bitmap().ForEachSet(slot_lo, slot_hi, [&](size_t i) {
      ++got;
      return visit(keys[i], payloads[i]);
    });
    return got;
  }

  /// Number of occupied slots in [slot_lo, slot_hi).
  size_t CountSlots(size_t slot_lo, size_t slot_hi) const {
    return bitmap().PopCountRange(slot_lo, slot_hi);
  }

  /// Fused count/sum/min/max of the *keys* in occupied slots
  /// [slot_lo, slot_hi); gap slots are masked out by the occupancy bitmap,
  /// so gap-fill copies never contribute. Occupied keys ascend, so min and
  /// max are the first and last of them and the fold is count and sum.
  util::AggState<K> AggregateKeySlots(size_t slot_lo, size_t slot_hi) const {
    const Block* b = blk();
    const K* keys = b->keys();
    const util::BitmapView bits = b->bitmap();
    util::AggState<K> out;
    if (slot_hi > b->capacity()) slot_hi = b->capacity();
    const size_t first = bits.NextSet(slot_lo);
    if (first >= slot_hi) return out;
    out.min = keys[first];
    out.max = keys[bits.PrevSet(slot_hi - 1)];
    bits.ForEachSet(first, slot_hi, [&](size_t i) {
      out.sum += static_cast<util::AggSumT<K>>(keys[i]);
      ++out.count;
      return true;
    });
    return out;
  }

  /// Fused count/sum/min/max of the *payloads* in occupied slots
  /// [slot_lo, slot_hi). Only instantiated for arithmetic payload types.
  util::AggState<P> AggregatePayloadSlots(size_t slot_lo,
                                          size_t slot_hi) const {
    return util::MaskedAggregate(blk()->payloads(), bitmap(), slot_lo,
                                 slot_hi);
  }

  /// Number of occupied slots in [slot_lo, slot_hi) whose payload lies in
  /// [payload_lo, payload_hi] — predicate pushdown. Only instantiated for
  /// arithmetic payload types.
  uint64_t CountPayloadSlotsBetween(size_t slot_lo, size_t slot_hi,
                                    P payload_lo, P payload_hi) const {
    return util::MaskedCountBetween(blk()->payloads(), bitmap(), slot_lo,
                                    slot_hi, payload_lo, payload_hi);
  }

  /// The pairs of a storage, packed in key order (TakeSorted).
  struct SortedRun {
    const K* keys;
    const P* payloads;
    size_t n;
  };

  /// Packs the pairs to the front of the block's own arrays in key order
  /// and returns them; the storage counts no keys or shifts afterwards.
  /// The block stays in place and keeps the run: the owner rebuilds from
  /// it (expansion, contraction — the rebuild then retires the block) or
  /// is itself retired with it (a split's victim).
  SortedRun TakeSorted() {
    Block* b = blk();
    K* const keys = b->keys();
    P* const payloads = b->payloads();
    size_t n = 0;
    b->bitmap().ForEachSet(0, b->capacity(), [&](size_t i) {
      StoreSlot(keys + n, keys[i]);
      StoreSlot(payloads + n, payloads[i]);
      ++n;
      return true;
    });
    num_keys_ = 0;
    num_shifts_ = 0;
    return {keys, payloads, n};
  }

  /// Verifies internal invariants (occupied keys strictly increasing, gap
  /// fills correct, bitmap count matches num_keys). Test hook; O(capacity).
  bool CheckInvariants() const {
    const size_t cap = capacity();
    const K* keys = blk()->keys();
    const util::BitmapView bits = bitmap();
    if (bits.PopCount() != num_keys_) return false;
    bool have_prev = false;
    K prev{};
    for (size_t i = 0; i < cap; ++i) {
      if (bits.Get(i)) {
        if (have_prev && !(prev < keys[i])) return false;
        prev = keys[i];
        have_prev = true;
      }
    }
    // Gap-fill: array must be non-decreasing and each gap must equal the
    // next occupied key (or the last key for trailing gaps).
    for (size_t i = 0; i + 1 < cap; ++i) {
      if (keys[i + 1] < keys[i]) return false;
    }
    for (size_t i = 0; i < cap; ++i) {
      if (!bits.Get(i) && num_keys_ > 0) {
        const size_t right = bits.NextSet(i);
        if (right < cap) {
          if (!(keys[i] == keys[right])) return false;
        }
      }
    }
    // Trailing gaps (no occupied slot to their right) must be >= the last
    // occupied key: exact copies after a (re)build, possibly larger
    // remnants after erasing a maximum (EraseAt skips rewriting them).
    if (num_keys_ > 0) {
      const size_t last = bits.PrevSet(cap - 1);
      for (size_t i = last + 1; i < cap; ++i) {
        if (keys[i] < keys[last]) return false;
      }
    }
    return true;
  }

 protected:
  Block* blk() const { return block_.load(std::memory_order_relaxed); }

  /// Builds a new block of `capacity` slots holding `n` sorted pairs
  /// placed at `slot_of` (ModelSlots or UniformSlots) and recording
  /// `model` (null: none), publishes it, and retires the old block — only
  /// then, since the pairs may live in it (TakeSorted). Resets the shift
  /// counter: it counts moves since the last (re)build, and owners
  /// accumulate it across rebuilds.
  template <typename SlotOf>
  void BuildSorted(const K* keys, const P* payloads, size_t n,
                   size_t capacity, const model::LinearModel* model,
                   const SlotOf& slot_of) {
    Block* fresh = Block::Create(capacity, model);
    PlaceSorted</*kPublished=*/false>(fresh, 0, capacity, keys, payloads, n,
                                      slot_of, n == 0 ? K{} : keys[n - 1]);
    Block* old = blk();
    block_.store(fresh, std::memory_order_release);
    num_keys_ = n;
    num_shifts_ = 0;
    if (old == Block::Empty()) return;
    if (reclaimer_ == nullptr) {
      Free(old);
      return;
    }
    reclaimer_->RetireRaw(old, &Block::Destroy);
    reclaimer_->MaybeReclaim();
  }

  /// Places `n` sorted pairs into the slots [lo, hi) of `block`, all of
  /// them gaps, in one forward pass (paper Alg. 3, ModelBasedInsert). Pair
  /// i takes slot_of(i), or the first slot right of pair i - 1 when the
  /// model puts it there or further left, clamped to hi - (n - i) so the
  /// pairs after it still fit. The gaps a pair skips take its key; the
  /// gaps after the last pair take `tail_fill`. Leaves num_keys_ to the
  /// caller. kPublished: the block may have concurrent probes, so slots
  /// take StoreSlot; a block still being built takes plain stores.
  template <bool kPublished, typename SlotOf>
  static void PlaceSorted(Block* block, size_t lo, size_t hi, const K* keys,
                          const P* payloads, size_t n, const SlotOf& slot_of,
                          K tail_fill) {
    assert(n <= hi - lo);
    auto put = [](auto* slot, const auto& value) {
      if constexpr (kPublished) {
        StoreSlot(slot, value);
      } else {
        *slot = value;
      }
    };
    // Slots are written in ascending order, so a slot written past `pos`
    // is rewritten by a later pair or by the tail fill. That lets the fill
    // of [next, pos] store a fixed block first: skip lengths vary from key
    // to key, and a loop bounded by `pos` alone mispredicts its exit on
    // most keys.
    constexpr size_t kFillBlock = 8;
    K* const slots = block->keys();
    P* const slot_payloads = block->payloads();
    util::BitmapView bits = block->bitmap();
    size_t next = lo;  // first slot pair i may take
    for (size_t i = 0; i < n; ++i) {
      size_t pos = slot_of(i);
      if (pos < next) pos = next;
      if (pos > hi - (n - i)) pos = hi - (n - i);
      const K key = keys[i];
      size_t s = next;
      if (next + kFillBlock <= hi) {
        for (size_t b = 0; b < kFillBlock; ++b) put(slots + next + b, key);
        s = next + kFillBlock;
      }
      for (; s <= pos; ++s) put(slots + s, key);
      put(slot_payloads + pos, payloads[i]);
      bits.Set(pos);
      next = pos + 1;
    }
    for (; next < hi; ++next) put(slots + next, tail_fill);
  }

  /// Writes `key` into free slot `pos` and repairs gap fills in the gap run
  /// to its left (those gaps' closest-right key is now `key`).
  void PlaceInGap(size_t pos, K key, const P& payload) {
    Block* b = blk();
    const size_t cap = b->capacity();
    K* const keys = b->keys();
    util::BitmapView bits = b->bitmap();
    assert(!bits.Get(pos));
    StoreSlot(keys + pos, key);
    StoreSlot(b->payloads() + pos, payload);
    bits.Set(pos);
    ++num_keys_;
    size_t i = pos;
    while (i > 0 && !bits.Get(i - 1)) {
      --i;
      StoreSlot(keys + i, key);
    }
    // Trailing-gap repair: if `pos` is now the last occupied slot, gaps to
    // its right must hold it.
    if (bits.NextSet(pos + 1) == cap) {
      for (size_t j = pos + 1; j < cap; ++j) StoreSlot(keys + j, key);
    }
  }

  /// Moves the pairs of slots [lo, hi) one slot right, into [lo + 1, hi]
  /// (an insert's shift; the bitmap is the caller's to update).
  void ShiftRight(size_t lo, size_t hi) {
    Block* b = blk();
    K* const keys = b->keys();
    P* const payloads = b->payloads();
    for (size_t i = hi; i > lo; --i) {
      StoreSlot(keys + i, keys[i - 1]);
      StoreSlot(payloads + i, payloads[i - 1]);
    }
    num_shifts_ += hi - lo;
  }

  /// Moves the pairs of slots [lo, hi) one slot left, into [lo - 1, hi - 1].
  void ShiftLeft(size_t lo, size_t hi) {
    Block* b = blk();
    K* const keys = b->keys();
    P* const payloads = b->payloads();
    for (size_t i = lo; i < hi; ++i) {
      StoreSlot(keys + i - 1, keys[i]);
      StoreSlot(payloads + i - 1, payloads[i]);
    }
    num_shifts_ += hi - lo;
  }

 private:
  // Declared first so the block pointer shares a line with what precedes
  // the storage in its owner (core::DataNode puts its version word there).
  std::atomic<Block*> block_{Block::Empty()};
  util::EpochManager* reclaimer_ = nullptr;

 protected:
  size_t num_keys_ = 0;
  uint64_t num_shifts_ = 0;

 private:
  static void Free(Block* block) {
    if (block != Block::Empty()) Block::Destroy(block);
  }
};

}  // namespace alex::container
