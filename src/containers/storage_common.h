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
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "models/linear_model.h"
#include "util/aggregate.h"
#include "util/bitmap.h"
#include "util/prefetch.h"
#include "util/search.h"

namespace alex::container {

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

/// Base class holding the gapped, bitmap-tracked key/payload arrays and all
/// layout-independent operations. `K` must be an arithmetic key type; `P`
/// is an arbitrary copyable payload.
template <typename K, typename P>
class GappedStorage {
 public:
  GappedStorage() = default;

  size_t capacity() const { return keys_.size(); }
  size_t num_keys() const { return num_keys_; }
  bool empty() const { return num_keys_ == 0; }

  /// Fraction of slots occupied by real keys.
  double density() const {
    return capacity() == 0
               ? 0.0
               : static_cast<double>(num_keys_) /
                     static_cast<double>(capacity());
  }

  /// True when slot `i` holds a real key (not a gap-fill copy).
  bool IsOccupied(size_t i) const { return bitmap_.Get(i); }

  const K& key_at(size_t i) const { return keys_[i]; }
  const P& payload_at(size_t i) const { return payloads_[i]; }
  P& mutable_payload_at(size_t i) { return payloads_[i]; }

  const util::Bitmap& bitmap() const { return bitmap_; }

  /// First occupied slot, or capacity() when empty.
  size_t FirstOccupied() const { return bitmap_.NextSet(0); }

  /// Next occupied slot strictly after `i`, or capacity().
  size_t NextOccupied(size_t i) const { return bitmap_.NextSet(i + 1); }

  /// Total element moves performed by inserts/rebalances since
  /// construction (Figure 8's "shifts per insert" numerator).
  uint64_t num_shifts() const { return num_shifts_; }

  /// Heap bytes of the key/payload arrays plus the bitmap — the node's
  /// contribution to ALEX "data size" (paper §5.1).
  size_t DataSizeBytes() const {
    return keys_.size() * sizeof(K) + payloads_.size() * sizeof(P) +
           bitmap_.SizeBytes();
  }

  /// Smallest occupied slot whose key is >= `key`, searching outward from
  /// `predicted` (exponential search, paper §3.2). Returns capacity() when
  /// every key is < `key`.
  size_t LowerBoundSlot(K key, size_t predicted) const {
    const size_t pos = util::ExponentialSearchLowerBound(
        keys_.data(), keys_.size(), key, predicted);
    return bitmap_.NextSet(pos);
  }

  /// Smallest occupied slot whose key is > `key`.
  size_t UpperBoundSlot(K key, size_t predicted) const {
    const size_t pos = util::ExponentialSearchUpperBound(
        keys_.data(), keys_.size(), key, predicted);
    return bitmap_.NextSet(pos);
  }

  /// Slot of `key` if present, else capacity().
  ///
  /// The direct-hit fast path is the payoff of model-based insertion
  /// (§3.2): when the key sits exactly where the model predicted — the
  /// common case after bulk load (Fig. 7b) — the lookup is O(1) with no
  /// search at all.
  size_t FindSlot(K key, size_t predicted) const {
    if (predicted < capacity() && keys_[predicted] == key &&
        bitmap_.Get(predicted)) {
      return predicted;
    }
    const size_t slot = LowerBoundSlot(key, predicted);
    if (slot < capacity() && keys_[slot] == key) return slot;
    return capacity();
  }

  /// Capacity as last published by ResetStorage; readable without the
  /// owner's latch (see PrefetchSlot).
  size_t ProbeCapacity() const {
    return probe_capacity_.load(std::memory_order_relaxed);
  }

  /// Software-prefetches the lines a probe at slot `predicted` reads: the
  /// key, the occupancy-bitmap word and the payload (FindSlot's direct-hit
  /// check reads all three). MultiGet issues these for every key of a
  /// group before any of them latches its leaf, so this reads
  /// only the relaxed mirrors ResetStorage publishes, never the arrays
  /// themselves: a mirror that a concurrent rebuild made stale costs a
  /// wasted prefetch, not a wrong answer or a data race.
  void PrefetchSlot(size_t predicted) const {
    if (predicted >= ProbeCapacity()) return;
    util::PrefetchRead(probe_keys_.load(std::memory_order_relaxed),
                       predicted * sizeof(K));
    util::PrefetchRead(probe_bitmap_.load(std::memory_order_relaxed),
                       (predicted >> 6) * sizeof(uint64_t));
    util::PrefetchRead(probe_payloads_.load(std::memory_order_relaxed),
                       predicted * sizeof(P));
  }

  /// Removes the key at occupied slot `slot`, restoring the gap-fill
  /// invariant for the slot and any gap run ending at it.
  void EraseAt(size_t slot) {
    assert(bitmap_.Get(slot));
    bitmap_.Clear(slot);
    --num_keys_;
    K fill;
    const size_t right = bitmap_.NextSet(slot + 1);
    if (right < capacity()) {
      fill = keys_[right];
    } else {
      // Erased the last occupied key. Trailing gaps beyond `slot` keep
      // their remnant values — each is >= the erased key >= the new fill,
      // so the array stays non-decreasing without an O(capacity) rewrite.
      const size_t left = slot == 0 ? capacity() : bitmap_.PrevSet(slot - 1);
      if (left < capacity()) {
        fill = keys_[left];
      } else {
        // Node is now empty: K{} has no ordering relation to the
        // remnants, so reset them all (once per node drain).
        fill = K{};
        for (size_t i = slot + 1; i < capacity(); ++i) keys_[i] = fill;
      }
    }
    // The cleared slot and the contiguous gap run to its left all pointed
    // at the erased key; repoint them at the new closest-right key.
    size_t i = slot;
    while (true) {
      keys_[i] = fill;
      if (i == 0 || bitmap_.Get(i - 1)) break;
      --i;
    }
  }

  /// Appends up to `max_results` (key, payload) pairs starting at the
  /// first occupied slot >= `slot` to `out`. Returns the number appended.
  /// This is the range-scan hot path (§5.2.3): one walk over the bitmap
  /// words, no per-element dispatch.
  size_t ScanFrom(size_t slot, size_t max_results,
                  std::vector<std::pair<K, P>>* out) const {
    if (max_results == 0) return 0;
    size_t got = 0;
    bitmap_.ForEachSet(slot, capacity(), [&](size_t i) {
      out->emplace_back(keys_[i], payloads_[i]);
      return ++got < max_results;
    });
    return got;
  }

  /// Visits every occupied slot in [slot_lo, slot_hi) in ascending order
  /// as visit(key, payload), without materializing anything. Returns the
  /// number of slots visited. The scan engine's per-leaf streaming path.
  template <typename Visitor>
  size_t VisitSlots(size_t slot_lo, size_t slot_hi, Visitor&& visit) const {
    size_t got = 0;
    bitmap_.ForEachSet(slot_lo, slot_hi, [&](size_t i) {
      visit(keys_[i], payloads_[i]);
      ++got;
      return true;
    });
    return got;
  }

  /// Number of occupied slots in [slot_lo, slot_hi).
  size_t CountSlots(size_t slot_lo, size_t slot_hi) const {
    return bitmap_.PopCountRange(slot_lo, slot_hi);
  }

  /// Fused count/sum/min/max of the *keys* in occupied slots
  /// [slot_lo, slot_hi); gap slots are masked out by the occupancy bitmap,
  /// so gap-fill copies never contribute. Occupied keys ascend, so min and
  /// max are the first and last of them and the fold is count and sum.
  util::AggState<K> AggregateKeySlots(size_t slot_lo, size_t slot_hi) const {
    util::AggState<K> out;
    if (slot_hi > capacity()) slot_hi = capacity();
    const size_t first = bitmap_.NextSet(slot_lo);
    if (first >= slot_hi) return out;
    out.min = keys_[first];
    out.max = keys_[bitmap_.PrevSet(slot_hi - 1)];
    bitmap_.ForEachSet(first, slot_hi, [&](size_t i) {
      out.sum += static_cast<util::AggSumT<K>>(keys_[i]);
      ++out.count;
      return true;
    });
    return out;
  }

  /// Fused count/sum/min/max of the *payloads* in occupied slots
  /// [slot_lo, slot_hi). Only instantiated for arithmetic payload types.
  util::AggState<P> AggregatePayloadSlots(size_t slot_lo,
                                          size_t slot_hi) const {
    return util::MaskedAggregate(payloads_.data(), bitmap_, slot_lo, slot_hi);
  }

  /// Number of occupied slots in [slot_lo, slot_hi) whose payload lies in
  /// [payload_lo, payload_hi] — predicate pushdown. Only instantiated for
  /// arithmetic payload types.
  uint64_t CountPayloadSlotsBetween(size_t slot_lo, size_t slot_hi,
                                    P payload_lo, P payload_hi) const {
    return util::MaskedCountBetween(payloads_.data(), bitmap_, slot_lo,
                                    slot_hi, payload_lo, payload_hi);
  }

  /// Hands the arrays to `keys`/`payloads` with the pairs packed to their
  /// front in key order, so they hold exactly the num_keys() pairs, and
  /// returns that count. The storage is left with no slots: its owner
  /// rebuilds it from the pairs (expansion, contraction) or retires it
  /// (split).
  size_t TakeSorted(std::vector<K>* keys, std::vector<P>* payloads) {
    size_t n = 0;
    bitmap_.ForEachSet(0, capacity(), [&](size_t i) {
      keys_[n] = keys_[i];
      payloads_[n++] = payloads_[i];
      return true;
    });
    keys_.resize(n);
    payloads_.resize(n);
    keys->swap(keys_);
    payloads->swap(payloads_);
    ResetStorage(0);
    return n;
  }

  /// Copies all (key, payload) pairs in slot order into `keys`/`payloads`.
  void ExtractAll(std::vector<K>* keys, std::vector<P>* payloads) const {
    keys->clear();
    payloads->clear();
    keys->reserve(num_keys_);
    payloads->reserve(num_keys_);
    bitmap_.ForEachSet(0, capacity(), [&](size_t i) {
      keys->push_back(keys_[i]);
      payloads->push_back(payloads_[i]);
      return true;
    });
  }

  /// Verifies internal invariants (occupied keys strictly increasing, gap
  /// fills correct, bitmap count matches num_keys). Test hook; O(capacity).
  bool CheckInvariants() const {
    if (bitmap_.size() != capacity()) return false;
    if (bitmap_.PopCount() != num_keys_) return false;
    bool have_prev = false;
    K prev{};
    for (size_t i = 0; i < capacity(); ++i) {
      if (bitmap_.Get(i)) {
        if (have_prev && !(prev < keys_[i])) return false;
        prev = keys_[i];
        have_prev = true;
      }
    }
    // Gap-fill: array must be non-decreasing and each gap must equal the
    // next occupied key (or the last key for trailing gaps).
    for (size_t i = 0; i + 1 < capacity(); ++i) {
      if (keys_[i + 1] < keys_[i]) return false;
    }
    for (size_t i = 0; i < capacity(); ++i) {
      if (!bitmap_.Get(i) && num_keys_ > 0) {
        const size_t right = bitmap_.NextSet(i);
        if (right < capacity()) {
          if (!(keys_[i] == keys_[right])) return false;
        }
      }
    }
    // Trailing gaps (no occupied slot to their right) must be >= the last
    // occupied key: exact copies after a (re)build, possibly larger
    // remnants after erasing a maximum (EraseAt skips rewriting them).
    if (num_keys_ > 0) {
      const size_t last = bitmap_.PrevSet(capacity() - 1);
      for (size_t i = last + 1; i < capacity(); ++i) {
        if (keys_[i] < keys_[last]) return false;
      }
    }
    return true;
  }

 protected:
  /// Reallocates to `capacity` empty slots. Resets the shift counter: it
  /// counts moves since the last (re)build, and owners accumulate it
  /// across rebuilds.
  void ResetStorage(size_t capacity) {
    keys_.assign(capacity, K{});
    payloads_.assign(capacity, P{});
    bitmap_ = util::Bitmap(capacity);
    num_keys_ = 0;
    num_shifts_ = 0;
    probe_keys_.store(keys_.data(), std::memory_order_relaxed);
    probe_payloads_.store(payloads_.data(), std::memory_order_relaxed);
    probe_bitmap_.store(bitmap_.words(), std::memory_order_relaxed);
    probe_capacity_.store(capacity, std::memory_order_relaxed);
  }

  /// Reallocates to `capacity` slots and fills them with `n` sorted pairs
  /// placed at `slot_of` (ModelSlots or UniformSlots).
  template <typename SlotOf>
  void BuildSorted(const K* keys, const P* payloads, size_t n,
                   size_t capacity, const SlotOf& slot_of) {
    ResetStorage(capacity);
    PlaceSorted(0, capacity, keys, payloads, n, slot_of,
                n == 0 ? K{} : keys[n - 1]);
    num_keys_ = n;
  }

  /// Places `n` sorted pairs into the slots [lo, hi), all of them gaps, in
  /// one forward pass (paper Alg. 3, ModelBasedInsert). Pair i takes
  /// slot_of(i), or the first slot right of pair i - 1 when the model puts
  /// it there or further left, clamped to hi - (n - i) so the pairs after
  /// it still fit. The gaps a pair skips take its key; the gaps after the
  /// last pair take `tail_fill`. Leaves num_keys_ to the caller.
  template <typename SlotOf>
  void PlaceSorted(size_t lo, size_t hi, const K* keys, const P* payloads,
                   size_t n, const SlotOf& slot_of, K tail_fill) {
    assert(n <= hi - lo);
    // Slots are written in ascending order, so a slot written past `pos`
    // is rewritten by a later pair or by the tail fill. That lets the fill
    // of [next, pos] store a fixed block first: skip lengths vary from key
    // to key, and a loop bounded by `pos` alone mispredicts its exit on
    // most keys.
    constexpr size_t kFillBlock = 8;
    K* const slots = keys_.data();
    size_t next = lo;  // first slot pair i may take
    for (size_t i = 0; i < n; ++i) {
      size_t pos = slot_of(i);
      if (pos < next) pos = next;
      if (pos > hi - (n - i)) pos = hi - (n - i);
      const K key = keys[i];
      size_t s = next;
      if (next + kFillBlock <= hi) {
        for (size_t b = 0; b < kFillBlock; ++b) slots[next + b] = key;
        s = next + kFillBlock;
      }
      for (; s <= pos; ++s) slots[s] = key;
      payloads_[pos] = payloads[i];
      bitmap_.Set(pos);
      next = pos + 1;
    }
    for (; next < hi; ++next) slots[next] = tail_fill;
  }

  /// Writes `key` into free slot `pos` and repairs gap fills in the gap run
  /// to its left (those gaps' closest-right key is now `key`).
  void PlaceInGap(size_t pos, K key, const P& payload) {
    assert(!bitmap_.Get(pos));
    keys_[pos] = key;
    payloads_[pos] = payload;
    bitmap_.Set(pos);
    ++num_keys_;
    size_t i = pos;
    while (i > 0 && !bitmap_.Get(i - 1)) {
      --i;
      keys_[i] = key;
    }
    // Trailing-gap repair: if `pos` is now the last occupied slot, gaps to
    // its right must hold it.
    if (bitmap_.NextSet(pos + 1) == capacity()) {
      for (size_t j = pos + 1; j < capacity(); ++j) keys_[j] = key;
    }
  }

  // Relaxed mirrors of the array bases and the capacity for PrefetchSlot.
  // ResetStorage is the only place the arrays are reallocated, so it is
  // the only writer.
  std::atomic<const K*> probe_keys_{nullptr};
  std::atomic<const P*> probe_payloads_{nullptr};
  std::atomic<const uint64_t*> probe_bitmap_{nullptr};
  std::atomic<size_t> probe_capacity_{0};
  std::vector<K> keys_;
  std::vector<P> payloads_;
  util::Bitmap bitmap_;
  size_t num_keys_ = 0;
  uint64_t num_shifts_ = 0;
};

}  // namespace alex::container
