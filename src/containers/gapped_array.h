// The Gapped Array leaf layout (paper §3.3.1).
//
// Model-based inserts "naturally" distribute gaps between elements; inserts
// that land on an occupied slot create a gap by shifting elements one
// position in the direction of the closest gap. Expected insert cost is
// O(log n) with high probability, but a *fully-packed region* (a long
// contiguous gap-free run, Fig. 3) degrades the worst case to O(n) — the
// weakness the PMA layout and adaptive RMI both target.
//
// Density-triggered expansion is owned by the ALEX data node (it must
// retrain the model); this container exposes the raw primitives.
#pragma once

#include <cassert>
#include <cstddef>

#include "containers/storage_common.h"
#include "models/linear_model.h"

namespace alex::container {

/// Sorted gapped array of keys and payloads with bitmap-tracked occupancy.
template <typename K, typename P>
class GappedArray : public GappedStorage<K, P> {
 public:
  using Base = GappedStorage<K, P>;

  GappedArray() = default;

  /// Discards contents and reallocates `capacity` empty slots.
  void Reset(size_t capacity) {
    BuildFromSortedUniform(nullptr, nullptr, 0, capacity);
  }

  /// Bulk-builds from `n` sorted keys using model-based placement
  /// (Alg. 3). `capacity` must be >= n. The model should already be scaled
  /// to predict positions in [0, capacity); lookups predict with it.
  void BuildFromSorted(const K* keys, const P* payloads, size_t n,
                       size_t capacity, const model::LinearModel& model) {
    this->BuildSorted(keys, payloads, n, capacity, &model,
                      ModelSlots(keys, model, capacity));
  }

  /// Bulk-builds with evenly spaced keys (cold start, or model-based
  /// placement switched off). Lookups predict with `model` when given,
  /// else from the midpoint.
  void BuildFromSortedUniform(const K* keys, const P* payloads, size_t n,
                              size_t capacity,
                              const model::LinearModel* model = nullptr) {
    this->BuildSorted(keys, payloads, n, capacity, model,
                      UniformSlots(0, capacity, n));
  }

  /// Inserts `key` near `predicted` (Alg. 1 without the density check,
  /// which the owning data node performs). Returns false when the key is
  /// already present (ALEX does not support duplicates, paper §7).
  ///
  /// Preconditions: num_keys() < capacity().
  bool Insert(K key, const P& payload, size_t predicted) {
    assert(this->num_keys_ < this->capacity());
    const size_t cap = this->capacity();
    // First occupied slot with a key >= `key` ("CorrectInsertPosition").
    const size_t occ = this->LowerBoundSlot(key, predicted);
    if (occ < cap && this->key_at(occ) == key) return false;  // duplicate
    // First occupied slot strictly left of the insertion boundary.
    const size_t prev_occ = this->PrevOccupied(occ);
    const size_t region_lo = prev_occ == cap ? 0 : prev_occ + 1;
    const size_t region_hi = occ;  // exclusive
    if (region_lo < region_hi) {
      // Every slot in [region_lo, region_hi) is a gap; take the one the
      // model predicted if it is inside, else the closest edge of the
      // region (best case of §3.3.1: O(1) insert, later lookups hit
      // directly).
      size_t pos = predicted;
      if (pos < region_lo) pos = region_lo;
      if (pos >= region_hi) pos = region_hi - 1;
      this->PlaceInGap(pos, key, payload);
      return true;
    }
    // No gap at the insertion boundary: shift one position toward the
    // closest gap to make one (§3.3.1).
    MakeGapAndPlace(occ, key, payload);
    return true;
  }

 private:
  // Creates a gap at boundary position `occ` (insert point is immediately
  // before the key currently at `occ`; `occ` == capacity() means append
  // after the last key) and places the new element.
  void MakeGapAndPlace(size_t occ, K key, const P& payload) {
    const size_t cap = this->capacity();
    util::BitmapView bits = this->bitmap();
    const size_t anchor = occ == cap ? cap - 1 : occ;
    const size_t gap_right = occ == cap ? cap : bits.NextClear(occ);
    const size_t gap_left = anchor == 0 ? cap : bits.PrevClear(anchor - 1);
    const size_t dist_right = gap_right == cap ? cap : gap_right - occ;
    const size_t dist_left = gap_left == cap ? cap : anchor - gap_left;
    assert(gap_right < cap || gap_left < cap);
    if (dist_right <= dist_left) {
      // Shift [occ, gap_right) one slot right; slot `occ` becomes free.
      this->ShiftRight(occ, gap_right);
      bits.Set(gap_right);
      bits.Clear(occ);
      this->PlaceInGap(occ, key, payload);
    } else {
      // Shift (gap_left, occ) one slot left; slot `occ - 1` becomes free.
      // The vacated gap_left slot receives the key formerly at
      // gap_left + 1, which equals its old gap-fill value, so fills stay
      // consistent.
      this->ShiftLeft(gap_left + 1, occ);
      bits.Set(gap_left);
      bits.Clear(occ - 1);
      this->PlaceInGap(occ - 1, key, payload);
    }
  }
};

}  // namespace alex::container
