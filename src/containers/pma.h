// The Packed Memory Array leaf layout (paper §3.3.2, Bender & Hu [6]).
//
// A PMA keeps its gaps *uniformly spaced* by dividing the array (whose size
// is a power of two) into equally sized segments (count also a power of
// two) and building an implicit binary tree over them. Each tree level has
// a maximum density bound, loosest at the root and tightest at the leaves;
// an insert that violates its segment's bound rebalances the smallest
// enclosing window that is within bounds. When no window qualifies the
// insert *fails* and the owning ALEX data node expands the array by
// doubling and re-inserts model-based (paper Alg. 2/3) — this is the ALEX
// twist on the classic PMA, which would redistribute uniformly.
//
// Under random inserts the PMA matches the gapped array's O(log n) insert;
// under adversarial inserts it guarantees O(log² n) amortized, versus the
// gapped array's O(n) worst case (paper §3.3.2).
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "containers/storage_common.h"
#include "models/linear_model.h"

namespace alex::container {

/// Density-bound configuration for the implicit PMA tree.
struct PmaDensityBounds {
  /// Maximum density at the root window (the whole array). The paper tunes
  /// overall density so ALEX data space matches B+Tree (~43% overhead,
  /// §5.3.1); 0.7 root density gives that steady state.
  double root_max = 0.7;
  /// Maximum density at a leaf segment. Must be > root_max.
  double leaf_max = 0.92;
};

/// Packed Memory Array of keys and payloads with bitmap-tracked occupancy.
template <typename K, typename P>
class Pma : public GappedStorage<K, P> {
 public:
  using Base = GappedStorage<K, P>;

  Pma() = default;
  explicit Pma(PmaDensityBounds bounds) : bounds_(bounds) {}

  const PmaDensityBounds& bounds() const { return bounds_; }
  size_t segment_size() const { return segment_size_; }
  size_t num_segments() const { return num_segments_; }

  /// Smallest PMA-legal capacity >= `min_capacity` (a power of two).
  static size_t RoundCapacity(size_t min_capacity) {
    size_t cap = 8;
    while (cap < min_capacity) cap <<= 1;
    return cap;
  }

  /// Discards contents; reallocates with capacity rounded up to a power of
  /// two.
  void Reset(size_t min_capacity) {
    const size_t cap = RoundCapacity(min_capacity);
    this->BuildSorted(nullptr, nullptr, 0, cap, nullptr,
                      UniformSlots(0, cap, 0));
    ConfigureSegments(cap);
  }

  /// Bulk-builds from sorted keys using *model-based* placement — the ALEX
  /// behaviour after every expansion (§3.3.2). Placement may transiently
  /// violate density bounds (fully-packed regions); later inserts repair
  /// them through rebalances. Lookups predict with `model`.
  void BuildFromSorted(const K* keys, const P* payloads, size_t n,
                       size_t min_capacity,
                       const model::LinearModel& model) {
    const size_t cap = RoundCapacity(min_capacity < n ? n : min_capacity);
    this->BuildSorted(keys, payloads, n, cap, &model,
                      ModelSlots(keys, model, cap));
    ConfigureSegments(cap);
  }

  /// Bulk-builds with uniformly spaced keys — classic PMA layout; used for
  /// cold starts and as the ablation baseline for model-based placement.
  /// Lookups predict with `model` when given, else from the midpoint.
  void BuildFromSortedUniform(const K* keys, const P* payloads, size_t n,
                              size_t min_capacity,
                              const model::LinearModel* model = nullptr) {
    const size_t cap = RoundCapacity(min_capacity < n ? n : min_capacity);
    this->BuildSorted(keys, payloads, n, cap, model, UniformSlots(0, cap, n));
    ConfigureSegments(cap);
  }

  /// Attempts to insert `key` near `predicted` (Alg. 2, InsertPMA).
  ///
  /// Returns:
  ///  * kOk        — inserted,
  ///  * kDuplicate — key already present (rejected),
  ///  * kFull      — insertion would violate the root density bound; the
  ///                 caller must Expand() (double) and retry.
  enum class InsertStatus { kOk, kDuplicate, kFull };

  InsertStatus Insert(K key, const P& payload, size_t predicted) {
    const size_t cap = this->capacity();
    // Root density check up front so we never place and then discover the
    // array was too full (ALEX expands on failure, Alg. 2 line 7).
    if (static_cast<double>(this->num_keys_ + 1) >
        bounds_.root_max * static_cast<double>(cap)) {
      // Reject duplicates even when full.
      if (this->FindSlot(key, predicted) != cap) {
        return InsertStatus::kDuplicate;
      }
      return InsertStatus::kFull;
    }
    // A rebalance moves elements, so the insert position must be
    // recomputed after each one; bounded by tree height iterations.
    for (int attempt = 0; attempt < 64; ++attempt) {
      const size_t occ = this->LowerBoundSlot(key, predicted);
      if (occ < cap && this->key_at(occ) == key) {
        return InsertStatus::kDuplicate;
      }
      const size_t prev_occ = this->PrevOccupied(occ);
      const size_t region_lo = prev_occ == cap ? 0 : prev_occ + 1;
      if (region_lo < occ) {
        // A gap exists at the insertion boundary; take the predicted slot
        // if it is in range.
        size_t pos = predicted;
        if (pos < region_lo) pos = region_lo;
        if (pos >= occ) pos = occ - 1;
        this->PlaceInGap(pos, key, payload);
        EnforceDensityAfterInsert(pos);
        return InsertStatus::kOk;
      }
      // Boundary is packed. Try to open a slot inside the segment holding
      // the boundary (intra-segment shift, <= segment_size moves).
      const size_t anchor = occ == cap ? cap - 1 : occ;
      const size_t seg = anchor / segment_size_;
      if (TryInsertIntoSegment(seg, occ, key, payload)) {
        EnforceDensityAfterInsert(anchor);
        return InsertStatus::kOk;
      }
      // Segment is full: rebalance the smallest enclosing window whose
      // density (counting the incoming key) is within its bound, then
      // retry with fresh positions.
      if (!RebalanceSmallestLegalWindow(seg)) {
        return InsertStatus::kFull;  // should be prevented by root check
      }
    }
    return InsertStatus::kFull;
  }

  /// Density bound for a window at `level` (0 = leaf segment, `height` =
  /// root), linearly interpolated per Bender & Hu. Levels beyond the tree
  /// height clamp to the root bound.
  double MaxDensityAtLevel(size_t level) const {
    if (height_ == 0) return bounds_.leaf_max;
    if (level > height_) level = height_;
    const double t =
        static_cast<double>(level) / static_cast<double>(height_);
    return bounds_.leaf_max + (bounds_.root_max - bounds_.leaf_max) * t;
  }

 private:
  void ConfigureSegments(size_t capacity) {
    // Segment size ~ Theta(log2 capacity), rounded up to a power of two so
    // the segment count is also a power of two.
    size_t log2_cap = 0;
    while ((1ULL << (log2_cap + 1)) <= capacity) ++log2_cap;
    segment_size_ = 8;
    while (segment_size_ < log2_cap) segment_size_ <<= 1;
    if (segment_size_ > capacity) segment_size_ = capacity;
    num_segments_ = capacity / segment_size_;
    height_ = 0;
    while ((1ULL << height_) < num_segments_) ++height_;
  }

  // Opens a slot for `key` inside segment `seg` by shifting elements
  // toward a free slot *within the segment*. `occ` is the global boundary
  // slot (first occupied key >= `key`, or capacity() for append). Returns
  // false when the segment has no free slot.
  bool TryInsertIntoSegment(size_t seg, size_t occ, K key,
                            const P& payload) {
    const size_t seg_lo = seg * segment_size_;
    const size_t seg_hi = seg_lo + segment_size_;
    const size_t cap = this->capacity();
    util::BitmapView bits = this->bitmap();
    // Nearest free slot within the segment on each side of the boundary.
    const size_t anchor = occ == cap ? cap - 1 : occ;
    size_t gap_right = bits.NextClear(anchor);
    if (gap_right >= seg_hi) gap_right = cap;
    size_t gap_left = anchor == seg_lo ? cap : bits.PrevClear(anchor - 1);
    if (gap_left != cap && gap_left < seg_lo) gap_left = cap;
    if (gap_right == cap && gap_left == cap) return false;
    const size_t dist_right = gap_right == cap ? cap : gap_right - anchor;
    const size_t dist_left = gap_left == cap ? cap : anchor - gap_left;
    if (occ != cap && dist_right <= dist_left) {
      // Shift [occ, gap_right) right one; insert at occ.
      this->ShiftRight(occ, gap_right);
      bits.Set(gap_right);
      bits.Clear(occ);
      this->PlaceInGap(occ, key, payload);
      return true;
    }
    if (gap_left == cap) return false;
    // Shift (gap_left, occ) left one; insert at occ - 1.
    this->ShiftLeft(gap_left + 1, occ);
    bits.Set(gap_left);
    bits.Clear(occ - 1);
    this->PlaceInGap(occ - 1, key, payload);
    return true;
  }

  // Finds the smallest window enclosing segment `seg` whose density,
  // counting one incoming element, is within its level bound, and
  // redistributes it uniformly. Returns false when even the root window
  // fails.
  bool RebalanceSmallestLegalWindow(size_t seg) {
    size_t window_segs = 1;
    size_t level = 0;
    size_t first_seg = seg;
    while (true) {
      const size_t lo = first_seg * segment_size_;
      const size_t hi = lo + window_segs * segment_size_;
      // + 1 for the incoming key.
      const size_t count = this->bitmap().PopCountRange(lo, hi) + 1;
      const double density = static_cast<double>(count) /
                             static_cast<double>(hi - lo);
      if (density <= MaxDensityAtLevel(level)) {
        RedistributeUniform(lo, hi);
        return true;
      }
      if (window_segs >= num_segments_) return false;
      window_segs <<= 1;
      first_seg = (first_seg / window_segs) * window_segs;
      ++level;
    }
  }

  // After a successful placement at `pos`, walks up the implicit tree and
  // uniformly redistributes the first in-bounds ancestor if the leaf
  // segment now violates its bound (classic PMA maintenance).
  void EnforceDensityAfterInsert(size_t pos) {
    const size_t seg = pos / segment_size_;
    const size_t seg_lo = seg * segment_size_;
    const size_t seg_count =
        this->bitmap().PopCountRange(seg_lo, seg_lo + segment_size_);
    const double seg_density = static_cast<double>(seg_count) /
                               static_cast<double>(segment_size_);
    if (seg_density <= MaxDensityAtLevel(0)) return;
    size_t window_segs = 2;
    size_t level = 1;
    while (window_segs <= num_segments_) {
      const size_t first_seg = (seg / window_segs) * window_segs;
      const size_t lo = first_seg * segment_size_;
      const size_t hi = lo + window_segs * segment_size_;
      const size_t count = this->bitmap().PopCountRange(lo, hi);
      const double density =
          static_cast<double>(count) / static_cast<double>(hi - lo);
      if (density <= MaxDensityAtLevel(level)) {
        RedistributeUniform(lo, hi);
        return;
      }
      window_segs <<= 1;
      ++level;
    }
    // Root violated: leave as is; the next insert will report kFull and
    // the owning data node will expand.
  }

  // Uniformly redistributes the occupied elements within [lo, hi) in one
  // windowed placement pass over the published block. Gaps left of the
  // window still hold its first key, which does not move; gaps after its
  // last key take the first key at or after `hi`, or the window's last key
  // when none exists.
  void RedistributeUniform(size_t lo, size_t hi) {
    util::BitmapView bits = this->bitmap();
    std::vector<K> keys;
    std::vector<P> payloads;
    bits.ForEachSet(lo, hi, [&](size_t i) {
      keys.push_back(this->key_at(i));
      payloads.push_back(this->payload_at(i));
      return true;
    });
    const size_t n = keys.size();
    if (n == 0) return;
    for (size_t i = lo; i < hi; ++i) bits.Clear(i);
    const size_t right = bits.NextSet(hi);
    const K tail_fill =
        right < this->capacity() ? this->key_at(right) : keys.back();
    this->template PlaceSorted</*kPublished=*/true>(
        this->blk(), lo, hi, keys.data(), payloads.data(), n,
        UniformSlots(lo, hi - lo, n), tail_fill);
    this->num_shifts_ += n;
  }

  PmaDensityBounds bounds_;
  size_t segment_size_ = 8;
  size_t num_segments_ = 1;
  size_t height_ = 0;
};

}  // namespace alex::container
