// Shard router for the sharded service layer.
//
// The key space is range-partitioned: shard i owns [boundaries[i-1],
// boundaries[i]) with open ends at both extremes. Routing a key is an
// upper bound over the boundary array, done as a fixed-step branchless
// search: ⌈log2 #boundaries⌉ halvings whose only data-dependent choice is
// a conditional move, so a route never mispredicts a branch. The array is
// a few cache lines even at hundreds of shards, which is why no learned
// model sits in front of it: a model's guess has to be verified against
// the same boundaries and, on skewed keys, is mostly wrong.
//
// Routers are immutable once built and shared read-only across threads; a
// topology change builds a new router for its replacement table rather
// than mutating the live one.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace alex::shard {

template <typename K>
class ShardRouter {
 public:
  /// A default router has a single shard: everything routes to 0.
  ShardRouter() = default;

  /// Wraps a strictly increasing boundary array: boundaries[i] is the
  /// first key owned by shard i+1.
  explicit ShardRouter(std::vector<K> boundaries)
      : boundaries_(std::move(boundaries)) {}

  /// Builds a router partitioning `n` strictly-increasing keys into
  /// `num_shards` contiguous ranges of ~n/num_shards keys each;
  /// boundaries[i] = keys[(i+1)*n/num_shards], the first key owned by
  /// shard i+1. Requires n >= num_shards (callers clamp).
  static ShardRouter FitFromSortedKeys(const K* keys, size_t n,
                                       size_t num_shards) {
    ShardRouter router;
    if (num_shards <= 1 || n == 0) return router;
    router.boundaries_.reserve(num_shards - 1);
    for (size_t i = 1; i < num_shards; ++i) {
      router.boundaries_.push_back(keys[i * n / num_shards]);
    }
    return router;
  }

  /// Boundary surgery for a topology transaction: victims [lo, hi) of
  /// the table this array describes are replaced by children whose
  /// internal split keys are `split_keys` (so the child count is
  /// split_keys.size() + 1). The victims' outer edges survive — the
  /// transaction never moves a boundary it did not drain — and only
  /// their internal boundaries are swapped out: a merge passes no split
  /// keys, a split passes its fresh ones, a rebalance passes re-evened
  /// ones. Requires lo < hi <= num_shards and strictly increasing split
  /// keys inside the victims' range.
  static std::vector<K> SpliceBoundaries(const std::vector<K>& boundaries,
                                         size_t lo, size_t hi,
                                         const std::vector<K>& split_keys) {
    // boundaries[i] is the lower bound of shard i+1: indices < lo lie at
    // or below the victims' lower edge, indices [lo, hi-1) are the
    // victims' internal boundaries, index hi-1 onward start at the upper
    // edge.
    std::vector<K> out;
    out.reserve(boundaries.size() - (hi - 1 - lo) + split_keys.size());
    out.insert(out.end(), boundaries.begin(),
               boundaries.begin() + static_cast<std::ptrdiff_t>(lo));
    out.insert(out.end(), split_keys.begin(), split_keys.end());
    out.insert(out.end(),
               boundaries.begin() + static_cast<std::ptrdiff_t>(hi - 1),
               boundaries.end());
    return out;
  }

  size_t num_shards() const { return boundaries_.size() + 1; }
  const std::vector<K>& boundaries() const { return boundaries_; }

  /// Shard owning `key`: the number of boundaries <= key, i.e.
  /// std::upper_bound over the boundaries. Each step keeps the half that
  /// holds the answer, so `base` ends on the last boundary that could
  /// still be <= key.
  size_t Route(K key) const {
    size_t n = boundaries_.size();
    if (n == 0) return 0;
    const K* base = boundaries_.data();
    while (n > 1) {
      const size_t half = n / 2;
      base = key < base[half] ? base : base + half;
      n -= half;
    }
    return static_cast<size_t>(base - boundaries_.data()) +
           (key < *base ? 0 : 1);
  }

  /// Smallest key owned by shard `s` (s >= 1; shard 0's range is open
  /// below).
  K LowerBoundOf(size_t s) const { return boundaries_[s - 1]; }

  /// Router footprint: the boundary array (reported under index size,
  /// like inner-node models).
  size_t SizeBytes() const { return boundaries_.size() * sizeof(K); }

 private:
  std::vector<K> boundaries_;
};

}  // namespace alex::shard
