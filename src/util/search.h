// Local search primitives over sorted arrays.
//
// ALEX compensates for model misprediction with *exponential search without
// bounds* (paper §3.2), while the Learned Index baseline uses *binary search
// within stored error bounds* (Kraska et al.). Figure 11 compares the two
// head to head; both live here so the comparison exercises the exact code
// ALEX runs.
#pragma once

#include <cstddef>
#include <cstdint>

namespace alex::util {

/// Lower bound via exponential search starting from a predicted position.
///
/// Returns the smallest index `i` in [0, n) such that `at(i) >= key`, or
/// `n` if no such index exists. Cost is O(log e) where e is the distance
/// between `predicted` and the answer — the property that makes it the right
/// choice when model predictions are accurate (paper §5.3.2). `at` reads one
/// element, so a caller that races writers can route every read through an
/// atomic load (see GappedStorage::FindSlotIn).
template <typename K, typename At>
size_t ExponentialSearchLowerBoundBy(const At& at, size_t n, K key,
                                     size_t predicted) {
  if (n == 0) return 0;
  if (predicted >= n) predicted = n - 1;
  size_t lo, hi;
  if (at(predicted) >= key) {
    // Answer is at or left of `predicted`: grow the bracket leftward.
    size_t bound = 1;
    while (bound <= predicted && at(predicted - bound) >= key) {
      bound <<= 1;
    }
    lo = bound > predicted ? 0 : predicted - bound;
    hi = predicted - (bound >> 1) + 1;
  } else {
    // Answer is right of `predicted`: grow the bracket rightward.
    size_t bound = 1;
    while (predicted + bound < n && at(predicted + bound) < key) {
      bound <<= 1;
    }
    lo = predicted + (bound >> 1);
    hi = predicted + bound < n ? predicted + bound + 1 : n;
  }
  // Binary search within the bracket [lo, hi).
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (at(mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// ExponentialSearchLowerBoundBy over a plain array.
template <typename K>
size_t ExponentialSearchLowerBound(const K* data, size_t n, K key,
                                   size_t predicted) {
  return ExponentialSearchLowerBoundBy(
      [data](size_t i) { return data[i]; }, n, key, predicted);
}

/// Upper bound via exponential search: smallest index `i` in [0, n) with
/// `data[i] > key`, or `n`.
template <typename K>
size_t ExponentialSearchUpperBound(const K* data, size_t n, K key,
                                   size_t predicted) {
  if (n == 0) return 0;
  if (predicted >= n) predicted = n - 1;
  size_t lo, hi;
  if (data[predicted] > key) {
    size_t bound = 1;
    while (bound <= predicted && data[predicted - bound] > key) {
      bound <<= 1;
    }
    lo = bound > predicted ? 0 : predicted - bound;
    hi = predicted - (bound >> 1) + 1;
  } else {
    size_t bound = 1;
    while (predicted + bound < n && data[predicted + bound] <= key) {
      bound <<= 1;
    }
    lo = predicted + (bound >> 1);
    hi = predicted + bound < n ? predicted + bound + 1 : n;
  }
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (data[mid] <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Lower bound via plain binary search restricted to [lo, hi) — the Learned
/// Index's "bounded binary search" given per-model error bounds.
///
/// Returns the smallest index `i` in [lo, hi) such that `data[i] >= key`, or
/// `hi` if no such index exists. Callers clamp [lo, hi) to the model's
/// stored error interval around the prediction.
template <typename K>
size_t BinarySearchLowerBound(const K* data, size_t lo, size_t hi, K key) {
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (data[mid] < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Upper-bound variant of BinarySearchLowerBound.
template <typename K>
size_t BinarySearchUpperBound(const K* data, size_t lo, size_t hi, K key) {
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (data[mid] <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace alex::util
