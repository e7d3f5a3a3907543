// Pushed-down aggregates over a gapped slot array: "what do the occupied
// slots between two leaf positions add up to", answered without
// materializing them. Both folds walk the occupancy bitmap with
// Bitmap::ForEachSet, so gap slots (and their gap-fill copies) never
// contribute, and values are folded in ascending slot order: a double
// sum is the same on every machine and build.
//
//   MaskedAggregate(data, bitmap, lo, hi)
//       Fused count/sum/min/max over the occupied slots in [lo, hi).
//
//   MaskedCountBetween(data, bitmap, lo, hi, value_lo, value_hi)
//       Predicate pushdown: counts occupied slots whose *value* lies in
//       [value_lo, value_hi].
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "util/bitmap.h"

namespace alex::util {

/// Accumulator element type for sums: integral inputs accumulate modulo
/// 2^64, floating-point inputs accumulate in their own type.
template <typename T>
using AggSumT = std::conditional_t<std::is_integral_v<T>, uint64_t, T>;

/// Fused aggregate over one value column. `min`/`max` are meaningful only
/// when `count > 0`; for integral T, `sum` is the total modulo 2^64 (cast
/// to the signed type to interpret two's-complement).
template <typename T>
struct AggState {
  uint64_t count = 0;
  AggSumT<T> sum = AggSumT<T>{};
  T min = T{};
  T max = T{};

  /// Folds one value in.
  void Add(T v) {
    if (count == 0) {
      min = v;
      max = v;
    } else {
      if (v < min) min = v;
      if (max < v) max = v;
    }
    sum += static_cast<AggSumT<T>>(v);
    ++count;
  }

  /// Folds another partial aggregate in. Merge order matters for double
  /// sums — callers merge leaves/shards in ascending key order so results
  /// are deterministic run-to-run.
  void Merge(const AggState& o) {
    if (o.count == 0) return;
    if (count == 0) {
      *this = o;
      return;
    }
    count += o.count;
    sum += o.sum;
    if (o.min < min) min = o.min;
    if (max < o.max) max = o.max;
  }
};

/// Fused count/sum/min/max of the occupied slots in `[lo, hi)`. `data` is
/// the raw slot array (keys or payloads of a gapped layout), `bitmap` its
/// occupancy bitmap.
template <typename T>
inline AggState<T> MaskedAggregate(const T* data, const BitmapView& bitmap,
                                   size_t lo, size_t hi) {
  AggState<T> out;
  if (hi > bitmap.size()) hi = bitmap.size();
  const size_t first = bitmap.NextSet(lo);
  if (first >= hi) return out;
  // The first value seeds min and max, so the fold over the rest carries
  // no first-value branch (AggState::Add's).
  out.Add(data[first]);
  bitmap.ForEachSet(first + 1, hi, [&](size_t i) {
    const T v = data[i];
    out.sum += static_cast<AggSumT<T>>(v);
    if (v < out.min) out.min = v;
    if (out.max < v) out.max = v;
    ++out.count;
    return true;
  });
  return out;
}

/// Number of occupied slots in `[lo, hi)` whose value lies in
/// `[value_lo, value_hi]`.
template <typename T>
inline uint64_t MaskedCountBetween(const T* data, const BitmapView& bitmap,
                                   size_t lo, size_t hi, T value_lo,
                                   T value_hi) {
  uint64_t count = 0;
  bitmap.ForEachSet(lo, hi, [&](size_t i) {
    count += !(data[i] < value_lo) && !(value_hi < data[i]);
    return true;
  });
  return count;
}

}  // namespace alex::util
