// Branchless SIMD kernels for the scan/aggregate path (AVX2 + scalar):
// "what do the occupied slots between two leaf positions add up to",
// answered without materializing them. Two kernel families:
//
//   MaskedAggregate(data, words, lo, hi)
//       Fused count/sum/min/max over the *occupied* slots in [lo, hi) of a
//       gapped array, using the leaf's occupancy bitmap words directly. A
//       64-slot run whose bitmap word is all-ones and fully inside the
//       range is processed as sixteen unmasked 4-wide vector steps — no
//       per-slot branching; sparse or boundary words fall back to a
//       count-trailing-zeros walk over their set bits.
//
//   MaskedCountBetween(data, words, lo, hi, value_lo, value_hi)
//       Predicate pushdown: counts occupied slots whose *value* lies in
//       [value_lo, value_hi]. Dense words evaluate the predicate 4 lanes at
//       a time (compare + movemask + popcount).
//
// Point lookups do not use SIMD: a leaf search is ALEX's exponential
// search from the model's predicted slot (util/search.h).
//
// Dispatch has three gates, all read through SimdSearchEnabled():
//   - compile time: the AVX2 kernels are compiled only on x86-64
//     GCC/Clang and only when ALEX_DISABLE_SIMD is not defined (CMake
//     -DALEX_DISABLE_SIMD=ON defines it). They carry
//     __attribute__((target("avx2"))) so the rest of the TU stays
//     baseline-ISA.
//   - run time: __builtin_cpu_supports("avx2") gates the vector path.
//   - environment: setting ALEX_FORCE_SCALAR_SEARCH (any value) forces
//     the portable scalar kernels for A/B testing.
//
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <type_traits>

#if !defined(ALEX_DISABLE_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define ALEX_SIMD_X86 1
#include <immintrin.h>
#else
#define ALEX_SIMD_X86 0
#endif

namespace alex::util {

/// True when the AVX2 kernels are compiled in, the CPU reports AVX2, and
/// ALEX_FORCE_SCALAR_SEARCH is not set in the environment. Evaluated once.
inline bool SimdSearchEnabled() {
#if ALEX_SIMD_X86
  static const bool enabled = [] {
    if (std::getenv("ALEX_FORCE_SCALAR_SEARCH") != nullptr) return false;
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return enabled;
#else
  return false;
#endif
}

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

  /// Folds one value in (scalar path for filtered aggregation).
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

namespace simd_scan_internal {

// Value types with an AVX2 kernel below. Everything else (int32 keys,
// custom comparables) takes the scalar kernels.
template <typename T>
inline constexpr bool kHasAvx2Kernel =
    std::is_same_v<T, int64_t> || std::is_same_v<T, uint64_t> ||
    std::is_same_v<T, double>;

/// Masks a bitmap word (covering slots [base, base+64)) down to the bits
/// inside [lo, hi). Precondition: the word overlaps the range.
inline uint64_t MaskWordToRange(uint64_t bits, size_t base, size_t lo,
                                size_t hi) {
  if (base < lo) bits &= ~0ULL << (lo - base);
  if (hi < base + 64) bits &= ~0ULL >> (base + 64 - hi);
  return bits;
}

/// Portable kernel; also the oracle the AVX2 kernels are held to.
/// Precondition: lo < hi.
template <typename T>
inline AggState<T> MaskedAggregateScalar(const T* data, const uint64_t* words,
                                         size_t lo, size_t hi) {
  AggState<T> out;
  AggSumT<T> lanes[4] = {AggSumT<T>{}, AggSumT<T>{}, AggSumT<T>{},
                         AggSumT<T>{}};
  AggSumT<T> rest_sum{};
  T mn{};
  T mx{};
  bool any = false;
  uint64_t count = 0;
  const size_t w_hi = (hi - 1) >> 6;
  for (size_t w = lo >> 6; w <= w_hi; ++w) {
    const size_t base = w << 6;
    uint64_t bits = words[w];
    if (base >= lo && base + 64 <= hi && bits == ~0ULL) {
      // Dense fully-covered word: no per-slot branching. The 4-lane
      // striping and final reduce order below mirror the AVX2 kernel
      // exactly so double sums are byte-identical across dispatch modes.
      for (size_t g = 0; g < 64; g += 4) {
        lanes[0] += static_cast<AggSumT<T>>(data[base + g + 0]);
        lanes[1] += static_cast<AggSumT<T>>(data[base + g + 1]);
        lanes[2] += static_cast<AggSumT<T>>(data[base + g + 2]);
        lanes[3] += static_cast<AggSumT<T>>(data[base + g + 3]);
      }
      T wmn = data[base];
      T wmx = data[base];
      for (size_t i = 1; i < 64; ++i) {
        const T v = data[base + i];
        if (v < wmn) wmn = v;
        if (wmx < v) wmx = v;
      }
      if (!any) {
        mn = wmn;
        mx = wmx;
        any = true;
      } else {
        if (wmn < mn) mn = wmn;
        if (mx < wmx) mx = wmx;
      }
      count += 64;
      continue;
    }
    bits = MaskWordToRange(bits, base, lo, hi);
    while (bits != 0) {
      const size_t i = base + static_cast<size_t>(__builtin_ctzll(bits));
      bits &= bits - 1;
      const T v = data[i];
      rest_sum += static_cast<AggSumT<T>>(v);
      if (!any) {
        mn = v;
        mx = v;
        any = true;
      } else {
        if (v < mn) mn = v;
        if (mx < v) mx = v;
      }
      ++count;
    }
  }
  out.count = count;
  const AggSumT<T> lane_sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  out.sum = lane_sum + rest_sum;
  if (any) {
    out.min = mn;
    out.max = mx;
  }
  return out;
}

/// Portable predicate-count kernel. Precondition: lo < hi.
template <typename T>
inline uint64_t MaskedCountBetweenScalar(const T* data, const uint64_t* words,
                                         size_t lo, size_t hi, T value_lo,
                                         T value_hi) {
  uint64_t count = 0;
  const size_t w_hi = (hi - 1) >> 6;
  for (size_t w = lo >> 6; w <= w_hi; ++w) {
    const size_t base = w << 6;
    uint64_t bits = words[w];
    if (base >= lo && base + 64 <= hi && bits == ~0ULL) {
      for (size_t i = 0; i < 64; ++i) {
        const T v = data[base + i];
        count += static_cast<uint64_t>(static_cast<int>(!(v < value_lo)) &
                                       static_cast<int>(!(value_hi < v)));
      }
      continue;
    }
    bits = MaskWordToRange(bits, base, lo, hi);
    while (bits != 0) {
      const size_t i = base + static_cast<size_t>(__builtin_ctzll(bits));
      bits &= bits - 1;
      const T v = data[i];
      count += static_cast<uint64_t>(static_cast<int>(!(v < value_lo)) &
                                     static_cast<int>(!(value_hi < v)));
    }
  }
  return count;
}

#if ALEX_SIMD_X86

__attribute__((target("avx2"))) inline AggState<int64_t> MaskedAggregateAvx2(
    const int64_t* data, const uint64_t* words, size_t lo, size_t hi) {
  AggState<int64_t> out;
  __m256i vsum = _mm256_setzero_si256();
  __m256i vmin = _mm256_set1_epi64x(std::numeric_limits<int64_t>::max());
  __m256i vmax = _mm256_set1_epi64x(std::numeric_limits<int64_t>::min());
  bool vector_any = false;
  uint64_t rest_sum = 0;
  int64_t mn = 0;
  int64_t mx = 0;
  bool any = false;
  uint64_t count = 0;
  const size_t w_hi = (hi - 1) >> 6;
  for (size_t w = lo >> 6; w <= w_hi; ++w) {
    const size_t base = w << 6;
    uint64_t bits = words[w];
    if (base >= lo && base + 64 <= hi && bits == ~0ULL) {
      for (size_t g = 0; g < 64; g += 4) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(data + base + g));
        vsum = _mm256_add_epi64(vsum, v);
        vmin = _mm256_blendv_epi8(vmin, v, _mm256_cmpgt_epi64(vmin, v));
        vmax = _mm256_blendv_epi8(vmax, v, _mm256_cmpgt_epi64(v, vmax));
      }
      vector_any = true;
      count += 64;
      continue;
    }
    bits = MaskWordToRange(bits, base, lo, hi);
    while (bits != 0) {
      const size_t i = base + static_cast<size_t>(__builtin_ctzll(bits));
      bits &= bits - 1;
      const int64_t v = data[i];
      rest_sum += static_cast<uint64_t>(v);
      if (!any) {
        mn = v;
        mx = v;
        any = true;
      } else {
        if (v < mn) mn = v;
        if (mx < v) mx = v;
      }
      ++count;
    }
  }
  alignas(32) int64_t sums[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(sums), vsum);
  const uint64_t lane_sum =
      (static_cast<uint64_t>(sums[0]) + static_cast<uint64_t>(sums[1])) +
      (static_cast<uint64_t>(sums[2]) + static_cast<uint64_t>(sums[3]));
  out.sum = lane_sum + rest_sum;
  if (vector_any) {
    alignas(32) int64_t mins[4];
    alignas(32) int64_t maxs[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(mins), vmin);
    _mm256_store_si256(reinterpret_cast<__m256i*>(maxs), vmax);
    int64_t wmn = mins[0];
    int64_t wmx = maxs[0];
    for (int j = 1; j < 4; ++j) {
      if (mins[j] < wmn) wmn = mins[j];
      if (wmx < maxs[j]) wmx = maxs[j];
    }
    if (!any) {
      mn = wmn;
      mx = wmx;
      any = true;
    } else {
      if (wmn < mn) mn = wmn;
      if (mx < wmx) mx = wmx;
    }
  }
  out.count = count;
  if (any) {
    out.min = mn;
    out.max = mx;
  }
  return out;
}

__attribute__((target("avx2"))) inline AggState<uint64_t> MaskedAggregateAvx2(
    const uint64_t* data, const uint64_t* words, size_t lo, size_t hi) {
  AggState<uint64_t> out;
  // Unsigned compares via the sign-bit bias trick (XOR-flipping the sign
  // bit maps the unsigned order onto the signed comparator's order);
  // min/max blend the *unbiased* values on the biased compare mask.
  const __m256i bias =
      _mm256_set1_epi64x(static_cast<int64_t>(0x8000000000000000ULL));
  __m256i vsum = _mm256_setzero_si256();
  __m256i vmin = _mm256_set1_epi64x(-1);  // UINT64_MAX per lane
  __m256i vmax = _mm256_setzero_si256();
  bool vector_any = false;
  uint64_t rest_sum = 0;
  uint64_t mn = 0;
  uint64_t mx = 0;
  bool any = false;
  uint64_t count = 0;
  const size_t w_hi = (hi - 1) >> 6;
  for (size_t w = lo >> 6; w <= w_hi; ++w) {
    const size_t base = w << 6;
    uint64_t bits = words[w];
    if (base >= lo && base + 64 <= hi && bits == ~0ULL) {
      for (size_t g = 0; g < 64; g += 4) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(data + base + g));
        const __m256i vb = _mm256_xor_si256(v, bias);
        vsum = _mm256_add_epi64(vsum, v);
        vmin = _mm256_blendv_epi8(
            vmin, v, _mm256_cmpgt_epi64(_mm256_xor_si256(vmin, bias), vb));
        vmax = _mm256_blendv_epi8(
            vmax, v, _mm256_cmpgt_epi64(vb, _mm256_xor_si256(vmax, bias)));
      }
      vector_any = true;
      count += 64;
      continue;
    }
    bits = MaskWordToRange(bits, base, lo, hi);
    while (bits != 0) {
      const size_t i = base + static_cast<size_t>(__builtin_ctzll(bits));
      bits &= bits - 1;
      const uint64_t v = data[i];
      rest_sum += v;
      if (!any) {
        mn = v;
        mx = v;
        any = true;
      } else {
        if (v < mn) mn = v;
        if (mx < v) mx = v;
      }
      ++count;
    }
  }
  alignas(32) uint64_t sums[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(sums), vsum);
  out.sum = ((sums[0] + sums[1]) + (sums[2] + sums[3])) + rest_sum;
  if (vector_any) {
    alignas(32) uint64_t mins[4];
    alignas(32) uint64_t maxs[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(mins), vmin);
    _mm256_store_si256(reinterpret_cast<__m256i*>(maxs), vmax);
    uint64_t wmn = mins[0];
    uint64_t wmx = maxs[0];
    for (int j = 1; j < 4; ++j) {
      if (mins[j] < wmn) wmn = mins[j];
      if (wmx < maxs[j]) wmx = maxs[j];
    }
    if (!any) {
      mn = wmn;
      mx = wmx;
      any = true;
    } else {
      if (wmn < mn) mn = wmn;
      if (mx < wmx) mx = wmx;
    }
  }
  out.count = count;
  if (any) {
    out.min = mn;
    out.max = mx;
  }
  return out;
}

__attribute__((target("avx2"))) inline AggState<double> MaskedAggregateAvx2(
    const double* data, const uint64_t* words, size_t lo, size_t hi) {
  AggState<double> out;
  __m256d vsum = _mm256_setzero_pd();
  __m256d vmin = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  __m256d vmax = _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  bool vector_any = false;
  double rest_sum = 0.0;
  double mn = 0.0;
  double mx = 0.0;
  bool any = false;
  uint64_t count = 0;
  const size_t w_hi = (hi - 1) >> 6;
  for (size_t w = lo >> 6; w <= w_hi; ++w) {
    const size_t base = w << 6;
    uint64_t bits = words[w];
    if (base >= lo && base + 64 <= hi && bits == ~0ULL) {
      for (size_t g = 0; g < 64; g += 4) {
        const __m256d v = _mm256_loadu_pd(data + base + g);
        vsum = _mm256_add_pd(vsum, v);
        // Same predicates as the scalar kernel: keep the accumulator
        // unless strictly beaten.
        vmin = _mm256_blendv_pd(vmin, v, _mm256_cmp_pd(v, vmin, _CMP_LT_OQ));
        vmax = _mm256_blendv_pd(vmax, v, _mm256_cmp_pd(vmax, v, _CMP_LT_OQ));
      }
      vector_any = true;
      count += 64;
      continue;
    }
    bits = MaskWordToRange(bits, base, lo, hi);
    while (bits != 0) {
      const size_t i = base + static_cast<size_t>(__builtin_ctzll(bits));
      bits &= bits - 1;
      const double v = data[i];
      rest_sum += v;
      if (!any) {
        mn = v;
        mx = v;
        any = true;
      } else {
        if (v < mn) mn = v;
        if (mx < v) mx = v;
      }
      ++count;
    }
  }
  alignas(32) double sums[4];
  _mm256_store_pd(sums, vsum);
  const double lane_sum = (sums[0] + sums[1]) + (sums[2] + sums[3]);
  out.sum = lane_sum + rest_sum;
  if (vector_any) {
    alignas(32) double mins[4];
    alignas(32) double maxs[4];
    _mm256_store_pd(mins, vmin);
    _mm256_store_pd(maxs, vmax);
    double wmn = mins[0];
    double wmx = maxs[0];
    for (int j = 1; j < 4; ++j) {
      if (mins[j] < wmn) wmn = mins[j];
      if (wmx < maxs[j]) wmx = maxs[j];
    }
    if (!any) {
      mn = wmn;
      mx = wmx;
      any = true;
    } else {
      if (wmn < mn) mn = wmn;
      if (mx < wmx) mx = wmx;
    }
  }
  out.count = count;
  if (any) {
    out.min = mn;
    out.max = mx;
  }
  return out;
}

__attribute__((target("avx2"))) inline uint64_t MaskedCountBetweenAvx2(
    const int64_t* data, const uint64_t* words, size_t lo, size_t hi,
    int64_t value_lo, int64_t value_hi) {
  uint64_t count = 0;
  const __m256i lo_v = _mm256_set1_epi64x(value_lo);
  const __m256i hi_v = _mm256_set1_epi64x(value_hi);
  const size_t w_hi = (hi - 1) >> 6;
  for (size_t w = lo >> 6; w <= w_hi; ++w) {
    const size_t base = w << 6;
    uint64_t bits = words[w];
    if (base >= lo && base + 64 <= hi && bits == ~0ULL) {
      for (size_t g = 0; g < 64; g += 4) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(data + base + g));
        const __m256i below = _mm256_cmpgt_epi64(lo_v, v);
        const __m256i above = _mm256_cmpgt_epi64(v, hi_v);
        const int bad = _mm256_movemask_pd(
            _mm256_castsi256_pd(_mm256_or_si256(below, above)));
        count += static_cast<uint64_t>(4 - __builtin_popcount(bad));
      }
      continue;
    }
    bits = MaskWordToRange(bits, base, lo, hi);
    while (bits != 0) {
      const size_t i = base + static_cast<size_t>(__builtin_ctzll(bits));
      bits &= bits - 1;
      const int64_t v = data[i];
      count += static_cast<uint64_t>(static_cast<int>(v >= value_lo) &
                                     static_cast<int>(v <= value_hi));
    }
  }
  return count;
}

__attribute__((target("avx2"))) inline uint64_t MaskedCountBetweenAvx2(
    const uint64_t* data, const uint64_t* words, size_t lo, size_t hi,
    uint64_t value_lo, uint64_t value_hi) {
  uint64_t count = 0;
  const __m256i bias =
      _mm256_set1_epi64x(static_cast<int64_t>(0x8000000000000000ULL));
  const __m256i lo_v =
      _mm256_set1_epi64x(static_cast<int64_t>(value_lo ^ 0x8000000000000000ULL));
  const __m256i hi_v =
      _mm256_set1_epi64x(static_cast<int64_t>(value_hi ^ 0x8000000000000000ULL));
  const size_t w_hi = (hi - 1) >> 6;
  for (size_t w = lo >> 6; w <= w_hi; ++w) {
    const size_t base = w << 6;
    uint64_t bits = words[w];
    if (base >= lo && base + 64 <= hi && bits == ~0ULL) {
      for (size_t g = 0; g < 64; g += 4) {
        const __m256i v = _mm256_xor_si256(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(data + base + g)),
            bias);
        const __m256i below = _mm256_cmpgt_epi64(lo_v, v);
        const __m256i above = _mm256_cmpgt_epi64(v, hi_v);
        const int bad = _mm256_movemask_pd(
            _mm256_castsi256_pd(_mm256_or_si256(below, above)));
        count += static_cast<uint64_t>(4 - __builtin_popcount(bad));
      }
      continue;
    }
    bits = MaskWordToRange(bits, base, lo, hi);
    while (bits != 0) {
      const size_t i = base + static_cast<size_t>(__builtin_ctzll(bits));
      bits &= bits - 1;
      const uint64_t v = data[i];
      count += static_cast<uint64_t>(static_cast<int>(v >= value_lo) &
                                     static_cast<int>(v <= value_hi));
    }
  }
  return count;
}

__attribute__((target("avx2"))) inline uint64_t MaskedCountBetweenAvx2(
    const double* data, const uint64_t* words, size_t lo, size_t hi,
    double value_lo, double value_hi) {
  uint64_t count = 0;
  const __m256d lo_v = _mm256_set1_pd(value_lo);
  const __m256d hi_v = _mm256_set1_pd(value_hi);
  const size_t w_hi = (hi - 1) >> 6;
  for (size_t w = lo >> 6; w <= w_hi; ++w) {
    const size_t base = w << 6;
    uint64_t bits = words[w];
    if (base >= lo && base + 64 <= hi && bits == ~0ULL) {
      for (size_t g = 0; g < 64; g += 4) {
        const __m256d v = _mm256_loadu_pd(data + base + g);
        const __m256d good =
            _mm256_and_pd(_mm256_cmp_pd(v, lo_v, _CMP_GE_OQ),
                          _mm256_cmp_pd(v, hi_v, _CMP_LE_OQ));
        count += static_cast<uint64_t>(
            __builtin_popcount(_mm256_movemask_pd(good)));
      }
      continue;
    }
    bits = MaskWordToRange(bits, base, lo, hi);
    while (bits != 0) {
      const size_t i = base + static_cast<size_t>(__builtin_ctzll(bits));
      bits &= bits - 1;
      const double v = data[i];
      count += static_cast<uint64_t>(static_cast<int>(v >= value_lo) &
                                     static_cast<int>(v <= value_hi));
    }
  }
  return count;
}

#endif  // ALEX_SIMD_X86

}  // namespace simd_scan_internal

/// Fused count/sum/min/max of the occupied slots in `[lo, hi)`. `data` is
/// the raw slot array (keys or payloads of a gapped layout), `words` the
/// matching occupancy-bitmap words (util::Bitmap::words()). Dispatches to
/// AVX2 for int64_t/uint64_t/double when enabled; results are identical in
/// every dispatch mode (see the determinism contract above).
template <typename T>
inline AggState<T> MaskedAggregate(const T* data, const uint64_t* words,
                                   size_t lo, size_t hi) {
  if (lo >= hi) return AggState<T>{};
#if ALEX_SIMD_X86
  if constexpr (simd_scan_internal::kHasAvx2Kernel<T>) {
    if (SimdSearchEnabled()) {
      return simd_scan_internal::MaskedAggregateAvx2(data, words, lo, hi);
    }
  }
#endif
  return simd_scan_internal::MaskedAggregateScalar(data, words, lo, hi);
}

/// Number of occupied slots in `[lo, hi)` whose value lies in
/// `[value_lo, value_hi]`. Same dispatch and determinism as
/// MaskedAggregate.
template <typename T>
inline uint64_t MaskedCountBetween(const T* data, const uint64_t* words,
                                   size_t lo, size_t hi, T value_lo,
                                   T value_hi) {
  if (lo >= hi) return 0;
#if ALEX_SIMD_X86
  if constexpr (simd_scan_internal::kHasAvx2Kernel<T>) {
    if (SimdSearchEnabled()) {
      return simd_scan_internal::MaskedCountBetweenAvx2(data, words, lo, hi,
                                                        value_lo, value_hi);
    }
  }
#endif
  return simd_scan_internal::MaskedCountBetweenScalar(data, words, lo, hi,
                                                      value_lo, value_hi);
}

}  // namespace alex::util
