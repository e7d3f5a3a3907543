// Exact order statistics and the suite's own clock. The suite never times
// with the library's obs clock, so a change under src/obs cannot change
// how the benchmark measures.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perf {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline uint64_t NanosBetween(Clock::time_point a, Clock::time_point b) {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  return ns > 0 ? static_cast<uint64_t>(ns) : 0;
}

/// Per-call latencies are stored as uint32 nanoseconds (saturating at
/// ~4.3 s) so a client's whole stream fits in a preallocated array.
inline uint32_t Saturate32(uint64_t ns) {
  return ns > std::numeric_limits<uint32_t>::max()
             ? std::numeric_limits<uint32_t>::max()
             : static_cast<uint32_t>(ns);
}

/// Exact nearest-rank quantile; reorders `v`. 0 for an empty sample.
template <typename T>
double Quantile(std::vector<T>* v, double q) {
  if (v->empty()) return 0.0;
  const size_t k = static_cast<size_t>(q * static_cast<double>(v->size() - 1));
  std::nth_element(v->begin(), v->begin() + static_cast<std::ptrdiff_t>(k),
                   v->end());
  return static_cast<double>((*v)[k]);
}

/// Median with the two middle values averaged. 0 for an empty sample.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Median over chunks of `chunk` consecutive calls of the per-call time, in
/// ns. For calls too short to time one by one, the clock's own cost is
/// then amortized over the chunk.
template <typename Fn>
double ChunkedNanosPerCall(size_t calls, size_t chunk, Fn&& call) {
  std::vector<double> per_call;
  for (size_t i = 0; i + chunk <= calls; i += chunk) {
    const Clock::time_point t0 = Clock::now();
    for (size_t j = i; j < i + chunk; ++j) call(j);
    per_call.push_back(static_cast<double>(NanosBetween(t0, Clock::now())) /
                       static_cast<double>(chunk));
  }
  return Median(std::move(per_call));
}

}  // namespace perf
