// Tests for the scan/aggregate engine: the pushed-down folds in
// src/util/aggregate.h against a naive per-bit reference, the
// epoch-guarded ConcurrentAlex::Scan/Aggregate walks against a shadow
// std::map, the cross-shard ShardedAlex::Scan/Aggregate (ordered
// streaming + partial merges on the calling thread) under forced topology
// churn, and a TSan-targeted torture test that scans continuously while
// writers split leaves and shards (ContinuousScansDuringTopologyChurn).
//
// Determinism contract under test: the folds add values in ascending slot
// order, exactly as the naive reference does, so even full-precision
// double sums must match it bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <future>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/alex.h"
#include "core/concurrent_alex.h"
#include "shard/sharded_alex.h"
#include "test_files.h"
#include "util/aggregate.h"
#include "util/bitmap.h"
#include "util/random.h"

namespace alex {
namespace {

// ---- Kernel oracle: naive per-bit reference ----

/// Naive reference for MaskedAggregate: walks [lo, hi) bit by bit in index
/// order, summing in a single accumulator.
template <typename T>
util::AggState<T> NaiveAggregate(const std::vector<T>& data,
                                 const util::Bitmap& bitmap, size_t lo,
                                 size_t hi) {
  util::AggState<T> out;
  for (size_t i = lo; i < hi; ++i) {
    if (bitmap.Get(i)) out.Add(data[i]);
  }
  return out;
}

template <typename T>
uint64_t NaiveCountBetween(const std::vector<T>& data,
                           const util::Bitmap& bitmap, size_t lo, size_t hi,
                           T value_lo, T value_hi) {
  uint64_t count = 0;
  for (size_t i = lo; i < hi; ++i) {
    if (!bitmap.Get(i)) continue;
    const T v = data[i];
    if (!(v < value_lo) && !(value_hi < v)) ++count;
  }
  return count;
}

/// Builds a bitmap mixing dense runs (whole words set), sparse per-bit
/// regions and holes (whole words clear).
util::Bitmap RandomBitmap(size_t size, util::Xoshiro256& rng) {
  util::Bitmap bitmap(size);
  size_t i = 0;
  while (i < size) {
    const uint64_t mode = rng.NextUint64(3);
    if (mode == 0) {
      // Dense patch: set every bit in the next 1..3 words.
      const size_t end = std::min(size, i + 64 * (1 + rng.NextUint64(3)));
      for (; i < end; ++i) bitmap.Set(i);
    } else if (mode == 1) {
      // Sparse patch: ~25% fill.
      const size_t end = std::min(size, i + 64 * (1 + rng.NextUint64(3)));
      for (; i < end; ++i) {
        if (rng.NextUint64(4) == 0) bitmap.Set(i);
      }
    } else {
      // Hole.
      i = std::min(size, i + 1 + rng.NextUint64(100));
    }
  }
  return bitmap;
}

template <typename T>
void ExpectAggEq(const util::AggState<T>& got, const util::AggState<T>& want,
                 const char* what) {
  ASSERT_EQ(got.count, want.count) << what;
  EXPECT_EQ(got.sum, want.sum) << what;
  if (want.count > 0) {
    EXPECT_EQ(got.min, want.min) << what;
    EXPECT_EQ(got.max, want.max) << what;
  }
}

template <typename T, typename Gen>
void RunKernelOracle(Gen gen_value, uint64_t seed) {
  util::Xoshiro256 rng(seed);
  for (int round = 0; round < 40; ++round) {
    const size_t size = 1 + rng.NextUint64(1500);
    std::vector<T> data(size);
    for (auto& v : data) v = gen_value(rng);
    const util::Bitmap bitmap = RandomBitmap(size, rng);
    for (int probe = 0; probe < 8; ++probe) {
      size_t lo = rng.NextUint64(size + 1);
      size_t hi = rng.NextUint64(size + 1);
      if (hi < lo) std::swap(lo, hi);
      const auto got =
          util::MaskedAggregate(data.data(), bitmap, lo, hi);
      const auto want = NaiveAggregate(data, bitmap, lo, hi);
      ExpectAggEq(got, want, "MaskedAggregate");
      ASSERT_EQ(got.count, bitmap.PopCountRange(lo, hi));

      T vlo = gen_value(rng);
      T vhi = gen_value(rng);
      if (vhi < vlo) std::swap(vlo, vhi);
      EXPECT_EQ(util::MaskedCountBetween(data.data(), bitmap, lo, hi,
                                         vlo, vhi),
                NaiveCountBetween(data, bitmap, lo, hi, vlo, vhi));
    }
  }
}

TEST(AggregateFoldTest, AggregateMatchesNaiveInt64) {
  RunKernelOracle<int64_t>(
      [](util::Xoshiro256& rng) {
        return static_cast<int64_t>(rng.NextUint64(2000000)) - 1000000;
      },
      1);
}

TEST(AggregateFoldTest, AggregateMatchesNaiveUint64) {
  // Include values with the sign bit set: they must compare as unsigned.
  RunKernelOracle<uint64_t>([](util::Xoshiro256& rng) { return rng(); }, 2);
}

TEST(AggregateFoldTest, AggregateMatchesNaiveDouble) {
  // Integer halves: sums stay exact, so the oracle also checks counts of
  // equal values at the predicate's closed edges.
  RunKernelOracle<double>(
      [](util::Xoshiro256& rng) {
        return (static_cast<double>(rng.NextUint64(200000)) - 100000.0) * 0.5;
      },
      3);
}

TEST(AggregateFoldTest, Int64SumWrapsModulo64Bits) {
  // Integer sums accumulate modulo 2^64; overflow must be well-defined,
  // not UB.
  std::vector<int64_t> data(256, std::numeric_limits<int64_t>::max());
  util::Bitmap bitmap(data.size());
  for (size_t i = 0; i < data.size(); ++i) bitmap.Set(i);
  const auto got =
      util::MaskedAggregate(data.data(), bitmap, 0, data.size());
  uint64_t want = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    want += static_cast<uint64_t>(data[i]);
  }
  EXPECT_EQ(got.sum, want);
  EXPECT_EQ(got.count, data.size());
}

TEST(AggregateFoldTest, EmptyRangeAndEmptyBitmap) {
  std::vector<int64_t> data(128, 7);
  util::Bitmap empty(data.size());
  const auto none =
      util::MaskedAggregate(data.data(), empty, 0, data.size());
  EXPECT_EQ(none.count, 0u);
  EXPECT_EQ(none.sum, 0u);
  util::Bitmap full(data.size());
  for (size_t i = 0; i < data.size(); ++i) full.Set(i);
  EXPECT_EQ(util::MaskedAggregate(data.data(), full, 64, 64).count,
            0u);
  EXPECT_EQ(util::MaskedCountBetween(data.data(), full, 32, 32,
                                     int64_t{0}, int64_t{100}),
            0u);
}

TEST(AggregateFoldTest, FullPrecisionDoubleSumIsExact) {
  // Full-precision doubles: every rounding of the running sum shows, so
  // the fold must add in ascending slot order, exactly as the reference.
  util::Xoshiro256 rng(13);
  for (int round = 0; round < 30; ++round) {
    const size_t size = 1 + rng.NextUint64(2000);
    std::vector<double> data(size);
    for (auto& v : data) v = rng.NextDouble(-1e12, 1e12) + rng.NextDouble();
    const util::Bitmap bitmap = RandomBitmap(size, rng);
    for (int probe = 0; probe < 6; ++probe) {
      size_t lo = rng.NextUint64(size + 1);
      size_t hi = rng.NextUint64(size + 1);
      if (hi < lo) std::swap(lo, hi);
      const auto got = util::MaskedAggregate(data.data(), bitmap, lo, hi);
      const auto want = NaiveAggregate(data, bitmap, lo, hi);
      ASSERT_EQ(got.count, want.count);
      // memcmp: bit-for-bit identity, including the sign of zero.
      EXPECT_EQ(std::memcmp(&got.sum, &want.sum, sizeof(got.sum)), 0);
      if (want.count > 0) {
        EXPECT_EQ(got.min, want.min);
        EXPECT_EQ(got.max, want.max);
      }
    }
  }
}

// ---- ConcurrentAlex Scan/Aggregate vs std::map oracle ----

using core::AggField;
using core::AggSpec;
using core::Config;
using core::NodeLayout;

template <typename Index>
void CheckAgainstOracle(const Index& index,
                        const std::map<int64_t, int64_t>& oracle, int64_t lo,
                        int64_t hi) {
  // Oracle over the closed range [lo, hi].
  uint64_t count = 0;
  uint64_t key_sum = 0;
  int64_t key_min = 0, key_max = 0;
  uint64_t pay_sum = 0;
  int64_t pay_min = 0, pay_max = 0;
  const int64_t filter_lo = -50, filter_hi = 50;
  uint64_t filtered = 0;
  std::vector<std::pair<int64_t, int64_t>> expect;
  for (auto it = oracle.lower_bound(lo);
       it != oracle.end() && !(hi < it->first); ++it) {
    expect.push_back(*it);
    if (count == 0) {
      key_min = key_max = it->first;
      pay_min = pay_max = it->second;
    } else {
      key_min = std::min(key_min, it->first);
      key_max = std::max(key_max, it->first);
      pay_min = std::min(pay_min, it->second);
      pay_max = std::max(pay_max, it->second);
    }
    ++count;
    key_sum += static_cast<uint64_t>(it->first);
    pay_sum += static_cast<uint64_t>(it->second);
    if (it->second >= filter_lo && it->second <= filter_hi) ++filtered;
  }

  // Scan: visitor order and content must match the map exactly.
  std::vector<std::pair<int64_t, int64_t>> got;
  const size_t visited = index.Scan(
      lo, hi, [&](const int64_t& k, const int64_t& p) { got.emplace_back(k, p); });
  ASSERT_EQ(visited, expect.size()) << "[" << lo << ", " << hi << "]";
  ASSERT_EQ(got, expect) << "[" << lo << ", " << hi << "]";

  // Aggregate, key field (default spec).
  const auto keys_agg = index.Aggregate(lo, hi);
  ASSERT_EQ(keys_agg.count, count);
  EXPECT_EQ(keys_agg.keys.count, count);
  EXPECT_EQ(keys_agg.keys.sum, key_sum);
  if (count > 0) {
    EXPECT_EQ(keys_agg.keys.min, key_min);
    EXPECT_EQ(keys_agg.keys.max, key_max);
  }

  // count_only skips the value fold but must agree on cardinality.
  AggSpec<int64_t> count_spec;
  count_spec.count_only = true;
  EXPECT_EQ(index.Aggregate(lo, hi, count_spec).count, count);

  // Payload field.
  AggSpec<int64_t> pay_spec;
  pay_spec.field = AggField::kPayloads;
  const auto pay_agg = index.Aggregate(lo, hi, pay_spec);
  EXPECT_EQ(pay_agg.count, count);
  EXPECT_EQ(pay_agg.payloads.sum, pay_sum);
  if (count > 0) {
    EXPECT_EQ(pay_agg.payloads.min, pay_min);
    EXPECT_EQ(pay_agg.payloads.max, pay_max);
  }

  // Payload-filtered count (predicate count fold).
  AggSpec<int64_t> filt_spec;
  filt_spec.count_only = true;
  filt_spec.has_payload_filter = true;
  filt_spec.filter_lo = filter_lo;
  filt_spec.filter_hi = filter_hi;
  EXPECT_EQ(index.Aggregate(lo, hi, filt_spec).count, filtered);

  // Filtered value aggregation (a fold over the slots that pass).
  AggSpec<int64_t> filt_val_spec = filt_spec;
  filt_val_spec.count_only = false;
  EXPECT_EQ(index.Aggregate(lo, hi, filt_val_spec).count, filtered);
}

void RunOracleForLayout(NodeLayout layout) {
  Config config;
  config.layout = layout;
  core::ConcurrentAlex<int64_t, int64_t> index(config);
  std::map<int64_t, int64_t> oracle;
  util::Xoshiro256 rng(layout == NodeLayout::kGappedArray ? 21 : 22);

  // Duplicate-heavy key space (multiples of 3 in a narrow band) so erases
  // leave gap-fill copies of real keys next to live slots — the bitmap
  // walk must hide them from every scan and fold.
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 20000; ++i) {
    keys.push_back(i * 3);
    payloads.push_back(static_cast<int64_t>(rng.NextUint64(201)) - 100);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) oracle[keys[i]] = payloads[i];

  for (int round = 0; round < 6; ++round) {
    // Mutate: inserts (between existing keys) and erases.
    for (int i = 0; i < 2000; ++i) {
      const int64_t key = static_cast<int64_t>(rng.NextUint64(70000));
      if (rng.NextUint64(3) == 0) {
        index.Erase(key);
        oracle.erase(key);
      } else {
        const int64_t payload =
            static_cast<int64_t>(rng.NextUint64(201)) - 100;
        if (index.Insert(key, payload)) oracle.emplace(key, payload);
      }
    }
    ASSERT_EQ(index.size(), oracle.size());
    for (int probe = 0; probe < 12; ++probe) {
      int64_t lo = static_cast<int64_t>(rng.NextUint64(75000)) - 2000;
      int64_t hi = lo + static_cast<int64_t>(rng.NextUint64(30000));
      CheckAgainstOracle(index, oracle, lo, hi);
    }
  }
  // Full-range and degenerate probes.
  CheckAgainstOracle(index, oracle, std::numeric_limits<int64_t>::min(),
                     std::numeric_limits<int64_t>::max());
  CheckAgainstOracle(index, oracle, 300, 300);    // single key
  CheckAgainstOracle(index, oracle, 301, 302);    // between keys
  CheckAgainstOracle(index, oracle, -900, -500);  // left of all data
  CheckAgainstOracle(index, oracle, 900000, 900100);  // right of all data
}

TEST(ConcurrentScanAggregateTest, MatchesMapOracleGappedArray) {
  RunOracleForLayout(NodeLayout::kGappedArray);
}

TEST(ConcurrentScanAggregateTest, MatchesMapOraclePackedMemoryArray) {
  RunOracleForLayout(NodeLayout::kPackedMemoryArray);
}

/// Occupancy of each 64-slot word of `leaf`: 'E' when all clear, 'D' when
/// all 64 slots are set, 's' otherwise.
template <typename Leaf>
std::string WordKinds(const Leaf& leaf) {
  const auto& s = leaf.storage();
  std::string kinds((s.capacity() + 63) / 64, 'E');
  std::vector<size_t> set(kinds.size(), 0);
  for (size_t i = s.FirstOccupied(); i < s.capacity(); i = s.NextOccupied(i)) {
    ++set[i / 64];
  }
  for (size_t w = 0; w < kinds.size(); ++w) {
    if (set[w] == 64) kinds[w] = 'D';
    else if (set[w] > 0) kinds[w] = 's';
  }
  return kinds;
}

TEST(ConcurrentScanAggregateTest, ScanCrossesEmptyAndDenseBitmapWords) {
  // A sparse run, a run of consecutive keys, then another sparse run, all
  // in one leaf: its linear model packs the consecutive keys into full
  // bitmap words and leaves whole words empty before them.
  std::vector<int64_t> keys, payloads;
  for (int64_t k = 0; k < 100; ++k) keys.push_back(-2000000 + k * 1000);
  for (int64_t k = 0; k < 300; ++k) keys.push_back(k);
  for (int64_t k = 0; k < 300; ++k) keys.push_back(1000000 + k * 1000);
  std::map<int64_t, int64_t> oracle;
  for (size_t i = 0; i < keys.size(); ++i) {
    payloads.push_back(static_cast<int64_t>(i % 201) - 100);
    oracle[keys[i]] = payloads.back();
  }
  for (const NodeLayout layout :
       {NodeLayout::kGappedArray, NodeLayout::kPackedMemoryArray}) {
    Config config;
    config.layout = layout;
    // Bulk loading is deterministic: a core::Alex loaded with the same
    // keys shows the leaf layout the ConcurrentAlex below gets.
    core::Alex<int64_t, int64_t> shape(config);
    shape.BulkLoad(keys.data(), payloads.data(), keys.size());
    std::string kinds;
    size_t leaves = 0;
    shape.ForEachLeaf([&](const auto& leaf) {
      kinds = WordKinds(leaf);
      ++leaves;
    });
    ASSERT_EQ(leaves, 1u);
    const size_t empty = kinds.find('E', kinds.find_first_not_of('E'));
    ASSERT_NE(empty, std::string::npos) << kinds;
    ASSERT_NE(kinds.find_first_not_of('E', empty), std::string::npos)
        << kinds;  // the empty word lies between occupied ones
    ASSERT_NE(kinds.find('D', empty), std::string::npos) << kinds;

    core::ConcurrentAlex<int64_t, int64_t> index(config);
    index.BulkLoad(keys.data(), payloads.data(), keys.size());
    CheckAgainstOracle(index, oracle, std::numeric_limits<int64_t>::min(),
                       std::numeric_limits<int64_t>::max());
    CheckAgainstOracle(index, oracle, -1950000, 150);   // into the dense run
    CheckAgainstOracle(index, oracle, -1500500, 1100000);
    CheckAgainstOracle(index, oracle, 37, 1000000);     // out of it

    // RangeScan that stops inside the dense run, and one that runs out.
    std::vector<std::pair<int64_t, int64_t>> out;
    ASSERT_EQ(index.RangeScan(-1000, 137, &out), 137u);
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].first, static_cast<int64_t>(i));
      EXPECT_EQ(out[i].second, oracle.at(out[i].first));
    }
    ASSERT_EQ(index.RangeScan(std::numeric_limits<int64_t>::min(),
                              keys.size() + 5, &out),
              keys.size());
    for (size_t i = 0; i < keys.size(); ++i) EXPECT_EQ(out[i].first, keys[i]);
  }
}

/// A bool visitor stops the walk after exactly k records, wherever the
/// k-th falls; one that stops on a leaf's last occupied slot returns
/// without latching the next leaf.
void RunStoppingScanForLayout(NodeLayout layout) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Config config;
  config.layout = layout;
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 20000; ++i) {
    keys.push_back(i * 5);
    payloads.push_back(i);
  }
  // Bulk loading is deterministic: a core::Alex loaded with the same keys
  // shows the leaves the ConcurrentAlex below gets.
  core::Alex<int64_t, int64_t> shape(config);
  shape.BulkLoad(keys.data(), payloads.data(), keys.size());
  std::vector<int64_t> leaf_last;  // last key of each non-empty leaf
  shape.ForEachLeaf([&](const auto& leaf) {
    const auto& s = leaf.storage();
    if (!s.empty()) leaf_last.push_back(s.key_at(s.LastOccupied()));
  });
  ASSERT_GE(leaf_last.size(), 2u);

  core::ConcurrentAlex<int64_t, int64_t> index(config);
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  // Stops on the first key, on the last key of a leaf, on the first key
  // of the next leaf, mid-leaf and on the very last key.
  for (const size_t from : {size_t{0}, size_t{777}}) {
    // keys[end - 1] is the last key of the leaf that holds keys[from].
    const size_t end = static_cast<size_t>(*std::lower_bound(
                           leaf_last.begin(), leaf_last.end(), keys[from]) /
                       5) + 1;
    for (const size_t k : {size_t{1}, end - from, end - from + 1,
                           size_t{1000}, keys.size() - from}) {
      std::vector<int64_t> got;
      const size_t visited = index.Scan(
          keys[from], kMax, [&](const int64_t& key, const int64_t& payload) {
            EXPECT_EQ(payload, key / 5);
            got.push_back(key);
            return got.size() < k;
          });
      ASSERT_EQ(visited, k) << "from " << from;
      ASSERT_EQ(got.size(), k) << "from " << from;
      for (size_t i = 0; i < k; ++i) ASSERT_EQ(got[i], keys[from + i]);
    }
  }
  // A visitor that never stops sees the whole range.
  EXPECT_EQ(index.Scan(kMin, kMax,
                       [](const int64_t&, const int64_t&) { return true; }),
            keys.size());

  // Stop on the first leaf's last key while this thread holds the next
  // leaf as a writer: a walk that went on would wait for that latch.
  const size_t first_leaf = static_cast<size_t>(leaf_last[0] / 5) + 1;
  auto latch = index.LatchLeafForTest(leaf_last[0] + 5);
  auto scan = std::async(std::launch::async, [&] {
    size_t n = 0;
    return index.Scan(kMin, kMax, [&](const int64_t&, const int64_t&) {
      return ++n < first_leaf;
    });
  });
  const bool finished =
      scan.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  latch.unlock();
  EXPECT_TRUE(finished) << "the scan latched the leaf after its stop";
  EXPECT_EQ(scan.get(), first_leaf);
}

TEST(ConcurrentScanAggregateTest, BoolVisitorStopsAfterKGappedArray) {
  RunStoppingScanForLayout(NodeLayout::kGappedArray);
}

TEST(ConcurrentScanAggregateTest, BoolVisitorStopsAfterKPackedMemoryArray) {
  RunStoppingScanForLayout(NodeLayout::kPackedMemoryArray);
}

TEST(ConcurrentScanAggregateTest, EmptyIndexAndInvertedRange) {
  core::ConcurrentAlex<int64_t, int64_t> index;
  size_t visits = 0;
  EXPECT_EQ(index.Scan(0, 1000, [&](const int64_t&, const int64_t&) {
    ++visits;
  }),
            0u);
  EXPECT_EQ(visits, 0u);
  EXPECT_EQ(index.Aggregate(0, 1000).count, 0u);
  index.Insert(5, 50);
  // hi < lo: no records, no visits.
  EXPECT_EQ(index.Scan(10, 0, [&](const int64_t&, const int64_t&) {
    ++visits;
  }),
            0u);
  EXPECT_EQ(index.Aggregate(10, 0).count, 0u);
  // Exact single-key hit.
  EXPECT_EQ(index.Aggregate(5, 5).count, 1u);
}

TEST(ConcurrentScanAggregateTest, DoubleKeysAggregateExactly) {
  core::ConcurrentAlex<double, int64_t> index;
  std::vector<double> keys;
  std::vector<int64_t> payloads;
  for (int64_t i = 0; i < 5000; ++i) {
    keys.push_back(static_cast<double>(i) * 0.5);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  const auto agg = index.Aggregate(100.0, 199.5);
  EXPECT_EQ(agg.count, 200u);
  EXPECT_EQ(agg.keys.min, 100.0);
  EXPECT_EQ(agg.keys.max, 199.5);
  // Sum of 100.0, 100.5, ..., 199.5 — exactly representable halves.
  EXPECT_EQ(agg.keys.sum, 29950.0);
}

TEST(ConcurrentScanAggregateTest, RangeScanIsUnboundedAbove) {
  // A RangeScan has no upper key: it reaches +infinity, the largest
  // double, in the tree and through the shard layer alike.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  core::ConcurrentAlex<double, int64_t> tree;
  shard::ShardedAlex<double, int64_t> sharded;
  for (int64_t i = 0; i < 1000; ++i) {
    tree.Insert(static_cast<double>(i), i);
    sharded.Insert(static_cast<double>(i), i);
  }
  tree.Insert(kInf, -1);
  sharded.Insert(kInf, -1);
  std::vector<std::pair<double, int64_t>> out;
  ASSERT_EQ(tree.RangeScan(990.0, 100, &out), 11u);
  EXPECT_EQ(out.back(), std::make_pair(kInf, int64_t{-1}));
  ASSERT_EQ(sharded.RangeScan(990.0, 100, &out), 11u);
  EXPECT_EQ(out.back(), std::make_pair(kInf, int64_t{-1}));
}

// ---- ShardedAlex Scan/Aggregate: ordered cross-shard streaming ----

using Sharded = shard::ShardedAlex<int64_t, int64_t>;

shard::ShardedOptions ChurnOptions() {
  shard::ShardedOptions options;
  options.num_shards = 6;
  options.max_shard_keys = 4096;  // force splits during the test
  return options;
}

TEST(ShardedScanAggregateTest, MatchesMapOracle) {
  const std::string prefix = test::TempPrefix("scan_oracle");
  test::RemovePrefixFiles(prefix);
  shard::ShardedOptions options = ChurnOptions();
  options.tier_prefix = prefix;
  Sharded index(options);
  std::map<int64_t, int64_t> oracle;
  util::Xoshiro256 rng(31);
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 60000; ++i) {
    keys.push_back(i * 2);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) oracle[keys[i]] = payloads[i];
  // Insert past max_shard_keys so shard split transactions run, then
  // erase a band to exercise gap-fill remnants across shard boundaries.
  for (int64_t i = 0; i < 30000; ++i) {
    const int64_t key = 120001 + i * 2;
    ASSERT_TRUE(index.Insert(key, -i));
    oracle[key] = -i;
  }
  for (int64_t i = 5000; i < 15000; ++i) {
    index.Erase(i * 2);
    oracle.erase(i * 2);
  }
  EXPECT_TRUE(index.CheckInvariants());
  // Every other shard goes cold, so scans stop and hand off in both
  // tiers.
  for (size_t s = 0; s < index.num_shards(); s += 2) {
    ASSERT_EQ(index.DemoteShard(s), core::SnapshotStatus::kOk) << s;
  }

  for (int probe = 0; probe < 20; ++probe) {
    int64_t lo = static_cast<int64_t>(rng.NextUint64(200000)) - 5000;
    int64_t hi = lo + static_cast<int64_t>(rng.NextUint64(90000));
    CheckAgainstOracle(index, oracle, lo, hi);
  }
  // A short range straddling each boundary the churn left behind: the
  // hand-off from one shard's stream to the next is the contract under
  // test, including boundaries inside the erased band.
  const std::vector<int64_t> bounds = index.ShardBoundaries();
  ASSERT_GT(bounds.size(), 1u);
  for (const int64_t b : bounds) {
    CheckAgainstOracle(index, oracle, b - 64, b + 64);
    // RangeScan from b - 64 stops before the shard's last key, on it,
    // one key into the next shard, and far beyond.
    const auto start = oracle.lower_bound(b - 64);
    const int64_t shard_end =
        *std::upper_bound(bounds.begin(), bounds.end(), b - 64);
    const size_t left = static_cast<size_t>(
        std::distance(start, oracle.lower_bound(shard_end)));
    for (const size_t m : {size_t{0}, size_t{1}, left, left + 1,
                           size_t{10000}}) {
      std::vector<std::pair<int64_t, int64_t>> want;
      for (auto it = start; it != oracle.end() && want.size() < m; ++it) {
        want.push_back(*it);
      }
      std::vector<std::pair<int64_t, int64_t>> got = {{-1, -1}};
      ASSERT_EQ(index.RangeScan(b - 64, m, &got), want.size())
          << "b=" << b << " m=" << m;
      ASSERT_EQ(got, want) << "b=" << b << " m=" << m;
    }
    // A bool visitor that stops on the shard's last key leaves the next
    // shard unvisited.
    if (left > 0) {
      size_t visits = 0;
      EXPECT_EQ(index.Scan(b - 64, b + 64,
                           [&](const int64_t&, const int64_t&) {
                             return ++visits < left;
                           }),
                left);
      EXPECT_EQ(visits, left) << "b=" << b;
    }
  }
  // Full range crosses every shard.
  CheckAgainstOracle(index, oracle, std::numeric_limits<int64_t>::min(),
                     std::numeric_limits<int64_t>::max());
  test::RemovePrefixFiles(prefix);
}

// Threads in this process, or 0 where /proc/self/task is unreadable.
size_t ProcessThreadCount() {
  std::error_code ec;
  size_t n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++n;
  }
  return ec ? 0 : n;
}

TEST(ShardedScanAggregateTest, CrossShardVisitorRunsOnCallingThread) {
  Sharded index(ChurnOptions());
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 50000; ++i) {
    keys.push_back(i * 3);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  ASSERT_GT(index.num_shards(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  const size_t threads_before = ProcessThreadCount();
  size_t threads_during = 0;
  size_t off_thread = 0;
  const size_t visited =
      index.Scan(std::numeric_limits<int64_t>::min(),
                 std::numeric_limits<int64_t>::max(),
                 [&](const int64_t&, const int64_t&) {
                   if (std::this_thread::get_id() != caller) ++off_thread;
                   // Sampled at the first record, while a helper thread
                   // started by the call would still be streaming.
                   if (threads_during == 0) {
                     threads_during = ProcessThreadCount();
                   }
                 });
  EXPECT_EQ(visited, keys.size());
  EXPECT_EQ(off_thread, 0u);
  EXPECT_EQ(threads_during, threads_before) << "Scan spawned threads";
}

// ---- Torture: continuous scans during leaf splits and topology txns ----
// Built to run under TSan (CI filters on the test name). Scanners assert
// the read-committed contract — strictly sorted output, keys within
// bounds, payloads consistent with what the writer stored — while writers
// force leaf splits and shard split/merge transactions.

TEST(ShardedScanAggregateTest, ContinuousScansDuringTopologyChurn) {
  shard::ShardedOptions options;
  options.num_shards = 4;
  options.max_shard_keys = 8192;    // splits fire during the run
  options.merge_threshold_keys = 0;
  Sharded index(options);
  // Stable preload: keys [0, 40000) * 4, payload = key. Writers only add
  // keys >= kWriterBase, so the preloaded band must always be visible in
  // full.
  constexpr int64_t kPreload = 40000;
  constexpr int64_t kWriterBase = 1000000;
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < kPreload; ++i) {
    keys.push_back(i * 4);
    payloads.push_back(i * 4);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::thread writer([&] {
    for (int64_t i = 0; i < 60000; ++i) {
      if (!index.Insert(kWriterBase + i, kWriterBase + i)) {
        errors.fetch_add(1);
      }
    }
    stop.store(true);
  });
  std::vector<std::thread> scanners;
  for (int t = 0; t < 2; ++t) {
    scanners.emplace_back([&, t] {
      util::Xoshiro256 rng(100 + t);
      while (!stop.load() && errors.load() == 0) {
        const int64_t lo = static_cast<int64_t>(rng.NextUint64(kPreload * 4));
        const int64_t hi = lo + 4000;
        int64_t prev = std::numeric_limits<int64_t>::min();
        size_t n = 0;
        index.Scan(lo, hi, [&](const int64_t& k, const int64_t& p) {
          if (k < lo || hi < k || k <= prev || p != k) errors.fetch_add(1);
          prev = k;
          ++n;
        });
        // The preloaded band is immutable: the scan must see exactly the
        // preloaded multiples of 4 in [lo, hi].
        const int64_t max_key = (kPreload - 1) * 4;
        const int64_t first = (lo + 3) / 4 * 4;
        const int64_t last = std::min(hi, max_key) / 4 * 4;
        const size_t want =
            last < first ? 0 : static_cast<size_t>((last - first) / 4 + 1);
        if (n != want) errors.fetch_add(1);
        const auto agg = index.Aggregate(lo, hi);
        if (agg.count != want) errors.fetch_add(1);
        // A RangeScan from lo: sorted, no duplicates, the preloaded
        // multiples of 4 first, then only writer keys.
        const size_t m = 1 + static_cast<size_t>(rng.NextUint64(2000));
        const size_t band =
            first > max_key ? 0
                            : static_cast<size_t>((max_key - first) / 4 + 1);
        std::vector<std::pair<int64_t, int64_t>> out;
        index.RangeScan(lo, m, &out);
        if (out.size() > m || out.size() < std::min(m, band)) {
          errors.fetch_add(1);
        }
        for (size_t i = 0; i < out.size(); ++i) {
          const int64_t k = out[i].first;
          if (out[i].second != k || (i > 0 && k <= out[i - 1].first) ||
              (i < band ? k != first + 4 * static_cast<int64_t>(i)
                        : k < kWriterBase)) {
            errors.fetch_add(1);
          }
        }
      }
    });
  }
  writer.join();
  for (auto& t : scanners) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_TRUE(index.CheckInvariants());
  // Everything the writer added is aggregated correctly afterwards.
  const auto after =
      index.Aggregate(kWriterBase, std::numeric_limits<int64_t>::max());
  EXPECT_EQ(after.count, 60000u);
}

}  // namespace
}  // namespace alex
