#include "util/search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/random.h"

namespace alex::util {
namespace {

// Exponential search must agree with std::lower_bound for every predicted
// starting position — accuracy of the prediction affects speed, never the
// answer.
TEST(ExponentialSearchTest, MatchesStdLowerBoundForAllPredictions) {
  const std::vector<int64_t> data = {1, 3, 3, 7, 9, 12, 12, 12, 20, 31};
  for (int64_t key = 0; key <= 32; ++key) {
    const size_t expected = static_cast<size_t>(
        std::lower_bound(data.begin(), data.end(), key) - data.begin());
    for (size_t pred = 0; pred < data.size() + 3; ++pred) {
      EXPECT_EQ(ExponentialSearchLowerBound(data.data(), data.size(), key,
                                            pred),
                expected)
          << "key=" << key << " pred=" << pred;
    }
  }
}

TEST(ExponentialSearchTest, UpperBoundMatchesStd) {
  const std::vector<int64_t> data = {1, 3, 3, 7, 9, 12, 12, 12, 20, 31};
  for (int64_t key = 0; key <= 32; ++key) {
    const size_t expected = static_cast<size_t>(
        std::upper_bound(data.begin(), data.end(), key) - data.begin());
    for (size_t pred = 0; pred < data.size() + 3; ++pred) {
      EXPECT_EQ(ExponentialSearchUpperBound(data.data(), data.size(), key,
                                            pred),
                expected)
          << "key=" << key << " pred=" << pred;
    }
  }
}

TEST(ExponentialSearchTest, EmptyArray) {
  const int64_t* empty = nullptr;
  EXPECT_EQ(ExponentialSearchLowerBound(empty, 0, int64_t{5}, 0), 0u);
  EXPECT_EQ(ExponentialSearchUpperBound(empty, 0, int64_t{5}, 0), 0u);
}

TEST(ExponentialSearchTest, SingleElement) {
  const std::vector<double> data = {4.5};
  EXPECT_EQ(ExponentialSearchLowerBound(data.data(), 1, 4.0, 0), 0u);
  EXPECT_EQ(ExponentialSearchLowerBound(data.data(), 1, 4.5, 0), 0u);
  EXPECT_EQ(ExponentialSearchLowerBound(data.data(), 1, 5.0, 0), 1u);
}

TEST(ExponentialSearchTest, RandomizedAgainstStd) {
  Xoshiro256 rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 1 + rng.NextUint64(500);
    std::vector<uint64_t> data(n);
    for (auto& v : data) v = rng.NextUint64(1000);
    std::sort(data.begin(), data.end());
    for (int probe = 0; probe < 50; ++probe) {
      const uint64_t key = rng.NextUint64(1100);
      const size_t pred = rng.NextUint64(n);
      const size_t expected = static_cast<size_t>(
          std::lower_bound(data.begin(), data.end(), key) - data.begin());
      EXPECT_EQ(
          ExponentialSearchLowerBound(data.data(), n, key, pred), expected);
      const size_t expected_ub = static_cast<size_t>(
          std::upper_bound(data.begin(), data.end(), key) - data.begin());
      EXPECT_EQ(
          ExponentialSearchUpperBound(data.data(), n, key, pred),
          expected_ub);
    }
  }
}

TEST(BinarySearchTest, BoundedWindowMatchesStdWithinWindow) {
  const std::vector<int64_t> data = {1, 3, 5, 7, 9, 11, 13};
  // Window covering the answer.
  EXPECT_EQ(BinarySearchLowerBound(data.data(), 1, 6, int64_t{7}), 3u);
  // Whole array.
  EXPECT_EQ(BinarySearchLowerBound(data.data(), 0, data.size(), int64_t{0}),
            0u);
  EXPECT_EQ(BinarySearchLowerBound(data.data(), 0, data.size(), int64_t{14}),
            data.size());
}

TEST(BinarySearchTest, UpperBoundVariant) {
  const std::vector<int64_t> data = {2, 2, 2, 5, 5, 8};
  EXPECT_EQ(BinarySearchUpperBound(data.data(), 0, data.size(), int64_t{2}),
            3u);
  EXPECT_EQ(BinarySearchUpperBound(data.data(), 0, data.size(), int64_t{5}),
            5u);
  EXPECT_EQ(BinarySearchUpperBound(data.data(), 0, data.size(), int64_t{1}),
            0u);
}

TEST(BinarySearchTest, EmptyWindowReturnsHi) {
  const std::vector<int64_t> data = {1, 2, 3};
  EXPECT_EQ(BinarySearchLowerBound(data.data(), 2, 2, int64_t{0}), 2u);
}

// Differential fuzz against std::lower_bound / std::upper_bound over
// duplicate-heavy arrays (tiny value domain, so nearly every key repeats)
// with adversarial predicted positions: 0, the last slot, the exact
// answer, and far misses on both sides. Exponential search from the
// predicted slot is the only in-leaf search (core/data_node.h), so this
// fuzz guards every leaf lookup.
TEST(ExponentialSearchTest, DuplicateHeavyAdversarialFuzz) {
  Xoshiro256 rng(991);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t n = 1 + rng.NextUint64(400);
    std::vector<int64_t> data(n);
    for (auto& v : data) v = static_cast<int64_t>(rng.NextUint64(8));
    std::sort(data.begin(), data.end());
    for (int64_t key = -1; key <= 8; ++key) {
      const size_t expected_lb = static_cast<size_t>(
          std::lower_bound(data.begin(), data.end(), key) - data.begin());
      const size_t expected_ub = static_cast<size_t>(
          std::upper_bound(data.begin(), data.end(), key) - data.begin());
      const size_t preds[] = {0,
                              n - 1,
                              expected_lb,
                              expected_lb > 0 ? expected_lb - 1 : n - 1,
                              std::min(n - 1, expected_lb + n / 2),
                              rng.NextUint64(n)};
      for (const size_t pred : preds) {
        EXPECT_EQ(ExponentialSearchLowerBound(data.data(), n, key, pred),
                  expected_lb)
            << "n=" << n << " key=" << key << " pred=" << pred;
        EXPECT_EQ(ExponentialSearchUpperBound(data.data(), n, key, pred),
                  expected_ub)
            << "n=" << n << " key=" << key << " pred=" << pred;
      }
      // Binary search over every window that brackets the answer must
      // agree too (windows that exclude the answer clamp to an edge by
      // contract, so only bracketing windows are oracle-comparable).
      const size_t lo = rng.NextUint64(expected_lb + 1);
      const size_t hi =
          std::min(n, expected_lb + rng.NextUint64(n - expected_lb) + 1);
      EXPECT_EQ(BinarySearchLowerBound(data.data(), lo, hi, key),
                expected_lb)
          << "n=" << n << " key=" << key << " lo=" << lo << " hi=" << hi;
      const size_t ub_lo = rng.NextUint64(expected_ub + 1);
      const size_t ub_hi =
          std::min(n, expected_ub + rng.NextUint64(n - expected_ub) + 1);
      EXPECT_EQ(BinarySearchUpperBound(data.data(), ub_lo, ub_hi, key),
                expected_ub)
          << "n=" << n << " key=" << key;
    }
  }
}

// The property ALEX relies on (paper §5.3.2): exponential search touches
// O(log error) elements. We can't measure comparisons directly here, but we
// verify correctness at extreme mispredictions, which is the stressed path.
TEST(ExponentialSearchTest, ExtremeMispredictionStillCorrect) {
  std::vector<uint64_t> data(100000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = i * 2;
  // Predict position 0 when the key is at the far end and vice versa.
  EXPECT_EQ(ExponentialSearchLowerBound(data.data(), data.size(),
                                        uint64_t{199998}, 0),
            99999u);
  EXPECT_EQ(ExponentialSearchLowerBound(data.data(), data.size(),
                                        uint64_t{0}, data.size() - 1),
            0u);
}

}  // namespace
}  // namespace alex::util
