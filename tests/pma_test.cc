#include "containers/pma.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "models/linear_model.h"
#include "util/random.h"

namespace alex::container {
namespace {

using model::LinearModel;
using model::TrainCdfModel;
using PmaInt = Pma<int64_t, int>;
using Status = PmaInt::InsertStatus;

/// Every (key, payload) pair of `storage` in slot order.
template <typename Storage, typename K, typename P>
void ExtractAll(const Storage& storage, std::vector<K>* keys,
                std::vector<P>* payloads) {
  keys->clear();
  payloads->clear();
  storage.bitmap().ForEachSet(0, storage.capacity(), [&](size_t i) {
    keys->push_back(storage.key_at(i));
    payloads->push_back(storage.payload_at(i));
    return true;
  });
}

TEST(PmaTest, CapacityIsAlwaysPowerOfTwo) {
  EXPECT_EQ(PmaInt::RoundCapacity(1), 8u);
  EXPECT_EQ(PmaInt::RoundCapacity(8), 8u);
  EXPECT_EQ(PmaInt::RoundCapacity(9), 16u);
  EXPECT_EQ(PmaInt::RoundCapacity(1000), 1024u);
  PmaInt pma;
  pma.Reset(100);
  EXPECT_EQ(pma.capacity(), 128u);
}

TEST(PmaTest, SegmentsArePowerOfTwoAndCoverArray) {
  PmaInt pma;
  pma.Reset(1024);
  EXPECT_EQ(pma.segment_size() * pma.num_segments(), pma.capacity());
  EXPECT_EQ(pma.num_segments() & (pma.num_segments() - 1), 0u);
}

TEST(PmaTest, DensityBoundsTightenTowardLeaves) {
  PmaInt pma;
  pma.Reset(4096);
  // Level 0 = leaf segments (tightest upper bound is *largest* allowed
  // density); root allows the least density.
  double prev = pma.MaxDensityAtLevel(0);
  EXPECT_DOUBLE_EQ(prev, pma.bounds().leaf_max);
  for (size_t level = 1; level <= 8; ++level) {
    const double d = pma.MaxDensityAtLevel(level);
    EXPECT_LE(d, prev) << "level " << level;
    prev = d;
  }
}

TEST(PmaTest, InsertLookupRoundTrip) {
  PmaInt pma;
  pma.Reset(64);
  for (int64_t k = 0; k < 30; ++k) {
    ASSERT_EQ(pma.Insert(k * 7, static_cast<int>(k), 0), Status::kOk) << k;
  }
  EXPECT_EQ(pma.num_keys(), 30u);
  EXPECT_TRUE(pma.CheckInvariants());
  for (int64_t k = 0; k < 30; ++k) {
    const size_t slot = pma.FindSlot(k * 7, 0);
    ASSERT_LT(slot, pma.capacity());
    EXPECT_EQ(pma.payload_at(slot), static_cast<int>(k));
  }
}

TEST(PmaTest, InsertRejectsDuplicates) {
  PmaInt pma;
  pma.Reset(16);
  EXPECT_EQ(pma.Insert(5, 1, 0), Status::kOk);
  EXPECT_EQ(pma.Insert(5, 2, 0), Status::kDuplicate);
  EXPECT_EQ(pma.num_keys(), 1u);
}

TEST(PmaTest, ReportsFullAtRootDensityBound) {
  PmaInt pma;
  pma.Reset(16);
  const size_t max_keys = static_cast<size_t>(
      pma.bounds().root_max * static_cast<double>(pma.capacity()));
  size_t inserted = 0;
  int64_t k = 0;
  while (true) {
    const auto status = pma.Insert(k++, 0, 0);
    if (status == Status::kFull) break;
    ASSERT_EQ(status, Status::kOk);
    ++inserted;
    ASSERT_LE(inserted, pma.capacity());
  }
  EXPECT_EQ(inserted, max_keys);
}

TEST(PmaTest, SequentialInsertsStayBalanced) {
  // Sequential (right-most) inserts are the adversarial pattern of
  // Fig. 5c. The PMA must keep absorbing them via rebalances until the
  // root bound, never failing early.
  PmaInt pma;
  pma.Reset(256);
  size_t inserted = 0;
  for (int64_t k = 0;; ++k) {
    const auto status = pma.Insert(k, 0, pma.capacity() - 1);
    if (status == Status::kFull) break;
    ASSERT_EQ(status, Status::kOk);
    ++inserted;
  }
  const size_t max_keys = static_cast<size_t>(
      pma.bounds().root_max * static_cast<double>(pma.capacity()));
  EXPECT_EQ(inserted, max_keys);
  EXPECT_TRUE(pma.CheckInvariants());
}

TEST(PmaTest, ReverseSequentialInserts) {
  PmaInt pma;
  pma.Reset(256);
  for (int64_t k = 1000; k > 900; --k) {
    ASSERT_EQ(pma.Insert(k, 0, 0), Status::kOk) << k;
  }
  EXPECT_TRUE(pma.CheckInvariants());
  std::vector<int64_t> keys;
  std::vector<int> payloads;
  ExtractAll(pma, &keys, &payloads);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.size(), 100u);
}

TEST(PmaTest, ModelBasedBuildPlacesAtPredictedPositions) {
  std::vector<int64_t> keys(100);
  std::vector<int> payloads(100);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<int64_t>(i) * 5;
    payloads[i] = static_cast<int>(i);
  }
  PmaInt pma;
  const size_t capacity = 256;
  const LinearModel model = TrainCdfModel(keys.data(), keys.size(), capacity);
  pma.BuildFromSorted(keys.data(), payloads.data(), keys.size(), capacity,
                      model);
  EXPECT_EQ(pma.capacity(), 256u);
  EXPECT_TRUE(pma.CheckInvariants());
  size_t direct_hits = 0;
  for (const auto key : keys) {
    const size_t pred =
        model.Predict(static_cast<double>(key), pma.capacity());
    if (pma.IsOccupied(pred) && pma.key_at(pred) == key) ++direct_hits;
  }
  // Model-based placement (the ALEX twist): most keys land exactly where
  // predicted on near-linear data.
  EXPECT_GT(direct_hits, keys.size() * 8 / 10);
}

TEST(PmaTest, UniformBuildSpreadsKeysAcrossSegments) {
  std::vector<int64_t> keys(100);
  std::vector<int> payloads(100);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<int64_t>(i);
  }
  PmaInt pma;
  pma.BuildFromSortedUniform(keys.data(), payloads.data(), keys.size(), 256);
  EXPECT_TRUE(pma.CheckInvariants());
  // Every segment should hold roughly n / num_segments keys.
  const size_t per_segment = 100 / pma.num_segments();
  for (size_t s = 0; s < pma.num_segments(); ++s) {
    const size_t lo = s * pma.segment_size();
    const size_t hi = lo + pma.segment_size();
    size_t count = 0;
    for (size_t i = lo; i < hi; ++i) {
      if (pma.IsOccupied(i)) ++count;
    }
    EXPECT_NEAR(static_cast<double>(count), static_cast<double>(per_segment),
                static_cast<double>(per_segment) + 1.0)
        << "segment " << s;
  }
}

TEST(PmaTest, EraseClearsSlot) {
  PmaInt pma;
  pma.Reset(32);
  ASSERT_EQ(pma.Insert(10, 1, 0), Status::kOk);
  ASSERT_EQ(pma.Insert(20, 2, 0), Status::kOk);
  EXPECT_TRUE(pma.Erase(10, 0));
  EXPECT_EQ(pma.num_keys(), 1u);
  EXPECT_FALSE(pma.Erase(10, 0));
  EXPECT_TRUE(pma.CheckInvariants());
}

TEST(PmaTest, RandomizedMirrorOfStdMap) {
  util::Xoshiro256 rng(123);
  PmaInt pma;
  pma.Reset(4096);
  std::map<int64_t, int> reference;
  const size_t budget = static_cast<size_t>(
      pma.bounds().root_max * static_cast<double>(pma.capacity()));
  for (int iter = 0; iter < 3000; ++iter) {
    const int64_t key = static_cast<int64_t>(rng.NextUint64(5000));
    const size_t pred = rng.NextUint64(pma.capacity());
    if (rng.NextUint64(3) < 2 && reference.size() < budget - 1) {
      const auto status = pma.Insert(key, iter, pred);
      const bool expected = reference.emplace(key, iter).second;
      ASSERT_EQ(status == Status::kOk, expected)
          << "iter " << iter << " key " << key << " status "
          << static_cast<int>(status);
    } else {
      const bool erased = pma.Erase(key, pred);
      ASSERT_EQ(erased, reference.erase(key) > 0);
    }
    if (iter % 200 == 0) {
      ASSERT_TRUE(pma.CheckInvariants()) << iter;
    }
  }
  ASSERT_EQ(pma.num_keys(), reference.size());
  std::vector<int64_t> keys;
  std::vector<int> payloads;
  ExtractAll(pma, &keys, &payloads);
  size_t i = 0;
  for (const auto& [k, v] : reference) {
    ASSERT_EQ(keys[i], k);
    ++i;
  }
}

TEST(PmaTest, WindowedRebalancesKeepInvariantsUnderInsertHeavyChurn) {
  // Clustered inserts fill segments and force window rebalances, which
  // re-place only their window; erases of the current maximum leave
  // trailing gaps holding remnants above the last key. Invariants must
  // hold after every insert, so after every rebalance, and the contents
  // must mirror a std::map throughout.
  util::Xoshiro256 rng(2024);
  PmaInt pma;
  pma.Reset(2048);
  std::map<int64_t, int> reference;
  const size_t budget = static_cast<size_t>(
      pma.bounds().root_max * static_cast<double>(pma.capacity()));
  const int64_t key_range = 20000;
  size_t rebalances = 0;
  for (int iter = 0; iter < 6000; ++iter) {
    const uint64_t op = rng.NextUint64(10);
    if (op < 8 && reference.size() + 1 < budget) {
      // Keys cluster in a few hot ranges; the prediction is the slot a
      // uniform model would give.
      const int64_t center =
          static_cast<int64_t>(rng.NextUint64(4)) * key_range / 4;
      const int64_t key =
          center + static_cast<int64_t>(rng.NextUint64(key_range / 16));
      const size_t pred = static_cast<size_t>(key) * pma.capacity() /
                          static_cast<size_t>(key_range);
      const uint64_t shifts_before = pma.num_shifts();
      const auto status = pma.Insert(key, iter, pred);
      const bool expected = reference.emplace(key, iter).second;
      ASSERT_EQ(status == Status::kOk, expected) << "iter " << iter;
      if (pma.num_shifts() - shifts_before >= pma.segment_size()) {
        ++rebalances;
      }
      ASSERT_TRUE(pma.CheckInvariants()) << "iter " << iter;
    } else if (!reference.empty()) {
      // Erase the maximum half of the time, a random key otherwise.
      auto it = reference.end();
      --it;
      if (op == 9) {
        it = reference.lower_bound(
            static_cast<int64_t>(rng.NextUint64(key_range)));
        if (it == reference.end()) continue;
      }
      ASSERT_TRUE(pma.Erase(it->first, 0)) << "iter " << iter;
      reference.erase(it);
      ASSERT_TRUE(pma.CheckInvariants()) << "iter " << iter;
    }
  }
  EXPECT_GT(rebalances, 10u);
  ASSERT_EQ(pma.num_keys(), reference.size());
  for (const auto& [k, v] : reference) {
    const size_t slot = pma.FindSlot(k, 0);
    ASSERT_LT(slot, pma.capacity()) << k;
    ASSERT_EQ(pma.payload_at(slot), v) << k;
  }
  std::vector<int64_t> keys;
  std::vector<int> payloads;
  ExtractAll(pma, &keys, &payloads);
  ASSERT_EQ(keys.size(), reference.size());
  size_t i = 0;
  for (const auto& [k, v] : reference) {
    ASSERT_EQ(keys[i], k);
    ASSERT_EQ(payloads[i], v);
    ++i;
  }
}

TEST(PmaTest, ShiftsPerInsertBoundedUnderRandomInserts) {
  // Sanity check on the O(log^2 n) claim: average shifts per insert for
  // random inserts should be far below segment-size * height.
  util::Xoshiro256 rng(7);
  PmaInt pma;
  pma.Reset(8192);
  size_t inserted = 0;
  while (pma.density() < 0.65) {
    const int64_t key = static_cast<int64_t>(rng() % 1000000000ULL);
    if (pma.Insert(key, 0, 0) == Status::kOk) ++inserted;
  }
  const double shifts_per_insert =
      static_cast<double>(pma.num_shifts()) / static_cast<double>(inserted);
  EXPECT_LT(shifts_per_insert, 64.0);
}

TEST(PmaTest, CustomDensityBounds) {
  PmaDensityBounds bounds;
  bounds.root_max = 0.5;
  bounds.leaf_max = 1.0;
  Pma<int64_t, int> pma(bounds);
  pma.Reset(64);
  size_t inserted = 0;
  for (int64_t k = 0;; ++k) {
    if (pma.Insert(k, 0, 0) != Status::kOk) break;
    ++inserted;
  }
  EXPECT_EQ(inserted, 32u);  // 0.5 * 64
}

}  // namespace
}  // namespace alex::container
