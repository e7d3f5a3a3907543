#include "containers/gapped_array.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "models/linear_model.h"
#include "util/random.h"

namespace alex::container {
namespace {

using model::LinearModel;
using model::TrainCdfModel;

std::vector<int64_t> MakeSortedKeys(size_t n, int64_t stride = 3) {
  std::vector<int64_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = static_cast<int64_t>(i) * stride;
  return keys;
}

std::vector<int> MakePayloads(size_t n) {
  std::vector<int> p(n);
  for (size_t i = 0; i < n; ++i) p[i] = static_cast<int>(i) + 1000;
  return p;
}

TEST(GappedArrayTest, BuildFromSortedPlacesAllKeys) {
  const auto keys = MakeSortedKeys(100);
  const auto payloads = MakePayloads(100);
  const size_t capacity = 200;
  const LinearModel model = TrainCdfModel(keys.data(), keys.size(), capacity);
  GappedArray<int64_t, int> ga;
  ga.BuildFromSorted(keys.data(), payloads.data(), keys.size(), capacity,
                     model);
  EXPECT_EQ(ga.num_keys(), 100u);
  EXPECT_EQ(ga.capacity(), 200u);
  EXPECT_TRUE(ga.CheckInvariants());
  for (size_t i = 0; i < keys.size(); ++i) {
    const size_t pred = model.Predict(static_cast<double>(keys[i]), capacity);
    const size_t slot = ga.FindSlot(keys[i], pred);
    ASSERT_LT(slot, ga.capacity()) << "key " << keys[i];
    EXPECT_EQ(ga.key_at(slot), keys[i]);
    EXPECT_EQ(ga.payload_at(slot), payloads[i]);
  }
}

TEST(GappedArrayTest, ModelBasedPlacementGivesDirectHitsOnLinearData) {
  // Perfectly linear keys with capacity ≥ the Theorem-1 bound: every key
  // lands exactly where the model predicts, so lookups are direct hits.
  const auto keys = MakeSortedKeys(64, 4);
  const auto payloads = MakePayloads(64);
  const size_t capacity = 128;
  const LinearModel model = TrainCdfModel(keys.data(), keys.size(), capacity);
  GappedArray<int64_t, int> ga;
  ga.BuildFromSorted(keys.data(), payloads.data(), keys.size(), capacity,
                     model);
  size_t direct_hits = 0;
  for (const auto key : keys) {
    const size_t pred = model.Predict(static_cast<double>(key), capacity);
    if (ga.IsOccupied(pred) && ga.key_at(pred) == key) ++direct_hits;
  }
  EXPECT_GT(direct_hits, keys.size() * 9 / 10);
}

TEST(GappedArrayTest, GapsHoldClosestRightKey) {
  const auto keys = MakeSortedKeys(10);
  const auto payloads = MakePayloads(10);
  GappedArray<int64_t, int> ga;
  const LinearModel model = TrainCdfModel(keys.data(), keys.size(), 40);
  ga.BuildFromSorted(keys.data(), payloads.data(), keys.size(), 40, model);
  for (size_t i = 0; i < ga.capacity(); ++i) {
    if (!ga.IsOccupied(i)) {
      const size_t right = ga.bitmap().NextSet(i);
      if (right < ga.capacity()) {
        EXPECT_EQ(ga.key_at(i), ga.key_at(right)) << "gap at " << i;
      } else {
        // Trailing gap: holds the last key.
        EXPECT_EQ(ga.key_at(i), keys.back());
      }
    }
  }
}

TEST(GappedArrayTest, InsertIntoGapIsDirectWhenPredictedCorrect) {
  GappedArray<int64_t, int> ga;
  ga.Reset(16);
  EXPECT_TRUE(ga.Insert(50, 1, 8));
  EXPECT_EQ(ga.num_keys(), 1u);
  EXPECT_TRUE(ga.IsOccupied(8));
  EXPECT_EQ(ga.key_at(8), 50);
  EXPECT_TRUE(ga.CheckInvariants());
}

TEST(GappedArrayTest, InsertRejectsDuplicates) {
  GappedArray<int64_t, int> ga;
  ga.Reset(16);
  EXPECT_TRUE(ga.Insert(5, 1, 0));
  EXPECT_FALSE(ga.Insert(5, 2, 0));
  EXPECT_EQ(ga.num_keys(), 1u);
}

TEST(GappedArrayTest, InsertMaintainsSortedOrder) {
  GappedArray<int64_t, int> ga;
  ga.Reset(32);
  const std::vector<int64_t> keys = {10, 5, 20, 15, 1, 30, 25};
  for (const auto k : keys) {
    ASSERT_TRUE(ga.Insert(k, static_cast<int>(k), 0));
    ASSERT_TRUE(ga.CheckInvariants()) << "after inserting " << k;
  }
  std::vector<int64_t> extracted;
  std::vector<int> payloads;
  ga.ExtractAll(&extracted, &payloads);
  std::vector<int64_t> sorted_keys = keys;
  std::sort(sorted_keys.begin(), sorted_keys.end());
  EXPECT_EQ(extracted, sorted_keys);
}

TEST(GappedArrayTest, InsertIntoPackedRegionShiftsTowardNearestGap) {
  // Build a fully-packed region on the left and verify inserts still work
  // (this is the worst case of §3.3.1, Fig. 3).
  GappedArray<int64_t, int> ga;
  ga.Reset(8);
  for (int64_t k = 0; k < 6; ++k) {
    ASSERT_TRUE(ga.Insert(k * 2, 0, 0));  // predicted 0 packs the left
  }
  const uint64_t shifts_before = ga.num_shifts();
  ASSERT_TRUE(ga.Insert(3, 0, 0));  // lands inside the packed run
  EXPECT_GT(ga.num_shifts(), shifts_before);
  EXPECT_TRUE(ga.CheckInvariants());
  EXPECT_EQ(ga.num_keys(), 7u);
}

TEST(GappedArrayTest, EraseRemovesAndRefills) {
  const auto keys = MakeSortedKeys(20);
  const auto payloads = MakePayloads(20);
  GappedArray<int64_t, int> ga;
  const LinearModel model = TrainCdfModel(keys.data(), keys.size(), 40);
  ga.BuildFromSorted(keys.data(), payloads.data(), keys.size(), 40, model);
  EXPECT_TRUE(ga.Erase(keys[10], 20));
  EXPECT_EQ(ga.num_keys(), 19u);
  EXPECT_TRUE(ga.CheckInvariants());
  EXPECT_EQ(ga.FindSlot(keys[10], 20), ga.capacity());
  // Erasing again fails.
  EXPECT_FALSE(ga.Erase(keys[10], 20));
}

TEST(GappedArrayTest, EraseLastKeyFixesTrailingGaps) {
  const auto keys = MakeSortedKeys(5);
  const auto payloads = MakePayloads(5);
  GappedArray<int64_t, int> ga;
  const LinearModel model = TrainCdfModel(keys.data(), keys.size(), 16);
  ga.BuildFromSorted(keys.data(), payloads.data(), keys.size(), 16, model);
  EXPECT_TRUE(ga.Erase(keys.back(), 15));
  EXPECT_TRUE(ga.CheckInvariants());
}

TEST(GappedArrayTest, EraseToEmpty) {
  GappedArray<int64_t, int> ga;
  ga.Reset(8);
  ASSERT_TRUE(ga.Insert(5, 0, 4));
  EXPECT_TRUE(ga.Erase(5, 4));
  EXPECT_EQ(ga.num_keys(), 0u);
  EXPECT_TRUE(ga.empty());
}

TEST(GappedArrayTest, LowerBoundSlotSkipsGaps) {
  const auto keys = MakeSortedKeys(10, 10);  // 0, 10, ..., 90
  const auto payloads = MakePayloads(10);
  GappedArray<int64_t, int> ga;
  const LinearModel model = TrainCdfModel(keys.data(), keys.size(), 30);
  ga.BuildFromSorted(keys.data(), payloads.data(), keys.size(), 30, model);
  // Lower bound of 15 must be the slot holding 20 regardless of prediction.
  for (size_t pred = 0; pred < ga.capacity(); ++pred) {
    const size_t slot = ga.LowerBoundSlot(15, pred);
    ASSERT_LT(slot, ga.capacity());
    EXPECT_EQ(ga.key_at(slot), 20);
    EXPECT_TRUE(ga.IsOccupied(slot));
  }
  // Lower bound beyond the last key is capacity().
  EXPECT_EQ(ga.LowerBoundSlot(91, 0), ga.capacity());
}

TEST(GappedArrayTest, UniformBuildWithoutModel) {
  const auto keys = MakeSortedKeys(50);
  const auto payloads = MakePayloads(50);
  GappedArray<int64_t, int> ga;
  ga.BuildFromSortedUniform(keys.data(), payloads.data(), keys.size(), 100);
  EXPECT_EQ(ga.num_keys(), 50u);
  EXPECT_TRUE(ga.CheckInvariants());
  for (const auto k : keys) {
    EXPECT_LT(ga.FindSlot(k, 0), ga.capacity());
  }
}

TEST(GappedArrayTest, BuildAtFullCapacityNoGaps) {
  // capacity == n: model placement degenerates to a dense array.
  const auto keys = MakeSortedKeys(32);
  const auto payloads = MakePayloads(32);
  GappedArray<int64_t, int> ga;
  const LinearModel model = TrainCdfModel(keys.data(), keys.size(), 32);
  ga.BuildFromSorted(keys.data(), payloads.data(), keys.size(), 32, model);
  EXPECT_EQ(ga.num_keys(), 32u);
  EXPECT_DOUBLE_EQ(ga.density(), 1.0);
  EXPECT_TRUE(ga.CheckInvariants());
}

TEST(GappedArrayTest, SkewedModelPlacementStaysWithinBounds) {
  // A model that predicts everything at the far right exercises the
  // right-edge fixup in ComputeModelPlacement.
  const auto keys = MakeSortedKeys(20);
  const auto payloads = MakePayloads(20);
  GappedArray<int64_t, int> ga;
  const LinearModel model(1000.0, 0.0);  // wildly overshoots
  ga.BuildFromSorted(keys.data(), payloads.data(), keys.size(), 40, model);
  EXPECT_EQ(ga.num_keys(), 20u);
  EXPECT_TRUE(ga.CheckInvariants());
}

TEST(GappedArrayTest, RandomizedMirrorOfStdMap) {
  util::Xoshiro256 rng(99);
  GappedArray<int64_t, int> ga;
  ga.Reset(4096);
  std::map<int64_t, int> reference;
  for (int iter = 0; iter < 2000; ++iter) {
    const int64_t key = static_cast<int64_t>(rng.NextUint64(3000));
    const int op = static_cast<int>(rng.NextUint64(3));
    const size_t pred = rng.NextUint64(ga.capacity());
    if (op < 2) {  // insert-biased
      const bool inserted = ga.Insert(key, static_cast<int>(iter), pred);
      const bool expected = reference.emplace(key, iter).second;
      ASSERT_EQ(inserted, expected) << "iter " << iter << " key " << key;
    } else {
      const bool erased = ga.Erase(key, pred);
      ASSERT_EQ(erased, reference.erase(key) > 0)
          << "iter " << iter << " key " << key;
    }
    if (iter % 100 == 0) {
      ASSERT_TRUE(ga.CheckInvariants()) << iter;
    }
  }
  ASSERT_EQ(ga.num_keys(), reference.size());
  std::vector<int64_t> keys;
  std::vector<int> payloads;
  ga.ExtractAll(&keys, &payloads);
  size_t i = 0;
  for (const auto& [k, v] : reference) {
    ASSERT_EQ(keys[i], k);
    ++i;
  }
}

TEST(GappedArrayTest, DataSizeAccountsArraysAndBitmap) {
  GappedArray<int64_t, int64_t> ga;
  ga.Reset(128);
  // 128 * (8 + 8) bytes arrays + 16 bytes bitmap.
  EXPECT_EQ(ga.DataSizeBytes(), 128u * 16u + 16u);
}

TEST(GappedArrayTest, DoubleKeysWork) {
  GappedArray<double, int> ga;
  ga.Reset(16);
  EXPECT_TRUE(ga.Insert(3.25, 1, 0));
  EXPECT_TRUE(ga.Insert(-1.5, 2, 0));
  EXPECT_TRUE(ga.Insert(100.75, 3, 0));
  EXPECT_TRUE(ga.CheckInvariants());
  EXPECT_LT(ga.FindSlot(-1.5, 0), ga.capacity());
  EXPECT_EQ(ga.FindSlot(0.0, 0), ga.capacity());
}

// A 320-slot array whose bitmap words are, in order: sparse (every third
// slot), fully dense, fully empty, sparse again (odd slots) and dense up
// to its last slot. The identity model puts key k at slot k.
void BuildMixedWordArray(GappedArray<int64_t, int>* ga,
                         std::vector<int64_t>* keys) {
  keys->clear();
  for (int64_t k = 0; k < 64; k += 3) keys->push_back(k);
  for (int64_t k = 64; k < 128; ++k) keys->push_back(k);
  for (int64_t k = 193; k < 256; k += 2) keys->push_back(k);
  for (int64_t k = 256; k < 320; ++k) keys->push_back(k);
  std::vector<int> payloads(keys->size());
  for (size_t i = 0; i < keys->size(); ++i) {
    payloads[i] = static_cast<int>((*keys)[i]) * 10;
  }
  ga->BuildFromSorted(keys->data(), payloads.data(), keys->size(), 320,
                      LinearModel(1.0, 0.0));
}

TEST(GappedArrayTest, ScanFromStopsAtMaxResultsMidWord) {
  GappedArray<int64_t, int> ga;
  std::vector<int64_t> keys;
  BuildMixedWordArray(&ga, &keys);
  ASSERT_EQ(ga.bitmap().words()[1], ~0ULL);
  // From slot 66 ten results end at slot 75, inside the dense word.
  std::vector<std::pair<int64_t, int>> out = {{-1, -1}};  // appended to
  EXPECT_EQ(ga.ScanFrom(66, 10, &out), 10u);
  ASSERT_EQ(out.size(), 11u);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_EQ(out[i].first, static_cast<int64_t>(65 + i));
    EXPECT_EQ(out[i].second, out[i].first * 10);
  }
  // A sparse word: the stop falls between two set bits.
  out.clear();
  EXPECT_EQ(ga.ScanFrom(1, 3, &out), 3u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.back().first, 9);
  out.clear();
  EXPECT_EQ(ga.ScanFrom(0, 0, &out), 0u);
  EXPECT_TRUE(out.empty());
  // Unbounded: everything from the start slot on, in order.
  EXPECT_EQ(ga.ScanFrom(0, SIZE_MAX, &out), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) EXPECT_EQ(out[i].first, keys[i]);
}

TEST(GappedArrayTest, VisitSlotsCrossesEmptyAndDenseWords) {
  GappedArray<int64_t, int> ga;
  std::vector<int64_t> keys;
  BuildMixedWordArray(&ga, &keys);
  ASSERT_EQ(ga.bitmap().words()[1], ~0ULL);
  ASSERT_EQ(ga.bitmap().words()[2], 0u);
  for (const auto& [lo, hi] : std::vector<std::pair<size_t, size_t>>{
           {5, 300}, {64, 192}, {100, 200}, {0, 320}, {128, 192}}) {
    std::vector<int64_t> want;
    for (const int64_t k : keys) {
      if (static_cast<size_t>(k) >= lo && static_cast<size_t>(k) < hi) {
        want.push_back(k);
      }
    }
    std::vector<int64_t> got;
    EXPECT_EQ(ga.VisitSlots(lo, hi,
                            [&](int64_t k, int p) {
                              EXPECT_EQ(p, k * 10);
                              got.push_back(k);
                            }),
              want.size());
    EXPECT_EQ(got, want) << "lo=" << lo << " hi=" << hi;
    EXPECT_EQ(ga.CountSlots(lo, hi), want.size());
  }
}

}  // namespace
}  // namespace alex::container
