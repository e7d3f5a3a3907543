#include "containers/gapped_array.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "containers/pma.h"
#include "core/data_node.h"
#include "models/linear_model.h"
#include "util/bitmap.h"
#include "util/random.h"

namespace alex::container {
namespace {

using model::LinearModel;
using model::TrainCdfModel;

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
  ExtractAll(ga, &extracted, &payloads);
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
  // right-edge clamp of GappedStorage::PlaceSorted.
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
  ExtractAll(ga, &keys, &payloads);
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

TEST(GappedArrayTest, VisitSlotsStopsMidWord) {
  GappedArray<int64_t, int> ga;
  std::vector<int64_t> keys;
  BuildMixedWordArray(&ga, &keys);
  ASSERT_EQ(ga.bitmap().words()[1], ~0ULL);
  // Visits from slot `lo` with a visitor that stops once it holds `max`
  // pairs (max > 0), as a range scan's does.
  std::vector<std::pair<int64_t, int>> out;
  const auto take = [&](size_t lo, size_t max) {
    out.clear();
    return ga.VisitSlots(lo, ga.capacity(), [&](int64_t k, int p) {
      out.emplace_back(k, p);
      return out.size() < max;
    });
  };
  // From slot 66 ten results end at slot 75, inside the dense word.
  EXPECT_EQ(take(66, 10), 10u);
  ASSERT_EQ(out.size(), 10u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].first, static_cast<int64_t>(66 + i));
    EXPECT_EQ(out[i].second, out[i].first * 10);
  }
  // A sparse word: the stop falls between two set bits.
  EXPECT_EQ(take(1, 3), 3u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.back().first, 9);
  // A stop on the first slot visited counts that slot; an empty slot
  // range visits nothing.
  EXPECT_EQ(take(0, 1), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].first, 0);
  EXPECT_EQ(ga.VisitSlots(5, 5, [](int64_t, int) { return true; }), 0u);
  // Unbounded: everything from the start slot on, in order.
  EXPECT_EQ(take(0, SIZE_MAX), keys.size());
  ASSERT_EQ(out.size(), keys.size());
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
                              return true;
                            }),
              want.size());
    EXPECT_EQ(got, want) << "lo=" << lo << " hi=" << hi;
    EXPECT_EQ(ga.CountSlots(lo, hi), want.size());
  }
}

// ---- Placement oracle ----
//
// The two-pass placement that GappedStorage::PlaceSorted replaced, kept
// here only as the reference for its layout: the slots first (a forward
// collision pass, then a backward right-edge fixup), then the pairs, then
// a backward pass that rewrites every gap with its closest-right key
// (trailing gaps with the last key).

void ComputeModelPlacement(const int64_t* keys, size_t n,
                           const LinearModel& model, size_t capacity,
                           std::vector<size_t>* positions) {
  positions->resize(n);
  if (n == 0) return;
  size_t prev = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t pos = model.Predict(static_cast<double>(keys[i]), capacity);
    if (i > 0 && pos <= prev) pos = prev + 1;
    if (pos >= capacity) pos = capacity - 1;
    (*positions)[i] = pos;
    prev = pos;
  }
  for (size_t i = n; i-- > 0;) {
    const size_t allowed = capacity - (n - i);
    if ((*positions)[i] > allowed) (*positions)[i] = allowed;
    if (i + 1 < n && (*positions)[i] >= (*positions)[i + 1]) {
      (*positions)[i] = (*positions)[i + 1] - 1;
    }
  }
}

void ComputeUniformPlacement(size_t n, size_t capacity,
                             std::vector<size_t>* positions) {
  positions->resize(n);
  if (n == 0) return;
  const double step = static_cast<double>(capacity) / static_cast<double>(n);
  size_t prev = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t pos = static_cast<size_t>(step * static_cast<double>(i));
    if (i > 0 && pos <= prev) pos = prev + 1;
    if (pos >= capacity) pos = capacity - 1;
    (*positions)[i] = pos;
    prev = pos;
  }
  for (size_t i = n; i-- > 0;) {
    const size_t allowed = capacity - (n - i);
    if ((*positions)[i] > allowed) (*positions)[i] = allowed;
    if (i + 1 < n && (*positions)[i] >= (*positions)[i + 1]) {
      (*positions)[i] = (*positions)[i + 1] - 1;
    }
  }
}

struct Layout {
  std::vector<int64_t> keys;
  std::vector<int> payloads;
  util::Bitmap bitmap;
};

void RefillAllGaps(Layout* layout, size_t num_keys) {
  if (num_keys == 0) return;
  const size_t capacity = layout->keys.size();
  int64_t fill = 0;
  bool have_fill = false;
  for (size_t i = capacity; i-- > 0;) {
    if (layout->bitmap.Get(i)) {
      fill = layout->keys[i];
      have_fill = true;
    } else if (have_fill) {
      layout->keys[i] = fill;
    }
  }
  const size_t last = layout->bitmap.PrevSet(capacity - 1);
  for (size_t i = last + 1; i < capacity; ++i) {
    layout->keys[i] = layout->keys[last];
  }
}

Layout TwoPassLayout(const std::vector<int64_t>& keys,
                     const std::vector<int>& payloads, size_t capacity,
                     const std::vector<size_t>& positions) {
  Layout layout{std::vector<int64_t>(capacity), std::vector<int>(capacity),
                util::Bitmap(capacity)};
  for (size_t i = 0; i < keys.size(); ++i) {
    layout.keys[positions[i]] = keys[i];
    layout.payloads[positions[i]] = payloads[i];
    layout.bitmap.Set(positions[i]);
  }
  RefillAllGaps(&layout, keys.size());
  return layout;
}

// Byte-for-byte comparison of a built leaf array against the reference:
// every key slot and bitmap word, and the payload of every occupied slot.
// A gap's payload is never read, so a new block leaves it unwritten (a
// Debug build poisons it, and every unwritten key slot, which the key
// memcmp then catches).
void ExpectSameLayout(const GappedStorage<int64_t, int>& built,
                      const Layout& ref, const std::string& what) {
  const size_t capacity = ref.keys.size();
  ASSERT_EQ(built.capacity(), capacity) << what;
  EXPECT_EQ(std::memcmp(&built.key_at(0), ref.keys.data(),
                        capacity * sizeof(int64_t)),
            0)
      << what;
  ref.bitmap.ForEachSet(0, capacity, [&](size_t i) {
    EXPECT_EQ(built.payload_at(i), ref.payloads[i]) << what << " slot " << i;
    return true;
  });
  EXPECT_EQ(std::memcmp(built.bitmap().words(), ref.bitmap.words(),
                        ref.bitmap.SizeBytes()),
            0)
      << what;
  EXPECT_TRUE(built.CheckInvariants()) << what;
}

// `n` distinct sorted keys with lognormal-like gaps, so a linear model
// both under- and overshoots inside one array.
std::vector<int64_t> SkewedSortedKeys(size_t n, uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::set<int64_t> keys;
  while (keys.size() < n) {
    const uint64_t magnitude = rng.NextUint64(40);
    keys.insert(static_cast<int64_t>(rng.NextUint64(1ULL << 10) << magnitude) -
                (int64_t{1} << 30));
  }
  return {keys.begin(), keys.end()};
}

TEST(PlacementOracleTest, OnePassMatchesTwoPassLayout) {
  const size_t m = core::DataNode<int64_t, int>::kMinModelKeys;
  size_t cases = 0;
  for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, m - 1, m, m + 1,
                         size_t{1024}, size_t{5000}}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      const auto keys = SkewedSortedKeys(n, seed * 1000 + n);
      std::vector<int> payloads(n);
      for (size_t i = 0; i < n; ++i) payloads[i] = static_cast<int>(i) + 1;
      for (const size_t capacity :
           {n + 1, n + n / 2 + 1, 2 * n + 7, size_t{16} + n}) {
        const LinearModel trained =
            TrainCdfModel(keys.data(), n, capacity);
        LinearModel steep = trained;
        steep.ExpandBy(1.7);
        LinearModel right = trained;
        right.ShiftBy(-static_cast<double>(capacity) / 3.0);
        LinearModel left = trained;
        left.ShiftBy(static_cast<double>(capacity) / 3.0);
        for (const LinearModel& model : {trained, steep, right, left}) {
          const std::string what = "n=" + std::to_string(n) + " cap=" +
                                   std::to_string(capacity) +
                                   " seed=" + std::to_string(seed) +
                                   " slope=" + std::to_string(model.slope());
          std::vector<size_t> positions;
          ComputeModelPlacement(keys.data(), n, model, capacity, &positions);
          GappedArray<int64_t, int> ga;
          ga.BuildFromSorted(keys.data(), payloads.data(), n, capacity,
                             model);
          ExpectSameLayout(ga, TwoPassLayout(keys, payloads, capacity,
                                             positions),
                           "GA model " + what);
          // A PMA rounds its capacity to a power of two; place under the
          // same model against the rounded size.
          Pma<int64_t, int> pma;
          pma.BuildFromSorted(keys.data(), payloads.data(), n, capacity,
                              model);
          ComputeModelPlacement(keys.data(), n, model, pma.capacity(),
                                &positions);
          ExpectSameLayout(pma, TwoPassLayout(keys, payloads,
                                              pma.capacity(), positions),
                           "PMA model " + what);
          ++cases;
        }
        std::vector<size_t> positions;
        ComputeUniformPlacement(n, capacity, &positions);
        GappedArray<int64_t, int> ga;
        ga.BuildFromSortedUniform(keys.data(), payloads.data(), n, capacity);
        ExpectSameLayout(ga, TwoPassLayout(keys, payloads, capacity,
                                           positions),
                         "GA uniform n=" + std::to_string(n));
        Pma<int64_t, int> pma;
        pma.BuildFromSortedUniform(keys.data(), payloads.data(), n,
                                   capacity);
        ComputeUniformPlacement(n, pma.capacity(), &positions);
        ExpectSameLayout(pma, TwoPassLayout(keys, payloads, pma.capacity(),
                                            positions),
                         "PMA uniform n=" + std::to_string(n));
      }
    }
  }
  EXPECT_EQ(cases, 8u * 3u * 4u * 4u);
}

TEST(PlacementOracleTest, BadModelsHitBothEdgeClamps) {
  // Precondition of the oracle test above: its scaled and shifted models
  // really do push keys past both ends of the array, so the left clamp
  // (previous slot + 1) and the right clamp (capacity - (n - i)) fire.
  const size_t n = 1024;
  const size_t capacity = n + 1;
  const auto keys = SkewedSortedKeys(n, 7);
  LinearModel steep = TrainCdfModel(keys.data(), n, capacity);
  steep.ExpandBy(1.7);
  size_t past_right = 0;
  size_t collisions = 0;
  size_t prev = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t pred = steep.Predict(static_cast<double>(keys[i]), capacity);
    if (pred > capacity - (n - i)) ++past_right;
    if (i > 0 && pred <= prev) ++collisions;
    prev = pred;
  }
  EXPECT_GT(past_right, 0u);
  EXPECT_GT(collisions, 0u);
}

}  // namespace
}  // namespace alex::container
