#include "util/bitmap.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "util/random.h"

namespace alex::util {
namespace {

TEST(BitmapTest, StartsAllClear) {
  Bitmap bm(130);
  EXPECT_EQ(bm.size(), 130u);
  for (size_t i = 0; i < bm.size(); ++i) {
    EXPECT_FALSE(bm.Get(i)) << i;
  }
  EXPECT_EQ(bm.PopCount(), 0u);
}

TEST(BitmapTest, SetGetClear) {
  Bitmap bm(200);
  bm.Set(0);
  bm.Set(63);
  bm.Set(64);
  bm.Set(199);
  EXPECT_TRUE(bm.Get(0));
  EXPECT_TRUE(bm.Get(63));
  EXPECT_TRUE(bm.Get(64));
  EXPECT_TRUE(bm.Get(199));
  EXPECT_FALSE(bm.Get(1));
  EXPECT_EQ(bm.PopCount(), 4u);
  bm.Clear(63);
  EXPECT_FALSE(bm.Get(63));
  EXPECT_EQ(bm.PopCount(), 3u);
}

TEST(BitmapTest, NextSetFindsAcrossWordBoundaries) {
  Bitmap bm(256);
  bm.Set(70);
  bm.Set(130);
  EXPECT_EQ(bm.NextSet(0), 70u);
  EXPECT_EQ(bm.NextSet(70), 70u);
  EXPECT_EQ(bm.NextSet(71), 130u);
  EXPECT_EQ(bm.NextSet(131), 256u);  // none -> size()
}

TEST(BitmapTest, NextClearSkipsSetRuns) {
  Bitmap bm(128);
  for (size_t i = 0; i < 100; ++i) bm.Set(i);
  EXPECT_EQ(bm.NextClear(0), 100u);
  EXPECT_EQ(bm.NextClear(99), 100u);
  EXPECT_EQ(bm.NextClear(100), 100u);
  bm.Set(100);
  EXPECT_EQ(bm.NextClear(50), 101u);
}

TEST(BitmapTest, NextClearAllSetReturnsSize) {
  Bitmap bm(64);
  for (size_t i = 0; i < 64; ++i) bm.Set(i);
  EXPECT_EQ(bm.NextClear(0), 64u);
}

TEST(BitmapTest, PrevSetScansBackwards) {
  Bitmap bm(256);
  bm.Set(5);
  bm.Set(128);
  EXPECT_EQ(bm.PrevSet(255), 128u);
  EXPECT_EQ(bm.PrevSet(128), 128u);
  EXPECT_EQ(bm.PrevSet(127), 5u);
  EXPECT_EQ(bm.PrevSet(4), 256u);  // none -> size()
}

TEST(BitmapTest, PrevClearScansBackwards) {
  Bitmap bm(128);
  for (size_t i = 0; i < 128; ++i) bm.Set(i);
  bm.Clear(60);
  EXPECT_EQ(bm.PrevClear(127), 60u);
  EXPECT_EQ(bm.PrevClear(60), 60u);
  EXPECT_EQ(bm.PrevClear(59), 128u);  // none below
}

TEST(BitmapTest, PrevSetFromBeyondSizeClamps) {
  Bitmap bm(100);
  bm.Set(99);
  EXPECT_EQ(bm.PrevSet(1000), 99u);
}

TEST(BitmapTest, ResetClearsEverything) {
  Bitmap bm(77);
  bm.Set(3);
  bm.Set(76);
  bm.Reset();
  EXPECT_EQ(bm.PopCount(), 0u);
  EXPECT_EQ(bm.size(), 77u);
}

TEST(BitmapTest, SizeBytesCoversAllBits) {
  EXPECT_EQ(Bitmap(64).SizeBytes(), 8u);
  EXPECT_EQ(Bitmap(65).SizeBytes(), 16u);
  EXPECT_EQ(Bitmap(1).SizeBytes(), 8u);
}

TEST(BitmapTest, PopCountRangeCountsHalfOpenInterval) {
  Bitmap bm(64);
  bm.Set(10);
  bm.Set(20);
  bm.Set(30);
  EXPECT_EQ(bm.PopCountRange(10, 30), 2u);  // 30 excluded
  EXPECT_EQ(bm.PopCountRange(0, 64), 3u);
  EXPECT_EQ(bm.PopCountRange(11, 20), 0u);
}

TEST(BitmapTest, RandomizedAgainstReferenceSet) {
  Xoshiro256 rng(42);
  const size_t n = 700;
  Bitmap bm(n);
  std::set<size_t> reference;
  for (int iter = 0; iter < 4000; ++iter) {
    const size_t i = rng.NextUint64(n);
    if (rng.NextUint64(2) == 0) {
      bm.Set(i);
      reference.insert(i);
    } else {
      bm.Clear(i);
      reference.erase(i);
    }
  }
  EXPECT_EQ(bm.PopCount(), reference.size());
  for (int probe = 0; probe < 200; ++probe) {
    const size_t from = rng.NextUint64(n);
    auto it = reference.lower_bound(from);
    const size_t expected = it == reference.end() ? n : *it;
    EXPECT_EQ(bm.NextSet(from), expected) << "from=" << from;
    auto rit = reference.upper_bound(from);
    size_t expected_prev = n;
    if (rit != reference.begin()) {
      --rit;
      expected_prev = *rit;
    }
    EXPECT_EQ(bm.PrevSet(from), expected_prev) << "from=" << from;
  }
}

// NextSet oracle for ForEachSet: the set bits in [lo, hi), ascending.
std::vector<size_t> SetBitsByNextSet(const Bitmap& bm, size_t lo, size_t hi) {
  std::vector<size_t> out;
  if (hi > bm.size()) hi = bm.size();
  for (size_t i = bm.NextSet(lo); i < hi; i = bm.NextSet(i + 1)) {
    out.push_back(i);
  }
  return out;
}

std::vector<size_t> SetBitsByForEachSet(const Bitmap& bm, size_t lo,
                                        size_t hi) {
  std::vector<size_t> out;
  bm.ForEachSet(lo, hi, [&](size_t i) {
    out.push_back(i);
    return true;
  });
  return out;
}

TEST(BitmapTest, ForEachSetMatchesNextSetOnRandomBitmaps) {
  Xoshiro256 rng(7);
  // Sizes on, just under and just over word multiples, and odd ones.
  for (const size_t n : {1u, 63u, 64u, 65u, 127u, 128u, 129u, 700u, 1000u}) {
    for (int round = 0; round < 20; ++round) {
      Bitmap bm(n);
      // Fill levels from empty to full, so all-clear and all-set words
      // both occur.
      const uint64_t fill = rng.NextUint64(5);  // x/4 of the bits
      for (size_t i = 0; i < n; ++i) {
        if (rng.NextUint64(4) < fill) bm.Set(i);
      }
      // Every word edge and its neighbours, plus random bounds.
      std::vector<size_t> edges = {0, n, n + 5};
      for (size_t e = 64; e <= n + 64; e += 64) {
        for (const size_t d : {e - 1, e, e + 1}) edges.push_back(d);
      }
      for (int r = 0; r < 8; ++r) edges.push_back(rng.NextUint64(n + 1));
      for (const size_t lo : edges) {
        for (const size_t hi : edges) {
          ASSERT_EQ(SetBitsByForEachSet(bm, lo, hi),
                    SetBitsByNextSet(bm, lo, hi))
              << "n=" << n << " lo=" << lo << " hi=" << hi;
        }
      }
    }
  }
}

TEST(BitmapTest, ForEachSetEmptyRangeVisitsNothing) {
  Bitmap bm(200);
  for (size_t i = 0; i < 200; ++i) bm.Set(i);
  EXPECT_TRUE(SetBitsByForEachSet(bm, 64, 64).empty());
  EXPECT_TRUE(SetBitsByForEachSet(bm, 100, 50).empty());  // hi < lo
  EXPECT_TRUE(SetBitsByForEachSet(bm, 200, 300).empty());  // past size
  EXPECT_TRUE(SetBitsByForEachSet(Bitmap(), 0, 10).empty());
}

TEST(BitmapTest, ForEachSetStopsMidWord) {
  Bitmap bm(256);
  for (size_t i = 64; i < 128; ++i) bm.Set(i);  // one full word
  bm.Set(200);
  std::vector<size_t> seen;
  bm.ForEachSet(0, 256, [&](size_t i) {
    seen.push_back(i);
    return i < 70;  // stop after slot 70, inside the full word
  });
  const std::vector<size_t> want = {64, 65, 66, 67, 68, 69, 70};
  EXPECT_EQ(seen, want);
}

}  // namespace
}  // namespace alex::util
