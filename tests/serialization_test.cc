#include "core/serialization.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/alex.h"
#include "core/concurrent_alex.h"
#include "util/random.h"

namespace alex::core {
namespace {

using AlexInt = Alex<int64_t, int64_t>;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(SerializationTest, RoundTripPreservesAllPairs) {
  AlexInt index;
  util::Xoshiro256 rng(5);
  for (int i = 0; i < 20000; ++i) {
    index.Insert(static_cast<int64_t>(rng.NextUint64(1000000)), i);
  }
  const std::string path = TempPath("roundtrip.alex");
  ASSERT_TRUE(SaveIndex(index, path));

  AlexInt loaded;
  ASSERT_TRUE(LoadIndex(&loaded, path));
  ASSERT_EQ(loaded.size(), index.size());
  ASSERT_TRUE(loaded.CheckInvariants());
  auto a = index.begin();
  auto b = loaded.begin();
  while (!a.IsEnd()) {
    ASSERT_FALSE(b.IsEnd());
    ASSERT_EQ(a.key(), b.key());
    ASSERT_EQ(a.payload(), b.payload());
    ++a;
    ++b;
  }
  EXPECT_TRUE(b.IsEnd());
  std::remove(path.c_str());
}

TEST(SerializationTest, EmptyIndexRoundTrips) {
  AlexInt index;
  const std::string path = TempPath("empty.alex");
  ASSERT_TRUE(SaveIndex(index, path));
  AlexInt loaded;
  loaded.Insert(1, 1);  // overwritten by the load
  ASSERT_TRUE(LoadIndex(&loaded, path));
  EXPECT_TRUE(loaded.empty());
  std::remove(path.c_str());
}

TEST(SerializationTest, LoadIntoDifferentConfigRebuildsModels) {
  // Snapshots are config-portable: a GA-ARMI snapshot loads into a
  // PMA-SRMI index, which retrains its own models on bulk load.
  AlexInt ga_index;
  for (int64_t i = 0; i < 5000; ++i) ga_index.Insert(i * 3, i);
  const std::string path = TempPath("crossconfig.alex");
  ASSERT_TRUE(SaveIndex(ga_index, path));

  Config pma;
  pma.layout = NodeLayout::kPackedMemoryArray;
  pma.rmi_mode = RmiMode::kStatic;
  AlexInt loaded(pma);
  ASSERT_TRUE(LoadIndex(&loaded, path));
  EXPECT_EQ(loaded.size(), 5000u);
  EXPECT_TRUE(loaded.CheckInvariants());
  EXPECT_EQ(*loaded.Find(300), 100);
  std::remove(path.c_str());
}

TEST(SerializationTest, RejectsMissingFile) {
  AlexInt index;
  EXPECT_FALSE(LoadIndex(&index, TempPath("does-not-exist.alex")));
}

TEST(SerializationTest, RejectsWrongMagic) {
  const std::string path = TempPath("garbage.alex");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[64] = "this is not an alex snapshot";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  AlexInt index;
  EXPECT_FALSE(LoadIndex(&index, path));
  std::remove(path.c_str());
}

TEST(SerializationTest, RejectsPayloadSizeMismatch) {
  Alex<int64_t, int64_t> wide;
  wide.Insert(1, 1);
  const std::string path = TempPath("mismatch.alex");
  ASSERT_TRUE(SaveIndex(wide, path));
  Alex<int64_t, int32_t> narrow;
  EXPECT_FALSE(LoadIndex(&narrow, path));
  std::remove(path.c_str());
}

// ---- header robustness: every failure mode gets a distinct status ----

// Patches `bytes` at `offset` in an existing file.
void PatchFile(const std::string& path, long offset, const void* bytes,
               size_t n) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(bytes, 1, n, f), n);
  std::fclose(f);
}

void TruncateFile(const std::string& path, size_t keep_bytes) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  ASSERT_NE(in, nullptr);
  std::vector<char> head(keep_bytes);
  ASSERT_EQ(std::fread(head.data(), 1, keep_bytes, in), keep_bytes);
  std::fclose(in);
  std::FILE* out = std::fopen(path.c_str(), "wb");
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(std::fwrite(head.data(), 1, keep_bytes, out), keep_bytes);
  std::fclose(out);
}

std::string WriteSmallSnapshot(const char* name) {
  AlexInt index;
  for (int64_t i = 0; i < 5000; ++i) index.Insert(i * 2, i);
  const std::string path = TempPath(name);
  EXPECT_TRUE(SaveIndex(index, path));
  return path;
}

TEST(SerializationRobustnessTest, TruncatedFileIsDetectedNotMisloaded) {
  const std::string path = WriteSmallSnapshot("truncated.alex");
  TruncateFile(path, sizeof(SnapshotHeader) + 1234);
  AlexInt loaded;
  loaded.Insert(1, 1);
  EXPECT_EQ(LoadIndexEx(&loaded, path), SnapshotStatus::kTruncated);
  // The failed load left the index untouched.
  EXPECT_EQ(loaded.size(), 1u);
  EXPECT_NE(loaded.Find(1), nullptr);
  std::remove(path.c_str());
}

TEST(SerializationRobustnessTest, BogusKeyCountCannotOverAllocate) {
  const std::string path = WriteSmallSnapshot("bogus-count.alex");
  // A corrupt count in the exabyte range must be rejected against the
  // actual file size, not trusted by resize().
  const uint64_t bogus = 1ULL << 60;
  PatchFile(path, offsetof(SnapshotHeader, num_keys), &bogus,
            sizeof(bogus));
  AlexInt loaded;
  EXPECT_EQ(LoadIndexEx(&loaded, path), SnapshotStatus::kTruncated);
  std::remove(path.c_str());
}

TEST(SerializationRobustnessTest, InteriorCorruptionIsDetected) {
  // Flip one byte in the middle of the key array: counts, first and last
  // keys all stay plausible, so only the body checksum can catch it.
  const std::string path = WriteSmallSnapshot("interior-flip.alex");
  const unsigned char flip = 0xA5;
  PatchFile(path,
            static_cast<long>(sizeof(SnapshotHeader) +
                              2500 * sizeof(int64_t) + 3),
            &flip, 1);
  AlexInt loaded;
  EXPECT_EQ(LoadIndexEx(&loaded, path), SnapshotStatus::kChecksumMismatch);
  std::remove(path.c_str());
}

TEST(SerializationRobustnessTest, UnsortedKeysAreRejected) {
  // A checksummed-but-unsorted file (foreign writer) must not reach
  // BulkLoad, whose precondition is strictly increasing keys.
  const int64_t keys[] = {10, 5, 20};
  const int64_t payloads[] = {1, 2, 3};
  const std::string path = TempPath("unsorted.alex");
  ASSERT_EQ(WriteSnapshotFile(path, keys, payloads, 3),
            SnapshotStatus::kOk);
  AlexInt loaded;
  EXPECT_EQ(LoadIndexEx(&loaded, path), SnapshotStatus::kUnsortedKeys);
  std::remove(path.c_str());
}

TEST(SerializationRobustnessTest, WrongVersionIsDistinct) {
  const std::string path = WriteSmallSnapshot("wrong-version.alex");
  const uint32_t future = 999;
  PatchFile(path, offsetof(SnapshotHeader, version), &future,
            sizeof(future));
  AlexInt loaded;
  EXPECT_EQ(LoadIndexEx(&loaded, path), SnapshotStatus::kBadVersion);
  std::remove(path.c_str());
}

TEST(SerializationRobustnessTest, PreviousVersionIsBadVersion) {
  // A v2 snapshot has this layout under the old checksum. The checksum
  // covers only the two arrays, so re-stamping the version needs no
  // re-checksum for the version to be the only thing wrong.
  const std::string path = WriteSmallSnapshot("previous-version.alex");
  AlexInt loaded;
  ASSERT_EQ(LoadIndexEx(&loaded, path), SnapshotStatus::kOk);
  const uint32_t previous = internal::kSnapshotVersion - 1;
  PatchFile(path, offsetof(SnapshotHeader, version), &previous,
            sizeof(previous));
  EXPECT_EQ(LoadIndexEx(&loaded, path), SnapshotStatus::kBadVersion);
  std::remove(path.c_str());
}

// The writer checksums each array in kSnapshotChunk-element chunks, every
// chunk seeded with the previous digest; the reader must hash the same
// chunks. Sizes straddle the chunk boundary on both sides.
TEST(SerializationRobustnessTest, ChunkBoundariesRoundTripAndDetectFlips) {
  constexpr size_t kChunk = internal::kSnapshotChunk;
  for (const size_t n : {size_t{1}, kChunk - 1, kChunk, kChunk + 1,
                         3 * kChunk + 5}) {
    SCOPED_TRACE(n);
    std::vector<int64_t> keys(n), payloads(n);
    for (size_t i = 0; i < n; ++i) {
      keys[i] = static_cast<int64_t>(i) * 7 - 100;
      payloads[i] = static_cast<int64_t>(i) ^ 0x5A5A;
    }
    const auto expect_pairs = [&](auto lookup) {
      for (size_t i = 0; i < n; ++i) {
        int64_t v = 0;
        ASSERT_TRUE(lookup(keys[i], &v)) << keys[i];
        ASSERT_EQ(v, payloads[i]);
      }
    };

    AlexInt source;
    source.BulkLoad(keys.data(), payloads.data(), n);
    const std::string alex_path = TempPath("chunks-alex.alex");
    ASSERT_TRUE(SaveIndex(source, alex_path));
    AlexInt loaded;
    ASSERT_EQ(LoadIndexEx(&loaded, alex_path), SnapshotStatus::kOk);
    ASSERT_EQ(loaded.size(), n);
    expect_pairs([&](int64_t k, int64_t* v) {
      const int64_t* p = loaded.Find(k);
      if (p != nullptr) *v = *p;
      return p != nullptr;
    });

    ConcurrentAlex<int64_t, int64_t> concurrent;
    concurrent.BulkLoad(keys.data(), payloads.data(), n);
    const std::string concurrent_path = TempPath("chunks-concurrent.alex");
    ASSERT_EQ(concurrent.SaveToFile(concurrent_path), SnapshotStatus::kOk);
    ConcurrentAlex<int64_t, int64_t> reloaded;
    ASSERT_EQ(reloaded.LoadFromFile(concurrent_path), SnapshotStatus::kOk);
    ASSERT_EQ(reloaded.size(), n);
    expect_pairs([&](int64_t k, int64_t* v) { return reloaded.Get(k, v); });

    // One flipped byte in the last (possibly partial) chunk of either
    // array is a checksum mismatch; restoring it loads again.
    const long keys_at = static_cast<long>(sizeof(SnapshotHeader));
    const long payloads_at =
        keys_at + static_cast<long>(n * sizeof(int64_t));
    for (const long array_at : {keys_at, payloads_at}) {
      const long at =
          array_at + static_cast<long>((n - 1) * sizeof(int64_t)) + 2;
      const unsigned char bad = 0xC3;
      PatchFile(alex_path, at, &bad, 1);
      EXPECT_EQ(LoadIndexEx(&loaded, alex_path),
                SnapshotStatus::kChecksumMismatch);
      ConcurrentAlex<int64_t, int64_t> rejected;
      EXPECT_EQ(rejected.LoadFromFile(alex_path),
                SnapshotStatus::kChecksumMismatch);
      const int64_t original =
          array_at == keys_at ? keys[n - 1] : payloads[n - 1];
      const auto good = static_cast<unsigned char>(original >> 16);
      PatchFile(alex_path, at, &good, 1);
      EXPECT_EQ(LoadIndexEx(&loaded, alex_path), SnapshotStatus::kOk);
    }
    std::remove(alex_path.c_str());
    std::remove(concurrent_path.c_str());
  }
}

TEST(SerializationRobustnessTest, SizeMismatchesAreDistinct) {
  const std::string path = WriteSmallSnapshot("sizes.alex");
  Alex<int64_t, int32_t> narrow_payload;
  EXPECT_EQ(LoadIndexEx(&narrow_payload, path),
            SnapshotStatus::kPayloadSizeMismatch);
  Alex<int32_t, int64_t> narrow_key;
  EXPECT_EQ(LoadIndexEx(&narrow_key, path),
            SnapshotStatus::kKeySizeMismatch);
  std::remove(path.c_str());
}

TEST(SerializationRobustnessTest, StatusNamesAreStable) {
  EXPECT_STREQ(SnapshotStatusName(SnapshotStatus::kOk), "ok");
  EXPECT_STREQ(SnapshotStatusName(SnapshotStatus::kTruncated),
               "truncated");
  EXPECT_STREQ(SnapshotStatusName(SnapshotStatus::kMissingShard),
               "missing-shard");
}

// ---- ConcurrentAlex snapshots (the shard layer's durability building
// block) ----

TEST(ConcurrentSnapshotTest, RoundTripPreservesAllPairs) {
  core::ConcurrentAlex<int64_t, int64_t> index;
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 20000; ++i) {
    keys.push_back(i * 3);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  const std::string path = TempPath("concurrent-roundtrip.alex");
  ASSERT_EQ(index.SaveToFile(path), SnapshotStatus::kOk);

  core::ConcurrentAlex<int64_t, int64_t> loaded;
  ASSERT_EQ(loaded.LoadFromFile(path), SnapshotStatus::kOk);
  EXPECT_EQ(loaded.size(), index.size());
  int64_t v = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(loaded.Get(keys[i], &v));
    ASSERT_EQ(v, payloads[i]);
  }
  EXPECT_TRUE(loaded.CheckInvariants());
  std::remove(path.c_str());
}

TEST(ConcurrentSnapshotTest, SnapshotsLoadIntoSingleThreadedAlex) {
  // The concurrent writer and the plain loader share one format.
  core::ConcurrentAlex<int64_t, int64_t> source;
  for (int64_t i = 0; i < 3000; ++i) source.Insert(i * 5, i);
  const std::string path = TempPath("cross-class.alex");
  ASSERT_EQ(source.SaveToFile(path), SnapshotStatus::kOk);
  AlexInt loaded;
  ASSERT_EQ(LoadIndexEx(&loaded, path), SnapshotStatus::kOk);
  EXPECT_EQ(loaded.size(), 3000u);
  EXPECT_EQ(*loaded.Find(10), 2);
  std::remove(path.c_str());
}

TEST(ConcurrentSnapshotTest, SaveWithConcurrentWritersIsWellFormed) {
  // A snapshot taken mid-write-storm must load cleanly and contain every
  // key committed before the save began (read-committed contract).
  core::ConcurrentAlex<int64_t, int64_t> index;
  std::vector<int64_t> keys, payloads;
  constexpr int64_t kPreload = 20000;
  for (int64_t i = 0; i < kPreload; ++i) {
    keys.push_back(i * 2);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int64_t next = kPreload * 2 + 1;
    while (!stop.load(std::memory_order_acquire)) {
      index.Insert(next, next);
      next += 2;
    }
  });
  const std::string path = TempPath("concurrent-save.alex");
  const SnapshotStatus status = index.SaveToFile(path);
  stop.store(true, std::memory_order_release);
  writer.join();
  ASSERT_EQ(status, SnapshotStatus::kOk);

  core::ConcurrentAlex<int64_t, int64_t> loaded;
  ASSERT_EQ(loaded.LoadFromFile(path), SnapshotStatus::kOk);
  EXPECT_TRUE(loaded.CheckInvariants());
  int64_t v = 0;
  for (int64_t i = 0; i < kPreload; ++i) {
    ASSERT_TRUE(loaded.Get(i * 2, &v)) << i;
    ASSERT_EQ(v, i);
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, LoadedIndexAcceptsFurtherWrites) {
  AlexInt index;
  for (int64_t i = 0; i < 1000; ++i) index.Insert(i * 2, i);
  const std::string path = TempPath("writable.alex");
  ASSERT_TRUE(SaveIndex(index, path));
  AlexInt loaded;
  ASSERT_TRUE(LoadIndex(&loaded, path));
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(loaded.Insert(i * 2 + 1, -i));
  }
  EXPECT_EQ(loaded.size(), 2000u);
  EXPECT_TRUE(loaded.CheckInvariants());
  std::remove(path.c_str());
}

// ---- reverse iteration (the other new API in this extension set) ----

TEST(ReverseIterationTest, LastAndDecrementWalkBackwards) {
  AlexInt index;
  for (int64_t i = 0; i < 5000; ++i) index.Insert(i * 4, i);
  auto it = index.Last();
  ASSERT_FALSE(it.IsEnd());
  EXPECT_EQ(it.key(), 4999 * 4);
  int64_t expected = 4999 * 4;
  size_t seen = 0;
  while (!it.IsEnd()) {
    ASSERT_EQ(it.key(), expected);
    expected -= 4;
    ++seen;
    --it;
  }
  EXPECT_EQ(seen, 5000u);
}

TEST(ReverseIterationTest, LastOnEmptyIsEnd) {
  AlexInt index;
  EXPECT_TRUE(index.Last().IsEnd());
}

TEST(ReverseIterationTest, DecrementPastBeginIsEnd) {
  AlexInt index;
  index.Insert(10, 1);
  auto it = index.Last();
  --it;
  EXPECT_TRUE(it.IsEnd());
}

TEST(ReverseIterationTest, ForwardThenBackwardReturnsToStart) {
  AlexInt index;
  for (int64_t i = 0; i < 100; ++i) index.Insert(i * 7, i);
  auto it = index.LowerBound(350);
  const int64_t anchor = it.key();
  ++it;
  --it;
  EXPECT_EQ(it.key(), anchor);
}

TEST(ReverseIterationTest, WorksAcrossLeavesAfterSplits) {
  Config config;
  config.max_data_node_keys = 64;  // many leaves
  config.split_fanout = 4;
  AlexInt index(config);
  for (int64_t i = 0; i < 3000; ++i) index.Insert(i, i);
  auto it = index.Last();
  for (int64_t expected = 2999; expected >= 0; --expected) {
    ASSERT_FALSE(it.IsEnd());
    ASSERT_EQ(it.key(), expected);
    --it;
  }
  EXPECT_TRUE(it.IsEnd());
}

}  // namespace
}  // namespace alex::core
