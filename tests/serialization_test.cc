// Index save/load (tier::SaveIndex / tier::LoadIndex): an Alex or a
// ConcurrentAlex saves as one segment (tier/segment.h) and bulk-loads
// back under the loader's Config. Round trips (empty, config change,
// block-boundary sizes, a save during a write storm, writes after a
// load), every distinct failure status with the index left untouched,
// and the refusal of files in the retired snapshot layout.
#include "core/serialization.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/alex.h"
#include "core/concurrent_alex.h"
#include "test_files.h"
#include "tier/segment.h"
#include "util/random.h"

namespace alex::core {
namespace {

using AlexInt = Alex<int64_t, int64_t>;
using test::ReadAll;
using test::WriteAll;
using tier::LoadIndex;
using tier::SaveIndex;
using tier::SegmentHeader;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// Every failed load below runs against an index holding exactly {1 -> 1},
// which the failure must leave as it was.
template <typename Index>
void ExpectUntouched(const Index& index) {
  EXPECT_EQ(index.size(), 1u);
  EXPECT_NE(index.Find(1), nullptr);
}

template <typename K, typename P>
Alex<K, P> OnePair() {
  Alex<K, P> index;
  index.Insert(1, 1);
  return index;
}

TEST(SerializationTest, RoundTripPreservesAllPairs) {
  AlexInt index;
  util::Xoshiro256 rng(5);
  for (int i = 0; i < 20000; ++i) {
    index.Insert(static_cast<int64_t>(rng.NextUint64(1000000)), i);
  }
  const std::string path = TempPath("roundtrip.alex");
  ASSERT_EQ(SaveIndex(index, path), SnapshotStatus::kOk);

  AlexInt loaded;
  ASSERT_EQ(LoadIndex(&loaded, path), SnapshotStatus::kOk);
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
  ASSERT_EQ(SaveIndex(index, path), SnapshotStatus::kOk);
  AlexInt loaded = OnePair<int64_t, int64_t>();  // overwritten by the load
  ASSERT_EQ(LoadIndex(&loaded, path), SnapshotStatus::kOk);
  EXPECT_TRUE(loaded.empty());
  std::remove(path.c_str());
}

TEST(SerializationTest, LoadIntoDifferentConfigRebuildsModels) {
  // Saved indexes are config-portable: a GA-ARMI save loads into a
  // PMA-SRMI index, which retrains its own models on bulk load.
  AlexInt ga_index;
  for (int64_t i = 0; i < 5000; ++i) ga_index.Insert(i * 3, i);
  const std::string path = TempPath("crossconfig.alex");
  ASSERT_EQ(SaveIndex(ga_index, path), SnapshotStatus::kOk);

  Config pma;
  pma.layout = NodeLayout::kPackedMemoryArray;
  pma.rmi_mode = RmiMode::kStatic;
  AlexInt loaded(pma);
  ASSERT_EQ(LoadIndex(&loaded, path), SnapshotStatus::kOk);
  EXPECT_EQ(loaded.size(), 5000u);
  EXPECT_TRUE(loaded.CheckInvariants());
  EXPECT_EQ(*loaded.Find(300), 100);
  std::remove(path.c_str());
}

TEST(SerializationTest, RejectsMissingFile) {
  AlexInt index = OnePair<int64_t, int64_t>();
  EXPECT_EQ(LoadIndex(&index, TempPath("does-not-exist.alex")),
            SnapshotStatus::kIoError);
  ExpectUntouched(index);
}

TEST(SerializationTest, RejectsWrongMagic) {
  // At least a segment header's worth of bytes, so the magic is what
  // fails rather than the length.
  const std::string path = TempPath("garbage.alex");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[128] = "this is not an alex segment";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  AlexInt index = OnePair<int64_t, int64_t>();
  EXPECT_EQ(LoadIndex(&index, path), SnapshotStatus::kBadMagic);
  ExpectUntouched(index);
  std::remove(path.c_str());
}

TEST(SerializationTest, RejectsPayloadSizeMismatch) {
  Alex<int64_t, int64_t> wide;
  wide.Insert(1, 1);
  const std::string path = TempPath("mismatch.alex");
  ASSERT_EQ(SaveIndex(wide, path), SnapshotStatus::kOk);
  Alex<int64_t, int32_t> narrow = OnePair<int64_t, int32_t>();
  EXPECT_EQ(LoadIndex(&narrow, path), SnapshotStatus::kPayloadSizeMismatch);
  ExpectUntouched(narrow);
  std::remove(path.c_str());
}

// ---- robustness: every failure mode gets a distinct status ----

std::string WriteSmallSave(const char* name) {
  AlexInt index;
  for (int64_t i = 0; i < 5000; ++i) index.Insert(i * 2, i);
  const std::string path = TempPath(name);
  EXPECT_EQ(SaveIndex(index, path), SnapshotStatus::kOk);
  return path;
}

TEST(SerializationRobustnessTest, TruncatedFileIsDetectedNotMisloaded) {
  const std::string path = WriteSmallSave("truncated.alex");
  std::vector<uint8_t> bytes = ReadAll(path);
  bytes.resize(sizeof(SegmentHeader) + 1234);
  WriteAll(path, bytes);
  AlexInt loaded = OnePair<int64_t, int64_t>();
  EXPECT_EQ(LoadIndex(&loaded, path), SnapshotStatus::kTruncated);
  ExpectUntouched(loaded);
  std::remove(path.c_str());
}

TEST(SerializationRobustnessTest, BogusKeyCountCannotOverAllocate) {
  // A count in the exabyte range under a header checksum that vouches
  // for it (a buggy writer, not a flipped byte) must be rejected against
  // the actual file size, not trusted by an allocation.
  const std::string path = WriteSmallSave("bogus-count.alex");
  std::vector<uint8_t> bytes = ReadAll(path);
  SegmentHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  header.num_keys = 1ULL << 60;
  header.header_checksum = tier::SegmentHeaderChecksum(header);
  std::memcpy(bytes.data(), &header, sizeof(header));
  WriteAll(path, bytes);
  AlexInt loaded = OnePair<int64_t, int64_t>();
  EXPECT_EQ(LoadIndex(&loaded, path), SnapshotStatus::kTruncated);
  ExpectUntouched(loaded);
  std::remove(path.c_str());
}

TEST(SerializationRobustnessTest, InteriorCorruptionIsDetected) {
  // Flip one byte in the middle of the block data: the header, the
  // metadata and the key range all stay plausible, so only the block
  // checksum can catch it.
  const std::string path = WriteSmallSave("interior-flip.alex");
  std::vector<uint8_t> bytes = ReadAll(path);
  bytes[bytes.size() / 2] ^= 0xA5;
  WriteAll(path, bytes);
  AlexInt loaded = OnePair<int64_t, int64_t>();
  EXPECT_EQ(LoadIndex(&loaded, path), SnapshotStatus::kSegmentCorrupt);
  ExpectUntouched(loaded);
  std::remove(path.c_str());
}

TEST(SerializationRobustnessTest, UnsortedKeysAreRejected) {
  // A checksummed-but-unsorted file (foreign writer) must not reach
  // BulkLoad, whose precondition is strictly increasing keys.
  const int64_t keys[] = {10, 5, 20};
  const int64_t payloads[] = {1, 2, 3};
  const std::string path = TempPath("unsorted.alex");
  ASSERT_EQ((tier::WriteSegmentFile<int64_t, int64_t>(
                path, keys, payloads, 3,
                tier::KeysPerBlock<int64_t, int64_t>(
                    tier::kDefaultBlockBytes))),
            SnapshotStatus::kOk);
  AlexInt loaded = OnePair<int64_t, int64_t>();
  EXPECT_EQ(LoadIndex(&loaded, path), SnapshotStatus::kUnsortedKeys);
  ExpectUntouched(loaded);
  std::remove(path.c_str());
}

TEST(SerializationRobustnessTest, WrongVersionIsDistinct) {
  const std::string path = WriteSmallSave("wrong-version.alex");
  std::vector<uint8_t> bytes = ReadAll(path);
  const uint64_t future = 999;
  std::memcpy(bytes.data() + offsetof(SegmentHeader, version), &future,
              sizeof(future));
  WriteAll(path, bytes);
  AlexInt loaded = OnePair<int64_t, int64_t>();
  EXPECT_EQ(LoadIndex(&loaded, path), SnapshotStatus::kBadVersion);
  ExpectUntouched(loaded);
  std::remove(path.c_str());
}

// Files of the retired snapshot layout (a 32-byte header tagged
// "ALEXSNAP", the key array, the payload array, a trailing checksum) no
// longer load: one at least a segment header long fails on its magic,
// a shorter one on its length.
TEST(SerializationRobustnessTest, OldSnapshotFilesAreRejected) {
  const auto old_layout = [](uint64_t n) {
    std::vector<uint8_t> bytes(32 + n * 16 + 8, 0);
    const uint64_t magic = 0x414C4558534E4150ULL;
    const uint32_t fields[4] = {3, 8, 8, 0};  // version, |K|, |P|, reserved
    std::memcpy(bytes.data(), &magic, sizeof(magic));
    std::memcpy(bytes.data() + 8, fields, sizeof(fields));
    std::memcpy(bytes.data() + 24, &n, sizeof(n));
    return bytes;
  };
  const std::string path = TempPath("old-snapshot.alex");
  AlexInt loaded = OnePair<int64_t, int64_t>();
  WriteAll(path, old_layout(3));  // 88 bytes: exactly a segment header
  EXPECT_EQ(LoadIndex(&loaded, path), SnapshotStatus::kBadMagic);
  ExpectUntouched(loaded);
  WriteAll(path, old_layout(2));  // 72 bytes
  EXPECT_EQ(LoadIndex(&loaded, path), SnapshotStatus::kTruncated);
  ExpectUntouched(loaded);
  std::remove(path.c_str());
}

// Sizes straddle the block boundary (KeysPerBlock records per block) on
// both sides, so the short final block is exercised; a flipped byte in
// that block's keys or payloads fails either tree's load, and restoring
// it loads again.
TEST(SerializationRobustnessTest, BlockBoundariesRoundTripAndDetectFlips) {
  constexpr size_t kBlock =
      tier::KeysPerBlock<int64_t, int64_t>(tier::kDefaultBlockBytes);
  for (const size_t n : {size_t{1}, kBlock - 1, kBlock, kBlock + 1,
                         3 * kBlock + 5}) {
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
    const std::string alex_path = TempPath("blocks-alex.alex");
    ASSERT_EQ(SaveIndex(source, alex_path), SnapshotStatus::kOk);
    AlexInt loaded;
    ASSERT_EQ(LoadIndex(&loaded, alex_path), SnapshotStatus::kOk);
    ASSERT_EQ(loaded.size(), n);
    expect_pairs([&](int64_t k, int64_t* v) {
      const int64_t* p = loaded.Find(k);
      if (p != nullptr) *v = *p;
      return p != nullptr;
    });

    ConcurrentAlex<int64_t, int64_t> concurrent;
    concurrent.BulkLoad(keys.data(), payloads.data(), n);
    const std::string concurrent_path = TempPath("blocks-concurrent.alex");
    ASSERT_EQ(SaveIndex(concurrent, concurrent_path), SnapshotStatus::kOk);
    ConcurrentAlex<int64_t, int64_t> reloaded;
    ASSERT_EQ(LoadIndex(&reloaded, concurrent_path), SnapshotStatus::kOk);
    ASSERT_EQ(reloaded.size(), n);
    expect_pairs([&](int64_t k, int64_t* v) { return reloaded.Get(k, v); });

    // The final block holds its m keys, then its m payloads, and ends
    // the file.
    const std::vector<uint8_t> good = ReadAll(alex_path);
    const size_t m = n % kBlock == 0 ? kBlock : n % kBlock;
    const size_t last_key = good.size() - m * 8 - 8 + 2;
    const size_t last_payload = good.size() - 8 + 2;
    for (const size_t at : {last_key, last_payload}) {
      std::vector<uint8_t> bad = good;
      bad[at] ^= 0xC3;
      WriteAll(alex_path, bad);
      EXPECT_EQ(LoadIndex(&loaded, alex_path),
                SnapshotStatus::kSegmentCorrupt);
      ConcurrentAlex<int64_t, int64_t> rejected;
      rejected.Insert(1, 1);
      EXPECT_EQ(LoadIndex(&rejected, alex_path),
                SnapshotStatus::kSegmentCorrupt);
      EXPECT_EQ(rejected.size(), 1u);
      WriteAll(alex_path, good);
      EXPECT_EQ(LoadIndex(&loaded, alex_path), SnapshotStatus::kOk);
    }
    std::remove(alex_path.c_str());
    std::remove(concurrent_path.c_str());
  }
}

TEST(SerializationRobustnessTest, SizeMismatchesAreDistinct) {
  const std::string path = WriteSmallSave("sizes.alex");
  Alex<int64_t, int32_t> narrow_payload = OnePair<int64_t, int32_t>();
  EXPECT_EQ(LoadIndex(&narrow_payload, path),
            SnapshotStatus::kPayloadSizeMismatch);
  ExpectUntouched(narrow_payload);
  Alex<int32_t, int64_t> narrow_key = OnePair<int32_t, int64_t>();
  EXPECT_EQ(LoadIndex(&narrow_key, path), SnapshotStatus::kKeySizeMismatch);
  ExpectUntouched(narrow_key);
  std::remove(path.c_str());
}

TEST(SerializationRobustnessTest, StatusNamesAreStable) {
  EXPECT_STREQ(SnapshotStatusName(SnapshotStatus::kOk), "ok");
  EXPECT_STREQ(SnapshotStatusName(SnapshotStatus::kTruncated),
               "truncated");
  EXPECT_STREQ(SnapshotStatusName(SnapshotStatus::kMissingShard),
               "missing-shard");
}

// ---- ConcurrentAlex saves (the same segment, the same loader) ----

TEST(ConcurrentSnapshotTest, RoundTripPreservesAllPairs) {
  core::ConcurrentAlex<int64_t, int64_t> index;
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 20000; ++i) {
    keys.push_back(i * 3);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  const std::string path = TempPath("concurrent-roundtrip.alex");
  ASSERT_EQ(SaveIndex(index, path), SnapshotStatus::kOk);

  core::ConcurrentAlex<int64_t, int64_t> loaded;
  ASSERT_EQ(LoadIndex(&loaded, path), SnapshotStatus::kOk);
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
  // Both trees save and load through the one segment writer and reader.
  core::ConcurrentAlex<int64_t, int64_t> source;
  for (int64_t i = 0; i < 3000; ++i) source.Insert(i * 5, i);
  const std::string path = TempPath("cross-class.alex");
  ASSERT_EQ(SaveIndex(source, path), SnapshotStatus::kOk);
  AlexInt loaded;
  ASSERT_EQ(LoadIndex(&loaded, path), SnapshotStatus::kOk);
  EXPECT_EQ(loaded.size(), 3000u);
  EXPECT_EQ(*loaded.Find(10), 2);
  std::remove(path.c_str());
}

TEST(ConcurrentSnapshotTest, SaveWithConcurrentWritersIsWellFormed) {
  // A save taken mid-write-storm must load cleanly and contain every key
  // committed before the save began (read-committed contract).
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
  const SnapshotStatus status = SaveIndex(index, path);
  stop.store(true, std::memory_order_release);
  writer.join();
  ASSERT_EQ(status, SnapshotStatus::kOk);

  core::ConcurrentAlex<int64_t, int64_t> loaded;
  ASSERT_EQ(LoadIndex(&loaded, path), SnapshotStatus::kOk);
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
  ASSERT_EQ(SaveIndex(index, path), SnapshotStatus::kOk);
  AlexInt loaded;
  ASSERT_EQ(LoadIndex(&loaded, path), SnapshotStatus::kOk);
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
