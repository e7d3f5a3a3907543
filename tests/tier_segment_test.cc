// Unit tests for the cold-tier building blocks (src/tier/): segment
// write/open round trips (empty segments included), the learned fence
// lookup with its binary-search fallback and its fit over finite fence
// keys only, every Validate rejection path
// (byte flips must surface as the distinct kSegmentCorrupt status, a
// previous format version as kBadVersion), the full audit's key-order
// check and a mutation sweep of every bit and length of a small segment
// through it, segment file-name parsing for the
// checkpoint sweep, raw-mapping Get/ScanUntil, in-place block
// verification, and the verified-block table (hit/miss/eviction/bytes
// accounting, re-verification after eviction, a working set that fits
// keeping its hits, failed verifies never entering, EraseSegment, and
// readers racing EraseSegment under TSan).
#include "tier/block_cache.h"
#include "tier/segment.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/serialization.h"
#include "test_files.h"
#include "util/checksum.h"

namespace alex::tier {
namespace {

using core::SnapshotStatus;
using Segment = ColdSegment<int64_t, int64_t>;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

struct SortedRun {
  std::vector<int64_t> keys;
  std::vector<int64_t> payloads;
};

// n keys with an irregular stride so fence predictions are imperfect and
// the fallback path gets exercised.
SortedRun MakeRun(size_t n) {
  SortedRun run;
  run.keys.reserve(n);
  run.payloads.reserve(n);
  int64_t key = 100;
  for (size_t i = 0; i < n; ++i) {
    key += 1 + static_cast<int64_t>((i * i) % 7);
    run.keys.push_back(key);
    run.payloads.push_back(key * 3 + 1);
  }
  return run;
}

SnapshotStatus WriteRun(const std::string& path, const SortedRun& run,
                        size_t keys_per_block) {
  return WriteSegmentFile<int64_t, int64_t>(path, run.keys.data(),
                                            run.payloads.data(),
                                            run.keys.size(), keys_per_block);
}

// ---- Writer + Open round trip ----

TEST(TierSegment, WriteOpenRoundTrip) {
  const std::string path = TempPath("seg_roundtrip");
  const SortedRun run = MakeRun(1000);
  ASSERT_EQ(WriteRun(path, run, 64), SnapshotStatus::kOk);

  Segment seg;
  ASSERT_EQ(seg.Open(path, 7), SnapshotStatus::kOk);
  EXPECT_EQ(seg.id(), 7u);
  EXPECT_EQ(seg.path(), path);
  EXPECT_EQ(seg.num_keys(), 1000u);
  EXPECT_EQ(seg.num_blocks(), (1000 + 63) / 64u);
  EXPECT_EQ(seg.keys_per_block(), 64u);
  EXPECT_EQ(seg.min_key(), run.keys.front());
  EXPECT_EQ(seg.max_key(), run.keys.back());
  EXPECT_EQ(seg.VerifyAllBlocks(), SnapshotStatus::kOk);
  EXPECT_GT(seg.file_bytes(), seg.MetaSizeBytes());

  // Every key resolves to its payload; probes between keys miss.
  for (size_t i = 0; i < run.keys.size(); ++i) {
    int64_t payload = 0;
    ASSERT_TRUE(seg.Get(run.keys[i], &payload)) << "i=" << i;
    EXPECT_EQ(payload, run.payloads[i]);
  }
  EXPECT_FALSE(seg.Contains(run.keys.front() - 1));
  EXPECT_FALSE(seg.Contains(run.keys.back() + 1));
  int64_t ignored;
  EXPECT_FALSE(seg.Get(run.keys[0] + 1 == run.keys[1] ? run.keys.back() + 5
                                                      : run.keys[0] + 1,
                       &ignored));
  std::remove(path.c_str());
}

TEST(TierSegment, ShortFinalBlockAndSingleBlock) {
  // 130 keys / 64 per block -> final block of 2; also a 10-key single
  // block segment (num_blocks == 1 exercises the fence edge cases).
  for (const size_t n : {size_t{130}, size_t{10}}) {
    const std::string path = TempPath("seg_short");
    const SortedRun run = MakeRun(n);
    ASSERT_EQ(WriteRun(path, run, 64), SnapshotStatus::kOk);
    Segment seg;
    ASSERT_EQ(seg.Open(path, 1), SnapshotStatus::kOk);
    for (size_t i = 0; i < n; ++i) {
      int64_t payload = 0;
      ASSERT_TRUE(seg.Get(run.keys[i], &payload));
      EXPECT_EQ(payload, run.payloads[i]);
    }
    std::remove(path.c_str());
  }
}

TEST(TierSegment, BlockOfKeyAgreesWithFence) {
  const std::string path = TempPath("seg_fence");
  const SortedRun run = MakeRun(2000);
  ASSERT_EQ(WriteRun(path, run, 32), SnapshotStatus::kOk);
  Segment seg;
  ASSERT_EQ(seg.Open(path, 1), SnapshotStatus::kOk);
  for (size_t i = 0; i < run.keys.size(); ++i) {
    const size_t b = seg.BlockOfKey(run.keys[i]);
    EXPECT_EQ(b, i / 32) << "key index " << i;
  }
  std::remove(path.c_str());
}

TEST(TierSegment, FenceModelFitsOnlyFiniteFenceKeys) {
  // -inf, 0..4999, +inf at 256 keys per block: block 0's fence is -inf.
  // Fit over it, the model would be flat and start every lookup at the
  // middle block; fit over the finite fences, it predicts every block.
  std::vector<double> keys{-std::numeric_limits<double>::infinity()};
  for (int k = 0; k < 5000; ++k) keys.push_back(k);
  keys.push_back(std::numeric_limits<double>::infinity());
  const std::vector<int64_t> payloads(keys.size(), 1);
  const std::string path = TempPath("seg_inf_fence");
  ASSERT_EQ((WriteSegmentFile<double, int64_t>(path, keys.data(),
                                               payloads.data(), keys.size(),
                                               256)),
            SnapshotStatus::kOk);
  SegmentHeader header;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fread(&header, sizeof(header), 1, f), 1u);
  std::fclose(f);
  EXPECT_NE(header.fence_slope, 0.0);
  const model::LinearModel fence_model(header.fence_slope,
                                       header.fence_intercept);
  ColdSegment<double, int64_t> seg;
  ASSERT_EQ(seg.Open(path, 1), SnapshotStatus::kOk);
  for (int k = 0; k < 5000; ++k) {
    EXPECT_EQ(fence_model.Predict(k, seg.num_blocks()), seg.BlockOfKey(k))
        << "key " << k;
  }
  std::remove(path.c_str());
}


// ---- ScanUntil ----

TEST(TierSegment, ScanUntilRangesAndEarlyStop) {
  const std::string path = TempPath("seg_scan");
  const SortedRun run = MakeRun(500);
  ASSERT_EQ(WriteRun(path, run, 64), SnapshotStatus::kOk);
  Segment seg;
  ASSERT_EQ(seg.Open(path, 1), SnapshotStatus::kOk);

  // Full scan reproduces the run in order.
  std::vector<int64_t> keys, payloads;
  size_t visited = seg.ScanUntil(
      run.keys.front(), run.keys.back(), [&](int64_t k, int64_t p) {
        keys.push_back(k);
        payloads.push_back(p);
        return true;
      });
  EXPECT_EQ(visited, run.keys.size());
  EXPECT_EQ(keys, run.keys);
  EXPECT_EQ(payloads, run.payloads);

  // Interior range [keys[100], keys[199]] crossing block boundaries.
  keys.clear();
  visited = seg.ScanUntil(run.keys[100], run.keys[199],
                          [&](int64_t k, int64_t) {
                            keys.push_back(k);
                            return true;
                          });
  EXPECT_EQ(visited, 100u);
  EXPECT_EQ(keys.front(), run.keys[100]);
  EXPECT_EQ(keys.back(), run.keys[199]);

  // Early stop after 10 records.
  size_t seen = 0;
  visited = seg.ScanUntil(run.keys.front(), run.keys.back(),
                          [&](int64_t, int64_t) { return ++seen < 10; });
  EXPECT_EQ(seen, 10u);
  EXPECT_EQ(visited, 10u);

  // Disjoint / inverted ranges visit nothing.
  EXPECT_EQ(seg.ScanUntil(run.keys.back() + 1, run.keys.back() + 100,
                          [&](int64_t, int64_t) { return true; }),
            0u);
  EXPECT_EQ(seg.ScanUntil(run.keys.back(), run.keys.front(),
                          [&](int64_t, int64_t) { return true; }),
            0u);
  std::remove(path.c_str());
}

// ---- Corruption and structural rejection ----

using test::ReadAll;
using test::WriteAll;

TEST(TierSegment, EmptySegmentRoundTrips) {
  const std::string path = TempPath("seg_empty");
  ASSERT_EQ((WriteSegmentFile<int64_t, int64_t>(path, nullptr, nullptr, 0,
                                                64)),
            SnapshotStatus::kOk);
  Segment seg;
  ASSERT_EQ(seg.Open(path, 3), SnapshotStatus::kOk);
  EXPECT_EQ(seg.num_keys(), 0u);
  EXPECT_EQ(seg.num_blocks(), 0u);
  EXPECT_EQ(seg.file_bytes(), sizeof(SegmentHeader));
  EXPECT_EQ(seg.VerifyAllBlocks(), SnapshotStatus::kOk);
  // The inverted key range makes every lookup miss, extremes included.
  for (const int64_t key : {std::numeric_limits<int64_t>::lowest(),
                            int64_t{0}, std::numeric_limits<int64_t>::max()}) {
    int64_t payload = 0;
    EXPECT_FALSE(seg.Get(key, &payload)) << key;
    EXPECT_FALSE(seg.Contains(key)) << key;
  }
  size_t seen = 0;
  EXPECT_EQ(seg.ScanUntil(std::numeric_limits<int64_t>::lowest(),
                          std::numeric_limits<int64_t>::max(),
                          [&](int64_t, int64_t) { return ++seen > 0; }),
            0u);
  EXPECT_EQ(seen, 0u);

  // An empty segment has no blocks: a header claiming one is truncated
  // (header checksum recomputed so only the block count is wrong).
  SegmentHeader header;
  std::vector<uint8_t> bytes = ReadAll(path);
  std::memcpy(&header, bytes.data(), sizeof(header));
  header.num_blocks = 1;
  header.header_checksum = util::Checksum64(
      &header, offsetof(SegmentHeader, header_checksum), 0);
  std::memcpy(bytes.data(), &header, sizeof(header));
  WriteAll(path, bytes);
  EXPECT_EQ(seg.Open(path, 3), SnapshotStatus::kTruncated);
  std::remove(path.c_str());
}

TEST(TierSegment, BlockByteFlipIsSegmentCorrupt) {
  const std::string path = TempPath("seg_flip_block");
  const SortedRun run = MakeRun(300);
  ASSERT_EQ(WriteRun(path, run, 64), SnapshotStatus::kOk);
  std::vector<uint8_t> bytes = ReadAll(path);
  bytes[bytes.size() - 5] ^= 0x40;  // inside the last block's payloads
  WriteAll(path, bytes);

  Segment seg;
  // Open never touches block data, so it still succeeds...
  ASSERT_EQ(seg.Open(path, 1), SnapshotStatus::kOk);
  // ...but the audit and the per-block verify both reject the block.
  EXPECT_EQ(seg.VerifyAllBlocks(), SnapshotStatus::kSegmentCorrupt);
  EXPECT_EQ(seg.VerifyBlock(seg.num_blocks() - 1),
            SnapshotStatus::kSegmentCorrupt);
  EXPECT_EQ(seg.VerifyBlock(0), SnapshotStatus::kOk);
  std::remove(path.c_str());
}

TEST(TierSegment, MetadataByteFlipIsSegmentCorrupt) {
  const std::string path = TempPath("seg_flip_meta");
  const SortedRun run = MakeRun(300);
  ASSERT_EQ(WriteRun(path, run, 64), SnapshotStatus::kOk);
  std::vector<uint8_t> bytes = ReadAll(path);
  bytes[sizeof(SegmentHeader) + 3] ^= 0x01;  // first block checksum
  WriteAll(path, bytes);
  Segment seg;
  EXPECT_EQ(seg.Open(path, 1), SnapshotStatus::kSegmentCorrupt);
  std::remove(path.c_str());
}

TEST(TierSegment, HeaderByteFlipIsSegmentCorrupt) {
  const std::string path = TempPath("seg_flip_header");
  const SortedRun run = MakeRun(300);
  ASSERT_EQ(WriteRun(path, run, 64), SnapshotStatus::kOk);
  std::vector<uint8_t> bytes = ReadAll(path);
  bytes[40] ^= 0x02;  // num_keys field; header checksum catches it
  WriteAll(path, bytes);
  Segment seg;
  EXPECT_EQ(seg.Open(path, 1), SnapshotStatus::kSegmentCorrupt);
  std::remove(path.c_str());
}

TEST(TierSegment, PreviousVersionIsBadVersion) {
  const std::string path = TempPath("seg_previous_version");
  const SortedRun run = MakeRun(300);
  ASSERT_EQ(WriteRun(path, run, 64), SnapshotStatus::kOk);
  const std::vector<uint8_t> bytes = ReadAll(path);
  // Re-stamps the version and re-checksums the header over the span the
  // format defines (every byte before header_checksum).
  const auto stamp = [&](uint64_t version) {
    SegmentHeader header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    header.version = version;
    header.header_checksum = util::Checksum64(
        &header, offsetof(SegmentHeader, header_checksum), 0);
    std::vector<uint8_t> stamped = bytes;
    std::memcpy(stamped.data(), &header, sizeof(header));
    WriteAll(path, stamped);
  };
  Segment seg;
  // Positive control: the same rewrite at the current version loads.
  stamp(internal::kSegmentVersion);
  EXPECT_EQ(seg.Open(path, 1), SnapshotStatus::kOk);
  stamp(internal::kSegmentVersion - 1);
  EXPECT_EQ(seg.Open(path, 1), SnapshotStatus::kBadVersion);
  // The version is checked before the header checksum, so an old file,
  // whose header checksum is of the old kind, reads the same way.
  std::vector<uint8_t> stale = bytes;
  const uint64_t previous = internal::kSegmentVersion - 1;
  std::memcpy(stale.data() + offsetof(SegmentHeader, version), &previous,
              sizeof(previous));
  WriteAll(path, stale);
  EXPECT_EQ(seg.Open(path, 1), SnapshotStatus::kBadVersion);
  std::remove(path.c_str());
}

TEST(TierSegment, StructuralRejections) {
  const std::string path = TempPath("seg_structural");
  const SortedRun run = MakeRun(300);

  // Wrong magic (first byte of the file).
  ASSERT_EQ(WriteRun(path, run, 64), SnapshotStatus::kOk);
  std::vector<uint8_t> bytes = ReadAll(path);
  std::vector<uint8_t> mutated = bytes;
  mutated[0] ^= 0xFF;
  WriteAll(path, mutated);
  Segment seg;
  EXPECT_EQ(seg.Open(path, 1), SnapshotStatus::kBadMagic);

  // Truncated to a torn header.
  mutated.assign(bytes.begin(), bytes.begin() + 40);
  WriteAll(path, mutated);
  EXPECT_EQ(seg.Open(path, 1), SnapshotStatus::kTruncated);

  // Truncated mid-data: header intact, file shorter than it promises.
  mutated.assign(bytes.begin(), bytes.end() - 64);
  WriteAll(path, mutated);
  EXPECT_EQ(seg.Open(path, 1), SnapshotStatus::kTruncated);

  // Missing file.
  std::remove(path.c_str());
  EXPECT_EQ(seg.Open(path, 1), SnapshotStatus::kIoError);
}

TEST(TierSegment, KeyAndPayloadWidthMismatch) {
  const std::string path = TempPath("seg_width");
  const SortedRun run = MakeRun(100);
  ASSERT_EQ(WriteRun(path, run, 64), SnapshotStatus::kOk);
  ColdSegment<int32_t, int64_t> narrow_key;
  EXPECT_EQ(narrow_key.Open(path, 1), SnapshotStatus::kKeySizeMismatch);
  ColdSegment<int64_t, int32_t> narrow_payload;
  EXPECT_EQ(narrow_payload.Open(path, 1),
            SnapshotStatus::kPayloadSizeMismatch);
  std::remove(path.c_str());
}

// ---- Key order (the full audit only) ----

// Recomputes the metadata and header checksums after a test edits the
// fence array, so the edit is the only thing wrong with the file.
void Restamp(std::vector<uint8_t>* bytes) {
  SegmentHeader header;
  std::memcpy(&header, bytes->data(), sizeof(header));
  header.meta_checksum = util::Checksum64(
      bytes->data() + sizeof(header),
      header.num_blocks * (sizeof(uint64_t) + sizeof(int64_t)), 0);
  header.header_checksum = SegmentHeaderChecksum(header);
  std::memcpy(bytes->data(), &header, sizeof(header));
}

TEST(TierSegment, AuditRejectsKeysOutOfOrder) {
  const std::string path = TempPath("seg_unsorted");
  const auto write = [&](std::vector<int64_t> keys) {
    const std::vector<int64_t> payloads(keys.size(), 7);
    ASSERT_EQ((WriteSegmentFile<int64_t, int64_t>(
                  path, keys.data(), payloads.data(), keys.size(), 4)),
              SnapshotStatus::kOk);
  };
  Segment seg;

  // Out of order inside each block; the fences {1, 9} are in order, so
  // Open and every block checksum pass, and only the audit objects.
  write({1, 5, 3, 7, 9, 11, 10, 20});
  ASSERT_EQ(seg.Open(path, 1), SnapshotStatus::kOk);
  EXPECT_EQ(seg.VerifyBlock(0), SnapshotStatus::kOk);
  EXPECT_EQ(seg.VerifyBlock(1), SnapshotStatus::kOk);
  EXPECT_EQ(seg.VerifyAllBlocks(), SnapshotStatus::kUnsortedKeys);
  EXPECT_EQ(OpenAudited(&seg, path, 1), SnapshotStatus::kUnsortedKeys);

  // Each block in order, but block 0 runs past block 1's fence.
  write({1, 3, 5, 7, 6, 8, 9, 10});
  EXPECT_EQ(OpenAudited(&seg, path, 1), SnapshotStatus::kUnsortedKeys);

  // Block 1's first key differs from its fence (fences re-stamped so
  // they stay in order and checksum clean).
  write({1, 3, 5, 7, 9, 11, 13, 15});
  EXPECT_EQ(OpenAudited(&seg, path, 1), SnapshotStatus::kOk);
  std::vector<uint8_t> bytes = ReadAll(path);
  const int64_t fence = 8;
  std::memcpy(bytes.data() + sizeof(SegmentHeader) + 2 * sizeof(uint64_t) +
                  sizeof(int64_t),
              &fence, sizeof(fence));
  Restamp(&bytes);
  WriteAll(path, bytes);
  ASSERT_EQ(seg.Open(path, 1), SnapshotStatus::kOk);
  EXPECT_EQ(seg.VerifyAllBlocks(), SnapshotStatus::kUnsortedKeys);
  std::remove(path.c_str());
}

// Every byte of a segment is covered by the magic, the version, or the
// header, metadata or a block checksum, so no single-bit flip and no
// truncation may pass the full audit (a first slice of fuzzing the
// on-disk parsers; runs under the sanitizers like every other test).
TEST(TierSegment, MutationSweepNeverPassesTheAudit) {
  const std::string path = TempPath("seg_mutation");
  const SortedRun run = MakeRun(12);  // 3 blocks of 4 keys: 328 bytes
  ASSERT_EQ(WriteRun(path, run, 4), SnapshotStatus::kOk);
  const std::vector<uint8_t> good = ReadAll(path);
  ASSERT_EQ(good.size(),
            sizeof(SegmentHeader) + 3 * (sizeof(uint64_t) + sizeof(int64_t)) +
                12 * 2 * sizeof(int64_t));
  Segment seg;
  ASSERT_EQ(OpenAudited(&seg, path, 1), SnapshotStatus::kOk);

  for (size_t i = 0; i < good.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> bad = good;
      bad[i] ^= static_cast<uint8_t>(1u << bit);
      WriteAll(path, bad);
      EXPECT_NE(OpenAudited(&seg, path, 1), SnapshotStatus::kOk)
          << "byte " << i << " bit " << bit;
    }
  }
  for (size_t len = 0; len < good.size(); ++len) {
    WriteAll(path, std::vector<uint8_t>(good.begin(), good.begin() + len));
    EXPECT_NE(OpenAudited(&seg, path, 1), SnapshotStatus::kOk)
        << "length " << len;
  }
  std::remove(path.c_str());
}

// ---- File names ----

TEST(TierSegment, SegmentPathAndParse) {
  const std::string path = SegmentPath("/tmp/db/store", 42);
  EXPECT_EQ(path, "/tmp/db/store.seg-42");

  uint64_t id = 0;
  bool is_tmp = false;
  ASSERT_TRUE(ParseSegmentFileName("store.seg-42", "store", &id, &is_tmp));
  EXPECT_EQ(id, 42u);
  EXPECT_FALSE(is_tmp);
  ASSERT_TRUE(
      ParseSegmentFileName("store.seg-7.tmp", "store", &id, &is_tmp));
  EXPECT_EQ(id, 7u);
  EXPECT_TRUE(is_tmp);

  EXPECT_FALSE(ParseSegmentFileName("store.seg-", "store", &id, &is_tmp));
  EXPECT_FALSE(ParseSegmentFileName("store.seg-x", "store", &id, &is_tmp));
  EXPECT_FALSE(
      ParseSegmentFileName("store.seg-42.bak", "store", &id, &is_tmp));
  EXPECT_FALSE(ParseSegmentFileName("other.seg-42", "store", &id, &is_tmp));
  EXPECT_FALSE(
      ParseSegmentFileName("store.shard-0001", "store", &id, &is_tmp));
}

// ---- Verified-block table ----

constexpr size_t kBlockBytes = 256;

// A verify callback that counts its calls per block and passes unless
// told to fail.
struct CountingVerify {
  uint64_t calls = 0;
  std::vector<uint64_t> per_block = std::vector<uint64_t>(64, 0);
  bool fail = false;

  bool Read(BlockCache* cache, uint64_t segment, uint64_t block) {
    return cache->Verified(segment, block, [&] {
      ++calls;
      ++per_block[block];
      return !fail;
    });
  }
};

TEST(BlockCache, HitMissEvictionAndBytes) {
  BlockCache cache(8 * kBlockBytes, kBlockBytes);  // one set of 8 ways
  CountingVerify verify;
  for (uint64_t b = 0; b < 8; ++b) ASSERT_TRUE(verify.Read(&cache, 1, b));
  EXPECT_EQ(cache.misses(), 8u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.bytes(), 8 * kBlockBytes);
  for (uint64_t b = 0; b < 8; ++b) ASSERT_TRUE(verify.Read(&cache, 1, b));
  EXPECT_EQ(cache.hits(), 8u);
  EXPECT_EQ(verify.calls, 8u);  // hits never verify
  EXPECT_EQ(cache.evictions(), 0u);

  ASSERT_TRUE(verify.Read(&cache, 1, 8));  // full set: one tag goes
  EXPECT_EQ(cache.misses(), 9u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.bytes(), 8 * kBlockBytes);
}

TEST(BlockCache, CapacityZeroVerifiesEveryRead) {
  // Below one whole set (8 slots) the table holds nothing.
  for (const size_t capacity :
       {size_t{0}, kBlockBytes - 1, 8 * kBlockBytes - 1}) {
    BlockCache cache(capacity, kBlockBytes);
    CountingVerify verify;
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(verify.Read(&cache, 1, 0));
    EXPECT_EQ(verify.calls, 3u);
    EXPECT_EQ(cache.misses(), 3u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_EQ(cache.bytes(), 0u);
  }
}

TEST(BlockCache, EvictedBlockIsVerifiedAgain) {
  BlockCache cache(8 * kBlockBytes, kBlockBytes);  // one set of 8 ways
  CountingVerify verify;
  for (uint64_t b = 0; b < 8; ++b) ASSERT_TRUE(verify.Read(&cache, 1, b));
  ASSERT_TRUE(verify.Read(&cache, 1, 8));  // evicts one of blocks 0..7
  ASSERT_EQ(cache.evictions(), 1u);
  // Re-reading 0..7 hits until it reaches the evicted block, which is
  // verified again.
  uint64_t b = 0;
  while (b < 8 && verify.Read(&cache, 1, b) && verify.per_block[b] == 1) ++b;
  ASSERT_LT(b, 8u);
  EXPECT_EQ(verify.per_block[b], 2u);
  EXPECT_EQ(verify.calls, 10u);
  EXPECT_EQ(cache.hits(), b);
}

TEST(BlockCache, AWorkingSetThatFitsKeepsItsHits) {
  // 8 sets of 8 ways. Consecutive blocks of a segment take consecutive
  // sets, so 64 blocks of one segment, or 24 + 24 of two, all fit.
  for (const uint64_t per_segment : {uint64_t{64}, uint64_t{24}}) {
    BlockCache cache(64 * kBlockBytes, kBlockBytes);
    CountingVerify verify;
    const uint64_t segments = per_segment == 64 ? 1 : 2;
    for (int pass = 0; pass < 2; ++pass) {
      for (uint64_t s = 1; s <= segments; ++s) {
        for (uint64_t b = 0; b < per_segment; ++b) {
          ASSERT_TRUE(verify.Read(&cache, s, b));
        }
      }
    }
    EXPECT_EQ(verify.calls, segments * per_segment);
    EXPECT_EQ(cache.hits(), segments * per_segment);
    EXPECT_EQ(cache.evictions(), 0u);
  }
}

TEST(BlockCache, EraseSegmentFreesOnlyItsSlots) {
  BlockCache cache(64 * kBlockBytes, kBlockBytes);
  CountingVerify verify;
  for (uint64_t b = 0; b < 8; ++b) {
    verify.Read(&cache, 1, b);
    verify.Read(&cache, 2, b);
  }
  EXPECT_EQ(cache.bytes(), 16 * kBlockBytes);
  cache.EraseSegment(1);
  EXPECT_EQ(cache.bytes(), 8 * kBlockBytes);
  // Segment 2 is untouched: all hits, no verifies; segment 1 verifies.
  const uint64_t calls_before = verify.calls;
  for (uint64_t b = 0; b < 8; ++b) ASSERT_TRUE(verify.Read(&cache, 2, b));
  EXPECT_EQ(verify.calls, calls_before);
  for (uint64_t b = 0; b < 8; ++b) ASSERT_TRUE(verify.Read(&cache, 1, b));
  EXPECT_EQ(verify.calls, calls_before + 8);
}

TEST(BlockCache, FailedVerifyLeavesNoEntry) {
  BlockCache cache(64 * kBlockBytes, kBlockBytes);
  CountingVerify verify;
  verify.fail = true;
  EXPECT_FALSE(verify.Read(&cache, 1, 0));
  EXPECT_FALSE(verify.Read(&cache, 1, 0));  // not remembered: verified again
  EXPECT_EQ(verify.calls, 2u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);

  verify.fail = false;
  EXPECT_TRUE(verify.Read(&cache, 1, 0));
  EXPECT_TRUE(verify.Read(&cache, 1, 0));
  EXPECT_EQ(verify.calls, 3u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(BlockCache, SegmentVerifyIntegration) {
  // The real wiring: verify = ColdSegment::VerifyBlock, reader =
  // SearchBlock over the block in the mapping.
  const std::string path = TempPath("seg_cache");
  const SortedRun run = MakeRun(1000);
  ASSERT_EQ(WriteRun(path, run, 64), SnapshotStatus::kOk);
  Segment seg;
  ASSERT_EQ(seg.Open(path, 5), SnapshotStatus::kOk);

  BlockCache cache(1 << 20, 64 * 16);
  for (size_t i = 0; i < run.keys.size(); i += 17) {
    const int64_t key = run.keys[i];
    const size_t b = seg.BlockOfKey(key);
    ASSERT_TRUE(cache.Verified(seg.cache_id(), b, [&] {
      return seg.VerifyBlock(b) == SnapshotStatus::kOk;
    }));
    int64_t payload = 0;
    ASSERT_TRUE(Segment::SearchBlock(seg.BlockData(b), seg.BlockKeys(b),
                                     key, &payload));
    EXPECT_EQ(payload, run.payloads[i]);
  }
  EXPECT_GT(cache.hits(), 0u);  // 17-stride revisits blocks of 64 keys
  EXPECT_EQ(cache.misses(), seg.num_blocks());
  std::remove(path.c_str());
}

// TSan target: readers verify and search two segments through a table
// that holds 1/8 of their blocks, so every read races installs and
// evictions, while another thread keeps erasing both segments.
TEST(BlockCache, ReadersRaceEraseSegment) {
  const SortedRun run = MakeRun(4096);
  const std::string paths[2] = {TempPath("seg_race_a"),
                                TempPath("seg_race_b")};
  Segment segs[2];
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(WriteRun(paths[i], run, 64), SnapshotStatus::kOk);
    ASSERT_EQ(segs[i].Open(paths[i], 1), SnapshotStatus::kOk);
  }
  const size_t total_blocks = 2 * segs[0].num_blocks();
  BlockCache cache(total_blocks / 8 * 64 * 16, 64 * 16);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937_64 rng(t);
      for (int i = 0; i < 20000; ++i) {
        const Segment& seg = segs[rng() % 2];
        const size_t k = rng() % run.keys.size();
        const size_t b = seg.BlockOfKey(run.keys[k]);
        const bool ok = cache.Verified(seg.cache_id(), b, [&] {
          return seg.VerifyBlock(b) == SnapshotStatus::kOk;
        });
        int64_t payload = 0;
        if (!ok ||
            !Segment::SearchBlock(seg.BlockData(b), seg.BlockKeys(b),
                                  run.keys[k], &payload) ||
            payload != run.payloads[k]) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  std::thread eraser([&] {
    while (!stop.load()) {
      cache.EraseSegment(segs[0].cache_id());
      cache.EraseSegment(segs[1].cache_id());
      std::this_thread::yield();
    }
  });
  for (std::thread& t : readers) t.join();
  stop.store(true);
  eraser.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(cache.hits() + cache.misses(), 4u * 20000u);
  EXPECT_LE(cache.bytes(), total_blocks / 8 * 64 * 16);
  for (const std::string& path : paths) std::remove(path.c_str());
}

}  // namespace
}  // namespace alex::tier
