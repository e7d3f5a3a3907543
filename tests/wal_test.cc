// Unit tests for the WAL subsystem (src/wal/): record/segment round
// trips, the group-commit writer under concurrent committers (a TSan
// target), seal/rotate hand-offs, the torn-tail-vs-corruption contract
// of the reader, and replay semantics (idempotence, checkpoint skip,
// parent-before-child ordering).
#include "wal/log_reader.h"
#include "wal/log_writer.h"
#include "wal/wal_format.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/serialization.h"
#include "obs/metrics.h"
#include "util/histogram.h"

namespace alex::wal {
namespace {

using Log = ShardLog<int64_t, int64_t>;
using Record = WalRecord<int64_t, int64_t>;

std::string TempPrefix(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

void RemoveSegments(const std::string& prefix) {
  for (const WalSegmentFile& f : ListWalSegments(prefix)) {
    std::remove(f.path.c_str());
  }
}

WalStatus ReadSeg(const std::string& path, WalSegmentInfo* info,
                  std::vector<Record>* records) {
  return ReadWalSegment<int64_t, int64_t>(path, info, records);
}

WalStatus Replay(const std::string& prefix,
                 const std::map<uint64_t, uint64_t>& checkpoints,
                 std::map<int64_t, int64_t>* state,
                 RecoveryReport* report) {
  return ReplayWal<int64_t, int64_t>(prefix, checkpoints, state, report);
}

WalOptions NoSync() {
  WalOptions options;
  options.sync_policy = SyncPolicy::kNone;
  return options;
}

// ---- Status names ----

TEST(WalFormatTest, StatusToStringCoversDistinctNames) {
  std::set<std::string> names;
  for (const WalStatus s :
       {WalStatus::kOk, WalStatus::kIoError, WalStatus::kBadMagic,
        WalStatus::kBadVersion, WalStatus::kKeySizeMismatch,
        WalStatus::kPayloadSizeMismatch, WalStatus::kBadHeaderChecksum,
        WalStatus::kBadRecordType, WalStatus::kBadRecordLength,
        WalStatus::kChecksumMismatch, WalStatus::kOutOfOrderLsn,
        WalStatus::kSegmentGap, WalStatus::kSealed,
        WalStatus::kAlreadyEnabled, WalStatus::kCheckpointFailed}) {
    names.insert(ToString(s));
  }
  EXPECT_EQ(names.size(), 15u);
  EXPECT_EQ(names.count("unknown"), 0u);
  // operator<< (what gtest failure output uses) prints the name.
  std::ostringstream os;
  os << WalStatus::kChecksumMismatch;
  EXPECT_EQ(os.str(), "checksum-mismatch");
}

TEST(WalFormatTest, SnapshotStatusPrintsNamesToo) {
  std::ostringstream os;
  os << core::SnapshotStatus::kWalReplayFailed;
  EXPECT_EQ(os.str(), "wal-replay-failed");
  EXPECT_STREQ(core::ToString(core::SnapshotStatus::kManifestMismatch),
               "manifest-mismatch");
}

TEST(WalFormatTest, SegmentNameRoundTripsAndRejectsForeignNames) {
  const std::string path = WalSegmentPath("dir/pfx", 12, 3);
  EXPECT_EQ(path, "dir/pfx.wal-000012-000003");
  uint64_t id = 0, seq = 0;
  EXPECT_TRUE(ParseWalSegmentName("pfx.wal-000012-000003", "pfx", &id,
                                  &seq));
  EXPECT_EQ(id, 12u);
  EXPECT_EQ(seq, 3u);
  EXPECT_FALSE(ParseWalSegmentName("other.wal-000001-000001", "pfx", &id,
                                   &seq));
  EXPECT_FALSE(ParseWalSegmentName("pfx.wal-junk", "pfx", &id, &seq));
  EXPECT_FALSE(
      ParseWalSegmentName("pfx.wal-000001-000001.bak", "pfx", &id, &seq));
  EXPECT_FALSE(ParseWalSegmentName("pfx.wal--1-000001", "pfx", &id, &seq));
  // Ids/seqs that outgrow the 6-digit zero padding still round-trip
  // (a capped parse would hide such segments from recovery).
  uint64_t big_id = 0, big_seq = 0;
  const std::string big = WalSegmentPath("pfx", 12345678, 10000001);
  ASSERT_TRUE(ParseWalSegmentName(big, "pfx", &big_id, &big_seq));
  EXPECT_EQ(big_id, 12345678u);
  EXPECT_EQ(big_seq, 10000001u);
}

// ---- Writer/reader round trips ----

TEST(WalLogTest, RecordsRoundTripInOrder) {
  const std::string prefix = TempPrefix("wal-roundtrip");
  RemoveSegments(prefix);
  {
    Log log(prefix, 7, 0, 1, 0, NoSync());
    ASSERT_EQ(log.Open(), WalStatus::kOk);
    const int64_t k1 = 10, v1 = 100, k2 = 20, v2 = 200;
    ASSERT_EQ(log.Log(WalRecordType::kInsert, k1, &v1), WalStatus::kOk);
    ASSERT_EQ(log.Log(WalRecordType::kInsert, k2, &v2), WalStatus::kOk);
    ASSERT_EQ(log.Log(WalRecordType::kUpdate, k1, &v2), WalStatus::kOk);
    ASSERT_EQ(log.Log(WalRecordType::kErase, k2, nullptr), WalStatus::kOk);
    EXPECT_EQ(log.last_lsn(), 4u);
  }  // destructor flushes
  WalSegmentInfo info;
  std::vector<Record> records;
  ASSERT_EQ(ReadSeg(WalSegmentPath(prefix, 7, 1),
                                             &info, &records),
            WalStatus::kOk);
  EXPECT_EQ(info.wal_id, 7u);
  EXPECT_EQ(info.seq, 1u);
  EXPECT_EQ(info.start_lsn, 0u);
  EXPECT_EQ(info.last_lsn, 4u);
  EXPECT_FALSE(info.sealed);
  EXPECT_FALSE(info.tail_truncated);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].type, WalRecordType::kInsert);
  EXPECT_EQ(records[0].key, 10);
  EXPECT_EQ(records[0].payload, 100);
  EXPECT_EQ(records[2].type, WalRecordType::kUpdate);
  EXPECT_EQ(records[2].payload, 200);
  EXPECT_EQ(records[3].type, WalRecordType::kErase);
  EXPECT_EQ(records[3].key, 20);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].lsn, i + 1);
  }
  RemoveSegments(prefix);
}

TEST(WalLogTest, GroupCommitUnderConcurrentWritersLosesNothing) {
  // The TSan target: 8 committers race Log() under kAlways; afterwards
  // every record is present exactly once with contiguous LSNs.
  const std::string prefix = TempPrefix("wal-group");
  RemoveSegments(prefix);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  {
    WalOptions options;
    options.sync_policy = SyncPolicy::kAlways;
    Log log(prefix, 1, 0, 1, 0, options);
    ASSERT_EQ(log.Open(), WalStatus::kOk);
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&log, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const int64_t key = t * kPerThread + i;
          const int64_t payload = key * 10;
          ASSERT_EQ(log.Log(WalRecordType::kInsert, key, &payload),
                    WalStatus::kOk);
        }
      });
    }
    for (auto& w : writers) w.join();
    EXPECT_EQ(log.last_lsn(),
              static_cast<uint64_t>(kThreads * kPerThread));
  }
  WalSegmentInfo info;
  std::vector<Record> records;
  ASSERT_EQ(ReadSeg(WalSegmentPath(prefix, 1, 1),
                                             &info, &records),
            WalStatus::kOk);
  ASSERT_EQ(records.size(),
            static_cast<size_t>(kThreads * kPerThread));
  std::set<int64_t> keys;
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].lsn, i + 1);  // contiguous, ascending
    EXPECT_EQ(records[i].payload, records[i].key * 10);
    keys.insert(records[i].key);
  }
  EXPECT_EQ(keys.size(), records.size());  // no duplicates, none lost
  RemoveSegments(prefix);
}

TEST(WalLogTest, SealEndsTheLogPermanently) {
  const std::string prefix = TempPrefix("wal-seal");
  RemoveSegments(prefix);
  Log log(prefix, 3, 0, 1, 0, NoSync());
  ASSERT_EQ(log.Open(), WalStatus::kOk);
  const int64_t k = 1, v = 2;
  ASSERT_EQ(log.Log(WalRecordType::kInsert, k, &v), WalStatus::kOk);
  ASSERT_EQ(log.Seal(), WalStatus::kOk);
  EXPECT_TRUE(log.sealed());
  EXPECT_EQ(log.Log(WalRecordType::kInsert, k, &v), WalStatus::kSealed);
  EXPECT_EQ(log.Rotate(), WalStatus::kSealed);
  EXPECT_EQ(log.Seal(), WalStatus::kOk);  // idempotent

  WalSegmentInfo info;
  std::vector<Record> records;
  ASSERT_EQ(ReadSeg(WalSegmentPath(prefix, 3, 1),
                                             &info, &records),
            WalStatus::kOk);
  EXPECT_TRUE(info.sealed);
  EXPECT_EQ(records.size(), 1u);  // the seal marker is not a record
  EXPECT_EQ(info.last_lsn, 2u);   // but it carries the final LSN
  RemoveSegments(prefix);
}

TEST(WalLogTest, RotateChainsSegmentsByStartLsn) {
  const std::string prefix = TempPrefix("wal-rotate");
  RemoveSegments(prefix);
  std::string old_path;
  {
    Log log(prefix, 5, 0, 1, 0, NoSync());
    ASSERT_EQ(log.Open(), WalStatus::kOk);
    const int64_t v = 9;
    for (int64_t k = 0; k < 10; ++k) {
      ASSERT_EQ(log.Log(WalRecordType::kInsert, k, &v), WalStatus::kOk);
    }
    ASSERT_EQ(log.Rotate(&old_path), WalStatus::kOk);
    EXPECT_EQ(old_path, WalSegmentPath(prefix, 5, 1));
    EXPECT_EQ(log.seq(), 2u);
    for (int64_t k = 10; k < 15; ++k) {
      ASSERT_EQ(log.Log(WalRecordType::kInsert, k, &v), WalStatus::kOk);
    }
  }  // destructor flushes segment 2

  WalSegmentInfo info1, info2;
  std::vector<Record> r1, r2;
  ASSERT_EQ(ReadSeg(WalSegmentPath(prefix, 5, 1),
                                             &info1, &r1),
            WalStatus::kOk);
  ASSERT_EQ(ReadSeg(WalSegmentPath(prefix, 5, 2),
                                             &info2, &r2),
            WalStatus::kOk);
  EXPECT_EQ(info1.last_lsn, 10u);
  EXPECT_EQ(info2.start_lsn, 10u);  // the chain recovery validates
  EXPECT_EQ(r1.size(), 10u);
  EXPECT_EQ(r2.size(), 5u);
  EXPECT_EQ(r2.front().lsn, 11u);
  RemoveSegments(prefix);
}

// ---- Corruption taxonomy ----

/// Writes `n` insert records (key i, payload i*2) and returns the path.
std::string WriteSimpleLog(const std::string& prefix, uint64_t wal_id,
                           int64_t n) {
  Log log(prefix, wal_id, 0, 1, 0, NoSync());
  EXPECT_EQ(log.Open(), WalStatus::kOk);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t payload = i * 2;
    EXPECT_EQ(log.Log(WalRecordType::kInsert, i, &payload),
              WalStatus::kOk);
  }
  return WalSegmentPath(prefix, wal_id, 1);
}

long FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size;
}

void FlipByteAt(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(c ^ 0xFF, f);
  std::fclose(f);
}

void TruncateTo(const std::string& path, long size) {
  ASSERT_EQ(::truncate(path.c_str(), size), 0);
}

TEST(WalReaderTest, TornTailMidRecordIsToleratedAndTruncatable) {
  const std::string prefix = TempPrefix("wal-torn");
  RemoveSegments(prefix);
  const std::string path = WriteSimpleLog(prefix, 1, 50);
  TruncateTo(path, FileSize(path) - 5);  // tear the last record's body

  WalSegmentInfo info;
  std::vector<Record> records;
  ASSERT_EQ(ReadSeg(path, &info, &records),
            WalStatus::kOk);
  EXPECT_TRUE(info.tail_truncated);
  EXPECT_EQ(records.size(), 49u);  // exactly one (the torn one) lost
  EXPECT_EQ(info.last_lsn, 49u);
  constexpr size_t kRecordBytes =
      sizeof(WalRecordHeader) + 2 * sizeof(int64_t);
  EXPECT_EQ(info.valid_bytes,
            sizeof(WalSegmentHeader) + 49 * kRecordBytes);

  // Truncating at valid_bytes yields a clean log.
  TruncateTo(path, static_cast<long>(info.valid_bytes));
  ASSERT_EQ(ReadSeg(path, &info, &records),
            WalStatus::kOk);
  EXPECT_FALSE(info.tail_truncated);
  EXPECT_EQ(records.size(), 49u);
  RemoveSegments(prefix);
}

TEST(WalReaderTest, ChecksumFlipInFinalRecordIsATornTail) {
  const std::string prefix = TempPrefix("wal-tornsum");
  RemoveSegments(prefix);
  const std::string path = WriteSimpleLog(prefix, 1, 20);
  FlipByteAt(path, FileSize(path) - 3);  // inside the final record's body
  WalSegmentInfo info;
  std::vector<Record> records;
  ASSERT_EQ(ReadSeg(path, &info, &records),
            WalStatus::kOk);
  EXPECT_TRUE(info.tail_truncated);
  EXPECT_EQ(records.size(), 19u);
  RemoveSegments(prefix);
}

TEST(WalReaderTest, ChecksumFlipMidSegmentIsCorruption) {
  const std::string prefix = TempPrefix("wal-flip");
  RemoveSegments(prefix);
  const std::string path = WriteSimpleLog(prefix, 1, 50);
  // Flip a payload byte of an early record: well before the tail span.
  FlipByteAt(path, static_cast<long>(sizeof(WalSegmentHeader) +
                                     3 * 40 + sizeof(WalRecordHeader) +
                                     sizeof(int64_t)));
  WalSegmentInfo info;
  std::vector<Record> records;
  EXPECT_EQ(ReadSeg(path, &info, &records),
            WalStatus::kChecksumMismatch);
  RemoveSegments(prefix);
}

TEST(WalReaderTest, HeaderCorruptionsHaveDistinctStatuses) {
  const std::string prefix = TempPrefix("wal-hdr");
  RemoveSegments(prefix);
  WalSegmentInfo info;
  std::vector<Record> records;
  const std::string path = WriteSimpleLog(prefix, 1, 4);

  {  // magic
    std::string p = path + ".magic";
    WalSegmentHeader h;
    std::FILE* src = std::fopen(path.c_str(), "rb");
    ASSERT_EQ(std::fread(&h, sizeof(h), 1, src), 1u);
    std::fclose(src);
    h.magic ^= 1;
    std::FILE* f = std::fopen(p.c_str(), "wb");
    std::fwrite(&h, sizeof(h), 1, f);
    std::fclose(f);
    EXPECT_EQ(ReadSeg(p, &info, &records),
              WalStatus::kBadMagic);
    std::remove(p.c_str());
  }
  {  // version (checksum recomputed so only the version is wrong)
    std::string p = path + ".ver";
    WalSegmentHeader h;
    std::FILE* src = std::fopen(path.c_str(), "rb");
    ASSERT_EQ(std::fread(&h, sizeof(h), 1, src), 1u);
    std::fclose(src);
    h.version += 1;
    h.header_checksum = WalHeaderChecksum(h);
    std::FILE* f = std::fopen(p.c_str(), "wb");
    std::fwrite(&h, sizeof(h), 1, f);
    std::fclose(f);
    EXPECT_EQ(ReadSeg(p, &info, &records),
              WalStatus::kBadVersion);
    std::remove(p.c_str());
  }
  {  // key size
    std::vector<Record> unused;
    WalSegmentInfo i32;
    ShardLog<int32_t, int64_t> narrow(prefix + "-narrow", 1, 0, 1, 0,
                                      NoSync());
    ASSERT_EQ(narrow.Open(), WalStatus::kOk);
    EXPECT_EQ(ReadSeg(
                  WalSegmentPath(prefix + "-narrow", 1, 1), &i32, &unused),
              WalStatus::kKeySizeMismatch);
    std::remove(WalSegmentPath(prefix + "-narrow", 1, 1).c_str());
  }
  {  // header checksum
    FlipByteAt(path, 40);  // inside wal_id/parent fields
    EXPECT_EQ(ReadSeg(path, &info, &records),
              WalStatus::kBadHeaderChecksum);
  }
  RemoveSegments(prefix);
}

// ---- Replay ----

TEST(WalReplayTest, ReplayAppliesOperationSemanticsAndIsIdempotent) {
  const std::string prefix = TempPrefix("wal-replay");
  RemoveSegments(prefix);
  {
    Log log(prefix, 1, 0, 1, 0, NoSync());
    ASSERT_EQ(log.Open(), WalStatus::kOk);
    const int64_t v1 = 100, v2 = 200, v3 = 300;
    ASSERT_EQ(log.Log(WalRecordType::kInsert, 1, &v1), WalStatus::kOk);
    ASSERT_EQ(log.Log(WalRecordType::kInsert, 2, &v2), WalStatus::kOk);
    // A duplicate insert that the index rejected: replay must keep 100.
    ASSERT_EQ(log.Log(WalRecordType::kInsert, 1, &v3), WalStatus::kOk);
    // Update of an absent key: replay must not resurrect it.
    ASSERT_EQ(log.Log(WalRecordType::kUpdate, 9, &v3), WalStatus::kOk);
    ASSERT_EQ(log.Log(WalRecordType::kUpdate, 2, &v3), WalStatus::kOk);
    ASSERT_EQ(log.Log(WalRecordType::kErase, 1, nullptr), WalStatus::kOk);
  }
  std::map<int64_t, int64_t> state;
  RecoveryReport report;
  ASSERT_EQ(Replay(prefix, {}, &state, &report),
            WalStatus::kOk);
  EXPECT_EQ(report.records_replayed, 6u);
  const std::map<int64_t, int64_t> expected = {{2, 300}};
  EXPECT_EQ(state, expected);

  // Idempotence: replaying the same logs over the result changes nothing.
  ASSERT_EQ(Replay(prefix, {}, &state, &report),
            WalStatus::kOk);
  EXPECT_EQ(state, expected);
  RemoveSegments(prefix);
}

TEST(WalReplayTest, CheckpointLsnSkipsCoveredRecords) {
  const std::string prefix = TempPrefix("wal-cp");
  RemoveSegments(prefix);
  WriteSimpleLog(prefix, 4, 10);  // keys 0..9, lsn 1..10
  std::map<int64_t, int64_t> state;
  RecoveryReport report;
  ASSERT_EQ(Replay(prefix, {{4, 7}}, &state, &report),
            WalStatus::kOk);
  EXPECT_EQ(report.records_skipped, 7u);
  EXPECT_EQ(report.records_replayed, 3u);
  EXPECT_EQ(state.size(), 3u);  // keys 7, 8, 9 only
  EXPECT_EQ(state.count(6), 0u);
  EXPECT_EQ(state.count(7), 1u);
  RemoveSegments(prefix);
}

TEST(WalReplayTest, EmptyLogAndNoLogsReplayToNothing) {
  const std::string prefix = TempPrefix("wal-empty");
  RemoveSegments(prefix);
  std::map<int64_t, int64_t> state;
  RecoveryReport report;
  // No segments at all.
  ASSERT_EQ(Replay(prefix, {}, &state, &report),
            WalStatus::kOk);
  EXPECT_EQ(report.segments_scanned, 0u);
  EXPECT_TRUE(state.empty());
  // A segment with a header and zero records.
  {
    Log log(prefix, 2, 0, 1, 0, NoSync());
    ASSERT_EQ(log.Open(), WalStatus::kOk);
  }
  ASSERT_EQ(Replay(prefix, {}, &state, &report),
            WalStatus::kOk);
  EXPECT_EQ(report.segments_scanned, 1u);
  EXPECT_EQ(report.records_replayed, 0u);
  EXPECT_TRUE(state.empty());
  RemoveSegments(prefix);
}

TEST(WalReplayTest, AscendingWalIdOrderIsParentBeforeChild) {
  // Lineage: log 1 inserts k=5 then is sealed (a split); log 2 (child)
  // updates and log 3 (another child) erases-then-inserts. Ascending id
  // order must apply 1 before 2 and 3.
  const std::string prefix = TempPrefix("wal-lineage");
  RemoveSegments(prefix);
  const int64_t v1 = 10, v2 = 20, v3 = 30;
  {
    Log parent(prefix, 1, 0, 1, 0, NoSync());
    ASSERT_EQ(parent.Open(), WalStatus::kOk);
    ASSERT_EQ(parent.Log(WalRecordType::kInsert, 5, &v1), WalStatus::kOk);
    ASSERT_EQ(parent.Log(WalRecordType::kInsert, 6, &v1), WalStatus::kOk);
    ASSERT_EQ(parent.Seal(), WalStatus::kOk);
    Log child_a(prefix, 2, 1, 1, 0, NoSync());
    ASSERT_EQ(child_a.Open(), WalStatus::kOk);
    ASSERT_EQ(child_a.Log(WalRecordType::kUpdate, 5, &v2),
              WalStatus::kOk);
    Log child_b(prefix, 3, 1, 1, 0, NoSync());
    ASSERT_EQ(child_b.Open(), WalStatus::kOk);
    ASSERT_EQ(child_b.Log(WalRecordType::kErase, 6, nullptr),
              WalStatus::kOk);
    ASSERT_EQ(child_b.Log(WalRecordType::kInsert, 7, &v3),
              WalStatus::kOk);
  }
  std::map<int64_t, int64_t> state;
  RecoveryReport report;
  ASSERT_EQ(Replay(prefix, {}, &state, &report),
            WalStatus::kOk);
  const std::map<int64_t, int64_t> expected = {{5, 20}, {7, 30}};
  EXPECT_EQ(state, expected);
  EXPECT_EQ(report.max_wal_id, 3u);
  RemoveSegments(prefix);
}

TEST(WalReplayTest, RotationHoleIsASegmentGap) {
  const std::string prefix = TempPrefix("wal-gap");
  RemoveSegments(prefix);
  {
    Log log(prefix, 1, 0, 1, 0, NoSync());
    ASSERT_EQ(log.Open(), WalStatus::kOk);
    const int64_t v = 1;
    for (int64_t k = 0; k < 8; ++k) {
      ASSERT_EQ(log.Log(WalRecordType::kInsert, k, &v), WalStatus::kOk);
    }
    ASSERT_EQ(log.Rotate(), WalStatus::kOk);
    ASSERT_EQ(log.Log(WalRecordType::kInsert, 100, &v), WalStatus::kOk);
  }
  // Segment 1 exists but its records are NOT covered by any checkpoint;
  // deleting it leaves segment 2 starting at LSN 8 with checkpoint 0.
  std::remove(WalSegmentPath(prefix, 1, 1).c_str());
  std::map<int64_t, int64_t> state;
  RecoveryReport report;
  EXPECT_EQ(Replay(prefix, {}, &state, &report),
            WalStatus::kSegmentGap);
  // With the checkpoint covering the deleted segment, replay succeeds.
  state.clear();
  ASSERT_EQ(Replay(prefix, {{1, 8}}, &state, &report),
            WalStatus::kOk);
  EXPECT_EQ(state.size(), 1u);
  EXPECT_EQ(state.count(100), 1u);
  RemoveSegments(prefix);
}

TEST(WalReplayTest, SyncPoliciesAllCommitRecords) {
  for (const SyncPolicy policy :
       {SyncPolicy::kNone, SyncPolicy::kBatch, SyncPolicy::kAlways}) {
    const std::string prefix =
        TempPrefix("wal-policy") + "-" + ToString(policy);
    RemoveSegments(prefix);
    {
      WalOptions options;
      options.sync_policy = policy;
      options.batch_interval_us = 100;
      Log log(prefix, 1, 0, 1, 0, options);
      ASSERT_EQ(log.Open(), WalStatus::kOk);
      for (int64_t k = 0; k < 300; ++k) {
        const int64_t v = k + 1;
        ASSERT_EQ(log.Log(WalRecordType::kInsert, k, &v), WalStatus::kOk);
      }
    }
    std::map<int64_t, int64_t> state;
    ASSERT_EQ(Replay(prefix, {}, &state, nullptr),
              WalStatus::kOk)
        << ToString(policy);
    EXPECT_EQ(state.size(), 300u) << ToString(policy);
    RemoveSegments(prefix);
  }
}

TEST(WalReaderTest, TypeCorruptionNearEofIsNotATornTail) {
  // The torn-tail span must stay one *data* record wide past the first
  // record position: a flipped type field three records before EOF —
  // within the wider first-record (topology) span — is corruption of
  // acknowledged writes and must fail loudly, never truncate silently.
  const std::string prefix = TempPrefix("wal-neareof");
  RemoveSegments(prefix);
  {
    Log log(prefix, 1, 0, 1, 0, NoSync());
    ASSERT_EQ(log.Open(), WalStatus::kOk);
    for (int64_t k = 0; k < 50; ++k) {
      const int64_t v = k;
      ASSERT_EQ(log.Log(WalRecordType::kInsert, k, &v), WalStatus::kOk);
    }
  }
  const std::string path = WalSegmentPath(prefix, 1, 1);
  // Record = 24-byte header + 16-byte body; corrupt the type field
  // (offset 16 into the header) of the 3rd-from-last record.
  constexpr long kRecord =
      static_cast<long>(sizeof(WalRecordHeader)) + 16;
  const long at = static_cast<long>(sizeof(WalSegmentHeader)) +
                  47 * kRecord + 16;
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, at, SEEK_SET), 0);
  std::fputc(0xEE, f);
  std::fclose(f);

  WalSegmentInfo info;
  std::vector<Record> records;
  const WalStatus status = ReadSeg(path, &info, &records);
  EXPECT_TRUE(status == WalStatus::kBadRecordType ||
              status == WalStatus::kBadRecordLength)
      << ToString(status);
  EXPECT_FALSE(info.tail_truncated);
  RemoveSegments(prefix);
}

// ---- Topology (multi-parent lineage) records ----

TEST(WalTopologyTest, TopologyRecordRoundTripsParents) {
  const std::string prefix = TempPrefix("wal-topo");
  RemoveSegments(prefix);
  {
    Log log(prefix, 9, 3, 1, 0, NoSync());
    ASSERT_EQ(log.Open(), WalStatus::kOk);
    ASSERT_EQ(log.LogTopology({3, 5}), WalStatus::kOk);
    const int64_t v = 100;
    ASSERT_EQ(log.Log(WalRecordType::kInsert, 10, &v), WalStatus::kOk);
    // Too many / too few parents are rejected up front.
    EXPECT_EQ(log.LogTopology({}), WalStatus::kBadRecordLength);
    EXPECT_EQ(
        log.LogTopology(std::vector<uint64_t>(kMaxTopologyParents + 1, 1)),
        WalStatus::kBadRecordLength);
  }
  WalSegmentInfo info;
  std::vector<Record> records;
  ASSERT_EQ(ReadSeg(WalSegmentPath(prefix, 9, 1), &info, &records),
            WalStatus::kOk);
  EXPECT_EQ(info.parent_wal_id, 3u);
  EXPECT_EQ(info.topology_parents, (std::vector<uint64_t>{3, 5}));
  // The topology record is metadata, not data: one data record remains.
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, 10);
  EXPECT_EQ(records[0].lsn, 2u);  // the topology record consumed LSN 1
  RemoveSegments(prefix);
}

TEST(WalTopologyTest, MergeChildReplaysAfterBothSealedParents) {
  // Two parent logs (disjoint ranges), each sealed at its final LSN; a
  // merge child lists both parents and overwrites/erases across the
  // union. Replay in ascending wal-id order must land on the child's
  // final state.
  const std::string prefix = TempPrefix("wal-mergechild");
  RemoveSegments(prefix);
  {
    Log a(prefix, 1, 0, 1, 0, NoSync());
    ASSERT_EQ(a.Open(), WalStatus::kOk);
    for (int64_t k = 0; k < 5; ++k) {
      const int64_t v = k;
      ASSERT_EQ(a.Log(WalRecordType::kInsert, k, &v), WalStatus::kOk);
    }
    ASSERT_EQ(a.Seal(), WalStatus::kOk);
    Log b(prefix, 2, 0, 1, 0, NoSync());
    ASSERT_EQ(b.Open(), WalStatus::kOk);
    for (int64_t k = 10; k < 15; ++k) {
      const int64_t v = k;
      ASSERT_EQ(b.Log(WalRecordType::kInsert, k, &v), WalStatus::kOk);
    }
    ASSERT_EQ(b.Seal(), WalStatus::kOk);
    Log child(prefix, 3, 1, 1, 0, NoSync());
    ASSERT_EQ(child.Open(), WalStatus::kOk);
    ASSERT_EQ(child.LogTopology({1, 2}), WalStatus::kOk);
    const int64_t v = 999;
    ASSERT_EQ(child.Log(WalRecordType::kUpdate, 12, &v), WalStatus::kOk);
    ASSERT_EQ(child.Log(WalRecordType::kErase, 0, nullptr),
              WalStatus::kOk);
  }
  // With a checkpoint map naming both roots (require_known_roots), the
  // child anchors through its parent list.
  std::map<int64_t, int64_t> state;
  RecoveryReport report;
  ASSERT_EQ((ReplayWal<int64_t, int64_t>(prefix, {{1, 0}, {2, 0}}, &state,
                                         &report,
                                         /*truncate_torn_tail=*/true,
                                         /*require_known_roots=*/true)),
            WalStatus::kOk);
  EXPECT_EQ(state.size(), 9u);  // 10 inserts - 1 erase
  EXPECT_EQ(state.at(12), 999);
  EXPECT_EQ(state.count(0), 0u);
  ASSERT_EQ(report.shards.size(), 3u);  // one per lineage
  EXPECT_EQ(report.shards[2].wal_id, 3u);
  EXPECT_EQ(report.shards[2].records_replayed, 2u);
  RemoveSegments(prefix);
}

TEST(WalTopologyTest, SupersededVictimLeftByACrashedSweepIsSkipped) {
  // The crash window between a checkpoint's manifest rename and its
  // segment sweep leaves the sealed topology victims on disk while the
  // manifest only knows their children. The victims are superseded —
  // the children's snapshot baseline includes their full effects — so
  // recovery must skip them, not wedge on an orphan-with-records.
  const std::string prefix = TempPrefix("wal-superseded");
  RemoveSegments(prefix);
  {
    Log victim(prefix, 1, 0, 1, 0, NoSync());
    ASSERT_EQ(victim.Open(), WalStatus::kOk);
    for (int64_t k = 0; k < 10; ++k) {
      const int64_t v = k;  // stale values the snapshot superseded
      ASSERT_EQ(victim.Log(WalRecordType::kInsert, k, &v), WalStatus::kOk);
    }
    ASSERT_EQ(victim.Seal(), WalStatus::kOk);
    Log child(prefix, 2, 1, 1, 0, NoSync());
    ASSERT_EQ(child.Open(), WalStatus::kOk);
    ASSERT_EQ(child.LogTopology({1}), WalStatus::kOk);
    const int64_t v = 777;
    ASSERT_EQ(child.Log(WalRecordType::kInsert, 50, &v), WalStatus::kOk);
  }
  // The checkpoint knows only the child (at its topology-record LSN).
  std::map<int64_t, int64_t> state;
  RecoveryReport report;
  ASSERT_EQ((ReplayWal<int64_t, int64_t>(prefix, {{2, 1}}, &state, &report,
                                         /*truncate_torn_tail=*/true,
                                         /*require_known_roots=*/true)),
            WalStatus::kOk);
  // Only the child's post-checkpoint record replayed; the victim's
  // records (already in the snapshot) did not.
  EXPECT_EQ(state.size(), 1u);
  EXPECT_EQ(state.at(50), 777);
  RemoveSegments(prefix);
}

TEST(WalTopologyTest, MergeChildWithUnanchoredParentIsAnOrphan) {
  // A child naming a parent the checkpoint does not know (and that has
  // no on-disk lineage back to one it does) must not replay: its
  // baseline was never captured.
  const std::string prefix = TempPrefix("wal-orphanchild");
  RemoveSegments(prefix);
  {
    Log a(prefix, 1, 0, 1, 0, NoSync());
    ASSERT_EQ(a.Open(), WalStatus::kOk);
    ASSERT_EQ(a.Seal(), WalStatus::kOk);
    Log child(prefix, 3, 1, 1, 0, NoSync());
    ASSERT_EQ(child.Open(), WalStatus::kOk);
    ASSERT_EQ(child.LogTopology({1, 2}), WalStatus::kOk);  // 2 unknown
    const int64_t v = 1;
    ASSERT_EQ(child.Log(WalRecordType::kInsert, 7, &v), WalStatus::kOk);
  }
  std::map<int64_t, int64_t> state;
  RecoveryReport report;
  EXPECT_EQ((ReplayWal<int64_t, int64_t>(prefix, {{1, 0}}, &state, &report,
                                         /*truncate_torn_tail=*/true,
                                         /*require_known_roots=*/true)),
            WalStatus::kSegmentGap);
  EXPECT_TRUE(state.empty());
  RemoveSegments(prefix);
}

// ---- Background sync clock ----

TEST(WalClockTest, BackgroundClockSyncsAnIdleLog) {
  // Under kBatch, a lone write right after a sync stays page-cache-only
  // until the next committer — unless the background clock is on, which
  // must make it durable within ~an interval with no further writes.
  const std::string prefix = TempPrefix("wal-clock");
  RemoveSegments(prefix);
  WalOptions options;
  options.sync_policy = SyncPolicy::kBatch;
  options.batch_interval_us = 2000;
  options.background_sync = true;
  Log log(prefix, 1, 0, 1, 0, options);
  ASSERT_EQ(log.Open(), WalStatus::kOk);
  const int64_t v = 1;
  ASSERT_EQ(log.Log(WalRecordType::kInsert, 1, &v), WalStatus::kOk);
  // No committer ever arrives again; the clock must advance durability.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (log.durable_lsn() < log.last_lsn() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(log.durable_lsn(), log.last_lsn());
  // Seal joins the clock thread; the log closes cleanly.
  EXPECT_EQ(log.Seal(), WalStatus::kOk);
  RemoveSegments(prefix);
}

TEST(WalClockTest, ClockSurvivesRotationAndDestruction) {
  const std::string prefix = TempPrefix("wal-clockrot");
  RemoveSegments(prefix);
  {
    WalOptions options;
    options.sync_policy = SyncPolicy::kBatch;
    options.batch_interval_us = 500;
    options.background_sync = true;
    Log log(prefix, 1, 0, 1, 0, options);
    ASSERT_EQ(log.Open(), WalStatus::kOk);
    for (int64_t k = 0; k < 50; ++k) {
      const int64_t v = k;
      ASSERT_EQ(log.Log(WalRecordType::kInsert, k, &v), WalStatus::kOk);
    }
    ASSERT_EQ(log.Rotate(), WalStatus::kOk);
    for (int64_t k = 50; k < 100; ++k) {
      const int64_t v = k;
      ASSERT_EQ(log.Log(WalRecordType::kInsert, k, &v), WalStatus::kOk);
    }
    // Destructor joins the clock with records still pending sync.
  }
  std::map<int64_t, int64_t> state;
  ASSERT_EQ(Replay(prefix, {}, &state, nullptr), WalStatus::kOk);
  EXPECT_EQ(state.size(), 100u);
  RemoveSegments(prefix);
}

// ---- Commit-wait histogram ----

TEST(WalLogTest, CommitWaitHistogramCountsEveryAck) {
#if defined(ALEX_DISABLE_OBS)
  GTEST_SKIP() << "the registry is compiled out";
#endif
  const std::string prefix = TempPrefix("wal-commitwait");
  RemoveSegments(prefix);
  obs::SetEnabled(true);
  obs::MetricsRegistry::Global().ResetAll();
  Log log(prefix, 1, 0, 1, 0, NoSync());
  ASSERT_EQ(log.Open(), WalStatus::kOk);
  for (int64_t k = 0; k < 200; ++k) {
    const int64_t v = k;
    ASSERT_EQ(log.Log(WalRecordType::kInsert, k, &v), WalStatus::kOk);
  }
  // A batch is one acknowledgement, hence one sample.
  const int64_t keys[] = {1000, 1001, 1002};
  ASSERT_EQ(log.LogBatch(WalRecordType::kInsert, keys, keys, 3),
            WalStatus::kOk);
  const util::Log2Histogram hist = obs::MetricsRegistry::Global()
                                       .GetHistogram("wal.commit_wait_ns")
                                       ->Snapshot();
  obs::SetEnabled(false);
  EXPECT_EQ(hist.total(), 201u);
  EXPECT_GE(hist.Quantile(0.99), hist.Quantile(0.5));
  RemoveSegments(prefix);
}

}  // namespace
}  // namespace alex::wal
