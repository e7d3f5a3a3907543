// Unit tests for the WAL subsystem (src/wal/): record/segment round
// trips, the group-commit writer under concurrent committers (a TSan
// target), the mapped segment (preallocation, growth, trim on close,
// fail-closed growth, the prefaulted runway), seal/rotate hand-offs, the
// torn-tail-vs-corruption contract of the reader including a live
// segment's zero remainder, and replay semantics (idempotence,
// checkpoint skip, parent-before-child ordering).
#include "wal/log_reader.h"
#include "wal/log_writer.h"
#include "wal/wal_format.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/serialization.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "util/checksum.h"
#include "util/histogram.h"

// The log's runway prefault, seen from the test. This binary defines
// madvise, so the library code compiled into it calls this definition
// instead of libc's (libc's own internal calls do not). A
// MADV_POPULATE_WRITE call is counted and can be made to fail or be held
// in flight until the test releases it; every other call, and every
// call once released, is the plain system call.
namespace {

struct PopulateHook {
  std::mutex mu;
  std::condition_variable cv;
  int calls = 0;       ///< MADV_POPULATE_WRITE calls seen
  int fail_errno = 0;  ///< nonzero: each call fails with this errno
  bool hold = false;   ///< the next call blocks until Release()
  bool held = false;   ///< a call is blocked now

  void Reset() {
    std::lock_guard<std::mutex> lock(mu);
    calls = 0;
    fail_errno = 0;
    hold = false;
  }
  void HoldNext() {
    std::lock_guard<std::mutex> lock(mu);
    hold = true;
  }
  /// Waits (up to 10 s) for a held call; false if none arrived.
  bool WaitHeld() {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(10),
                       [this] { return held; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu);
    held = false;
    cv.notify_all();
  }
  int Calls() {
    std::lock_guard<std::mutex> lock(mu);
    return calls;
  }
  void FailWith(int err) {
    std::lock_guard<std::mutex> lock(mu);
    fail_errno = err;
  }
};

PopulateHook& Hook() {
  static PopulateHook hook;
  return hook;
}

}  // namespace

extern "C" int madvise(void* addr, size_t len, int advice) noexcept {
#if defined(MADV_POPULATE_WRITE)
  if (advice == MADV_POPULATE_WRITE) {
    PopulateHook& hook = Hook();
    std::unique_lock<std::mutex> lock(hook.mu);
    ++hook.calls;
    if (hook.fail_errno != 0) {
      errno = hook.fail_errno;
      return -1;
    }
    if (hook.hold) {
      hook.hold = false;
      hook.held = true;
      hook.cv.notify_all();
      hook.cv.wait(lock, [&hook] { return !hook.held; });
    }
  }
#endif
  return static_cast<int>(::syscall(SYS_madvise, addr, len, advice));
}

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
                  std::vector<Record>* records, bool last_of_log = false) {
  return ReadWalSegment<int64_t, int64_t>(path, info, records, last_of_log);
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
  {  // previous version, whole segment re-stamped and re-checksummed over
     // the span the format defines (every header byte before the checksum)
    std::vector<uint8_t> bytes(1 << 16);
    std::FILE* src = std::fopen(path.c_str(), "rb");
    ASSERT_NE(src, nullptr);
    bytes.resize(std::fread(bytes.data(), 1, bytes.size(), src));
    std::fclose(src);
    ASSERT_GT(bytes.size(), sizeof(WalSegmentHeader));
    const std::string p = path + ".prev";
    const auto stamp = [&](uint32_t version) {
      WalSegmentHeader h;
      std::memcpy(&h, bytes.data(), sizeof(h));
      h.version = version;
      h.header_checksum = util::Checksum64(
          &h, offsetof(WalSegmentHeader, header_checksum), 0);
      std::memcpy(bytes.data(), &h, sizeof(h));
      std::FILE* f = std::fopen(p.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
      std::fclose(f);
    };
    stamp(internal::kWalVersion);  // positive control
    EXPECT_EQ(ReadSeg(p, &info, &records), WalStatus::kOk);
    stamp(internal::kWalVersion - 1);
    EXPECT_EQ(ReadSeg(p, &info, &records), WalStatus::kBadVersion);
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

// ---- Mapped segments: preallocation, growth, trim, failure ----

constexpr long kFirstChunk = 64 * 1024;
constexpr long kRecordBytes = static_cast<long>(sizeof(WalRecordHeader)) + 16;
constexpr long kHeaderBytes = static_cast<long>(sizeof(WalSegmentHeader));

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::vector<uint8_t> bytes(static_cast<size_t>(FileSize(path)));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

/// Appends `n` copies of `byte` to the file (a simulated remainder).
void AppendBytes(const std::string& path, size_t n, uint8_t byte = 0) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const std::vector<uint8_t> bytes(n, byte);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, n, f), n);
  std::fclose(f);
}

TEST(WalSegmentTest, ClosedSegmentIsExactlyHeaderPlusRecords) {
  // While open, the file is the preallocated, doubled mapping; once
  // closed it holds the header and the records and nothing else — the
  // layout a record-by-record writer produces.
  const std::string prefix = TempPrefix("wal-exact");
  RemoveSegments(prefix);
  const std::string path = WalSegmentPath(prefix, 4, 1);
  constexpr int64_t kRecords = 4000;  // > 128 KiB: two doublings
  {
    Log log(prefix, 4, 2, 1, 7, NoSync());
    ASSERT_EQ(log.Open(), WalStatus::kOk);
    EXPECT_EQ(FileSize(path), kFirstChunk);
    for (int64_t k = 0; k + 2 < kRecords; ++k) {
      const int64_t v = k * 3;
      ASSERT_EQ(log.Log(WalRecordType::kInsert, k, &v), WalStatus::kOk);
    }
    const int64_t keys[] = {-1, -2};
    ASSERT_EQ(log.LogBatch(WalRecordType::kErase, keys, nullptr, 2),
              WalStatus::kOk);
    EXPECT_EQ(FileSize(path), 4 * kFirstChunk);
  }
  const std::vector<uint8_t> bytes = ReadFile(path);
  constexpr long kEraseBytes = kRecordBytes - 8;
  ASSERT_EQ(static_cast<long>(bytes.size()),
            kHeaderBytes + (kRecords - 2) * kRecordBytes + 2 * kEraseBytes);
  WalSegmentHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  EXPECT_EQ(header.magic, internal::kWalMagic);
  EXPECT_EQ(header.wal_id, 4u);
  EXPECT_EQ(header.parent_wal_id, 2u);
  EXPECT_EQ(header.start_lsn, 7u);
  EXPECT_EQ(header.header_checksum, WalHeaderChecksum(header));
  // Spot-check one record field by field.
  WalRecordHeader rec;
  const size_t at = sizeof(header) + 10 * kRecordBytes;
  std::memcpy(&rec, bytes.data() + at, sizeof(rec));
  int64_t key = 0, payload = 0;
  std::memcpy(&key, bytes.data() + at + sizeof(rec), sizeof(key));
  std::memcpy(&payload, bytes.data() + at + sizeof(rec) + 8, sizeof(payload));
  EXPECT_EQ(rec.lsn, 18u);
  EXPECT_EQ(rec.type, static_cast<uint32_t>(WalRecordType::kInsert));
  EXPECT_EQ(rec.body_len, 16u);
  // The checksum covers lsn through the body's last byte, in one pass.
  EXPECT_EQ(rec.checksum, util::Checksum64(bytes.data() + at + 8,
                                           16 + rec.body_len, 0));
  EXPECT_EQ(key, 10);
  EXPECT_EQ(payload, 30);
  RemoveSegments(prefix);
}

/// Caps this process's file size (RLIMIT_FSIZE) with SIGXFSZ ignored, so
/// growing a file past the cap fails with EFBIG instead of killing the
/// process; the destructor restores both.
class FileSizeCap {
 public:
  explicit FileSizeCap(rlim_t bytes) {
    ::getrlimit(RLIMIT_FSIZE, &saved_);
    handler_ = std::signal(SIGXFSZ, SIG_IGN);
    struct rlimit capped = saved_;
    capped.rlim_cur = bytes;
    ok_ = ::setrlimit(RLIMIT_FSIZE, &capped) == 0;
  }
  ~FileSizeCap() {
    ::setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, handler_);
  }
  bool ok() const { return ok_; }

 private:
  struct rlimit saved_ {};
  void (*handler_)(int) = SIG_DFL;
  bool ok_ = false;
};

TEST(WalSegmentTest, GrowthFailureFailsClosedAndKeepsTheAckedPrefix) {
  const std::string prefix = TempPrefix("wal-fsize");
  RemoveSegments(prefix);
  const std::string path = WalSegmentPath(prefix, 1, 1);
  obs::SetEnabled(true);
  obs::GlobalJournal().Reset();
  uint64_t acked = 0;
  {
    Log log(prefix, 1, 0, 1, 0, NoSync());
    ASSERT_EQ(log.Open(), WalStatus::kOk);
    WalStatus status = WalStatus::kOk;
    {
      // The first doubling (to 128 KiB) fits under the cap; the second
      // (to 256 KiB) cannot.
      FileSizeCap cap(3 * kFirstChunk);
      ASSERT_TRUE(cap.ok());
      for (int64_t k = 0; k < 10000 && status == WalStatus::kOk; ++k) {
        const int64_t v = k * 7;
        status = log.Log(WalRecordType::kInsert, k, &v);
        if (status == WalStatus::kOk) ++acked;
      }
    }
    EXPECT_EQ(status, WalStatus::kIoError);
    // It failed at the second doubling, not before.
    EXPECT_GT(static_cast<long>(acked) * kRecordBytes, kFirstChunk);
    EXPECT_GE(kHeaderBytes + static_cast<long>(acked + 1) * kRecordBytes,
              2 * kFirstChunk);
    // Sticky: nothing can append, rotate or seal any more, even with the
    // cap lifted; the failed append consumed no LSN.
    const int64_t k = 1, v = 1;
    EXPECT_EQ(log.Log(WalRecordType::kInsert, k, &v), WalStatus::kIoError);
    EXPECT_EQ(log.LogBatch(WalRecordType::kErase, &k, nullptr, 1),
              WalStatus::kIoError);
    EXPECT_EQ(log.Rotate(), WalStatus::kIoError);
    EXPECT_EQ(log.Seal(), WalStatus::kIoError);
    EXPECT_EQ(log.last_lsn(), acked);
    // The file was never extended past what was mapped.
    EXPECT_EQ(FileSize(path), 2 * kFirstChunk);
  }
  obs::SetEnabled(false);
#if !defined(ALEX_DISABLE_OBS)
  const std::vector<obs::JournalEvent> events = obs::GlobalJournal().Snapshot();
  ASSERT_EQ(events.size(), 1u);  // the first failure only
  EXPECT_EQ(events[0].type, obs::EventType::kWalError);
  EXPECT_EQ(events[0].wal_id, 1u);
  EXPECT_EQ(events[0].lsn, acked + 1);
  EXPECT_EQ(events[0].a, static_cast<int64_t>(WalStatus::kIoError));
#endif
  // Closing trimmed the zero remainder; the acked prefix replays whole.
  EXPECT_EQ(FileSize(path),
            kHeaderBytes + static_cast<long>(acked) * kRecordBytes);
  std::map<int64_t, int64_t> state;
  RecoveryReport report;
  ASSERT_EQ(Replay(prefix, {}, &state, &report), WalStatus::kOk);
  EXPECT_FALSE(report.tail_truncated);
  ASSERT_EQ(state.size(), acked);
  EXPECT_EQ(state.rbegin()->second, state.rbegin()->first * 7);
  RemoveSegments(prefix);
}

// ---- The prefaulted runway ----

#if defined(MADV_POPULATE_WRITE)

/// Whether this kernel populates a writable mapping (Linux >= 5.14).
bool KernelPopulates() {
  const long page = ::sysconf(_SC_PAGESIZE);
  void* map = ::mmap(nullptr, static_cast<size_t>(page),
                     PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1,
                     0);
  if (map == MAP_FAILED) return false;
  const bool ok = static_cast<int>(::syscall(
                      SYS_madvise, map, page, MADV_POPULATE_WRITE)) == 0;
  ::munmap(map, static_cast<size_t>(page));
  return ok;
}

/// Start address of this process's mapping of the file at `path` (from
/// /proc/self/maps), or 0 when there is none.
uintptr_t MappingOf(const std::string& path) {
  char real[PATH_MAX];
  if (::realpath(path.c_str(), real) == nullptr) return 0;
  const std::string suffix = std::string(" ") + real;
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    if (line.size() > suffix.size() &&
        line.compare(line.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      return static_cast<uintptr_t>(std::stoull(line, nullptr, 16));
    }
  }
  return 0;
}

/// Whether every page of the mapping at `base` overlapping [from, to) has
/// a page-table entry, so a store there takes no not-present fault
/// (/proc/self/pagemap, bit 63 of each page's entry).
bool PagesMapped(uintptr_t base, long from, long to) {
  const long page = ::sysconf(_SC_PAGESIZE);
  const int fd = ::open("/proc/self/pagemap", O_RDONLY);
  if (fd < 0) return false;
  bool all = true;
  for (long p = from / page; p * page < to; ++p) {
    uint64_t entry = 0;
    const off_t at = static_cast<off_t>(
        (base / static_cast<uintptr_t>(page) + static_cast<uintptr_t>(p)) *
        sizeof(entry));
    all = all && ::pread(fd, &entry, sizeof(entry), at) ==
                     static_cast<ssize_t>(sizeof(entry)) &&
          (entry >> 63) != 0;
  }
  ::close(fd);
  return all;
}

TEST(WalRunwayTest, PagesAheadOfTheEndAreMapped) {
  // After every append, the pages from the logical end to half a runway
  // past it (or to the allocated end) are already mapped, so the next
  // appends store without a fault — across doublings too, which also
  // shows no prefault ever reached past the allocated size (that would
  // have failed and stopped the runway). Closing still leaves exactly the
  // header and the records. (Page-cache residency, mincore(2), would not
  // tell: the first fault's readahead caches the whole preallocation.)
  if (!KernelPopulates()) GTEST_SKIP() << "no MADV_POPULATE_WRITE";
  if (::access("/proc/self/pagemap", R_OK) != 0) {
    GTEST_SKIP() << "no /proc/self/pagemap";
  }
  const std::string prefix = TempPrefix("wal-runway");
  RemoveSegments(prefix);
  const std::string path = WalSegmentPath(prefix, 1, 1);
  Hook().Reset();
  constexpr long kHalfRunway = static_cast<long>(Log::kRunwayBytes / 2);
  constexpr int64_t kRecords = 20000;  // 800 KiB: four doublings
  {
    Log log(prefix, 1, 0, 1, 0, NoSync());
    ASSERT_EQ(log.Open(), WalStatus::kOk);
    for (int64_t k = 0; k < kRecords; ++k) {
      ASSERT_EQ(log.Log(WalRecordType::kInsert, k, &k), WalStatus::kOk);
      if (k % 997 != 0 && k + 1 != kRecords) continue;
      const long end = kHeaderBytes + (k + 1) * kRecordBytes;
      const long to = std::min(FileSize(path), end + kHalfRunway);
      const uintptr_t base = MappingOf(path);
      ASSERT_NE(base, 0u);
      ASSERT_TRUE(PagesMapped(base, end, to))
          << "after " << k + 1 << " records, end " << end << ", to " << to;
    }
    EXPECT_EQ(FileSize(path), 16 * kFirstChunk);
  }
  EXPECT_GT(Hook().Calls(), 0);
  EXPECT_EQ(FileSize(path), kHeaderBytes + kRecords * kRecordBytes);
  std::map<int64_t, int64_t> state;
  ASSERT_EQ(Replay(prefix, {}, &state, nullptr), WalStatus::kOk);
  EXPECT_EQ(state.size(), static_cast<size_t>(kRecords));
  RemoveSegments(prefix);
}

TEST(WalRunwayTest, DoublingWaitsOutAnInFlightPrefault) {
  // Growth remaps the segment, so a LogBatch that must double it waits
  // for another appender's prefault of the old mapping to finish; no
  // record is lost and the log replays in LSN order.
  const std::string prefix = TempPrefix("wal-runway-grow");
  RemoveSegments(prefix);
  const std::string path = WalSegmentPath(prefix, 1, 1);
  Hook().Reset();
  constexpr int64_t kBatch = 2000;  // 80 KiB: past the first 64 KiB
  {
    Log log(prefix, 1, 0, 1, 0, NoSync());
    ASSERT_EQ(log.Open(), WalStatus::kOk);
    Hook().HoldNext();
    std::thread first([&log] {
      const int64_t key = -1;
      EXPECT_EQ(log.Log(WalRecordType::kInsert, key, &key), WalStatus::kOk);
    });
    if (!Hook().WaitHeld()) {  // the first append's prefault is in flight
      first.join();
      FAIL() << "the first append issued no prefault";
    }
    std::atomic<bool> grown{false};
    std::thread batch([&log, &grown] {
      std::vector<int64_t> keys(kBatch);
      for (int64_t i = 0; i < kBatch; ++i) keys[i] = i;
      EXPECT_EQ(log.LogBatch(WalRecordType::kInsert, keys.data(),
                             keys.data(), keys.size()),
                WalStatus::kOk);
      grown.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(grown.load());
    EXPECT_EQ(FileSize(path), kFirstChunk);
    Hook().Release();
    first.join();
    batch.join();
    EXPECT_EQ(FileSize(path), 2 * kFirstChunk);
    EXPECT_EQ(log.last_lsn(), static_cast<uint64_t>(kBatch + 1));
  }
  WalSegmentInfo info;
  std::vector<Record> records;
  ASSERT_EQ(ReadSeg(path, &info, &records), WalStatus::kOk);
  ASSERT_EQ(records.size(), static_cast<size_t>(kBatch + 1));
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].lsn, i + 1);
    EXPECT_EQ(records[i].key, static_cast<int64_t>(i) - 1);
  }
  std::map<int64_t, int64_t> state;
  ASSERT_EQ(Replay(prefix, {}, &state, nullptr), WalStatus::kOk);
  EXPECT_EQ(state.size(), static_cast<size_t>(kBatch + 1));
  RemoveSegments(prefix);
}

TEST(WalRunwayTest, SealRotateAndDestructionWaitOutAnInFlightPrefault) {
  // Each of the three ways a segment is trimmed and unmapped, issued
  // while an appender's prefault runs with the mutex dropped, blocks
  // until the prefault is done; the closed segment is exactly the header
  // and the one record.
  enum class Close { kSeal, kRotate, kDestroy };
  for (const Close close : {Close::kSeal, Close::kRotate, Close::kDestroy}) {
    SCOPED_TRACE(static_cast<int>(close));
    const std::string prefix = TempPrefix("wal-runway-close");
    RemoveSegments(prefix);
    const std::string path = WalSegmentPath(prefix, 1, 1);
    Hook().Reset();
    std::optional<Log> log;
    log.emplace(prefix, 1, 0, 1, 0, NoSync());
    ASSERT_EQ(log->Open(), WalStatus::kOk);
    Hook().HoldNext();
    std::thread appender([&log] {
      const int64_t key = 7;
      EXPECT_EQ(log->Log(WalRecordType::kInsert, key, &key), WalStatus::kOk);
    });
    if (!Hook().WaitHeld()) {
      appender.join();
      FAIL() << "the append issued no prefault";
    }
    std::atomic<bool> closed{false};
    std::thread closer([&log, &closed, close] {
      switch (close) {
        case Close::kSeal:
          EXPECT_EQ(log->Seal(), WalStatus::kOk);
          break;
        case Close::kRotate:
          EXPECT_EQ(log->Rotate(), WalStatus::kOk);
          break;
        case Close::kDestroy:
          log.reset();
          break;
      }
      closed.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(closed.load());
    EXPECT_EQ(FileSize(path), kFirstChunk);  // not trimmed yet
    Hook().Release();
    appender.join();
    closer.join();
    log.reset();
    constexpr long kSealBytes = static_cast<long>(
        WalRecordBytes<int64_t, int64_t>(WalRecordType::kSeal));
    EXPECT_EQ(FileSize(path), kHeaderBytes + kRecordBytes +
                                  (close == Close::kSeal ? kSealBytes : 0));
    WalSegmentInfo info;
    std::vector<Record> records;
    ASSERT_EQ(ReadSeg(path, &info, &records), WalStatus::kOk);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].key, 7);
    EXPECT_EQ(info.sealed, close == Close::kSeal);
    RemoveSegments(prefix);
  }
}

TEST(WalRunwayTest, FailedPrefaultIsAHintNotAnError) {
  // A prefault that fails stops prefaulting for that segment only: every
  // append still succeeds, nothing is journaled, no later append of the
  // segment tries again, and the next segment prefaults afresh.
  const std::string prefix = TempPrefix("wal-runway-fail");
  RemoveSegments(prefix);
  Hook().Reset();
  obs::SetEnabled(true);
  obs::GlobalJournal().Reset();
  {
    Log log(prefix, 1, 0, 1, 0, NoSync());
    ASSERT_EQ(log.Open(), WalStatus::kOk);
    Hook().FailWith(EINVAL);
    for (int64_t k = 0; k < 4000; ++k) {  // two doublings
      ASSERT_EQ(log.Log(WalRecordType::kInsert, k, &k), WalStatus::kOk);
    }
    EXPECT_EQ(Hook().Calls(), 1);
    Hook().FailWith(0);
    ASSERT_EQ(log.Rotate(), WalStatus::kOk);
    const int64_t k = 4000;
    ASSERT_EQ(log.Log(WalRecordType::kInsert, k, &k), WalStatus::kOk);
    EXPECT_EQ(Hook().Calls(), 2);
  }
  obs::SetEnabled(false);
#if !defined(ALEX_DISABLE_OBS)
  EXPECT_TRUE(obs::GlobalJournal().Snapshot().empty());
#endif
  std::map<int64_t, int64_t> state;
  ASSERT_EQ(Replay(prefix, {}, &state, nullptr), WalStatus::kOk);
  EXPECT_EQ(state.size(), 4001u);
  RemoveSegments(prefix);
}

#endif  // MADV_POPULATE_WRITE

// ---- Reader: the last segment's zero remainder ----

TEST(WalReaderTest, LiveSegmentReadsUpToItsZeroRemainder) {
  // A live log's file is its preallocation; read as a last segment it
  // ends where the zeros begin — and a final record whose key and
  // payload are all zero bytes is a record, not remainder.
  const std::string prefix = TempPrefix("wal-live");
  RemoveSegments(prefix);
  const std::string path = WalSegmentPath(prefix, 1, 1);
  Log log(prefix, 1, 0, 1, 0, NoSync());
  ASSERT_EQ(log.Open(), WalStatus::kOk);
  const int64_t v = 5, zero = 0;
  ASSERT_EQ(log.Log(WalRecordType::kInsert, 9, &v), WalStatus::kOk);
  ASSERT_EQ(log.Log(WalRecordType::kInsert, 0, &zero), WalStatus::kOk);

  WalSegmentInfo info;
  std::vector<Record> records;
  ASSERT_EQ(ReadSeg(path, &info, &records, /*last_of_log=*/true),
            WalStatus::kOk);
  EXPECT_TRUE(info.zero_tail);
  EXPECT_FALSE(info.tail_truncated);
  EXPECT_EQ(info.valid_bytes,
            static_cast<uint64_t>(kHeaderBytes + 2 * kRecordBytes));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].key, 0);
  EXPECT_EQ(records[1].payload, 0);
  // Read as any other segment, the same remainder is corruption.
  EXPECT_EQ(ReadSeg(path, &info, &records), WalStatus::kBadRecordType);

  std::map<int64_t, int64_t> state;
  RecoveryReport report;
  ASSERT_EQ(Replay(prefix, {}, &state, &report), WalStatus::kOk);
  EXPECT_FALSE(report.tail_truncated);
  EXPECT_EQ(state, (std::map<int64_t, int64_t>{{0, 0}, {9, 5}}));
  EXPECT_EQ(FileSize(path), kFirstChunk);  // never shrunk
  RemoveSegments(prefix);
}

TEST(WalReaderTest, ZeroRemainderInSealedOrRotatedSegmentIsCorruption) {
  const std::string prefix = TempPrefix("wal-zerosealed");
  RemoveSegments(prefix);
  {
    Log log(prefix, 1, 0, 1, 0, NoSync());
    ASSERT_EQ(log.Open(), WalStatus::kOk);
    const int64_t v = 1;
    ASSERT_EQ(log.Log(WalRecordType::kInsert, 1, &v), WalStatus::kOk);
    ASSERT_EQ(log.Seal(), WalStatus::kOk);
  }
  const std::string sealed = WalSegmentPath(prefix, 1, 1);
  AppendBytes(sealed, 4096);
  std::map<int64_t, int64_t> state;
  RecoveryReport report;
  EXPECT_EQ(Replay(prefix, {}, &state, &report), WalStatus::kBadRecordType);
  EXPECT_EQ(report.detail, sealed);
  RemoveSegments(prefix);

  {
    Log log(prefix, 2, 0, 1, 0, NoSync());
    ASSERT_EQ(log.Open(), WalStatus::kOk);
    const int64_t v = 1;
    ASSERT_EQ(log.Log(WalRecordType::kInsert, 1, &v), WalStatus::kOk);
    ASSERT_EQ(log.Rotate(), WalStatus::kOk);
    ASSERT_EQ(log.Log(WalRecordType::kInsert, 2, &v), WalStatus::kOk);
  }
  const std::string rotated = WalSegmentPath(prefix, 2, 1);
  AppendBytes(rotated, 4096);
  EXPECT_EQ(Replay(prefix, {}, &state, &report), WalStatus::kBadRecordType);
  EXPECT_EQ(report.detail, rotated);
  RemoveSegments(prefix);
}

TEST(WalReaderTest, ZerosFollowedByANonzeroByteAreCorruption) {
  const std::string prefix = TempPrefix("wal-zerothen");
  RemoveSegments(prefix);
  const std::string path = WriteSimpleLog(prefix, 1, 10);
  AppendBytes(path, 4096);
  AppendBytes(path, 1, 0x5A);
  WalSegmentInfo info;
  std::vector<Record> records;
  EXPECT_EQ(ReadSeg(path, &info, &records, /*last_of_log=*/true),
            WalStatus::kBadRecordType);
  std::map<int64_t, int64_t> state;
  RecoveryReport report;
  EXPECT_EQ(Replay(prefix, {}, &state, &report), WalStatus::kBadRecordType);
  RemoveSegments(prefix);
}

TEST(WalReaderTest, TornRecordBeforeZeroRemainderIsATornTail) {
  // A crash mid-store leaves the final record partly written and the
  // rest of the preallocation zero: a torn tail, tolerated — and the
  // file keeps its size, since its writer may be alive.
  const std::string prefix = TempPrefix("wal-tornzero");
  RemoveSegments(prefix);
  const std::string path = WriteSimpleLog(prefix, 1, 20);
  const long full = FileSize(path);
  // Case 1: the record header itself is cut short (body_len never hit
  // the page).
  TruncateTo(path, full - 20);
  AppendBytes(path, kFirstChunk);
  std::map<int64_t, int64_t> state;
  RecoveryReport report;
  ASSERT_EQ(Replay(prefix, {}, &state, &report), WalStatus::kOk);
  EXPECT_TRUE(report.tail_truncated);
  EXPECT_EQ(state.size(), 19u);
  EXPECT_EQ(FileSize(path), full - 20 + kFirstChunk);
  // Case 2: the header landed, the body did not (checksum fails).
  TruncateTo(path, full - 16);
  AppendBytes(path, kFirstChunk);
  state.clear();
  ASSERT_EQ(Replay(prefix, {}, &state, &report), WalStatus::kOk);
  EXPECT_TRUE(report.tail_truncated);
  EXPECT_EQ(state.size(), 19u);
  EXPECT_EQ(state.count(19), 0u);
  RemoveSegments(prefix);
}

TEST(WalReaderTest, AllZeroLastSegmentIsAHeaderStub) {
  // A crash between preallocating a segment and storing its header
  // leaves an all-zero file: as the last segment it is a stub holding
  // nothing; anywhere else it is a file without a header.
  const std::string prefix = TempPrefix("wal-zerostub");
  RemoveSegments(prefix);
  {
    Log log(prefix, 1, 0, 1, 0, NoSync());
    ASSERT_EQ(log.Open(), WalStatus::kOk);
    const int64_t v = 1;
    for (int64_t k = 0; k < 5; ++k) {
      ASSERT_EQ(log.Log(WalRecordType::kInsert, k, &v), WalStatus::kOk);
    }
    ASSERT_EQ(log.Rotate(), WalStatus::kOk);
  }
  const std::string second = WalSegmentPath(prefix, 1, 2);
  TruncateTo(second, 0);
  AppendBytes(second, kFirstChunk);
  std::map<int64_t, int64_t> state;
  RecoveryReport report;
  ASSERT_EQ(Replay(prefix, {}, &state, &report), WalStatus::kOk);
  EXPECT_EQ(report.segments_scanned, 2u);
  EXPECT_TRUE(report.tail_truncated);
  EXPECT_EQ(state.size(), 5u);
  EXPECT_EQ(FileSize(second), kFirstChunk);

  const std::string first = WalSegmentPath(prefix, 1, 1);
  const long first_size = FileSize(first);
  TruncateTo(first, 0);
  AppendBytes(first, static_cast<size_t>(first_size));
  EXPECT_EQ(Replay(prefix, {}, &state, &report), WalStatus::kBadMagic);
  EXPECT_EQ(report.detail, first);
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

TEST(WalClockTest, AppendersRaceTheClockAndRotationOnTheMappedLog) {
  // The TSan target for the mapped log: appenders store into the mapping
  // (and grow it) while the kBatch clock syncs with the mutex dropped and
  // a checkpoint-style rotator, excluding appenders through a gate as
  // ShardedAlex does, trims and swaps segments.
  const std::string prefix = TempPrefix("wal-maprace");
  RemoveSegments(prefix);
  constexpr int kThreads = 4;
  constexpr int64_t kPerThread = 1500;
  {
    WalOptions options;
    options.sync_policy = SyncPolicy::kBatch;
    options.batch_interval_us = 100;
    options.background_sync = true;
    Log log(prefix, 1, 0, 1, 0, options);
    ASSERT_EQ(log.Open(), WalStatus::kOk);
    std::shared_mutex gate;  // stands in for the shard write gate
    std::atomic<bool> done{false};
    std::thread rotator([&] {
      while (!done.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
        std::unique_lock<std::shared_mutex> exclusive(gate);
        ASSERT_EQ(log.Rotate(), WalStatus::kOk);
      }
    });
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&log, &gate, t] {
        for (int64_t i = 0; i < kPerThread; ++i) {
          const int64_t key = t * kPerThread + i;
          std::shared_lock<std::shared_mutex> shared(gate);
          ASSERT_EQ(log.Log(WalRecordType::kInsert, key, &key),
                    WalStatus::kOk);
        }
      });
    }
    for (auto& w : writers) w.join();
    done.store(true);
    rotator.join();
    EXPECT_GT(log.seq(), 1u);
    EXPECT_EQ(ListWalSegments(prefix).size(), log.seq());
  }
  std::map<int64_t, int64_t> state;
  RecoveryReport report;
  ASSERT_EQ(Replay(prefix, {}, &state, &report), WalStatus::kOk);
  EXPECT_FALSE(report.tail_truncated);
  ASSERT_EQ(state.size(), static_cast<size_t>(kThreads * kPerThread));
  for (const auto& [key, payload] : state) EXPECT_EQ(key, payload);
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
