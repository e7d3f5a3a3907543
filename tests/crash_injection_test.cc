// Crash-injection tests for the checkpoint atomic-commit path: simulate
// a save that died between writing its segment files and renaming the
// manifest (the commit point), with and without other leftover files, and
// assert (a) the previous checkpoint still loads bit-for-bit and (b) the
// next successful save sweeps every stale file. A save whose segment
// write fails outright is held to the same two rules.
#include "shard/sharded_alex.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/serialization.h"
#include "test_files.h"
#include "tier/segment.h"
#include "wal/log_reader.h"
#include "wal/wal_format.h"

namespace alex::shard {
namespace {

using Sharded = ShardedAlex<int64_t, int64_t>;
using core::SnapshotStatus;
using test::FilesAt;
using test::TempPrefix;
constexpr auto Cleanup = test::RemovePrefixFiles;

ShardedOptions Opts(size_t shards) {
  ShardedOptions options;
  options.num_shards = shards;
  return options;
}

void FillDense(Sharded* index, int64_t n) {
  std::vector<int64_t> keys, payloads;
  for (int64_t k = 0; k < n; ++k) {
    keys.push_back(k);
    payloads.push_back(k * 3);
  }
  index->BulkLoad(keys.data(), payloads.data(), keys.size());
}

void WriteGarbageFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[] = "not a segment";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
}

/// The committed manifest at `prefix`.
ShardManifest<int64_t> Committed(const std::string& prefix) {
  ShardManifest<int64_t> manifest;
  EXPECT_EQ(ReadManifest<int64_t>(Sharded::ManifestPath(prefix), &manifest),
            SnapshotStatus::kOk);
  return manifest;
}

/// Simulates a save that crashed after writing `shards` segment files
/// (garbage suffices: the manifest never came to reference them) under
/// the ids it would have allocated next, but before the manifest rename:
/// the would-be segments and the orphaned .manifest.tmp exist, the
/// manifest still names the previous checkpoint's segments.
void InjectCrashedSave(const std::string& prefix, size_t shards) {
  const uint64_t first = Committed(prefix).next_segment_id;
  for (size_t i = 0; i < shards; ++i) {
    WriteGarbageFile(tier::SegmentPath(prefix, first + i));
  }
  WriteGarbageFile(Sharded::ManifestPath(prefix) + ".tmp");
}

TEST(CrashInjectionTest, CrashBeforeManifestRenameKeepsPreviousSnapshot) {
  const std::string prefix = TempPrefix("crash-rename");
  Cleanup(prefix);
  Sharded index(Opts(4));
  FillDense(&index, 8000);
  ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);

  // The index moved on, then a second save died right before its commit
  // point: its segment files exist, the manifest does not name them.
  ASSERT_TRUE(index.Insert(100000, 1));
  InjectCrashedSave(prefix, /*shards=*/4);

  // The previous checkpoint is what loads — completely, and without the
  // post-save insert the crashed save would have captured.
  Sharded loaded(Opts(4));
  ASSERT_EQ(loaded.LoadFrom(prefix), SnapshotStatus::kOk);
  EXPECT_EQ(loaded.size(), 8000u);
  int64_t v = 0;
  EXPECT_FALSE(loaded.Get(100000, &v));
  for (int64_t k = 0; k < 8000; k += 97) {
    ASSERT_TRUE(loaded.Get(k, &v));
    ASSERT_EQ(v, k * 3);
  }
  Cleanup(prefix);
}

TEST(CrashInjectionTest, NextSaveSweepsStaleGenerations) {
  const std::string prefix = TempPrefix("crash-sweep");
  Cleanup(prefix);
  Sharded index(Opts(2));
  FillDense(&index, 2000);
  ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);
  const ShardManifest<int64_t> first = Committed(prefix);

  // Leftovers of every flavor: a crashed save's segments, a stray
  // segment far past the id watermark that a long-dead process left
  // behind, and a half-written staging file.
  InjectCrashedSave(prefix, /*shards=*/2);
  WriteGarbageFile(tier::SegmentPath(prefix, 77));
  WriteGarbageFile(tier::SegmentPath(prefix, 5) + ".tmp");

  // A fresh save writes new segments for both shards and sweeps
  // everything else: the superseded checkpoint's segments included.
  ASSERT_TRUE(index.Insert(100000, 5));
  ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);
  const ShardManifest<int64_t> second = Committed(prefix);
  ASSERT_EQ(second.segment_ids.size(), 2u);
  for (const uint64_t id : second.segment_ids) {
    EXPECT_GE(id, first.next_segment_id);
  }

  std::string dir, base;
  wal::SplitPrefixPath(prefix, &dir, &base);
  std::set<std::string> expected = {base + ".manifest"};
  for (const uint64_t id : second.segment_ids) {
    expected.insert(base + ".seg-" + std::to_string(id));
  }
  EXPECT_EQ(FilesAt(prefix), expected);

  Sharded loaded(Opts(2));
  ASSERT_EQ(loaded.LoadFrom(prefix), SnapshotStatus::kOk);
  EXPECT_EQ(loaded.size(), 2001u);
  EXPECT_TRUE(loaded.Contains(100000));
  Cleanup(prefix);
}

TEST(CrashInjectionTest, CrashedSaveWithLeftoverTmpManifestStillCommits) {
  // An orphaned .manifest.tmp from a crashed save must not confuse or
  // corrupt the next commit (it is simply overwritten and renamed away).
  const std::string prefix = TempPrefix("crash-tmp");
  Cleanup(prefix);
  WriteGarbageFile(Sharded::ManifestPath(prefix) + ".tmp");
  Sharded index(Opts(2));
  FillDense(&index, 1000);
  ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);
  const std::set<std::string> files = FilesAt(prefix);
  EXPECT_EQ(files.count("crash-tmp.manifest.tmp"), 0u);
  Sharded loaded(Opts(2));
  ASSERT_EQ(loaded.LoadFrom(prefix), SnapshotStatus::kOk);
  EXPECT_EQ(loaded.size(), 1000u);
  Cleanup(prefix);
}

TEST(CrashInjectionTest, FailedSegmentWriteCommitsNothing) {
  // A save whose segment write fails mid-way — here shard 0's, then the
  // last shard's, made uncreatable by a directory at its path — returns
  // kIoError and commits no manifest. The segments the other shards'
  // workers wrote are strays, swept by the next save like a crashed
  // save's.
  constexpr size_t kShards = 4;
  for (const size_t blocked_shard : {size_t{0}, kShards - 1}) {
    SCOPED_TRACE("blocked shard " + std::to_string(blocked_shard));
    const std::string prefix = TempPrefix("crash-failed-write");
    std::string dir, base;
    wal::SplitPrefixPath(prefix, &dir, &base);
    Cleanup(prefix);
    Sharded index(Opts(kShards));
    FillDense(&index, 8000);
    ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);
    const ShardManifest<int64_t> first = Committed(prefix);
    const std::vector<uint8_t> manifest_bytes =
        test::ReadAll(Sharded::ManifestPath(prefix));
    const std::set<std::string> committed_files = FilesAt(prefix);
    std::vector<std::pair<int64_t, int64_t>> committed;
    index.RangeScan(0, index.size(), &committed);

    // The index moves on; the next save assigns ids from the watermark,
    // in shard order.
    ASSERT_TRUE(index.Insert(100000, 1));
    const std::string blocked =
        tier::SegmentPath(prefix, first.next_segment_id + blocked_shard);
    ASSERT_EQ(::mkdir(blocked.c_str(), 0700), 0);
    EXPECT_EQ(index.SaveTo(prefix), SnapshotStatus::kIoError);

    // Nothing committed: the manifest is byte for byte the old one and
    // no staging manifest is left. Beside the committed files lie the
    // other shards' segments (strays) and the blocking directory.
    EXPECT_EQ(test::ReadAll(Sharded::ManifestPath(prefix)), manifest_bytes);
    std::set<std::string> after_failure = committed_files;
    for (size_t i = 0; i < kShards; ++i) {
      after_failure.insert(base + ".seg-" +
                           std::to_string(first.next_segment_id + i));
    }
    EXPECT_EQ(FilesAt(prefix), after_failure);

    // The previous checkpoint loads exactly as it was committed.
    {
      Sharded loaded(Opts(kShards));
      ASSERT_EQ(loaded.LoadFrom(prefix), SnapshotStatus::kOk);
      EXPECT_EQ(loaded.ShardBoundaries(), first.boundaries);
      std::vector<std::pair<int64_t, int64_t>> contents;
      loaded.RangeScan(0, loaded.size() + 1, &contents);
      EXPECT_EQ(contents, committed);
      EXPECT_TRUE(loaded.CheckInvariants());
    }

    // With the path free again the next save commits and sweeps every
    // stray: only the manifest and the segments it names remain.
    ASSERT_EQ(::rmdir(blocked.c_str()), 0);
    ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);
    const ShardManifest<int64_t> second = Committed(prefix);
    std::set<std::string> expected = {base + ".manifest"};
    for (const uint64_t id : second.segment_ids) {
      expected.insert(base + ".seg-" + std::to_string(id));
    }
    EXPECT_EQ(FilesAt(prefix), expected);
    Sharded loaded(Opts(kShards));
    ASSERT_EQ(loaded.LoadFrom(prefix), SnapshotStatus::kOk);
    EXPECT_EQ(loaded.size(), 8001u);
    EXPECT_TRUE(loaded.Contains(100000));
    Cleanup(prefix);
  }
}

TEST(CrashInjectionTest, CheckpointCrashKeepsLogReplayConsistent) {
  // The WAL variant: a checkpoint that died before its manifest rename
  // leaves the previous checkpoint + the previous logs, which still
  // recover everything written before the crash.
  const std::string prefix = TempPrefix("crash-walckpt");
  Cleanup(prefix);
  {
    Sharded index(Opts(2));
    ASSERT_EQ(index.EnableWal(prefix), wal::WalStatus::kOk);
    for (int64_t k = 0; k < 500; ++k) ASSERT_TRUE(index.Insert(k, k));
    // Crashed second checkpoint: segment files only.
    InjectCrashedSave(prefix, /*shards=*/1);
    for (int64_t k = 500; k < 600; ++k) ASSERT_TRUE(index.Insert(k, k));
  }
  Sharded recovered(Opts(2));
  wal::RecoveryReport report;
  ASSERT_EQ(recovered.LoadFrom(prefix, &report), SnapshotStatus::kOk);
  EXPECT_EQ(report.status, wal::WalStatus::kOk);
  EXPECT_EQ(recovered.size(), 600u);
  int64_t v = 0;
  for (int64_t k = 0; k < 600; k += 13) {
    ASSERT_TRUE(recovered.Get(k, &v));
    ASSERT_EQ(v, k);
  }
  Cleanup(prefix);
}

void CopyFile(const std::string& from, const std::string& to) {
  std::FILE* in = std::fopen(from.c_str(), "rb");
  ASSERT_NE(in, nullptr) << from;
  std::FILE* out = std::fopen(to.c_str(), "wb");
  ASSERT_NE(out, nullptr) << to;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
    ASSERT_EQ(std::fwrite(buf, 1, n, out), n);
  }
  std::fclose(in);
  std::fclose(out);
}

TEST(CrashInjectionTest, CrashBetweenManifestRenameAndSegmentSweep) {
  // A checkpoint commits its manifest, then crashes before
  // SweepStaleWalSegments deletes the sealed topology victims it
  // superseded. Recovery must skip those victims (their effects are in
  // the snapshot via their checkpointed children) instead of failing
  // on an orphan lineage — and must not replay their stale records.
  const std::string prefix = TempPrefix("crash-sweep-window");
  Cleanup(prefix);
  constexpr int64_t kN = 3000;
  {
    ShardedOptions options = Opts(1);
    options.min_rebalance_keys = 256;
    options.max_shard_keys = 1024;
    Sharded index(options);
    ASSERT_EQ(index.EnableWal(prefix), wal::WalStatus::kOk);
    for (int64_t k = 0; k < kN; ++k) {
      ASSERT_TRUE(index.Insert(k, k));
    }
    ASSERT_GT(index.rebalance_count(), 0u);  // sealed victims on disk
    // Stash every pre-checkpoint segment, checkpoint (which sweeps the
    // sealed victims), then put the swept ones back — the on-disk state
    // of a crash inside the sweep window.
    std::vector<wal::WalSegmentFile> before =
        wal::ListWalSegments(prefix);
    for (const wal::WalSegmentFile& f : before) {
      CopyFile(f.path, f.path + ".stash");
    }
    ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);
    size_t restored = 0;
    for (const wal::WalSegmentFile& f : before) {
      std::FILE* probe = std::fopen(f.path.c_str(), "rb");
      if (probe != nullptr) {
        std::fclose(probe);
      } else {
        CopyFile(f.path + ".stash", f.path);
        // The stash copied live logs' segments still preallocated; the
        // checkpoint's Rotate trimmed them to their logical end before
        // the sweep, so that is what a crash in the window leaves.
        wal::WalSegmentInfo info;
        std::vector<wal::WalRecord<int64_t, int64_t>> records;
        ASSERT_EQ((wal::ReadWalSegment<int64_t, int64_t>(
                      f.path, &info, &records, /*last_of_log=*/true)),
                  wal::WalStatus::kOk);
        ASSERT_EQ(::truncate(f.path.c_str(),
                             static_cast<off_t>(info.valid_bytes)),
                  0);
        ++restored;
      }
      std::remove((f.path + ".stash").c_str());
    }
    ASSERT_GT(restored, 0u) << "checkpoint should have swept victims";
    // Post-checkpoint writes land in the (rotated) live logs.
    for (int64_t k = kN; k < kN + 200; ++k) {
      ASSERT_TRUE(index.Insert(k, k));
    }
  }  // crash
  Sharded recovered(Opts(1));
  wal::RecoveryReport report;
  ASSERT_EQ(recovered.LoadFrom(prefix, &report), SnapshotStatus::kOk);
  EXPECT_EQ(report.status, wal::WalStatus::kOk);
  EXPECT_EQ(recovered.size(), static_cast<size_t>(kN) + 200);
  int64_t v = 0;
  for (int64_t k = 0; k < kN + 200; k += 37) {
    ASSERT_TRUE(recovered.Get(k, &v)) << k;
    ASSERT_EQ(v, k);
  }
  EXPECT_TRUE(recovered.CheckInvariants());
  Cleanup(prefix);
}

TEST(CrashInjectionTest, CrashBetweenMergePublishAndChildCheckpoint) {
  // A merge publishes its child (parents sealed at the publish LSN,
  // child log opened with a multi-parent kTopology record), the child
  // acknowledges more writes, and the process dies before any
  // checkpoint captures the new topology. Recovery must chain the
  // child's records through both sealed parents back to the manifest's
  // anchors: no acknowledged write lost, checkpoint boundaries
  // restored.
  const std::string prefix = TempPrefix("crash-mergepub");
  Cleanup(prefix);
  std::vector<int64_t> bounds_at_checkpoint;
  constexpr int64_t kN = 12000;
  {
    ShardedOptions options = Opts(8);
    options.merge_threshold_keys = 2000;
    Sharded index(options);
    FillDense(&index, kN);
    ASSERT_EQ(index.EnableWal(prefix), wal::WalStatus::kOk);
    bounds_at_checkpoint = index.ShardBoundaries();
    ASSERT_EQ(bounds_at_checkpoint.size(), 7u);
    // Empty out shards until merges publish; their children's logs now
    // carry multi-parent lineage records.
    for (int64_t k = 0; k < kN; ++k) {
      if (k % 16 != 0) {
        ASSERT_TRUE(index.Erase(k));
      }
    }
    ASSERT_GT(index.merge_count(), 0u);
    // Acknowledged writes landing in the merge children's fresh logs.
    for (int64_t k = 0; k < 300; ++k) {
      ASSERT_TRUE(index.Insert(k * 16 + 1, k));
    }
    EXPECT_EQ(index.last_wal_error(), wal::WalStatus::kOk);
  }  // crash: the merge exists only in sealed parents + child logs

  Sharded recovered(Opts(8));
  wal::RecoveryReport report;
  ASSERT_EQ(recovered.LoadFrom(prefix, &report), SnapshotStatus::kOk);
  EXPECT_EQ(report.status, wal::WalStatus::kOk);
  // The recovered topology is the checkpoint's 8 shards — the merge
  // collapses back into it with no data loss.
  EXPECT_EQ(recovered.ShardBoundaries(), bounds_at_checkpoint);
  EXPECT_EQ(recovered.size(), static_cast<size_t>(kN / 16 + 300));
  int64_t v = 0;
  for (int64_t k = 0; k < kN; k += 16) {
    ASSERT_TRUE(recovered.Get(k, &v)) << k;
    ASSERT_EQ(v, k * 3);
  }
  for (int64_t k = 0; k < 300; ++k) {
    ASSERT_TRUE(recovered.Get(k * 16 + 1, &v)) << k;
    ASSERT_EQ(v, k);
  }
  EXPECT_FALSE(recovered.Contains(2));  // erases survived too
  EXPECT_TRUE(recovered.CheckInvariants());
  Cleanup(prefix);
}

}  // namespace
}  // namespace alex::shard
