// End-to-end crash-recovery tests for the WAL-integrated sharded index:
// the kill-and-recover acceptance scenario, recovery edge cases (empty
// log, replay idempotence, torn tail, mid-segment corruption, recovery
// across a shard split), sync-policy coverage, and concurrent writers
// against the logged write path (a TSan target), recovery over logs
// a live writer still has mapped, and recovery over a live log that lost
// a page in a crash.
#include "shard/sharded_alex.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "shard/manifest.h"
#include "test_files.h"
#include "wal/log_reader.h"
#include "wal/log_writer.h"
#include "wal/wal_format.h"

namespace alex::shard {
namespace {

using Sharded = ShardedAlex<int64_t, int64_t>;
using core::SnapshotStatus;
using wal::SyncPolicy;
using wal::WalStatus;

using test::TempPrefix;
constexpr auto Cleanup = test::RemovePrefixFiles;

wal::WalOptions Wal(SyncPolicy policy) {
  wal::WalOptions options;
  options.sync_policy = policy;
  return options;
}

ShardedOptions Opts(size_t shards) {
  ShardedOptions options;
  options.num_shards = shards;
  return options;
}

/// Asserts `index` holds exactly keys [0, n) with payload key*7.
void ExpectDenseContents(Sharded& index, int64_t n) {
  ASSERT_EQ(index.size(), static_cast<size_t>(n));
  int64_t v = 0;
  for (int64_t k = 0; k < n; ++k) {
    ASSERT_TRUE(index.Get(k, &v)) << "key " << k;
    ASSERT_EQ(v, k * 7) << "key " << k;
  }
  EXPECT_TRUE(index.CheckInvariants());
}

// ---- The acceptance scenario ----

TEST(WalRecoveryTest, KillAndRecoverAcrossACheckpoint) {
  // Write N keys under kAlways, checkpoint, write M more, "crash" (drop
  // the index without SaveTo), recover: all N+M keys must come back.
  const std::string prefix = TempPrefix("recover-acceptance");
  Cleanup(prefix);
  constexpr int64_t kN = 2000, kM = 500;
  {
    Sharded index(Opts(4));
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kAlways)),
              WalStatus::kOk);
    for (int64_t k = 0; k < kN; ++k) {
      ASSERT_TRUE(index.Insert(k, k * 7));
    }
    ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);  // checkpoint
    for (int64_t k = kN; k < kN + kM; ++k) {
      ASSERT_TRUE(index.Insert(k, k * 7));
    }
    EXPECT_EQ(index.last_wal_error(), WalStatus::kOk);
  }  // index dropped: the M post-checkpoint keys exist only in the log

  Sharded recovered(Opts(4));
  wal::RecoveryReport report;
  ASSERT_EQ(recovered.LoadFrom(prefix, &report), SnapshotStatus::kOk);
  EXPECT_EQ(report.status, WalStatus::kOk);
  EXPECT_EQ(report.records_replayed, static_cast<size_t>(kM));
  ExpectDenseContents(recovered, kN + kM);
  Cleanup(prefix);
}

TEST(WalRecoveryTest, TornFinalRecordLosesAtMostThatRecord) {
  const std::string prefix = TempPrefix("recover-torn");
  Cleanup(prefix);
  constexpr int64_t kN = 400;
  {
    ShardedOptions options = Opts(1);  // one shard -> one log file
    Sharded index(options);
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kAlways)),
              WalStatus::kOk);
    for (int64_t k = 0; k < kN; ++k) {
      ASSERT_TRUE(index.Insert(k, k * 7));
    }
  }
  // Tear the final record mid-write.
  const std::vector<wal::WalSegmentFile> segments =
      wal::ListWalSegments(prefix);
  ASSERT_EQ(segments.size(), 1u);
  std::FILE* f = std::fopen(segments[0].path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(::truncate(segments[0].path.c_str(), size - 7), 0);

  Sharded recovered(Opts(1));
  wal::RecoveryReport report;
  ASSERT_EQ(recovered.LoadFrom(prefix, &report), SnapshotStatus::kOk);
  EXPECT_TRUE(report.tail_truncated);
  ExpectDenseContents(recovered, kN - 1);  // exactly the torn key lost
  int64_t v = 0;
  EXPECT_FALSE(recovered.Get(kN - 1, &v));

  // The torn tail was physically truncated: a second recovery replays a
  // clean log to the same state (replay idempotence after repair).
  Sharded again(Opts(1));
  ASSERT_EQ(again.LoadFrom(prefix, &report), SnapshotStatus::kOk);
  EXPECT_FALSE(report.tail_truncated);
  ExpectDenseContents(again, kN - 1);
  Cleanup(prefix);
}

// ---- Edge cases ----

TEST(WalRecoveryTest, EmptyLogRecoversTheSnapshotExactly) {
  const std::string prefix = TempPrefix("recover-emptylog");
  Cleanup(prefix);
  constexpr int64_t kN = 1000;
  {
    Sharded index(Opts(3));
    std::vector<int64_t> keys, payloads;
    for (int64_t k = 0; k < kN; ++k) {
      keys.push_back(k);
      payloads.push_back(k * 7);
    }
    index.BulkLoad(keys.data(), payloads.data(), keys.size());
    // EnableWal's anchor checkpoint is the only durability act; no write
    // ever reaches the logs.
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kBatch)),
              WalStatus::kOk);
  }
  Sharded recovered(Opts(3));
  wal::RecoveryReport report;
  ASSERT_EQ(recovered.LoadFrom(prefix, &report), SnapshotStatus::kOk);
  EXPECT_EQ(report.records_replayed, 0u);
  ExpectDenseContents(recovered, kN);
  Cleanup(prefix);
}

TEST(WalRecoveryTest, ReplayIsIdempotentAcrossRepeatedLoads) {
  const std::string prefix = TempPrefix("recover-idem");
  Cleanup(prefix);
  constexpr int64_t kN = 600;
  {
    Sharded index(Opts(2));
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kNone)),
              WalStatus::kOk);
    for (int64_t k = 0; k < kN; ++k) {
      ASSERT_TRUE(index.Insert(k, k * 7));
    }
    // Mixed mutations on top: updates, erases, failed duplicates.
    ASSERT_TRUE(index.Update(10, 70));
    ASSERT_TRUE(index.Erase(11));
    EXPECT_FALSE(index.Insert(12, -1));  // duplicate: logged but a no-op
  }
  Sharded first(Opts(2)), second(Opts(2));
  ASSERT_EQ(first.LoadFrom(prefix), SnapshotStatus::kOk);
  ASSERT_EQ(second.LoadFrom(prefix), SnapshotStatus::kOk);  // replay #2
  EXPECT_EQ(first.size(), second.size());
  EXPECT_EQ(first.size(), static_cast<size_t>(kN - 1));
  std::vector<std::pair<int64_t, int64_t>> a, b;
  first.RangeScan(std::numeric_limits<int64_t>::lowest(), first.size(),
                  &a);
  second.RangeScan(std::numeric_limits<int64_t>::lowest(), second.size(),
                   &b);
  EXPECT_EQ(a, b);
  int64_t v = 0;
  ASSERT_TRUE(second.Get(10, &v));
  EXPECT_EQ(v, 70);  // update survived
  EXPECT_FALSE(second.Contains(11));  // erase survived
  ASSERT_TRUE(second.Get(12, &v));
  EXPECT_EQ(v, 12 * 7);  // duplicate insert stayed a no-op
  Cleanup(prefix);
}

TEST(WalRecoveryTest, ChecksumFlipMidSegmentFailsRecoveryUntouched) {
  const std::string prefix = TempPrefix("recover-flip");
  Cleanup(prefix);
  {
    Sharded index(Opts(1));
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kAlways)),
              WalStatus::kOk);
    for (int64_t k = 0; k < 200; ++k) {
      ASSERT_TRUE(index.Insert(k, k));
    }
  }
  const std::vector<wal::WalSegmentFile> segments =
      wal::ListWalSegments(prefix);
  ASSERT_EQ(segments.size(), 1u);
  // Flip a byte early in the record stream (well before the tail span).
  std::FILE* f = std::fopen(segments[0].path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  const long offset =
      static_cast<long>(sizeof(wal::WalSegmentHeader)) + 100;
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(c ^ 0xFF, f);
  std::fclose(f);

  Sharded recovered(Opts(1));
  recovered.Insert(42, 42);
  wal::RecoveryReport report;
  EXPECT_EQ(recovered.LoadFrom(prefix, &report),
            SnapshotStatus::kWalReplayFailed);
  EXPECT_TRUE(report.status == WalStatus::kChecksumMismatch ||
              report.status == WalStatus::kBadRecordType ||
              report.status == WalStatus::kBadRecordLength)
      << report.status;
  EXPECT_FALSE(report.detail.empty());
  // The failed recovery left the live index untouched.
  int64_t v = 0;
  EXPECT_TRUE(recovered.Get(42, &v));
  EXPECT_EQ(recovered.size(), 1u);
  Cleanup(prefix);
}

TEST(WalRecoveryTest, RecoversAcrossShardSplits) {
  // Force online splits while logging: the victims' sealed segments and
  // the replacements' fresh segments must chain through recovery.
  const std::string prefix = TempPrefix("recover-split");
  Cleanup(prefix);
  constexpr int64_t kN = 12000;
  uint64_t splits = 0;
  {
    ShardedOptions options = Opts(1);
    options.min_rebalance_keys = 256;
    options.max_shard_keys = 1024;
    Sharded index(options);
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kNone)),
              WalStatus::kOk);
    for (int64_t k = 0; k < kN; ++k) {
      ASSERT_TRUE(index.Insert(k, k * 7));
    }
    splits = index.rebalance_count();
    ASSERT_GT(splits, 0u) << "test needs actual splits to exercise";
    EXPECT_EQ(index.last_wal_error(), WalStatus::kOk);
    // Several lineages must exist on disk (sealed parents + children).
    EXPECT_GT(wal::ListWalSegments(prefix).size(), 1u);
  }
  Sharded recovered(Opts(1));
  wal::RecoveryReport report;
  ASSERT_EQ(recovered.LoadFrom(prefix, &report), SnapshotStatus::kOk);
  EXPECT_EQ(report.status, WalStatus::kOk);
  ExpectDenseContents(recovered, kN);
  Cleanup(prefix);
}

TEST(WalRecoveryTest, CheckpointRotationPrunesSegmentsAndStaysRecoverable) {
  const std::string prefix = TempPrefix("recover-rotate");
  Cleanup(prefix);
  {
    Sharded index(Opts(2));
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kBatch)),
              WalStatus::kOk);
    for (int64_t k = 0; k < 500; ++k) ASSERT_TRUE(index.Insert(k, k * 7));
    ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);
    for (int64_t k = 500; k < 800; ++k) {
      ASSERT_TRUE(index.Insert(k, k * 7));
    }
    ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);
    for (int64_t k = 800; k < 900; ++k) {
      ASSERT_TRUE(index.Insert(k, k * 7));
    }
    // Two checkpoints rotated twice: only the current segments remain.
    EXPECT_EQ(wal::ListWalSegments(prefix).size(), index.num_shards());
  }
  Sharded recovered(Opts(2));
  ASSERT_EQ(recovered.LoadFrom(prefix), SnapshotStatus::kOk);
  ExpectDenseContents(recovered, 900);
  Cleanup(prefix);
}

TEST(WalRecoveryTest, EnableAfterRecoverResumesLoggingCleanly) {
  // The documented restart lifecycle: LoadFrom + EnableWal + more writes
  // + a second crash must recover everything.
  const std::string prefix = TempPrefix("recover-resume");
  Cleanup(prefix);
  {
    Sharded index(Opts(2));
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kAlways)),
              WalStatus::kOk);
    for (int64_t k = 0; k < 300; ++k) ASSERT_TRUE(index.Insert(k, k * 7));
  }
  {
    Sharded index(Opts(2));
    ASSERT_EQ(index.LoadFrom(prefix), SnapshotStatus::kOk);
    EXPECT_FALSE(index.wal_enabled());  // recovery does not auto-resume
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kAlways)),
              WalStatus::kOk);
    EXPECT_TRUE(index.wal_enabled());
    EXPECT_EQ(index.EnableWal(prefix), WalStatus::kAlreadyEnabled);
    for (int64_t k = 300; k < 500; ++k) {
      ASSERT_TRUE(index.Insert(k, k * 7));
    }
  }
  Sharded recovered(Opts(2));
  ASSERT_EQ(recovered.LoadFrom(prefix), SnapshotStatus::kOk);
  ExpectDenseContents(recovered, 500);
  Cleanup(prefix);
}

TEST(WalRecoveryTest, PlainSaveAfterRecoverySweepsReplayedSegments) {
  // After a recovery, a plain SaveTo (no EnableWal) commits a manifest
  // with no checkpoint LSNs; the replayed segments must be swept with
  // it, or the next load would replay them from LSN 0 over the newer
  // snapshot (resurrecting erased keys).
  const std::string prefix = TempPrefix("recover-plainsave");
  Cleanup(prefix);
  {
    Sharded index(Opts(2));
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kAlways)),
              WalStatus::kOk);
    for (int64_t k = 0; k < 300; ++k) ASSERT_TRUE(index.Insert(k, k * 7));
  }
  {
    Sharded index(Opts(2));
    ASSERT_EQ(index.LoadFrom(prefix), SnapshotStatus::kOk);
    // Post-recovery, unlogged: erase a key, then snapshot without
    // re-enabling the WAL.
    ASSERT_TRUE(index.Erase(299));
    ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);
    EXPECT_TRUE(wal::ListWalSegments(prefix).empty());
  }
  Sharded loaded(Opts(2));
  ASSERT_EQ(loaded.LoadFrom(prefix), SnapshotStatus::kOk);
  ExpectDenseContents(loaded, 299);  // the erase survived; no stale replay
  Cleanup(prefix);
}

TEST(WalRecoveryTest, BulkLoadWhileLoggingAutoCheckpoints) {
  const std::string prefix = TempPrefix("recover-bulk");
  Cleanup(prefix);
  {
    Sharded index(Opts(2));
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kBatch)),
              WalStatus::kOk);
    ASSERT_TRUE(index.Insert(123456789, 1));  // pre-bulk write
    std::vector<int64_t> keys, payloads;
    for (int64_t k = 0; k < 2000; ++k) {
      keys.push_back(k);
      payloads.push_back(k * 7);
    }
    index.BulkLoad(keys.data(), payloads.data(), keys.size());
    EXPECT_EQ(index.last_wal_error(), WalStatus::kOk);
    for (int64_t k = 2000; k < 2100; ++k) {
      ASSERT_TRUE(index.Insert(k, k * 7));
    }
  }
  Sharded recovered(Opts(2));
  ASSERT_EQ(recovered.LoadFrom(prefix), SnapshotStatus::kOk);
  // The bulk load replaced everything (including the pre-bulk key).
  ExpectDenseContents(recovered, 2100);
  int64_t v = 0;
  EXPECT_FALSE(recovered.Get(123456789, &v));
  Cleanup(prefix);
}

TEST(WalRecoveryTest, RecoveryFromLogsAloneWithoutManifest) {
  // A by-hand lineage with no snapshot at all: LoadFrom must recover
  // from an empty state plus the logs.
  const std::string prefix = TempPrefix("recover-nomanifest");
  Cleanup(prefix);
  {
    wal::ShardLog<int64_t, int64_t> log(prefix, 1, 0, 1, 0,
                                        Wal(SyncPolicy::kNone));
    ASSERT_EQ(log.Open(), WalStatus::kOk);
    for (int64_t k = 0; k < 50; ++k) {
      const int64_t v = k * 7;
      ASSERT_EQ(log.Log(wal::WalRecordType::kInsert, k, &v),
                WalStatus::kOk);
    }
  }
  Sharded recovered(Opts(2));
  ASSERT_EQ(recovered.LoadFrom(prefix), SnapshotStatus::kOk);
  ExpectDenseContents(recovered, 50);
  Cleanup(prefix);
}

// ---- Boundary-preserving recovery ----

TEST(WalRecoveryTest, RecoveryPreservesShardBoundaries) {
  // The acceptance round trip: save → crash → load must restore the
  // exact pre-crash boundary array (the topology the workload carved
  // out), with each shard replaying its own log tail — not a
  // repartition of a merged map.
  const std::string prefix = TempPrefix("recover-boundaries");
  Cleanup(prefix);
  std::vector<int64_t> bounds_at_checkpoint;
  constexpr int64_t kN = 6000, kM = 900;
  {
    Sharded index(Opts(4));
    std::vector<int64_t> keys, payloads;
    for (int64_t k = 0; k < kN; ++k) {
      keys.push_back(k);
      payloads.push_back(k * 7);
    }
    index.BulkLoad(keys.data(), payloads.data(), keys.size());
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kAlways)),
              WalStatus::kOk);
    bounds_at_checkpoint = index.ShardBoundaries();
    ASSERT_EQ(bounds_at_checkpoint.size(), 3u);
    // Post-checkpoint tail: writes into every shard's log.
    for (int64_t k = kN; k < kN + kM; ++k) {
      ASSERT_TRUE(index.Insert(k, k * 7));
    }
    ASSERT_TRUE(index.Update(10, 10 * 7));
    ASSERT_TRUE(index.Erase(kN + kM - 1));
    ASSERT_TRUE(index.Insert(kN + kM - 1, (kN + kM - 1) * 7));
  }  // crash

  Sharded recovered(Opts(4));
  wal::RecoveryReport report;
  ASSERT_EQ(recovered.LoadFrom(prefix, &report), SnapshotStatus::kOk);
  EXPECT_EQ(recovered.ShardBoundaries(), bounds_at_checkpoint);
  EXPECT_EQ(recovered.num_shards(), 4u);
  ExpectDenseContents(recovered, kN + kM);
  // The per-shard breakdown names every shard and sums to the
  // aggregate; the post-checkpoint tail landed in the last shard.
  ASSERT_EQ(report.shards.size(), 4u);
  size_t replayed = 0;
  for (size_t i = 0; i < report.shards.size(); ++i) {
    EXPECT_EQ(report.shards[i].shard, i);
    EXPECT_NE(report.shards[i].wal_id, 0u);
    EXPECT_FALSE(report.shards[i].tail_truncated);
    replayed += report.shards[i].records_replayed;
  }
  EXPECT_EQ(replayed, report.records_replayed);
  // The tail routed almost entirely to the last shard; the lone
  // Update(10) is shard 0's whole tail; shards 1-2 were idle.
  EXPECT_EQ(report.shards[0].records_replayed, 1u);
  EXPECT_EQ(report.shards[1].records_replayed, 0u);
  EXPECT_EQ(report.shards[2].records_replayed, 0u);
  EXPECT_EQ(report.shards[3].records_replayed,
            static_cast<size_t>(kM) + 2);
  Cleanup(prefix);
}

TEST(WalRecoveryTest, MergeAndSplitInterleavingLineageReplay) {
  // Topology churn after the checkpoint: splits create single-parent
  // children, merges create multi-parent children (the kTopology
  // record), and recovery must chain both kinds back to the manifest's
  // anchors — restoring the checkpoint topology with no key lost.
  const std::string prefix = TempPrefix("recover-interleave");
  Cleanup(prefix);
  std::vector<int64_t> bounds_at_checkpoint;
  uint64_t splits = 0, merges = 0;
  constexpr int64_t kN = 6000;
  {
    ShardedOptions options = Opts(4);
    options.min_rebalance_keys = 512;
    options.max_shard_keys = 2048;
    options.merge_threshold_keys = 512;
    Sharded index(options);
    std::vector<int64_t> keys, payloads;
    for (int64_t k = 0; k < kN; ++k) {
      keys.push_back(k * 2);
      payloads.push_back(k * 7);
    }
    index.BulkLoad(keys.data(), payloads.data(), keys.size());
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kNone)),
              WalStatus::kOk);
    bounds_at_checkpoint = index.ShardBoundaries();
    // Splits: hammer the top of the key space past the absolute bound.
    for (int64_t k = 0; k < 4000; ++k) {
      ASSERT_TRUE(index.Insert(kN * 2 + k, k));
    }
    // Merges: empty out the bottom shards.
    for (int64_t k = 0; k < kN; ++k) {
      ASSERT_TRUE(index.Erase(k * 2));
    }
    // More writes on the merged children's logs.
    for (int64_t k = 0; k < 500; ++k) {
      ASSERT_TRUE(index.Insert(k * 2 + 1, k));
    }
    splits = index.rebalance_count();
    merges = index.merge_count();
    ASSERT_GT(splits, 0u) << "test needs splits to interleave";
    ASSERT_GT(merges, 0u) << "test needs merges to interleave";
    EXPECT_EQ(index.last_wal_error(), WalStatus::kOk);
    EXPECT_EQ(index.topology_epoch(), splits + merges);
  }  // crash

  Sharded recovered(Opts(4));
  wal::RecoveryReport report;
  ASSERT_EQ(recovered.LoadFrom(prefix, &report), SnapshotStatus::kOk);
  EXPECT_EQ(report.status, WalStatus::kOk);
  // Boundary-preserving: the recovered topology is the checkpoint's
  // (the post-checkpoint churn is collapsed back into it).
  EXPECT_EQ(recovered.ShardBoundaries(), bounds_at_checkpoint);
  // Contents are the crash-time state: 4000 high keys + 500 odd keys.
  EXPECT_EQ(recovered.size(), 4500u);
  int64_t v = 0;
  for (int64_t k = 0; k < 4000; ++k) {
    ASSERT_TRUE(recovered.Get(kN * 2 + k, &v)) << k;
    ASSERT_EQ(v, k);
  }
  for (int64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(recovered.Get(k * 2 + 1, &v)) << k;
    ASSERT_EQ(v, k);
  }
  EXPECT_FALSE(recovered.Contains(0));
  EXPECT_TRUE(recovered.CheckInvariants());
  // The epoch the checkpoint captured (0 — churn came after) survived;
  // post-crash the counter restarts from the manifest's value.
  EXPECT_EQ(recovered.topology_epoch(), 0u);
  Cleanup(prefix);
}

TEST(WalRecoveryTest, PerShardReportNamesTheShardThatLostItsTail) {
  // Two shards, both with post-checkpoint writes; tear the tail of
  // shard 1's log. The per-shard report must flag exactly shard 1.
  const std::string prefix = TempPrefix("recover-pershard");
  Cleanup(prefix);
  {
    Sharded index(Opts(2));
    std::vector<int64_t> keys, payloads;
    for (int64_t k = 0; k < 2000; ++k) {
      keys.push_back(k);
      payloads.push_back(k * 7);
    }
    index.BulkLoad(keys.data(), payloads.data(), keys.size());
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kAlways)),
              WalStatus::kOk);
    // One write into each shard's log, in shard order.
    ASSERT_TRUE(index.Insert(-5, -5 * 7));      // shard 0
    ASSERT_TRUE(index.Insert(100000, 1));       // shard 1
    ASSERT_TRUE(index.Insert(100001, 2));       // shard 1
  }
  // Tear the last record of the *second* shard's (higher wal id) log.
  const std::vector<wal::WalSegmentFile> segments =
      wal::ListWalSegments(prefix);
  ASSERT_EQ(segments.size(), 2u);
  ASSERT_LT(segments[0].wal_id, segments[1].wal_id);
  std::FILE* f = std::fopen(segments[1].path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(::truncate(segments[1].path.c_str(), size - 5), 0);

  Sharded recovered(Opts(2));
  wal::RecoveryReport report;
  ASSERT_EQ(recovered.LoadFrom(prefix, &report), SnapshotStatus::kOk);
  EXPECT_TRUE(report.tail_truncated);
  ASSERT_EQ(report.shards.size(), 2u);
  EXPECT_FALSE(report.shards[0].tail_truncated);
  EXPECT_TRUE(report.shards[1].tail_truncated);
  EXPECT_EQ(report.shards[0].records_replayed, 1u);
  EXPECT_EQ(report.shards[1].records_replayed, 1u);  // lost 100001
  int64_t v = 0;
  EXPECT_TRUE(recovered.Get(-5, &v));
  EXPECT_TRUE(recovered.Get(100000, &v));
  EXPECT_FALSE(recovered.Get(100001, &v));  // the torn, unacked write
  Cleanup(prefix);
}

TEST(WalRecoveryTest, CommitWaitHistogramSurvivesTopologyChanges) {
  // Splits seal the victims' logs; the registry histogram keeps their
  // commit-wait samples, since it outlives every log.
#if defined(ALEX_DISABLE_OBS)
  GTEST_SKIP() << "the registry is compiled out";
#endif
  const std::string prefix = TempPrefix("recover-commitwait");
  Cleanup(prefix);
  obs::SetEnabled(true);
  obs::MetricsRegistry::Global().ResetAll();
  ShardedOptions options = Opts(1);
  options.min_rebalance_keys = 256;
  options.max_shard_keys = 1024;
  Sharded index(options);
  ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kNone)),
            WalStatus::kOk);
  constexpr int64_t kN = 4000;
  for (int64_t k = 0; k < kN; ++k) {
    ASSERT_TRUE(index.Insert(k, k));
  }
  ASSERT_GT(index.rebalance_count(), 0u);
  // One sample per acknowledged logged commit — sealed logs included.
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetHistogram("wal.commit_wait_ns")
                ->Count(),
            static_cast<uint64_t>(kN));
  obs::SetEnabled(false);
  Cleanup(prefix);
}

TEST(WalRecoveryTest, TopologyEpochSurvivesCheckpointAndRecovery) {
  const std::string prefix = TempPrefix("recover-epoch");
  Cleanup(prefix);
  uint64_t epoch = 0;
  {
    ShardedOptions options = Opts(1);
    options.min_rebalance_keys = 256;
    options.max_shard_keys = 1024;
    Sharded index(options);
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kNone)),
              WalStatus::kOk);
    for (int64_t k = 0; k < 6000; ++k) {
      ASSERT_TRUE(index.Insert(k, k * 7));
    }
    epoch = index.topology_epoch();
    ASSERT_GT(epoch, 0u);
    ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);  // checkpoint
  }
  Sharded recovered(Opts(1));
  ASSERT_EQ(recovered.LoadFrom(prefix), SnapshotStatus::kOk);
  EXPECT_EQ(recovered.topology_epoch(), epoch);
  ExpectDenseContents(recovered, 6000);
  Cleanup(prefix);
}

TEST(WalRecoveryTest, ConcurrentLoggedWritersRecoverCompletely) {
  // The TSan target: 4 writers race Insert through the group-committed
  // log; every acknowledged key must survive recovery.
  const std::string prefix = TempPrefix("recover-concurrent");
  Cleanup(prefix);
  constexpr int kThreads = 4;
  constexpr int64_t kPerThread = 500;
  {
    Sharded index(Opts(2));
    ASSERT_EQ(index.EnableWal(prefix, Wal(SyncPolicy::kAlways)),
              WalStatus::kOk);
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&index, t] {
        for (int64_t i = 0; i < kPerThread; ++i) {
          const int64_t key = t * kPerThread + i;
          ASSERT_TRUE(index.Insert(key, key * 7));
        }
      });
    }
    for (auto& w : writers) w.join();
    EXPECT_EQ(index.last_wal_error(), WalStatus::kOk);
  }
  Sharded recovered(Opts(2));
  ASSERT_EQ(recovered.LoadFrom(prefix), SnapshotStatus::kOk);
  ExpectDenseContents(recovered, kThreads * kPerThread);
  Cleanup(prefix);
}

TEST(WalRecoveryTest, AllSyncPoliciesRoundTrip) {
  for (const SyncPolicy policy :
       {SyncPolicy::kNone, SyncPolicy::kBatch, SyncPolicy::kAlways}) {
    const std::string prefix =
        TempPrefix("recover-policy") + "-" + wal::ToString(policy);
    Cleanup(prefix);
    {
      Sharded index(Opts(2));
      ASSERT_EQ(index.EnableWal(prefix, Wal(policy)), WalStatus::kOk);
      for (int64_t k = 0; k < 400; ++k) {
        ASSERT_TRUE(index.Insert(k, k * 7));
      }
    }
    Sharded recovered(Opts(2));
    ASSERT_EQ(recovered.LoadFrom(prefix), SnapshotStatus::kOk)
        << wal::ToString(policy);
    ExpectDenseContents(recovered, 400);
    Cleanup(prefix);
  }
}

// ---- Recovery while the writer is alive ----

/// Inserts keys [lo, hi) with payload key*7 in batches of 64 (one WAL
/// batch, hence at most one sync, per batch).
void InsertBatches(Sharded& index, int64_t lo, int64_t hi) {
  std::vector<int64_t> keys, payloads;
  for (int64_t k = lo; k < hi; k += 64) {
    keys.clear();
    payloads.clear();
    for (int64_t j = k; j < std::min(hi, k + 64); ++j) {
      keys.push_back(j);
      payloads.push_back(j * 7);
    }
    ASSERT_EQ(index.MultiInsert(keys.data(), payloads.data(), keys.size()),
              keys.size());
  }
}

long FileSize(const std::string& path) {
  struct ::stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<long>(st.st_size) : -1;
}

TEST(WalRecoveryTest, RecoveryReadsLogsALiveWriterStillMaps) {
  // A live log's current segment is its writer's preallocated mapping,
  // ending in zeros. ReplayWal and LoadFrom over it (after a rotation
  // and two doublings) must replay every acked record, report no torn
  // tail, leave the file its size, and let the writer keep appending.
  for (const SyncPolicy policy :
       {SyncPolicy::kNone, SyncPolicy::kBatch, SyncPolicy::kAlways}) {
    SCOPED_TRACE(wal::ToString(policy));
    const std::string prefix =
        TempPrefix("recover-live") + "-" + wal::ToString(policy);
    Cleanup(prefix);
    constexpr int64_t kPhase = 4000;  // 160 KB of records per phase
    {
      Sharded index(Opts(1));
      ASSERT_EQ(index.EnableWal(prefix, Wal(policy)), WalStatus::kOk);
      InsertBatches(index, 0, kPhase);
      ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);  // rotates
      InsertBatches(index, kPhase, 2 * kPhase);
      const std::vector<wal::WalSegmentFile> segments =
          wal::ListWalSegments(prefix);
      ASSERT_EQ(segments.size(), 1u);
      EXPECT_GT(segments[0].seq, 1u);
      const std::string live = segments[0].path;
      const long live_size = FileSize(live);
      EXPECT_EQ(live_size, 4 * 64 * 1024);  // 64 KiB doubled twice

      ShardManifest<int64_t> manifest;
      ASSERT_EQ(ReadManifest<int64_t>(Sharded::ManifestPath(prefix),
                                      &manifest),
                SnapshotStatus::kOk);
      std::map<uint64_t, uint64_t> checkpoints;
      for (size_t i = 0; i < manifest.wal_ids.size(); ++i) {
        checkpoints[manifest.wal_ids[i]] = manifest.checkpoint_lsns[i];
      }
      std::map<int64_t, int64_t> state;
      wal::RecoveryReport report;
      ASSERT_EQ((wal::ReplayWal<int64_t, int64_t>(
                    prefix, checkpoints, &state, &report,
                    /*truncate_torn_tail=*/true,
                    /*require_known_roots=*/true)),
                WalStatus::kOk);
      EXPECT_FALSE(report.tail_truncated);
      ASSERT_EQ(state.size(), static_cast<size_t>(kPhase));
      for (int64_t k = kPhase; k < 2 * kPhase; ++k) {
        ASSERT_EQ(state.at(k), k * 7) << k;
      }

      Sharded recovered(Opts(1));
      ASSERT_EQ(recovered.LoadFrom(prefix, &report), SnapshotStatus::kOk);
      EXPECT_FALSE(report.tail_truncated);
      ExpectDenseContents(recovered, 2 * kPhase);
      EXPECT_EQ(FileSize(live), live_size);  // never shrunk

      InsertBatches(index, 2 * kPhase, 2 * kPhase + 500);
      EXPECT_EQ(index.last_wal_error(), WalStatus::kOk);
    }
    Sharded again(Opts(1));
    ASSERT_EQ(again.LoadFrom(prefix), SnapshotStatus::kOk);
    ExpectDenseContents(again, 2 * kPhase + 500);
    Cleanup(prefix);
  }
}

// ---- A page of the live log lost in a crash ----

constexpr size_t kRecordBytes = sizeof(wal::WalRecordHeader) + 16;

size_t PageSize() { return static_cast<size_t>(::sysconf(_SC_PAGESIZE)); }

/// Keys the live log of LosePage's index holds: enough for four pages.
int64_t LiveKeys() {
  return std::max<int64_t>(2000,
                           static_cast<int64_t>(4 * PageSize() / kRecordBytes));
}

/// Keys [0, n) whose records lie wholly before byte `hole` of a root
/// log's first segment (one record per key, right after its header).
int64_t KeysBefore(size_t hole) {
  return static_cast<int64_t>((hole - sizeof(wal::WalSegmentHeader)) /
                              kRecordBytes);
}

constexpr int64_t kCheckpointBase = 1'000'000, kCheckpointKeys = 500;

/// A one-shard index checkpoints kCheckpointKeys keys, then logs
/// LiveKeys() single inserts under `policy`. Bytes [lo, hi) of a copy of
/// its live segment, taken while the writer runs, are zeroed, and the
/// copy is written back after the index closes: the pages were lost in a
/// crash. Returns the segment's path.
std::string LosePage(const std::string& prefix, SyncPolicy policy,
                     size_t lo, size_t hi) {
  Cleanup(prefix);
  std::string live;
  std::vector<uint8_t> copy;
  {
    Sharded index(Opts(1));
    std::vector<int64_t> keys, payloads;
    for (int64_t k = 0; k < kCheckpointKeys; ++k) {
      keys.push_back(kCheckpointBase + k);
      payloads.push_back((kCheckpointBase + k) * 7);
    }
    index.BulkLoad(keys.data(), payloads.data(), keys.size());
    EXPECT_EQ(index.EnableWal(prefix, Wal(policy)), WalStatus::kOk);
    for (int64_t k = 0; k < LiveKeys(); ++k) {
      EXPECT_TRUE(index.Insert(k, k * 7));
    }
    const std::vector<wal::WalSegmentFile> segments =
        wal::ListWalSegments(prefix);
    EXPECT_EQ(segments.size(), 1u);
    live = segments[0].path;
    copy = test::ReadAll(live);
  }
  EXPECT_GE(copy.size(), hi);
  std::fill(copy.begin() + static_cast<long>(lo),
            copy.begin() + static_cast<long>(hi), 0);
  test::WriteAll(live, copy);
  return live;
}

/// `index` holds the checkpoint and exactly keys [0, n) of the log.
void ExpectCheckpointAndKeysBefore(Sharded& index, int64_t n) {
  ASSERT_EQ(index.size(), static_cast<size_t>(kCheckpointKeys + n));
  int64_t v = 0;
  for (int64_t k = 0; k < kCheckpointKeys; ++k) {
    ASSERT_TRUE(index.Get(kCheckpointBase + k, &v));
    ASSERT_EQ(v, (kCheckpointBase + k) * 7);
  }
  for (int64_t k = 0; k < n; ++k) {
    ASSERT_TRUE(index.Get(k, &v)) << "key " << k;
    ASSERT_EQ(v, k * 7);
  }
  EXPECT_FALSE(index.Contains(n));
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(WalRecoveryTest, LostPageOfLiveLogIsATornTail) {
  // The third page of the live log is lost; pages after it survived.
  // Recovery keeps every record before the lost page and the checkpoint,
  // reports the rest as a dropped torn tail, and never shrinks the file.
  const size_t page = PageSize();
  for (const SyncPolicy policy :
       {SyncPolicy::kNone, SyncPolicy::kBatch, SyncPolicy::kAlways}) {
    SCOPED_TRACE(wal::ToString(policy));
    const std::string prefix =
        TempPrefix("recover-lostpage") + "-" + wal::ToString(policy);
    const std::string live = LosePage(prefix, policy, 2 * page, 3 * page);
    const long size = FileSize(live);
    const int64_t kept = KeysBefore(2 * page);
    Sharded recovered(Opts(1));
    wal::RecoveryReport report;
    ASSERT_EQ(recovered.LoadFrom(prefix, &report), SnapshotStatus::kOk)
        << report.status;
    EXPECT_TRUE(report.tail_truncated);
    EXPECT_EQ(report.records_replayed, static_cast<size_t>(kept));
    // Dropped: the records from the lost page's first overlapper to the
    // last nonzero byte (the final payload may end in zero bytes).
    const uint64_t lost_records = static_cast<uint64_t>(LiveKeys() - kept);
    EXPECT_LE(report.tail_bytes_dropped, lost_records * kRecordBytes);
    EXPECT_GT(report.tail_bytes_dropped, (lost_records - 1) * kRecordBytes);
    ExpectCheckpointAndKeysBefore(recovered, kept);
    EXPECT_EQ(FileSize(live), size);  // never shrunk
    Cleanup(prefix);
  }
}

TEST(WalRecoveryTest, LostPageAtTheFirstRecordKeepsTheCheckpoint) {
  // The first page holds the segment header and the first records: the
  // segment reads as a stub and recovery yields the checkpoint alone.
  const std::string prefix = TempPrefix("recover-lostfirst");
  LosePage(prefix, SyncPolicy::kBatch, 0, PageSize());
  Sharded recovered(Opts(1));
  wal::RecoveryReport report;
  ASSERT_EQ(recovered.LoadFrom(prefix, &report), SnapshotStatus::kOk)
      << report.status;
  EXPECT_TRUE(report.tail_truncated);
  EXPECT_EQ(report.records_replayed, 0u);
  EXPECT_GT(report.tail_bytes_dropped,
            static_cast<uint64_t>(LiveKeys() - 1) * kRecordBytes);
  ExpectCheckpointAndKeysBefore(recovered, 0);
  Cleanup(prefix);
}

TEST(WalRecoveryTest, LostPageStartingMidRecord) {
  const size_t page = PageSize();
  const std::string prefix = TempPrefix("recover-lostmid");
  // Page 1 starts inside a record: that record is torn with the page.
  ASSERT_NE((page - sizeof(wal::WalSegmentHeader)) % kRecordBytes, 0u);
  LosePage(prefix, SyncPolicy::kBatch, page, 2 * page);
  {
    Sharded recovered(Opts(1));
    ASSERT_EQ(recovered.LoadFrom(prefix), SnapshotStatus::kOk);
    ExpectCheckpointAndKeysBefore(recovered, KeysBefore(page));
  }
  // The page before the lost one was persisted before its last records
  // reached it, so its tail is zero too: those records are torn as well.
  const size_t stale = page - 3 * kRecordBytes / 2;
  LosePage(prefix, SyncPolicy::kBatch, stale, 2 * page);
  {
    Sharded recovered(Opts(1));
    ASSERT_EQ(recovered.LoadFrom(prefix), SnapshotStatus::kOk);
    ExpectCheckpointAndKeysBefore(recovered, KeysBefore(stale));
  }
  Cleanup(prefix);
}

TEST(WalRecoveryTest, LostPageInANonLastOrSealedSegmentStillFails) {
  // Only a log's unsealed last segment may have been mapped at the crash:
  // a zero page in a rotated segment is corruption.
  const std::string prefix = TempPrefix("recover-lostrotated");
  Cleanup(prefix);
  const size_t page = PageSize();
  const int64_t n = LiveKeys();
  {
    wal::ShardLog<int64_t, int64_t> log(prefix, 1, 0, 1, 0,
                                        Wal(SyncPolicy::kNone));
    ASSERT_EQ(log.Open(), WalStatus::kOk);
    for (int64_t k = 0; k < n; ++k) {
      const int64_t v = k * 7;
      ASSERT_EQ(log.Log(wal::WalRecordType::kInsert, k, &v), WalStatus::kOk);
    }
    ASSERT_EQ(log.Rotate(), WalStatus::kOk);
    const int64_t v = -1;
    ASSERT_EQ(log.Log(wal::WalRecordType::kInsert, n, &v), WalStatus::kOk);
  }
  const std::string first = wal::WalSegmentPath(prefix, 1, 1);
  std::vector<uint8_t> bytes = test::ReadAll(first);
  std::fill(bytes.begin() + static_cast<long>(2 * page),
            bytes.begin() + static_cast<long>(3 * page), 0);
  test::WriteAll(first, bytes);
  std::map<int64_t, int64_t> state;
  wal::RecoveryReport report;
  EXPECT_EQ((wal::ReplayWal<int64_t, int64_t>(prefix, {}, &state, &report)),
            WalStatus::kBadRecordType);
  EXPECT_EQ(report.detail, first);
  EXPECT_EQ(test::ReadAll(first), bytes);  // untouched
  Cleanup(prefix);

  // Nor may a sealed segment: a zero page past its seal (then a nonzero
  // byte, so the page is inside the content) is corruption too.
  {
    wal::ShardLog<int64_t, int64_t> log(prefix, 2, 0, 1, 0,
                                        Wal(SyncPolicy::kNone));
    ASSERT_EQ(log.Open(), WalStatus::kOk);
    const int64_t v = 7;
    ASSERT_EQ(log.Log(wal::WalRecordType::kInsert, 1, &v), WalStatus::kOk);
    ASSERT_EQ(log.Seal(), WalStatus::kOk);
  }
  const std::string sealed = wal::WalSegmentPath(prefix, 2, 1);
  bytes = test::ReadAll(sealed);
  bytes.resize((bytes.size() / page + 2) * page, 0);
  bytes.push_back(0x5A);
  test::WriteAll(sealed, bytes);
  state.clear();
  EXPECT_EQ((wal::ReplayWal<int64_t, int64_t>(prefix, {}, &state, &report)),
            WalStatus::kBadRecordType);
  EXPECT_EQ(report.detail, sealed);
  Cleanup(prefix);
}

TEST(WalRecoveryTest, NonzeroGarbagePageInTheLiveLogStillFails) {
  // Only a whole zero page is a lost page: a page of nonzero garbage in
  // the same place keeps failing recovery with the status it decodes to.
  const size_t page = PageSize();
  const std::string prefix = TempPrefix("recover-garbagepage");
  const std::string live =
      LosePage(prefix, SyncPolicy::kBatch, 2 * page, 3 * page);
  std::vector<uint8_t> bytes = test::ReadAll(live);
  std::fill(bytes.begin() + static_cast<long>(2 * page),
            bytes.begin() + static_cast<long>(3 * page), 0xA5);
  test::WriteAll(live, bytes);
  Sharded recovered(Opts(1));
  wal::RecoveryReport report;
  EXPECT_EQ(recovered.LoadFrom(prefix, &report),
            SnapshotStatus::kWalReplayFailed);
  EXPECT_EQ(report.status, WalStatus::kBadRecordType);
  EXPECT_EQ(report.detail, live);
  EXPECT_EQ(recovered.size(), 0u);
  Cleanup(prefix);
}

}  // namespace
}  // namespace alex::shard
