// Tests for the tiered-storage layer (src/tier/ + the ShardedAlex
// integration): cold-read correctness against a std::map oracle over a
// mixed hot/cold topology, overlay write semantics (tombstones,
// revival), the demote/promote/compact lifecycle including empty
// segments, checkpoint + recovery with tier preservation, the files a
// checkpoint leaves behind, manifest v5 round-trip and the v4
// kBadVersion refusal, crash-injection stray-segment sweeping, the
// compaction-shrinks-replay acceptance criterion, block-cache isolation
// across LoadFrom, corrupt cold blocks counted and never cached,
// topology transactions (rebalance, merge) over cold victims, the
// traffic-driven tiering policy, and TSan targets reading cold shards
// during concurrent tier transitions and rebalances.
#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/serialization.h"
#include "obs/metrics.h"
#include "shard/manifest.h"
#include "shard/sharded_alex.h"
#include "test_files.h"
#include "tier/segment.h"
#include "util/checksum.h"
#include "wal/log_reader.h"
#include "wal/wal_format.h"

namespace alex::shard {
namespace {

using Sharded = ShardedAlex<int64_t, int64_t>;
using core::AggField;
using core::AggSpec;
using core::SnapshotStatus;

using test::FilesAt;
using test::TempPrefix;
constexpr auto Cleanup = test::RemovePrefixFiles;

/// Options with the cold tier enabled at `prefix` (no WAL required) and
/// topology churn disabled so shard indices stay stable.
ShardedOptions TierOpts(size_t shards, const std::string& prefix) {
  ShardedOptions options;
  options.num_shards = shards;
  options.tier_prefix = prefix;
  options.min_rebalance_keys = 1u << 30;
  return options;
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

/// Loads `n` keys with stride 3 and payload = key * 2 + 1, returning the
/// oracle map.
std::map<int64_t, int64_t> BulkLoadStride3(Sharded* index, int64_t n) {
  std::vector<int64_t> keys(n), payloads(n);
  std::map<int64_t, int64_t> oracle;
  for (int64_t i = 0; i < n; ++i) {
    keys[i] = i * 3;
    payloads[i] = keys[i] * 2 + 1;
    oracle[keys[i]] = payloads[i];
  }
  index->BulkLoad(keys.data(), payloads.data(), keys.size());
  return oracle;
}

/// Full-surface equivalence check between the index and the oracle:
/// point reads (hits and misses), batched reads, ordered scans, range
/// scans, and pushed-down aggregates over ranges spanning hot and cold
/// shards alike.
void ExpectMatchesOracle(const Sharded& index,
                         const std::map<int64_t, int64_t>& oracle) {
  ASSERT_EQ(index.size(), oracle.size());
  ASSERT_TRUE(index.CheckInvariants());

  // Point reads: every oracle key hits with the right payload; keys
  // absent from the oracle (the stride-3 gaps) miss.
  for (const auto& [k, v] : oracle) {
    int64_t got = 0;
    ASSERT_TRUE(index.Get(k, &got)) << "key " << k;
    ASSERT_EQ(got, v) << "key " << k;
    if (oracle.count(k + 1) == 0) {
      ASSERT_FALSE(index.Contains(k + 1)) << "gap after " << k;
    }
  }

  // Batched reads in caller (unsorted) order, interleaving misses.
  std::vector<int64_t> probe;
  size_t expect_hits = 0;
  for (const auto& [k, v] : oracle) {
    probe.push_back(k);
    probe.push_back(k + 1);  // usually a stride-3 gap, sometimes a hit
  }
  std::mt19937_64 rng(7);
  std::shuffle(probe.begin(), probe.end(), rng);
  for (const int64_t k : probe) expect_hits += oracle.count(k);
  std::vector<int64_t> got_payloads(probe.size());
  std::vector<uint8_t> found_bytes(probe.size());
  bool* found = reinterpret_cast<bool*>(found_bytes.data());
  const size_t hits =
      index.MultiGet(probe.data(), probe.size(), got_payloads.data(), found);
  EXPECT_EQ(hits, expect_hits);
  for (size_t i = 0; i < probe.size(); ++i) {
    const auto it = oracle.find(probe[i]);
    ASSERT_EQ(found[i], it != oracle.end()) << "key " << probe[i];
    if (found[i]) {
      ASSERT_EQ(got_payloads[i], it->second);
    }
  }

  // Ordered scan over the full range must replay the oracle exactly.
  std::vector<std::pair<int64_t, int64_t>> scanned;
  const size_t visited =
      index.Scan(std::numeric_limits<int64_t>::lowest(),
                 std::numeric_limits<int64_t>::max(),
                 [&](const int64_t& k, const int64_t& p) {
                   scanned.emplace_back(k, p);
                 });
  EXPECT_EQ(visited, oracle.size());
  ASSERT_EQ(scanned.size(), oracle.size());
  size_t i = 0;
  for (const auto& kv : oracle) {
    ASSERT_EQ(scanned[i].first, kv.first);
    ASSERT_EQ(scanned[i].second, kv.second);
    ++i;
  }

  // RangeScan with a bounded result count, resuming mid-keyspace.
  if (!oracle.empty()) {
    const int64_t mid = std::next(oracle.begin(), oracle.size() / 2)->first;
    std::vector<std::pair<int64_t, int64_t>> ranged;
    const size_t want = std::min<size_t>(100, oracle.size());
    index.RangeScan(mid, want, &ranged);
    ASSERT_EQ(ranged.size(),
              std::min<size_t>(want, std::distance(oracle.find(mid),
                                                   oracle.end())));
    auto it = oracle.find(mid);
    for (const auto& kv : ranged) {
      ASSERT_EQ(kv.first, it->first);
      ASSERT_EQ(kv.second, it->second);
      ++it;
    }
  }

  // Aggregates over a range spanning shards: keys field, payloads
  // field, count-only, and a payload filter.
  if (!oracle.empty()) {
    const int64_t lo = std::next(oracle.begin(), oracle.size() / 4)->first;
    const int64_t hi =
        std::next(oracle.begin(), (3 * oracle.size()) / 4)->first;
    uint64_t count = 0;
    int64_t key_sum = 0, pay_sum = 0;
    int64_t key_min = 0, key_max = 0;
    uint64_t filtered = 0;
    const int64_t filter_lo = lo, filter_hi = hi;
    for (auto it = oracle.lower_bound(lo);
         it != oracle.end() && it->first <= hi; ++it) {
      if (count == 0) key_min = it->first;
      key_max = it->first;
      key_sum += it->first;
      pay_sum += it->second;
      if (it->second >= filter_lo && it->second <= filter_hi) ++filtered;
      ++count;
    }
    const auto keys_agg = index.Aggregate(lo, hi);
    EXPECT_EQ(keys_agg.count, count);
    EXPECT_EQ(keys_agg.keys.count, count);
    EXPECT_EQ(keys_agg.keys.sum, key_sum);
    if (count > 0) {
      EXPECT_EQ(keys_agg.keys.min, key_min);
      EXPECT_EQ(keys_agg.keys.max, key_max);
    }
    AggSpec<int64_t> pay_spec;
    pay_spec.field = AggField::kPayloads;
    const auto pay_agg = index.Aggregate(lo, hi, pay_spec);
    EXPECT_EQ(pay_agg.count, count);
    EXPECT_EQ(pay_agg.payloads.sum, pay_sum);
    AggSpec<int64_t> count_spec;
    count_spec.count_only = true;
    EXPECT_EQ(index.Aggregate(lo, hi, count_spec).count, count);
    AggSpec<int64_t> filt_spec;
    filt_spec.count_only = true;
    filt_spec.has_payload_filter = true;
    filt_spec.filter_lo = filter_lo;
    filt_spec.filter_hi = filter_hi;
    EXPECT_EQ(index.Aggregate(lo, hi, filt_spec).count, filtered);
  }
}

// ---- Cold-read correctness ----

TEST(TieredAlexTest, ColdReadsMatchOracleAcrossMixedTopology) {
  const std::string prefix = TempPrefix("tier-oracle");
  Sharded index(TierOpts(4, prefix));
  const auto oracle = BulkLoadStride3(&index, 6000);

  // Demote alternating shards: every cross-shard op now straddles the
  // resident/cold boundary in both directions.
  ASSERT_EQ(index.DemoteShard(1), SnapshotStatus::kOk);
  ASSERT_EQ(index.DemoteShard(3), SnapshotStatus::kOk);
  EXPECT_TRUE(index.IsShardCold(1));
  EXPECT_TRUE(index.IsShardCold(3));
  EXPECT_FALSE(index.IsShardCold(0));
  EXPECT_EQ(index.cold_shard_count(), 2u);
  EXPECT_GT(index.ColdBytes(), 0u);
  EXPECT_EQ(index.demotion_count(), 2u);

  ExpectMatchesOracle(index, oracle);
  // Cold point reads route through the block cache.
  EXPECT_GT(index.block_cache().hits() + index.block_cache().misses(), 0u);
  Cleanup(prefix);
}

TEST(TieredAlexTest, ColdWritesLandInDeltaOverlay) {
  const std::string prefix = TempPrefix("tier-overlay");
  Sharded index(TierOpts(2, prefix));
  auto oracle = BulkLoadStride3(&index, 2000);
  ASSERT_EQ(index.DemoteShard(1), SnapshotStatus::kOk);

  // Pick keys squarely inside the cold shard's range.
  const int64_t cold_key = 5100;      // loaded (5100 = 1700 * 3)
  const int64_t fresh_key = 5101;     // gap key, not loaded
  ASSERT_TRUE(index.IsShardCold(index.ShardOf(cold_key)));

  // Insert a new key: lands in the overlay, duplicate insert fails.
  ASSERT_TRUE(index.Insert(fresh_key, -1));
  EXPECT_FALSE(index.Insert(fresh_key, -2));
  oracle[fresh_key] = -1;
  // Duplicate insert of a segment-resident key fails too.
  EXPECT_FALSE(index.Insert(cold_key, -3));

  // Update: shadows the segment record; updating a miss fails.
  ASSERT_TRUE(index.Update(cold_key, 42));
  oracle[cold_key] = 42;
  EXPECT_FALSE(index.Update(5102, 0));  // gap key, never present

  // Erase a segment key (tombstone), then revive it via re-insert.
  const int64_t doomed = 5400;  // 1800 * 3
  ASSERT_TRUE(index.Erase(doomed));
  EXPECT_FALSE(index.Contains(doomed));
  EXPECT_FALSE(index.Erase(doomed));  // double erase
  oracle.erase(doomed);
  ASSERT_TRUE(index.Insert(doomed, 77));  // tombstone revival
  oracle[doomed] = 77;

  // Erase an overlay-only key: the entry disappears outright.
  ASSERT_TRUE(index.Erase(fresh_key));
  oracle.erase(fresh_key);
  EXPECT_FALSE(index.Contains(fresh_key));

  // Batched writes spanning the hot/cold boundary.
  std::vector<int64_t> batch_keys, batch_payloads;
  for (int64_t k = 2995; k < 3010; ++k) {  // straddles both shards
    if (oracle.count(k) != 0) continue;
    batch_keys.push_back(k);
    batch_payloads.push_back(k + 1);
    oracle[k] = k + 1;
  }
  EXPECT_EQ(index.MultiInsert(batch_keys.data(), batch_payloads.data(),
                              batch_keys.size()),
            batch_keys.size());
  EXPECT_EQ(index.MultiErase(batch_keys.data(), 2), 2u);
  oracle.erase(batch_keys[0]);
  oracle.erase(batch_keys[1]);

  EXPECT_TRUE(index.IsShardCold(1));
  ExpectMatchesOracle(index, oracle);
  Cleanup(prefix);
}

// ---- Lifecycle ----

TEST(TieredAlexTest, DemotePromoteCompactLifecycle) {
  const std::string prefix = TempPrefix("tier-lifecycle");
  Sharded index(TierOpts(2, prefix));
  auto oracle = BulkLoadStride3(&index, 2000);

  // Demote is idempotent; promote on a resident shard is a no-op.
  ASSERT_EQ(index.DemoteShard(1), SnapshotStatus::kOk);
  EXPECT_EQ(index.DemoteShard(1), SnapshotStatus::kOk);
  EXPECT_EQ(index.demotion_count(), 1u);
  EXPECT_EQ(index.PromoteShard(0), SnapshotStatus::kOk);
  EXPECT_EQ(index.promotion_count(), 0u);

  // Dirty the overlay, then compact: contents unchanged, still cold,
  // and a second compaction finds nothing to fold.
  ASSERT_TRUE(index.Update(5100, 42));
  oracle[5100] = 42;
  ASSERT_TRUE(index.Erase(5400));
  oracle.erase(5400);
  EXPECT_EQ(index.Compact(), 1u);
  EXPECT_EQ(index.compaction_count(), 1u);
  EXPECT_TRUE(index.IsShardCold(1));
  ExpectMatchesOracle(index, oracle);
  EXPECT_EQ(index.Compact(), 0u);  // clean overlay: nothing to do

  // Promote: back to a resident tree with identical contents.
  ASSERT_EQ(index.PromoteShard(1), SnapshotStatus::kOk);
  EXPECT_FALSE(index.IsShardCold(1));
  EXPECT_EQ(index.cold_shard_count(), 0u);
  EXPECT_EQ(index.ColdBytes(), 0u);
  EXPECT_EQ(index.promotion_count(), 1u);
  ExpectMatchesOracle(index, oracle);
  Cleanup(prefix);
}

TEST(TieredAlexTest, EmptyShardsLiveAsEmptySegments) {
  const std::string prefix = TempPrefix("tier-empty");
  Cleanup(prefix);
  std::map<int64_t, int64_t> oracle;
  {
    Sharded index(TierOpts(3, prefix));
    oracle = BulkLoadStride3(&index, 900);
    ASSERT_EQ(index.DemoteShard(1), SnapshotStatus::kOk);
    // Empty shard 1 while cold (tombstones over its whole segment) and
    // shard 2 while resident.
    std::vector<int64_t> doomed;
    for (const auto& [k, v] : oracle) {
      if (index.ShardOf(k) != 0) doomed.push_back(k);
    }
    for (const int64_t k : doomed) {
      ASSERT_TRUE(index.Erase(k));
      oracle.erase(k);
    }

    // The emptied cold shard compacts into an empty segment and stays
    // cold; it promotes and demotes like any other shard.
    ASSERT_EQ(index.CompactShard(1), SnapshotStatus::kOk);
    EXPECT_TRUE(index.IsShardCold(1));
    ASSERT_EQ(index.PromoteShard(1), SnapshotStatus::kOk);
    ASSERT_EQ(index.DemoteShard(1), SnapshotStatus::kOk);
    EXPECT_TRUE(index.IsShardCold(1));

    // The empty resident shard demotes to an empty segment, folds one
    // overlay key in and a tombstone over it back out, and promotes.
    ASSERT_EQ(index.DemoteShard(2), SnapshotStatus::kOk);
    EXPECT_TRUE(index.IsShardCold(2));
    const int64_t probe = 2500;  // inside shard 2's range
    ASSERT_EQ(index.ShardOf(probe), 2u);
    ASSERT_TRUE(index.Insert(probe, 1));
    ASSERT_EQ(index.CompactShard(2), SnapshotStatus::kOk);
    ASSERT_TRUE(index.Erase(probe));
    ASSERT_EQ(index.CompactShard(2), SnapshotStatus::kOk);
    EXPECT_EQ(index.compaction_count(), 3u);
    ASSERT_EQ(index.PromoteShard(2), SnapshotStatus::kOk);
    EXPECT_FALSE(index.IsShardCold(2));
    ExpectMatchesOracle(index, oracle);

    // Checkpoint: an empty cold and an empty resident shard.
    ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);
    ShardManifest<int64_t> manifest;
    ASSERT_EQ(
        ReadManifest<int64_t>(Sharded::ManifestPath(prefix), &manifest),
        SnapshotStatus::kOk);
    EXPECT_EQ(manifest.shard_keys[1], 0u);
    EXPECT_EQ(manifest.shard_keys[2], 0u);
  }

  Sharded recovered(TierOpts(3, prefix));
  ASSERT_EQ(recovered.LoadFrom(prefix), SnapshotStatus::kOk);
  EXPECT_TRUE(recovered.IsShardCold(1));
  EXPECT_FALSE(recovered.IsShardCold(2));
  for (const size_t s : {size_t{1}, size_t{2}}) {
    const std::vector<int64_t> bounds = recovered.ShardBoundaries();
    EXPECT_EQ(recovered.Aggregate(bounds[s - 1], bounds[s - 1] + 899).count,
              0u);
  }
  ExpectMatchesOracle(recovered, oracle);
  // The recovered empty cold shard still takes writes.
  ASSERT_TRUE(recovered.Insert(1201, 7));
  oracle[1201] = 7;
  ExpectMatchesOracle(recovered, oracle);
  Cleanup(prefix);
}

// ---- Checkpoint + recovery ----

TEST(TieredAlexTest, CheckpointPreservesTierAcrossLoad) {
  const std::string prefix = TempPrefix("tier-checkpoint");
  std::map<int64_t, int64_t> oracle;
  {
    Sharded index(TierOpts(2, prefix));
    oracle = BulkLoadStride3(&index, 2000);
    ASSERT_EQ(index.DemoteShard(1), SnapshotStatus::kOk);
    // Dirty both tiers after demotion so the checkpoint has to fold the
    // cold shard's overlay into a fresh segment.
    ASSERT_TRUE(index.Insert(1, 111));  // hot shard
    oracle[1] = 111;
    ASSERT_TRUE(index.Update(5100, 42));  // cold shard
    oracle[5100] = 42;
    ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);
  }

  Sharded loaded(TierOpts(2, prefix));
  wal::RecoveryReport report;
  ASSERT_EQ(loaded.LoadFrom(prefix, &report), SnapshotStatus::kOk);
  EXPECT_EQ(report.records_replayed, 0u);  // no WAL in play
  EXPECT_TRUE(loaded.IsShardCold(1));
  EXPECT_FALSE(loaded.IsShardCold(0));
  ExpectMatchesOracle(loaded, oracle);

  // The reloaded cold shard accepts overlay writes as before.
  ASSERT_TRUE(loaded.Update(5100, 43));
  oracle[5100] = 43;
  ExpectMatchesOracle(loaded, oracle);
  Cleanup(prefix);
}

TEST(TieredAlexTest, LoadFromNeverServesAnotherIndexsCachedBlocks) {
  // Index B's checkpoint holds its shard 1 cold as segment id 1.
  const std::string prefix_a = TempPrefix("tier-cache-a");
  const std::string prefix_b = TempPrefix("tier-cache-b");
  constexpr int64_t kN = 4000;
  std::vector<int64_t> keys(kN), payloads(kN);
  std::map<int64_t, int64_t> oracle_b;
  for (int64_t i = 0; i < kN; ++i) {
    keys[i] = i * 3;
    payloads[i] = -keys[i];
    oracle_b[keys[i]] = payloads[i];
  }
  {
    Sharded b(TierOpts(2, prefix_b));
    b.BulkLoad(keys.data(), payloads.data(), keys.size());
    ASSERT_EQ(b.DemoteShard(1), SnapshotStatus::kOk);
    ASSERT_EQ(b.SaveTo(prefix_b), SnapshotStatus::kOk);
  }

  // Index A demotes the same range to its own segment id 1 (another
  // prefix, other payloads) and warms the block cache with it.
  Sharded a(TierOpts(2, prefix_a));
  BulkLoadStride3(&a, kN);
  ASSERT_EQ(a.DemoteShard(1), SnapshotStatus::kOk);
  int64_t got = 0;
  for (const int64_t k : keys) ASSERT_TRUE(a.Get(k, &got));
  ASSERT_GT(a.block_cache().bytes(), 0u);

  // After loading B's checkpoint, every read serves B's segment: the
  // cache must not hand back A's blocks for the equal on-disk id.
  ASSERT_EQ(a.LoadFrom(prefix_b), SnapshotStatus::kOk);
  ASSERT_TRUE(a.IsShardCold(1));
  size_t wrong = 0;
  for (const int64_t k : keys) {
    if (!a.Get(k, &got) || got != -k) ++wrong;
  }
  EXPECT_EQ(wrong, 0u);
  ExpectMatchesOracle(a, oracle_b);
  Cleanup(prefix_a);
  Cleanup(prefix_b);
}

TEST(TieredAlexTest, RecoveryReplaysColdShardWalTail) {
  const std::string prefix = TempPrefix("tier-replay");
  Sharded index(TierOpts(2, prefix));
  auto oracle = BulkLoadStride3(&index, 2000);
  ASSERT_EQ(index.EnableWal(prefix), wal::WalStatus::kOk);
  ASSERT_EQ(index.DemoteShard(1), SnapshotStatus::kOk);

  // Logged writes past the anchor checkpoint, on both tiers: an
  // insert + update + erase mix that recovery must replay into the
  // cold shard's overlay.
  ASSERT_TRUE(index.Insert(1, 111));  // hot
  oracle[1] = 111;
  ASSERT_TRUE(index.Update(5100, 42));  // cold, shadows segment
  oracle[5100] = 42;
  ASSERT_TRUE(index.Erase(5400));  // cold, tombstone
  oracle.erase(5400);
  ASSERT_TRUE(index.Insert(5101, -5));  // cold, fresh overlay key
  oracle[5101] = -5;

  // Crash-recover into a second instance: the demotion predates the
  // anchor checkpoint's manifest, so the tail replays into whatever
  // tier the manifest recorded for each shard.
  Sharded recovered(TierOpts(2, prefix));
  wal::RecoveryReport report;
  ASSERT_EQ(recovered.LoadFrom(prefix, &report), SnapshotStatus::kOk);
  EXPECT_GE(report.records_replayed, 4u);
  ExpectMatchesOracle(recovered, oracle);
  Cleanup(prefix);
}

TEST(TieredAlexTest, CompactionShrinksReplayChain) {
  const std::string prefix = TempPrefix("tier-compact-replay");
  Sharded index(TierOpts(2, prefix));
  auto oracle = BulkLoadStride3(&index, 2000);
  ASSERT_EQ(index.EnableWal(prefix), wal::WalStatus::kOk);
  ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);
  ASSERT_EQ(index.DemoteShard(1), SnapshotStatus::kOk);

  // A burst of logged cold-tier writes accumulates overlay entries and
  // a matching WAL tail.
  constexpr int64_t kBurst = 500;
  for (int64_t i = 0; i < kBurst; ++i) {
    const int64_t k = 5100 + i * 3;  // cold shard keys
    if (oracle.count(k) != 0) {
      ASSERT_TRUE(index.Update(k, -i));
    } else {
      ASSERT_TRUE(index.Insert(k, -i));
    }
    oracle[k] = -i;
  }

  // Recovery before compaction replays the whole burst.
  size_t replayed_before = 0;
  {
    Sharded probe(TierOpts(2, prefix));
    wal::RecoveryReport report;
    ASSERT_EQ(probe.LoadFrom(prefix, &report), SnapshotStatus::kOk);
    replayed_before = report.records_replayed;
    EXPECT_GE(replayed_before, static_cast<size_t>(kBurst));
    ExpectMatchesOracle(probe, oracle);
  }

  // Compact (folds the overlay into a fresh segment) and checkpoint:
  // the next recovery starts from the compacted segment and replays
  // nothing — the checkpoint-to-checkpoint chain shrank to zero.
  EXPECT_EQ(index.Compact(), 1u);
  ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);
  {
    Sharded probe(TierOpts(2, prefix));
    wal::RecoveryReport report;
    ASSERT_EQ(probe.LoadFrom(prefix, &report), SnapshotStatus::kOk);
    EXPECT_LT(report.records_replayed, replayed_before);
    EXPECT_EQ(report.records_replayed, 0u);
    EXPECT_TRUE(probe.IsShardCold(1));
    ExpectMatchesOracle(probe, oracle);
  }
  Cleanup(prefix);
}

TEST(TieredAlexTest, CheckpointLeavesOnlyReferencedFiles) {
  // A mixed index: resident shard 0, clean cold shard 1, dirty cold
  // shard 2, empty resident shard 3, all logging at the tier prefix.
  const std::string prefix = TempPrefix("tier-mixed-files");
  Cleanup(prefix);
  Sharded index(TierOpts(4, prefix));
  auto oracle = BulkLoadStride3(&index, 4000);
  ASSERT_EQ(index.EnableWal(prefix), wal::WalStatus::kOk);
  ASSERT_EQ(index.DemoteShard(1), SnapshotStatus::kOk);
  ASSERT_EQ(index.DemoteShard(2), SnapshotStatus::kOk);
  const int64_t dirty_key = 6000;  // 2000 * 3, in shard 2
  ASSERT_EQ(index.ShardOf(dirty_key), 2u);
  ASSERT_TRUE(index.Update(dirty_key, -1));
  oracle[dirty_key] = -1;
  std::vector<int64_t> doomed;
  for (const auto& [k, v] : oracle) {
    if (index.ShardOf(k) == 3) doomed.push_back(k);
  }
  for (const int64_t k : doomed) {
    ASSERT_TRUE(index.Erase(k));
    oracle.erase(k);
  }
  const std::set<std::string> before = FilesAt(prefix);
  ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);

  std::string dir, base;
  wal::SplitPrefixPath(prefix, &dir, &base);
  const auto expected_files = [&] {
    ShardManifest<int64_t> manifest;
    EXPECT_EQ(
        ReadManifest<int64_t>(Sharded::ManifestPath(prefix), &manifest),
        SnapshotStatus::kOk);
    std::set<std::string> files = {base + ".manifest"};
    for (const uint64_t id : manifest.segment_ids) {
      files.insert(base + ".seg-" + std::to_string(id));
    }
    for (const wal::WalSegmentFile& f : wal::ListWalSegments(prefix)) {
      files.insert(f.path.substr(f.path.rfind('/') + 1));
    }
    return files;
  };
  ShardManifest<int64_t> manifest;
  ASSERT_EQ(ReadManifest<int64_t>(Sharded::ManifestPath(prefix), &manifest),
            SnapshotStatus::kOk);
  EXPECT_FALSE(manifest.IsCold(0));
  EXPECT_TRUE(manifest.IsCold(1));
  EXPECT_TRUE(manifest.IsCold(2));
  EXPECT_FALSE(manifest.IsCold(3));
  EXPECT_EQ(manifest.shard_keys[3], 0u);
  // The clean cold shard's segment is referenced as-is; every other
  // shard got a fresh one.
  for (size_t i = 0; i < 4; ++i) {
    const std::string name =
        base + ".seg-" + std::to_string(manifest.segment_ids[i]);
    EXPECT_EQ(before.count(name), i == 1 ? 1u : 0u) << "shard " << i;
  }
  // Besides those files, only the segment the dirty cold shard still
  // serves (its overlay is folded only into the checkpoint's copy)
  // remains.
  std::set<std::string> extra;
  const std::set<std::string> expected = expected_files();
  for (const std::string& name : FilesAt(prefix)) {
    if (expected.count(name) == 0) extra.insert(name);
  }
  ASSERT_EQ(extra.size(), 1u);
  EXPECT_EQ(before.count(*extra.begin()), 1u);

  // Compacting that shard makes it clean: the next checkpoint leaves
  // exactly the manifest, its segments and the live logs.
  EXPECT_EQ(index.Compact(), 1u);
  ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);
  EXPECT_EQ(FilesAt(prefix), expected_files());

  Sharded recovered(TierOpts(4, prefix));
  ASSERT_EQ(recovered.LoadFrom(prefix), SnapshotStatus::kOk);
  ExpectMatchesOracle(recovered, oracle);
  Cleanup(prefix);
}

// ---- Manifest formats ----

TEST(TieredAlexTest, ManifestV5RoundTripsTierState) {
  ShardManifest<int64_t> manifest;
  manifest.boundaries = {1000};
  manifest.shard_keys = {400, 600};
  manifest.wal_ids = {3, 4};
  manifest.checkpoint_lsns = {17, 23};
  manifest.tier_tags = {internal::kTierResident, internal::kTierCold};
  manifest.segment_ids = {8, 9};
  manifest.next_segment_id = 10;
  manifest.generation = 2;
  const std::string path = TempPrefix("tier-manifest-v5") + ".manifest";
  ASSERT_EQ(WriteManifest(path, manifest), SnapshotStatus::kOk);

  ShardManifest<int64_t> loaded;
  ASSERT_EQ(ReadManifest<int64_t>(path, &loaded), SnapshotStatus::kOk);
  EXPECT_EQ(loaded.tier_tags, manifest.tier_tags);
  EXPECT_EQ(loaded.segment_ids, manifest.segment_ids);
  EXPECT_EQ(loaded.next_segment_id, 10u);
  EXPECT_TRUE(loaded.IsCold(1));
  EXPECT_FALSE(loaded.IsCold(0));

  // A tier tag outside {resident, cold} is rejected even when the
  // checksum validates (foreign-writer defense).
  manifest.tier_tags = {7, internal::kTierCold};
  ASSERT_EQ(WriteManifest(path, manifest), SnapshotStatus::kOk);
  EXPECT_EQ(ReadManifest<int64_t>(path, &loaded),
            SnapshotStatus::kManifestMismatch);
  std::remove(path.c_str());
}

TEST(TieredAlexTest, V4ManifestIsBadVersion) {
  // A v4 manifest names per-shard snapshot files for resident shards,
  // which nothing reads any more, a v5 manifest uses the checksum v6
  // replaced, and a v6 header still carries the router model v7 dropped:
  // all must be refused outright.
  const std::string prefix = TempPrefix("tier-v4-load");
  Cleanup(prefix);
  {
    Sharded index(TierOpts(2, prefix));
    BulkLoadStride3(&index, 1000);
    ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);
  }
  const std::string path = Sharded::ManifestPath(prefix);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::vector<uint8_t> committed(4096);
  committed.resize(std::fread(committed.data(), 1, committed.size(), f));
  std::fclose(f);
  ASSERT_GT(committed.size(), sizeof(ManifestHeader) + sizeof(uint64_t));
  // Stamps the committed manifest with `version`, re-checksummed so the
  // version is the only thing that can be wrong with it (the checksum is
  // Checksum64 over every byte before the trailing checksum word).
  const auto stamp = [&](uint32_t version) {
    std::vector<uint8_t> bytes = committed;
    std::memcpy(bytes.data() + offsetof(ManifestHeader, version), &version,
                sizeof(version));
    const uint64_t checksum =
        util::Checksum64(bytes.data(), bytes.size() - sizeof(uint64_t), 0);
    std::memcpy(bytes.data() + bytes.size() - sizeof(uint64_t), &checksum,
                sizeof(checksum));
    std::FILE* out = std::fopen(path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), out), bytes.size());
    std::fclose(out);
  };

  ShardManifest<int64_t> manifest;
  // Positive control: the same rewrite at the current version loads, so
  // kBadVersion below comes from the version alone.
  stamp(internal::kManifestVersion);
  EXPECT_EQ(ReadManifest<int64_t>(path, &manifest), SnapshotStatus::kOk);
  for (const uint32_t old_version :
       {4u, 5u, internal::kManifestVersion - 1}) {
    SCOPED_TRACE(old_version);
    stamp(old_version);
    EXPECT_EQ(ReadManifest<int64_t>(path, &manifest),
              SnapshotStatus::kBadVersion);
    // A live index asked to load it stays untouched.
    Sharded live(TierOpts(2, prefix));
    const auto oracle = BulkLoadStride3(&live, 300);
    EXPECT_EQ(live.LoadFrom(prefix), SnapshotStatus::kBadVersion);
    ExpectMatchesOracle(live, oracle);
  }
  Cleanup(prefix);
}

// ---- Crash injection + corruption ----

TEST(TieredAlexTest, CheckpointSweepsStraySegments) {
  const std::string prefix = TempPrefix("tier-stray");
  Cleanup(prefix);
  {
    Sharded index(TierOpts(2, prefix));
    BulkLoadStride3(&index, 2000);
    // The anchor checkpoint writes segments 1 and 2.
    ASSERT_EQ(index.EnableWal(prefix), wal::WalStatus::kOk);
    // Demote after the anchor checkpoint: segment 3 lands on disk, but
    // the committed manifest still calls the shard resident — exactly
    // the state a crash between segment write and manifest rename
    // leaves behind.
    ASSERT_EQ(index.DemoteShard(1), SnapshotStatus::kOk);
    ASSERT_TRUE(FileExists(tier::SegmentPath(prefix, 3)));
  }
  // More crash debris: an unreferenced segment with a high id and a
  // segment torn by a crash part way through its in-place write.
  const std::string stray_seg = tier::SegmentPath(prefix, 9);
  const std::string torn_seg = tier::SegmentPath(prefix, 4);
  {
    std::FILE* f = std::fopen(stray_seg.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("debris", f);
    std::fclose(f);
  }
  test::WriteTornCopy(tier::SegmentPath(prefix, 3), torn_seg);

  Sharded recovered(TierOpts(2, prefix));
  ASSERT_EQ(recovered.LoadFrom(prefix), SnapshotStatus::kOk);
  // The manifest predates the demotion, so the shard comes back
  // resident; the orphaned segment is still on disk (LoadFrom never
  // deletes), and the next checkpoint — writing segments 10 and 11,
  // above the debris — sweeps the strays and the superseded checkpoint.
  EXPECT_FALSE(recovered.IsShardCold(1));
  EXPECT_TRUE(FileExists(tier::SegmentPath(prefix, 3)));
  ASSERT_EQ(recovered.SaveTo(prefix), SnapshotStatus::kOk);
  for (const uint64_t id : {1, 2, 3}) {
    EXPECT_FALSE(FileExists(tier::SegmentPath(prefix, id))) << id;
  }
  EXPECT_FALSE(FileExists(stray_seg));
  EXPECT_FALSE(FileExists(torn_seg));
  EXPECT_TRUE(FileExists(tier::SegmentPath(prefix, 10)));
  EXPECT_TRUE(FileExists(tier::SegmentPath(prefix, 11)));

  // The stray scan raised the id watermark past the debris: a fresh
  // demotion allocates above it instead of recycling swept names.
  ASSERT_EQ(recovered.DemoteShard(1), SnapshotStatus::kOk);
  EXPECT_TRUE(FileExists(tier::SegmentPath(prefix, 12)));
  Cleanup(prefix);
}

TEST(TieredAlexTest, CorruptOrMissingSegmentIsRejectedDistinctly) {
  const std::string prefix = TempPrefix("tier-corrupt");
  Sharded index(TierOpts(2, prefix));
  BulkLoadStride3(&index, 2000);
  ASSERT_EQ(index.DemoteShard(1), SnapshotStatus::kOk);
  ASSERT_EQ(index.SaveTo(prefix), SnapshotStatus::kOk);
  ShardManifest<int64_t> manifest;
  ASSERT_EQ(ReadManifest<int64_t>(Sharded::ManifestPath(prefix), &manifest),
            SnapshotStatus::kOk);
  ASSERT_TRUE(manifest.IsCold(1));
  const std::string seg_path =
      tier::SegmentPath(prefix, manifest.segment_ids[1]);
  ASSERT_TRUE(FileExists(seg_path));

  // Flip one byte in the last data block: the per-block checksum trips
  // and the load reports segment corruption, not a generic mismatch.
  {
    std::FILE* f = std::fopen(seg_path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, -8, SEEK_END), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, -8, SEEK_END), 0);
    ASSERT_EQ(std::fputc(c ^ 0xFF, f), c ^ 0xFF);
    std::fclose(f);
  }
  {
    Sharded probe(TierOpts(2, prefix));
    EXPECT_EQ(probe.LoadFrom(prefix), SnapshotStatus::kSegmentCorrupt);
    EXPECT_EQ(probe.size(), 0u);  // failed load left it untouched
  }

  // A manifest-referenced segment the filesystem lacks is its own
  // distinct error.
  ASSERT_EQ(std::remove(seg_path.c_str()), 0);
  {
    Sharded probe(TierOpts(2, prefix));
    EXPECT_EQ(probe.LoadFrom(prefix), SnapshotStatus::kMissingShard);
  }
  Cleanup(prefix);
}

// A demoted segment is never audited as a whole, so a block that rots
// after demotion is caught by the in-place verify of the read that
// first touches it: counted, never cached, verified again next time.
TEST(TieredAlexTest, CorruptColdBlockIsCountedAndNeverCached) {
  const std::string prefix = TempPrefix("tier-verify-fail");
  Cleanup(prefix);
  Sharded index(TierOpts(2, prefix));
  BulkLoadStride3(&index, 2000);  // shard 1: keys 3000..5997
  ASSERT_EQ(index.DemoteShard(1), SnapshotStatus::kOk);
  std::string dir, base;
  wal::SplitPrefixPath(prefix, &dir, &base);
  std::string seg_path;
  for (const std::string& name : FilesAt(prefix)) {
    if (name.find(".seg-") != std::string::npos) seg_path = dir + "/" + name;
  }
  ASSERT_FALSE(seg_path.empty());

  // Flip a byte of the last payload of block 0 through the file; the
  // index's MAP_SHARED mapping sees the write.
  tier::ColdSegment<int64_t, int64_t> seg;
  ASSERT_EQ(seg.Open(seg_path, 0), SnapshotStatus::kOk);
  const size_t kpb = seg.keys_per_block();
  ASSERT_GT(seg.num_blocks(), 1u);
  const off_t offset = static_cast<off_t>(
      sizeof(tier::SegmentHeader) +
      seg.num_blocks() * (sizeof(uint64_t) + sizeof(int64_t)) +
      kpb * sizeof(int64_t) + (kpb - 1) * sizeof(int64_t));
  {
    const int fd = ::open(seg_path.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    uint8_t byte = 0;
    ASSERT_EQ(::pread(fd, &byte, 1, offset), 1);
    byte ^= 0x40;
    ASSERT_EQ(::pwrite(fd, &byte, 1, offset), 1);
    ::close(fd);
  }
  ASSERT_EQ(seg.VerifyBlock(0), SnapshotStatus::kSegmentCorrupt);

  obs::SetEnabled(true);
  obs::Counter* failures = obs::MetricsRegistry::Global().GetCounter(
      "tier.block_verify_failures");
  const uint64_t failures_before = failures->Load();
  // Block 0's first key: its own payload is intact, so Get still
  // answers it (Get has no error channel).
  for (int i = 0; i < 2; ++i) {
    int64_t got = 0;
    ASSERT_TRUE(index.Get(3000, &got));
    EXPECT_EQ(got, 6001);
  }
  EXPECT_EQ(failures->Load() - failures_before, 2u);
  EXPECT_EQ(index.block_cache().hits(), 0u);
  EXPECT_EQ(index.block_cache().bytes(), 0u);

  // An intact block of the same segment enters once, then hits.
  for (int i = 0; i < 2; ++i) {
    int64_t got = 0;
    ASSERT_TRUE(index.Get(3000 + 3 * static_cast<int64_t>(kpb), &got));
  }
  EXPECT_EQ(failures->Load() - failures_before, 2u);
  EXPECT_EQ(index.block_cache().hits(), 1u);
  EXPECT_GT(index.block_cache().bytes(), 0u);
  obs::SetEnabled(false);
  Cleanup(prefix);
}

// ---- Topology over cold shards ----

TEST(TieredAlexTest, TopologyTransactionsTakeColdVictims) {
  const std::string prefix = TempPrefix("tier-topology");
  Sharded index(TierOpts(4, prefix));
  auto oracle = BulkLoadStride3(&index, 8000);
  ASSERT_EQ(index.EnableWal(prefix), wal::WalStatus::kOk);
  ASSERT_EQ(index.DemoteShard(1), SnapshotStatus::kOk);
  ASSERT_EQ(index.DemoteShard(2), SnapshotStatus::kOk);
  const std::vector<int64_t> bounds = index.ShardBoundaries();
  ASSERT_EQ(bounds.size(), 3u);

  // Overlay state in both cold victims: an insert, a tombstone and an
  // update shadowing a segment key.
  const int64_t in1 = (bounds[0] / 3 + 1) * 3;  // a loaded key of shard 1
  const int64_t in2 = (bounds[1] / 3 + 1) * 3;  // ... and of shard 2
  ASSERT_TRUE(index.Insert(in1 + 1, -1));
  oracle[in1 + 1] = -1;
  ASSERT_TRUE(index.Erase(in1));
  oracle.erase(in1);
  ASSERT_TRUE(index.Update(in2, 42));
  oracle[in2] = 42;
  ExpectMatchesOracle(index, oracle);  // also warms the block cache
  ASSERT_GT(index.block_cache().bytes(), 0u);

  // A rebalance across both cold shards commits; its children are
  // resident, and retiring the victims dropped their cached blocks.
  const uint64_t promotions = index.promotion_count();
  ASSERT_TRUE(index.Rebalance(in1, in2));
  EXPECT_EQ(index.num_shards(), 4u);
  EXPECT_EQ(index.cold_shard_count(), 0u);
  EXPECT_EQ(index.ColdBytes(), 0u);
  EXPECT_EQ(index.block_cache().bytes(), 0u);
  EXPECT_EQ(index.promotion_count(), promotions);
  ExpectMatchesOracle(index, oracle);

  // A logged write into a child survives recovery with no checkpoint
  // since the anchor: the victims' sealed logs and the children's
  // lineage replay over the anchor's segments.
  ASSERT_TRUE(index.Insert(in1 + 2, -2));
  oracle[in1 + 2] = -2;
  {
    Sharded recovered(TierOpts(4, prefix));
    ASSERT_EQ(recovered.LoadFrom(prefix), SnapshotStatus::kOk);
    ExpectMatchesOracle(recovered, oracle);
  }
  Cleanup(prefix);
}

TEST(TieredAlexTest, MergeWithColdCoVictimCommitsWithoutPromotion) {
  const std::string prefix = TempPrefix("tier-merge");
  ShardedOptions options = TierOpts(4, prefix);
  options.merge_threshold_keys = 2500;  // shards 0 + 1 hold 2000 keys
  Sharded index(options);
  auto oracle = BulkLoadStride3(&index, 4000);
  ASSERT_EQ(index.DemoteShard(1), SnapshotStatus::kOk);

  // Churn gap keys of resident shard 0 until its 1024th commit, an
  // erase, runs the merge check; shard 1 (cold) is its only neighbor.
  const int64_t gap = 1;
  ASSERT_EQ(index.ShardOf(gap), 0u);
  for (int i = 0; i < 512; ++i) {
    ASSERT_TRUE(index.Insert(gap, 0));
    ASSERT_TRUE(index.Erase(gap));
  }
  EXPECT_EQ(index.merge_count(), 1u);
  EXPECT_EQ(index.promotion_count(), 0u);
  EXPECT_EQ(index.num_shards(), 3u);
  EXPECT_EQ(index.cold_shard_count(), 0u);
  ExpectMatchesOracle(index, oracle);
  Cleanup(prefix);
}

// ---- Tiering policy ----

TEST(TieredAlexTest, TieringTickDemotesIdleShardsAndPromotesHotOnes) {
  const std::string prefix = TempPrefix("tier-policy");
  Sharded index(TierOpts(4, prefix));
  // 2000 keys a shard: every idle shard is big enough to demote.
  const auto oracle = BulkLoadStride3(&index, 8000);

  // Concentrate all traffic on shard 0: the idle shards demote, the
  // hot one stays resident.
  std::vector<int64_t> shard0_keys, shard3_keys;
  for (const auto& [k, v] : oracle) {
    if (index.ShardOf(k) == 0) shard0_keys.push_back(k);
    if (index.ShardOf(k) == 3) shard3_keys.push_back(k);
  }
  ASSERT_FALSE(shard0_keys.empty());
  ASSERT_FALSE(shard3_keys.empty());
  int64_t sink = 0;
  for (int round = 0; round < 4; ++round) {
    for (const int64_t k : shard0_keys) index.Get(k, &sink);
  }
  EXPECT_EQ(index.TieringTick(), 3u);
  EXPECT_FALSE(index.IsShardCold(0));
  EXPECT_TRUE(index.IsShardCold(1));
  EXPECT_TRUE(index.IsShardCold(2));
  EXPECT_TRUE(index.IsShardCold(3));

  // Shift the traffic onto (cold) shard 3: sustained reads earn it a
  // promotion back to the resident tier.
  for (int round = 0; round < 4; ++round) {
    for (const int64_t k : shard3_keys) index.Get(k, &sink);
  }
  EXPECT_GE(index.TieringTick(), 1u);
  EXPECT_FALSE(index.IsShardCold(3));
  EXPECT_GE(index.promotion_count(), 1u);
  ExpectMatchesOracle(index, oracle);
  Cleanup(prefix);
}

// The window threshold: TieringTick does nothing until the routed
// operations since the previous tick reach kTierMinWindowOps. A tick that
// finds a short window leaves it open, so one more Get completes it.
TEST(TieredAlexTest, TieringTickWaitsForAFullTrafficWindow) {
  const std::string prefix = TempPrefix("tier-window");
  Sharded index(TierOpts(2, prefix));
  const auto oracle = BulkLoadStride3(&index, 2 * kTierMinDemoteKeys);
  std::vector<int64_t> shard0_keys;
  for (const auto& [k, v] : oracle) {
    if (index.ShardOf(k) == 0) shard0_keys.push_back(k);
  }
  ASSERT_FALSE(shard0_keys.empty());
  int64_t sink = 0;
  for (uint64_t i = 0; i + 1 < kTierMinWindowOps; ++i) {
    index.Get(shard0_keys[i % shard0_keys.size()], &sink);
  }
  EXPECT_EQ(index.TieringTick(), 0u);  // one op short
  EXPECT_EQ(index.cold_shard_count(), 0u);
  index.Get(shard0_keys[0], &sink);
  EXPECT_EQ(index.TieringTick(), 1u);  // at the threshold: shard 1 idles
  EXPECT_FALSE(index.IsShardCold(0));
  EXPECT_TRUE(index.IsShardCold(1));
  ExpectMatchesOracle(index, oracle);
  Cleanup(prefix);
}

// The size threshold: an idle shard demotes only once it holds
// kTierMinDemoteKeys keys. Shard 1 holds exactly that many, shard 2 one
// fewer; both are idle.
TEST(TieredAlexTest, TieringTickDemotesOnlyShardsOfTheMinimumSize) {
  const std::string prefix = TempPrefix("tier-min-keys");
  Sharded index(TierOpts(3, prefix));
  auto oracle = BulkLoadStride3(&index, 3 * kTierMinDemoteKeys);
  std::vector<int64_t> shard0_keys;
  int64_t shard2_key = -1;
  size_t shard1_size = 0;
  for (const auto& [k, v] : oracle) {
    const size_t s = index.ShardOf(k);
    if (s == 0) shard0_keys.push_back(k);
    if (s == 1) ++shard1_size;
    if (s == 2) shard2_key = k;
  }
  ASSERT_EQ(shard1_size, kTierMinDemoteKeys);
  ASSERT_TRUE(index.Erase(shard2_key));
  oracle.erase(shard2_key);
  int64_t sink = 0;
  for (uint64_t i = 0; i < kTierMinWindowOps; ++i) {
    index.Get(shard0_keys[i % shard0_keys.size()], &sink);
  }
  EXPECT_EQ(index.TieringTick(), 1u);
  EXPECT_FALSE(index.IsShardCold(0));
  EXPECT_TRUE(index.IsShardCold(1));   // at the threshold
  EXPECT_FALSE(index.IsShardCold(2));  // one key short
  ExpectMatchesOracle(index, oracle);
  Cleanup(prefix);
}

TEST(TieredAlexTest, BackgroundTieringThreadStartsAndStops) {
  const std::string prefix = TempPrefix("tier-thread");
  Sharded index(TierOpts(2, prefix));
  const auto oracle = BulkLoadStride3(&index, 2 * kTierMinDemoteKeys);

  index.StartTiering(/*interval_ms=*/5);
  index.StartTiering(5);  // idempotent
  std::vector<int64_t> shard0_keys;
  for (const auto& [k, v] : oracle) {
    if (index.ShardOf(k) == 0) shard0_keys.push_back(k);
  }
  int64_t sink = 0;
  for (int round = 0; round < 50; ++round) {
    for (const int64_t k : shard0_keys) index.Get(k, &sink);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  index.StopTiering();
  index.StopTiering();  // idempotent
  ExpectMatchesOracle(index, oracle);
  Cleanup(prefix);
}

// ---- Concurrency (TSan target) ----

TEST(TieredAlexTest, ColdReadsDuringConcurrentTierTransitions) {
  const std::string prefix = TempPrefix("tier-race");
  Sharded index(TierOpts(2, prefix));
  constexpr int64_t kN = 3000;
  std::vector<int64_t> keys(kN), payloads(kN);
  for (int64_t i = 0; i < kN; ++i) {
    keys[i] = i * 3;
    payloads[i] = i * 6 + 1;
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  // Readers hammer point lookups and scans; bulk-loaded payloads never
  // change, so any torn read is a hard failure.
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937_64 rng(100 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const int64_t i = static_cast<int64_t>(rng() % kN);
        int64_t got = 0;
        ASSERT_TRUE(index.Get(keys[i], &got));
        ASSERT_EQ(got, payloads[i]);
        if ((rng() & 7) == 0) {
          const int64_t lo = keys[i];
          size_t seen = 0;
          int64_t prev = std::numeric_limits<int64_t>::lowest();
          index.Scan(lo, lo + 300, [&](const int64_t& k, const int64_t&) {
            ASSERT_GT(k, prev);
            prev = k;
            ++seen;
          });
          ASSERT_GE(seen, 1u);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // A writer churns overlay-only keys (gap keys, disjoint from the
  // bulk-loaded set) so tier transitions race live overlay mutation.
  std::thread writer([&] {
    std::mt19937_64 rng(999);
    while (!stop.load(std::memory_order_relaxed)) {
      const int64_t k = static_cast<int64_t>(rng() % kN) * 3 + 1;
      if (!index.Insert(k, -k)) index.Erase(k);
    }
  });

  // Main thread cycles both shards through demote → promote while the
  // readers and writer run.
  for (int cycle = 0; cycle < 25; ++cycle) {
    for (size_t s = 0; s < 2; ++s) {
      ASSERT_EQ(index.DemoteShard(s), SnapshotStatus::kOk);
    }
    for (size_t s = 0; s < 2; ++s) {
      ASSERT_EQ(index.PromoteShard(s), SnapshotStatus::kOk);
    }
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  writer.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_TRUE(index.CheckInvariants());
  // Every bulk-loaded record survived the churn.
  for (int64_t i = 0; i < kN; ++i) {
    int64_t got = 0;
    ASSERT_TRUE(index.Get(keys[i], &got));
    ASSERT_EQ(got, payloads[i]);
  }
  Cleanup(prefix);
}

TEST(TieredAlexTest, ReadersDuringRebalanceOfColdShards) {
  const std::string prefix = TempPrefix("tier-topology-race");
  Sharded index(TierOpts(4, prefix));
  constexpr int64_t kN = 4000;
  std::vector<int64_t> keys(kN), payloads(kN);
  for (int64_t i = 0; i < kN; ++i) {
    keys[i] = i * 3;
    payloads[i] = i * 6 + 1;
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  ASSERT_EQ(index.DemoteShard(1), SnapshotStatus::kOk);
  ASSERT_EQ(index.DemoteShard(2), SnapshotStatus::kOk);
  // The demoted range: every key of shards 1 and 2. Rebalances re-cut
  // its inner boundary but never its ends.
  const std::vector<int64_t> bounds = index.ShardBoundaries();
  const int64_t first = bounds[0] / 3 + (bounds[0] % 3 != 0 ? 1 : 0);
  const int64_t last = (bounds[2] - 1) / 3;  // key indices [first, last]
  const int64_t span = last - first + 1;
  // Preloaded keys in [keys[i], keys[i] + 300]: records never change.
  auto expect_in_window = [&](int64_t i) {
    return static_cast<uint64_t>(std::min<int64_t>(101, kN - i));
  };

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937_64 rng(200 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const int64_t i = first + static_cast<int64_t>(rng() % span);
        int64_t got = 0;
        ASSERT_TRUE(index.Get(keys[i], &got)) << "key " << keys[i];
        ASSERT_EQ(got, payloads[i]);
        switch (rng() % 4) {
          case 0: {
            int64_t batch[8];
            int64_t out[8];
            bool found[8];
            for (int64_t& k : batch) k = keys[first + rng() % span];
            ASSERT_EQ(index.MultiGet(batch, 8, out, found), 8u);
            break;
          }
          case 1: {
            uint64_t seen = 0;
            index.Scan(keys[i], keys[i] + 300,
                       [&](const int64_t&, const int64_t&) { ++seen; });
            ASSERT_EQ(seen, expect_in_window(i));
            break;
          }
          case 2: {
            AggSpec<int64_t> spec;
            spec.count_only = true;
            ASSERT_EQ(index.Aggregate(keys[i], keys[i] + 300, spec).count,
                      expect_in_window(i));
            break;
          }
          default:
            break;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Rebalance the demoted range, then demote its children again, until
  // at least 20 transactions took cold victims.
  size_t txns = 0;
  for (int attempt = 0; txns < 20 && attempt < 1000; ++attempt) {
    if (!index.Rebalance(keys[first], keys[last])) continue;
    ++txns;
    ASSERT_EQ(index.DemoteShard(1), SnapshotStatus::kOk);
    ASSERT_EQ(index.DemoteShard(2), SnapshotStatus::kOk);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GE(txns, 20u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_TRUE(index.CheckInvariants());
  for (int64_t i = 0; i < kN; ++i) {
    int64_t got = 0;
    ASSERT_TRUE(index.Get(keys[i], &got));
    ASSERT_EQ(got, payloads[i]);
  }
  Cleanup(prefix);
}

}  // namespace
}  // namespace alex::shard
