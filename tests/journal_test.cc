// Tests for the structured event journal (src/obs/journal.h): the seqlock
// ring (ordering, wrap, torn-read protection), the JSON-lines file sink,
// the SnapshotJson tail, the ALEX_OBS_EVENT runtime gate, and the
// integration seams — BulkLoad, EnableWal, SaveTo, LoadFrom and forced
// topology splits must each leave their structured record with causal
// context in the global journal.
//
// The journal is process-global (instrumentation sites reach it through
// GlobalJournal()), so every test resets it in the fixture.
#include "obs/journal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "shard/sharded_alex.h"
#include "test_files.h"

namespace alex {
namespace {

using obs::EventJournal;
using obs::EventType;
using obs::GlobalJournal;
using obs::JournalEvent;
using Sharded = shard::ShardedAlex<int64_t, int64_t>;

using test::TempPrefix;
[[maybe_unused]] constexpr auto CleanupFiles = test::RemovePrefixFiles;

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(false);
    GlobalJournal().CloseFileSink();
    GlobalJournal().Reset();
    obs::MetricsRegistry::Global().ResetAll();
  }
  void TearDown() override {
    obs::SetEnabled(false);
    GlobalJournal().CloseFileSink();
    GlobalJournal().Reset();
  }
};

TEST_F(JournalTest, AppendRoundTripsEveryField) {
  GlobalJournal().Append(EventType::kCheckpoint, 3, /*wal_id=*/7,
                         /*lsn=*/99, /*a=*/5, /*b=*/-2);
  const std::vector<JournalEvent> events = GlobalJournal().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].ticket, 0u);
  EXPECT_GT(events[0].ts_ns, 0u);
  EXPECT_EQ(events[0].type, EventType::kCheckpoint);
  EXPECT_EQ(events[0].shard, 3u);
  EXPECT_EQ(events[0].wal_id, 7u);
  EXPECT_EQ(events[0].lsn, 99u);
  EXPECT_EQ(events[0].a, 5);
  EXPECT_EQ(events[0].b, -2);
}

TEST_F(JournalTest, RingKeepsNewestCapacityOldestFirstAcrossWrap) {
  constexpr uint64_t kAppends = EventJournal::kCapacity + 88;
  for (uint64_t i = 0; i < kAppends; ++i) {
    GlobalJournal().Append(EventType::kWalError, 0, /*wal_id=*/i, /*lsn=*/0,
                           static_cast<int64_t>(i), 0);
  }
  EXPECT_EQ(GlobalJournal().recorded(), kAppends);
  const std::vector<JournalEvent> events = GlobalJournal().Snapshot();
  ASSERT_EQ(events.size(), EventJournal::kCapacity);
  for (size_t i = 0; i < events.size(); ++i) {
    const uint64_t expected = kAppends - EventJournal::kCapacity + i;
    EXPECT_EQ(events[i].ticket, expected);
    EXPECT_EQ(events[i].wal_id, expected);  // payload survived the wrap
  }
}

TEST_F(JournalTest, SnapshotJsonReturnsNewestTail) {
  for (int64_t i = 0; i < 10; ++i) {
    GlobalJournal().Append(EventType::kBulkLoad, 0, 0, 0, i, 0);
  }
  const std::string tail = GlobalJournal().SnapshotJson(/*max_events=*/3);
  EXPECT_EQ(tail.find("\"ticket\": 6"), std::string::npos);
  EXPECT_NE(tail.find("\"ticket\": 7"), std::string::npos);
  EXPECT_NE(tail.find("\"ticket\": 9"), std::string::npos);
  EXPECT_NE(tail.find("\"type\": \"bulk_load\""), std::string::npos);
}

TEST_F(JournalTest, FileSinkWritesOneJsonLinePerEvent) {
  const std::string path = TempPrefix("journal_sink.jsonl");
  std::remove(path.c_str());
  ASSERT_TRUE(GlobalJournal().SetFileSink(path));
  GlobalJournal().Append(EventType::kRecovery, obs::kShardAll, 0, 0, 41, 2);
  GlobalJournal().Append(EventType::kCheckpoint, obs::kShardAll, 0, 17, 1, 2);
  GlobalJournal().CloseFileSink();
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"type\": \"recovery\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"a\": 41"), std::string::npos);
  EXPECT_NE(lines[1].find("\"type\": \"checkpoint\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"lsn\": 17"), std::string::npos);
  EXPECT_EQ(lines[0].front(), '{');
  EXPECT_EQ(lines[0].back(), '}');
  std::remove(path.c_str());
}

TEST_F(JournalTest, EventToJsonSpellsShardAllAsString) {
  JournalEvent e;
  e.type = EventType::kWalEnabled;
  e.shard = obs::kShardAll;
  EXPECT_NE(obs::EventToJson(e).find("\"shard\": \"all\""),
            std::string::npos);
  e.shard = 4;
  EXPECT_NE(obs::EventToJson(e).find("\"shard\": 4"), std::string::npos);
}

#if !defined(ALEX_DISABLE_OBS)

TEST_F(JournalTest, EventMacroIsGatedOnTheRuntimeFlag) {
  obs::SetEnabled(false);
  ALEX_OBS_EVENT(EventType::kBulkLoad, obs::kShardAll, 0, 0, 1, 1);
  EXPECT_EQ(GlobalJournal().recorded(), 0u);
  obs::SetEnabled(true);
  ALEX_OBS_EVENT(EventType::kBulkLoad, obs::kShardAll, 0, 0, 1, 1);
  EXPECT_EQ(GlobalJournal().recorded(), 1u);
}

// Helper: the newest event of `type`, or nullopt-like (found=false).
bool FindNewest(EventType type, JournalEvent* out) {
  const std::vector<JournalEvent> events = GlobalJournal().Snapshot();
  for (auto it = events.rbegin(); it != events.rend(); ++it) {
    if (it->type == type) {
      *out = *it;
      return true;
    }
  }
  return false;
}

// The structural seams: one lifecycle — bulk load, enable WAL, checkpoint,
// recover — leaves exactly the advertised causal records.
TEST_F(JournalTest, LifecycleSeamsJournalTheirEvents) {
  obs::SetEnabled(true);
  const std::string prefix = TempPrefix("journal_lifecycle");
  CleanupFiles(prefix);

  shard::ShardedOptions options;
  options.num_shards = 2;
  Sharded index(options);
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 2048; ++i) {
    keys.push_back(i * 2);
    payloads.push_back(i);
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  JournalEvent e;
  ASSERT_TRUE(FindNewest(EventType::kBulkLoad, &e));
  EXPECT_EQ(e.a, 2048);  // keys loaded
  EXPECT_EQ(e.b, 2);     // shards

  ASSERT_EQ(index.EnableWal(prefix, wal::WalOptions{}), wal::WalStatus::kOk);
  ASSERT_TRUE(FindNewest(EventType::kWalEnabled, &e));
  EXPECT_EQ(e.a, 2);        // shard count
  EXPECT_GT(e.wal_id, 0u);  // first shard's log id

  for (int64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(index.Insert(100000 + i, i));
  }
  ASSERT_EQ(index.SaveTo(prefix), core::SnapshotStatus::kOk);
  ASSERT_TRUE(FindNewest(EventType::kCheckpoint, &e));
  // EnableWal took generation 1 as its anchoring checkpoint; the explicit
  // SaveTo is generation 2.
  EXPECT_EQ(e.a, 2);
  EXPECT_EQ(e.b, 2);  // shard count

  {
    Sharded loaded;
    ASSERT_EQ(loaded.LoadFrom(prefix), core::SnapshotStatus::kOk);
    ASSERT_TRUE(FindNewest(EventType::kRecovery, &e));
    EXPECT_EQ(e.b, 2);   // recovered shard count
    EXPECT_GE(e.a, 0);   // records replayed
  }
  CleanupFiles(prefix);
}

// Forced splits must journal kTopologySplit with the victim's identity.
TEST_F(JournalTest, ForcedSplitJournalsTopologyEvent) {
  obs::SetEnabled(true);
  shard::ShardedOptions options;
  options.num_shards = 1;
  options.min_rebalance_keys = 256;
  options.max_shard_keys = 1024;
  Sharded index(options);
  for (int64_t i = 0; i < 10000; ++i) {
    ASSERT_TRUE(index.Insert(i, i));
  }
  ASSERT_GT(index.num_shards(), 1u);
  JournalEvent e;
  ASSERT_TRUE(FindNewest(EventType::kTopologySplit, &e));
  EXPECT_GE(e.a, 1);  // victim count
  EXPECT_GE(e.b, 2);  // children replacing them
  EXPECT_LT(e.shard, 32u);  // first victim index, not kShardAll
}

#endif  // !ALEX_DISABLE_OBS

}  // namespace
}  // namespace alex
