// Multi-threaded stress tests for the lock-free-read ConcurrentAlex:
// N writer + M reader threads over Zipf-distributed keys, asserting
// linearizable Get/Insert/Erase outcomes and no lost updates, plus a
// split-torture test that forces constant leaf splits (tiny
// max_data_node_keys) while readers spin on keys migrating across the
// split boundaries, and a sideways-split torture in which Get, MultiGet
// and Scan readers race writers whose splits publish new leaves into
// their parent's slots. Designed to run under -fsanitize=thread and
// address,undefined (see .github/workflows/ci.yml); key counts are kept
// modest so the sanitizer runs stay fast.
#include "core/concurrent_alex.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/random.h"
#include "util/zipf.h"

namespace alex::core {
namespace {

using Index = ConcurrentAlex<int64_t, int64_t>;

// Payload is a pure function of the key so any successful Get can be
// validated without knowing which writer stored it.
int64_t PayloadFor(int64_t key) { return key * 3 + 1; }

// Forces frequent splits so the tree-exclusive escalation path is
// exercised, not just the leaf-latch fast path.
Config SplittyConfig() {
  Config config;
  config.max_data_node_keys = 256;
  config.split_fanout = 4;
  return config;
}

// Writers own disjoint key stripes (key % kWriters == writer id), so each
// writer can track its stripe's expected contents exactly: any divergence
// between the index's Insert/Erase return values and the single-threaded
// bookkeeping is a lost or phantom update.
TEST(ConcurrentStressTest, ZipfWritersDisjointStripesNoLostUpdates) {
  constexpr int kWriters = 4;
  constexpr int kReaders = 3;
  constexpr int kOpsPerWriter = 8000;
  constexpr uint64_t kKeysPerWriter = 4096;

  Index index(SplittyConfig());
  std::atomic<int> writer_errors{0};
  std::atomic<int> reader_errors{0};
  std::atomic<bool> stop{false};
  std::vector<std::unordered_set<int64_t>> expected(kWriters);

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      util::Xoshiro256 rng(1000 + t);
      util::ScrambledZipfGenerator zipf(kKeysPerWriter, 0.99);
      auto& mine = expected[t];
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const int64_t key =
            static_cast<int64_t>(zipf.Next(rng)) * kWriters + t;
        const bool absent = mine.count(key) == 0;
        // ~2/3 inserts, 1/3 erases: the stripe both grows and shrinks.
        if (rng.NextUint64(3) != 0) {
          const bool ok = index.Insert(key, PayloadFor(key));
          if (ok != absent) writer_errors.fetch_add(1);
          if (ok) mine.insert(key);
        } else {
          const bool ok = index.Erase(key);
          if (ok == absent) writer_errors.fetch_add(1);
          if (ok) mine.erase(key);
        }
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      util::Xoshiro256 rng(2000 + r);
      std::vector<std::pair<int64_t, int64_t>> scan;
      while (!stop.load(std::memory_order_acquire)) {
        const auto key = static_cast<int64_t>(
            rng.NextUint64(kKeysPerWriter * kWriters));
        int64_t v = 0;
        if (index.Get(key, &v) && v != PayloadFor(key)) {
          reader_errors.fetch_add(1);
        }
        if (rng.NextUint64(64) == 0) {
          index.RangeScan(key, 50, &scan);
          for (size_t i = 0; i < scan.size(); ++i) {
            if (scan[i].second != PayloadFor(scan[i].first)) {
              reader_errors.fetch_add(1);
            }
            if (i > 0 && !(scan[i - 1].first < scan[i].first)) {
              reader_errors.fetch_add(1);
            }
          }
        }
      }
    });
  }

  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(writer_errors.load(), 0);
  EXPECT_EQ(reader_errors.load(), 0);

  // Final state must match the union of the writers' bookkeeping exactly.
  size_t total = 0;
  for (int t = 0; t < kWriters; ++t) {
    total += expected[t].size();
    for (const int64_t key : expected[t]) {
      int64_t v = 0;
      ASSERT_TRUE(index.Get(key, &v)) << "lost update for key " << key;
      EXPECT_EQ(v, PayloadFor(key));
    }
  }
  EXPECT_EQ(index.size(), total);
  EXPECT_TRUE(index.CheckInvariants());
}

// All threads race to insert the same keys: linearizability requires that
// exactly one Insert per key reports success.
TEST(ConcurrentStressTest, RacingInsertsExactlyOneWinnerPerKey) {
  constexpr int kThreads = 8;
  constexpr int64_t kKeys = 2000;

  Index index(SplittyConfig());
  std::atomic<int> successes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Xoshiro256 rng(t);
      // Each thread visits every key in a different order.
      std::vector<int64_t> order(kKeys);
      for (int64_t i = 0; i < kKeys; ++i) order[i] = i;
      for (int64_t i = kKeys - 1; i > 0; --i) {
        std::swap(order[i], order[rng.NextUint64(i + 1)]);
      }
      for (const int64_t key : order) {
        if (index.Insert(key * 7, PayloadFor(key * 7))) {
          successes.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(successes.load(), kKeys);
  EXPECT_EQ(index.size(), static_cast<size_t>(kKeys));
  int64_t v = 0;
  for (int64_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(index.Get(i * 7, &v));
    EXPECT_EQ(v, PayloadFor(i * 7));
  }
  EXPECT_TRUE(index.CheckInvariants());
}

// Mirror image: keys pre-loaded, all threads race to erase them; exactly
// one Erase per key may succeed, and the index must end empty.
TEST(ConcurrentStressTest, RacingErasesExactlyOneWinnerPerKey) {
  constexpr int kThreads = 8;
  constexpr int64_t kKeys = 2000;

  Index index(SplittyConfig());
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < kKeys; ++i) {
    keys.push_back(i * 5);
    payloads.push_back(PayloadFor(i * 5));
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());

  std::atomic<int> successes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int64_t i = 0; i < kKeys; ++i) {
        if (index.Erase(i * 5)) successes.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(successes.load(), kKeys);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.CheckInvariants());
}

// Split torture: leaves are kept tiny so nearly every writer batch forces
// a split, while readers spin on preloaded keys that migrate from the
// victim leaf into its replacement children. Any reader observing a
// preloaded key as absent (or with a wrong payload) caught a broken
// split; any scan out of order caught a broken chain splice. Erasers
// interleave so the erase path crosses splits too. The epoch manager must
// have retired and reclaimed the victims by the end. Must be TSan- and
// ASan-clean.
TEST(ConcurrentStressTest, SplitTortureReadersChaseMigratingKeys) {
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kErasers = 1;
  constexpr int64_t kPreload = 4096;
  constexpr int kInsertsPerWriter = 6000;

  Config config;
  config.max_data_node_keys = 64;  // split after a handful of inserts
  config.split_fanout = 4;
  Index index(config);

  // Preloaded keys are never erased: every Get must succeed forever,
  // across every split that moves them. Spacing of 8 leaves room for the
  // writers' fresh keys inside the same leaves.
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < kPreload; ++i) {
    keys.push_back(i * 8);
    payloads.push_back(PayloadFor(i * 8));
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());

  std::atomic<int> errors{0};
  std::atomic<bool> stop{false};

  // Writers insert fresh keys (offsets 1..5 mod 8) straight into the
  // preloaded leaves, driving them over the split bound again and again.
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      util::Xoshiro256 rng(5000 + t);
      for (int i = 0; i < kInsertsPerWriter; ++i) {
        const int64_t base =
            static_cast<int64_t>(rng.NextUint64(kPreload)) * 8;
        const int64_t key = base + 1 + static_cast<int64_t>(t) * 2 +
                            static_cast<int64_t>(rng.NextUint64(2));
        index.Insert(key, PayloadFor(key));
      }
    });
  }
  // Erasers remove only writer-inserted keys, so erase interleaves with
  // splits without invalidating the readers' ground truth.
  std::vector<std::thread> erasers;
  for (int t = 0; t < kErasers; ++t) {
    erasers.emplace_back([&, t] {
      util::Xoshiro256 rng(6000 + t);
      while (!stop.load(std::memory_order_acquire)) {
        const int64_t base =
            static_cast<int64_t>(rng.NextUint64(kPreload)) * 8;
        index.Erase(base + 1 + rng.NextUint64(5));
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      util::Xoshiro256 rng(7000 + r);
      std::vector<std::pair<int64_t, int64_t>> scan;
      while (!stop.load(std::memory_order_acquire)) {
        const int64_t key =
            static_cast<int64_t>(rng.NextUint64(kPreload)) * 8;
        int64_t v = 0;
        if (!index.Get(key, &v) || v != PayloadFor(key)) {
          errors.fetch_add(1);  // preloaded key lost or corrupted
        }
        if (rng.NextUint64(32) == 0) {
          index.RangeScan(key, 64, &scan);
          for (size_t i = 0; i < scan.size(); ++i) {
            if (scan[i].second != PayloadFor(scan[i].first)) {
              errors.fetch_add(1);
            }
            if (i > 0 && !(scan[i - 1].first < scan[i].first)) {
              errors.fetch_add(1);
            }
          }
        }
      }
    });
  }

  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : erasers) t.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(errors.load(), 0);
  // Every preloaded key survived the torture.
  for (int64_t i = 0; i < kPreload; ++i) {
    int64_t v = 0;
    ASSERT_TRUE(index.Get(i * 8, &v)) << "lost preloaded key " << (i * 8);
    EXPECT_EQ(v, PayloadFor(i * 8));
  }
  EXPECT_TRUE(index.CheckInvariants());
  // Splits happened and their victims went through EBR (retired and, by
  // now, mostly reclaimed — the destructor drains the rest).
  EXPECT_GT(index.GetStats().num_splits, 0u);
  EXPECT_GT(index.epoch_manager().freed_count() +
                index.epoch_manager().retired_count(),
            0u);
}

// Chaos mode: writers and readers share one contended Zipf key range, with
// splits enabled. The test asserts only properties that hold in every
// linearizable history: observed payloads are valid, scans are sorted, and
// the final size equals the number of keys actually reachable by a scan.
TEST(ConcurrentStressTest, SharedZipfChaosKeepsIndexCoherent) {
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr int kOpsPerWriter = 6000;
  constexpr uint64_t kKeySpace = 8192;

  Index index(SplittyConfig());
  std::atomic<int> errors{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      util::Xoshiro256 rng(3000 + t);
      util::ScrambledZipfGenerator zipf(kKeySpace, 0.99);
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const auto key = static_cast<int64_t>(zipf.Next(rng));
        switch (rng.NextUint64(4)) {
          case 0:
            index.Erase(key);
            break;
          case 1:
            index.Put(key, PayloadFor(key));
            break;
          default:
            index.Insert(key, PayloadFor(key));
            break;
        }
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      util::Xoshiro256 rng(4000 + r);
      while (!stop.load(std::memory_order_acquire)) {
        const auto key = static_cast<int64_t>(rng.NextUint64(kKeySpace));
        int64_t v = 0;
        if (index.Get(key, &v) && v != PayloadFor(key)) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(errors.load(), 0);
  std::vector<std::pair<int64_t, int64_t>> all;
  index.RangeScan(std::numeric_limits<int64_t>::min(), kKeySpace + 1, &all);
  EXPECT_EQ(index.size(), all.size());
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1].first, all[i].first);
  }
  EXPECT_TRUE(index.CheckInvariants());
}

// ---- Optimistic leaf probes ----
//
// The hot-leaf torture for the validated probe (DataNode::TryFind): four
// readers Get, Contains and MultiGet keys that all start in one leaf
// while a writer bursts inserts, erases and updates into that key range,
// so the leaves there expand, contract and split under the probes. A
// payload encodes (key, write number). Every read must return a payload
// the writer stored for that key, no older than one the same reader
// already saw for it, and a key the writer never erases must never read
// as missing.
constexpr int kWriteBits = 24;
int64_t Encode(int64_t key, int64_t write) {
  return key * (int64_t{1} << kWriteBits) + write;
}

void RunHotLeafTorture(NodeLayout layout) {
  Config config = SplittyConfig();
  config.layout = layout;
  Index index(config);
  constexpr int64_t kStable = 64;   // never erased; updated every round
  constexpr int64_t kStride = 1024;  // stable key s sits at s * kStride
  constexpr int64_t kBurst = 300;    // keys a round inserts after one of them
  constexpr int kRounds = 96;
  constexpr int kReaders = 4;
  std::vector<int64_t> keys, payloads;
  for (int64_t s = 0; s < kStable; ++s) {
    keys.push_back(s * kStride);
    payloads.push_back(Encode(s * kStride, 0));
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());

  // The writer raises `published` before it stores write number w, so a
  // reader that read w and then loads `published` sees at least w. `hot`
  // is the stable key whose gap the writer's current round crowds.
  std::atomic<int64_t> published{0};
  std::atomic<int64_t> hot{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> errors{0};
  std::thread writer([&] {
    int64_t w = 0;
    auto next_payload = [&](int64_t key) {
      published.store(++w, std::memory_order_relaxed);
      return Encode(key, w);
    };
    std::vector<int64_t> burst(kBurst), burst_payloads(kBurst);
    for (int round = 0; round < kRounds; ++round) {
      // Each round crowds the gap after one stable key, so that key's leaf
      // expands past the split bound; erasing the burst contracts it.
      const int64_t base = (round * 7 % kStable) * kStride;
      hot.store(base, std::memory_order_relaxed);
      for (int64_t j = 0; j < kBurst; ++j) burst[j] = base + 1 + j;
      // Scalar rounds also update the hot stable key after every write.
      auto touch_hot = [&] {
        if (!index.Update(base, next_payload(base))) errors.fetch_add(1);
      };
      if (round % 2 == 0) {
        for (const int64_t k : burst) {
          if (!index.Insert(k, next_payload(k))) errors.fetch_add(1);
          touch_hot();
        }
      } else {
        for (int64_t j = 0; j < kBurst; ++j) {
          burst_payloads[j] = next_payload(burst[j]);
        }
        if (index.MultiInsert(burst.data(), burst_payloads.data(), kBurst) !=
            static_cast<size_t>(kBurst)) {
          errors.fetch_add(1);
        }
      }
      for (int64_t s = 0; s < kStable; ++s) {
        if (!index.Update(s * kStride, next_payload(s * kStride))) {
          errors.fetch_add(1);
        }
      }
      if (round % 2 == 0) {
        for (const int64_t k : burst) {
          if (!index.Erase(k)) errors.fetch_add(1);
          touch_hot();
        }
      } else if (index.MultiErase(burst.data(), kBurst) !=
                 static_cast<size_t>(kBurst)) {
        errors.fetch_add(1);
      }
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      util::Xoshiro256 rng(9100 + static_cast<uint64_t>(r));
      std::vector<int64_t> last_seen(kStable, 0);
      // A read of `key` returned `payload` (found or not): check it.
      auto check = [&](int64_t key, bool found, int64_t payload) {
        const bool stable = key % kStride == 0;
        if (!found) {
          if (stable) errors.fetch_add(1);  // a never-erased key went missing
          return;
        }
        const int64_t write = payload & ((int64_t{1} << kWriteBits) - 1);
        if (payload >> kWriteBits != key ||
            write > published.load(std::memory_order_relaxed)) {
          errors.fetch_add(1);  // a payload nobody stored for this key
          return;
        }
        if (stable) {
          int64_t& last = last_seen[key / kStride];
          if (write < last) errors.fetch_add(1);  // went back in time
          last = write;
        }
      };
      constexpr size_t kBatch = Index::kMultiGetGroup + 9;
      std::vector<int64_t> batch(kBatch), got(kBatch);
      std::unique_ptr<bool[]> found(new bool[kBatch]);
      while (!stop.load(std::memory_order_acquire)) {
        // Mostly the hot leaf's keys: its stable key and its burst.
        const int64_t base = hot.load(std::memory_order_relaxed);
        auto pick = [&] {
          const int64_t s =
              rng.NextUint64(4) == 0
                  ? static_cast<int64_t>(rng.NextUint64(kStable)) * kStride
                  : base;
          return rng.NextUint64(2) == 0
                     ? s
                     : s + 1 + static_cast<int64_t>(rng.NextUint64(kBurst));
        };
        const int64_t s =
            rng.NextUint64(2) == 0 ? base : pick() / kStride * kStride;
        int64_t payload = 0;
        const bool found_s = index.Get(s, &payload);
        check(s, found_s, payload);
        if (!index.Contains(s)) errors.fetch_add(1);
        for (size_t i = 0; i < kBatch; ++i) batch[i] = pick();
        index.MultiGet(batch.data(), kBatch, got.data(), found.get());
        for (size_t i = 0; i < kBatch; ++i) check(batch[i], found[i], got[i]);
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(errors.load(), 0u);
  const Stats stats = index.GetStats();
  EXPECT_GT(stats.num_splits, 0u);
  EXPECT_GT(stats.num_expansions, 0u);
  EXPECT_GT(stats.num_contractions, 0u);
  EXPECT_EQ(index.size(), static_cast<size_t>(kStable));
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(ConcurrentStressTest, HotLeafTortureGappedArray) {
  RunHotLeafTorture(NodeLayout::kGappedArray);
}

TEST(ConcurrentStressTest, HotLeafTorturePma) {
  RunHotLeafTorture(NodeLayout::kPackedMemoryArray);
}

// Sideways-split torture: four writers fill the gaps of a bulk load whose
// leaves each own two root slots, so every leaf they reach splits sideways
// into its parent's slots while Get, MultiGet and Scan readers race the
// slot-by-slot publication. Readers check payload provenance (a payload
// is a function of its key), that every preloaded key and every insert a
// writer has returned from is found, and that never-inserted keys stay
// absent; the end state must match the oracle with the tree no deeper.
void RunSidewaysSplitTorture(NodeLayout layout) {
  constexpr int64_t kStride = 1000;
  constexpr size_t kPreload = 32768;  // 256 root slots, 128 two-slot leaves
  constexpr size_t kWriters = 4;
  constexpr size_t kReaders = 3;
  constexpr size_t kBaseStep = 8;  // 64 inserts per slot: leaves stay below
                                   // the bound after one sideways split
  Config config;
  config.layout = layout;
  config.max_data_node_keys = 256;
  config.split_fanout = 4;
  Index index(config);
  std::vector<int64_t> keys, payloads;
  for (size_t i = 0; i < kPreload; ++i) {
    keys.push_back(static_cast<int64_t>(i) * kStride);
    payloads.push_back(PayloadFor(keys.back()));
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  const auto before = index.CollectStructure();
  ASSERT_EQ(before.max_depth, 1u);

  // Writer w inserts key base + 1 + w next to every kBaseStep-th preloaded
  // key, in its own shuffled order; done[w] publishes how many returned.
  std::vector<std::vector<int64_t>> streams(kWriters);
  for (size_t w = 0; w < kWriters; ++w) {
    for (size_t i = 0; i < kPreload; i += kBaseStep) {
      streams[w].push_back(keys[i] + 1 + static_cast<int64_t>(w));
    }
    util::Xoshiro256 rng(9100 + w);
    for (size_t i = streams[w].size(); i > 1; --i) {
      std::swap(streams[w][i - 1], streams[w][rng.NextUint64(i)]);
    }
  }
  std::atomic<size_t> done[kWriters] = {};
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};

  // A key every reader can pick: preloaded (present), published by a
  // writer (present), or at an offset no writer uses (absent).
  const auto pick = [&](util::Xoshiro256& rng, bool* present) {
    const int64_t base = keys[rng.NextUint64(kPreload)];
    switch (rng.NextUint64(3)) {
      case 0:
        *present = true;
        return base;
      case 1: {
        const size_t w = rng.NextUint64(kWriters);
        const size_t n = done[w].load(std::memory_order_acquire);
        if (n == 0) break;
        *present = true;
        return streams[w][rng.NextUint64(n)];
      }
      default:
        break;
    }
    *present = false;
    return base + 1 + static_cast<int64_t>(kWriters);
  };

  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (const int64_t key : streams[w]) {
        if (!index.Insert(key, PayloadFor(key))) errors.fetch_add(1);
        done[w].fetch_add(1, std::memory_order_release);
      }
    });
  }
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      util::Xoshiro256 rng(9200 + r);
      constexpr size_t kBatch = 32;
      int64_t batch[kBatch];
      bool expect[kBatch];
      int64_t got[kBatch];
      bool found[kBatch];
      while (!stop.load(std::memory_order_acquire)) {
        switch (r) {
          case 0: {  // Get
            bool present = false;
            const int64_t key = pick(rng, &present);
            int64_t v = 0;
            const bool hit = index.Get(key, &v);
            if (hit != present || (hit && v != PayloadFor(key))) {
              errors.fetch_add(1);
            }
            break;
          }
          case 1: {  // MultiGet
            for (size_t i = 0; i < kBatch; ++i) {
              batch[i] = pick(rng, &expect[i]);
            }
            index.MultiGet(batch, kBatch, got, found);
            for (size_t i = 0; i < kBatch; ++i) {
              if (found[i] != expect[i] ||
                  (found[i] && got[i] != PayloadFor(batch[i]))) {
                errors.fetch_add(1);
              }
            }
            break;
          }
          default: {  // Scan over 64 preloaded keys and their gaps
            const size_t first = rng.NextUint64(kPreload - 64);
            const int64_t lo = keys[first];
            const int64_t hi = keys[first + 63] + kStride - 1;
            size_t preloaded = 0;
            int64_t prev = lo - 1;
            index.Scan(lo, hi, [&](const int64_t& key, const int64_t& v) {
              const int64_t offset = key % kStride;
              if (!(prev < key) || v != PayloadFor(key) ||
                  offset > static_cast<int64_t>(kWriters)) {
                errors.fetch_add(1);
              }
              if (offset == 0) ++preloaded;
              prev = key;
            });
            if (preloaded != 64) errors.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (size_t w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(errors.load(), 0);
  // Every split went sideways: as many inner nodes and levels as before.
  const auto after = index.CollectStructure();
  EXPECT_GE(index.GetStats().num_splits, 64u);
  EXPECT_EQ(after.inner_count, before.inner_count);
  EXPECT_EQ(after.max_depth, before.max_depth);
  EXPECT_TRUE(index.CheckInvariants());
  size_t expected = kPreload;
  for (const auto& stream : streams) expected += stream.size();
  EXPECT_EQ(index.size(), expected);
  for (const int64_t key : keys) {
    int64_t v = 0;
    ASSERT_TRUE(index.Get(key, &v)) << key;
    ASSERT_EQ(v, PayloadFor(key)) << key;
  }
  for (const auto& stream : streams) {
    for (const int64_t key : stream) {
      int64_t v = 0;
      ASSERT_TRUE(index.Get(key, &v)) << key;
      ASSERT_EQ(v, PayloadFor(key)) << key;
    }
  }
}

TEST(ConcurrentStressTest, SidewaysSplitTortureGappedArray) {
  RunSidewaysSplitTorture(NodeLayout::kGappedArray);
}

TEST(ConcurrentStressTest, SidewaysSplitTorturePma) {
  RunSidewaysSplitTorture(NodeLayout::kPackedMemoryArray);
}

}  // namespace
}  // namespace alex::core
