// WAL throughput: sync policy × writer count.
//
// Measures ShardedAlex insert throughput with the write-ahead log in
// each sync policy (plus an unlogged baseline), sweeping the writer
// count. What it demonstrates: group commit lets kAlways amortize its
// per-batch fdatasync over every concurrent committer, and kBatch —
// which syncs on a clock instead of per commit — should sustain a
// multiple of kAlways's throughput at every writer count (the
// acceptance bar is >= 5x at 8 writers). kNone bounds what the log
// costs when the OS owns durability. Each run also reports latency
// distributions from the shared obs registry (one accounting path, no
// hand-rolled recorders): the WAL's "wal.commit_wait_ns" histogram
// (p50/p99, reported in microseconds) and the sharded layer's per-op
// insert latency — the latency price of each policy's durability, not
// just its throughput.
//
// Usage: wal_throughput [--quick] [--threads N] [--csv PATH] [--json PATH]
//   --threads caps the sweep's highest writer count (default 8).
// Log/segment files go to $TMPDIR (or /tmp) and are removed afterwards.
#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "obs/metrics.h"
#include "shard/sharded_alex.h"
#include "util/histogram.h"
#include "util/timer.h"

namespace {

using alex::bench::ResultSink;
using alex::shard::ShardedAlex;
using alex::shard::ShardedOptions;
using alex::wal::SyncPolicy;
using Index = ShardedAlex<int64_t, int64_t>;

std::string TempPrefix() {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : "/tmp") + "/wal_throughput";
}

constexpr auto Cleanup = alex::bench::RemovePrefixFiles;

/// One timed run; returns ops/sec. `policy_name` "off" disables the WAL.
/// For logged runs, *p50_us / *p99_us receive the commit-wait quantiles;
/// *ins_p50_us / *ins_p99_us receive the whole-insert latency quantiles
/// (both from the shared obs registry, reset per run).
double RunOnce(const char* policy_name, SyncPolicy policy, size_t writers,
               double seconds, size_t preload, uint64_t* p50_us,
               uint64_t* p99_us, uint64_t* ins_p50_us,
               uint64_t* ins_p99_us) {
  *p50_us = 0;
  *p99_us = 0;
  *ins_p50_us = 0;
  *ins_p99_us = 0;
  const std::string prefix = TempPrefix();
  Cleanup(prefix);
  ShardedOptions options;
  options.num_shards = 4;
  // Keep the table stable during the measurement: splits would mix
  // rebalance cost into the log cost under test.
  options.max_shard_keys = 0;
  options.rebalance_skew = 1e9;
  Index index(options);
  std::vector<int64_t> keys, payloads;
  keys.reserve(preload);
  payloads.reserve(preload);
  // Spread the preload out so per-writer fresh keys stripe across shards.
  for (size_t i = 0; i < preload; ++i) {
    keys.push_back(static_cast<int64_t>(i) << 20);
    payloads.push_back(static_cast<int64_t>(i));
  }
  index.BulkLoad(keys.data(), payloads.data(), keys.size());
  if (policy != static_cast<SyncPolicy>(-1)) {
    alex::wal::WalOptions wal;
    wal.sync_policy = policy;
    const alex::wal::WalStatus status = index.EnableWal(prefix, wal);
    if (status != alex::wal::WalStatus::kOk) {
      std::fprintf(stderr, "EnableWal(%s) failed: %s\n", policy_name,
                   alex::wal::ToString(status));
      Cleanup(prefix);
      return 0.0;
    }
  }

  // Per-run isolation: the registry is process-wide, so each run starts
  // from zero (the preload and WAL-anchor checkpoint above are excluded).
  alex::obs::MetricsRegistry::Global().ResetAll();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total_ops{0};
  std::vector<std::thread> threads;
  threads.reserve(writers);
  alex::util::Timer timer;
  for (size_t t = 0; t < writers; ++t) {
    threads.emplace_back([&, t] {
      // Disjoint per-writer key ranges interleaved below the preload
      // stride: inserts spread across shards and never collide.
      uint64_t ops = 0;
      int64_t next = static_cast<int64_t>(t) + 1;
      while (!stop.load(std::memory_order_relaxed)) {
        const int64_t key =
            (next << 32) | static_cast<int64_t>(t);  // unique per writer
        index.Insert(key, key);
        ++next;
        ++ops;
      }
      total_ops.fetch_add(ops, std::memory_order_relaxed);
    });
  }
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6)));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  const double elapsed = timer.ElapsedSeconds();
  // Latency accounting comes from the shared obs layer: the WAL's own
  // commit-wait histogram and the sharded layer's per-op insert timer.
  alex::obs::MetricsRegistry& reg = alex::obs::MetricsRegistry::Global();
  const alex::util::Log2Histogram waits =
      reg.GetHistogram("wal.commit_wait_ns")->Snapshot();
  if (waits.Count() > 0) {
    *p50_us = waits.Quantile(0.5) / 1000;
    *p99_us = waits.Quantile(0.99) / 1000;
  }
  const alex::util::Log2Histogram inserts =
      reg.OpLatencySnapshot(alex::obs::OpType::kInsert);
  if (inserts.Count() > 0) {
    *ins_p50_us = inserts.Quantile(0.5) / 1000;
    *ins_p99_us = inserts.Quantile(0.99) / 1000;
  }
  Cleanup(prefix);
  return static_cast<double>(total_ops.load()) / elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  alex::bench::ParseBenchArgs(argc, argv);
  // This bench is a registry consumer: its latency columns come from the
  // shared obs layer, so recording must be on.
  alex::obs::SetEnabled(true);
  const double seconds = alex::bench::EnvSeconds();
  const size_t preload = alex::bench::ScaledKeys(100000);
  const size_t max_writers = alex::bench::BenchThreads(8);

  struct Policy {
    const char* name;
    SyncPolicy policy;
  };
  const Policy policies[] = {
      {"off", static_cast<SyncPolicy>(-1)},
      {"none", SyncPolicy::kNone},
      {"batch", SyncPolicy::kBatch},
      {"always", SyncPolicy::kAlways},
  };

  ResultSink sink;
  alex::bench::PrintRule("WAL throughput: sync policy x writer count");
  std::printf("%-8s %8s %12s %10s %10s %10s %10s\n", "policy", "writers",
              "Mops/s", "p50(us)", "p99(us)", "ins50(us)", "ins99(us)");
  double batch_at_max = 0.0, always_at_max = 0.0;
  for (size_t writers = 1; writers <= max_writers; writers *= 2) {
    for (const Policy& p : policies) {
      uint64_t p50_us = 0, p99_us = 0, ins_p50_us = 0, ins_p99_us = 0;
      const double ops =
          RunOnce(p.name, p.policy, writers, seconds, preload, &p50_us,
                  &p99_us, &ins_p50_us, &ins_p99_us);
      std::printf("%-8s %8zu %12s %10" PRIu64 " %10" PRIu64 " %10" PRIu64
                  " %10" PRIu64 "\n",
                  p.name, writers, alex::bench::Mops(ops).c_str(), p50_us,
                  p99_us, ins_p50_us, ins_p99_us);
      sink.Add({{"policy", p.name},
                {"writers", std::to_string(writers)},
                {"ops_per_sec", ResultSink::Num(ops)},
                {"commit_wait_p50_us",
                 ResultSink::Num(static_cast<double>(p50_us))},
                {"commit_wait_p99_us",
                 ResultSink::Num(static_cast<double>(p99_us))},
                {"insert_p50_us",
                 ResultSink::Num(static_cast<double>(ins_p50_us))},
                {"insert_p99_us",
                 ResultSink::Num(static_cast<double>(ins_p99_us))}});
      if (writers == max_writers) {
        if (std::string(p.name) == "batch") batch_at_max = ops;
        if (std::string(p.name) == "always") always_at_max = ops;
      }
    }
  }
  if (always_at_max > 0.0) {
    const double ratio = batch_at_max / always_at_max;
    std::printf(
        "\nbatch/always at %zu writers: %.1fx (group-commit target: "
        ">=5x)\n",
        max_writers, ratio);
    sink.Add({{"policy", "batch_over_always"},
              {"writers", std::to_string(max_writers)},
              {"ops_per_sec", ResultSink::Num(ratio)},
              {"commit_wait_p50_us", "0"},
              {"commit_wait_p99_us", "0"},
              {"insert_p50_us", "0"},
              {"insert_p99_us", "0"}});
  }
  sink.Flush();
  return 0;
}
