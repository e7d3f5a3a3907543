// Shard scaling: shard count × thread count on the read-mostly 95/5
// workload (bench/read_mostly.h), with the two single-tree wrappers as
// baselines at every thread count. This is the service-layer view of the
// §7 design space: past the lock-free read path, the remaining tree-global
// costs (one epoch domain, one root, hot-leaf latches) only fall when the
// key space is partitioned, so the sharded rows should pull away from the
// single-tree rows as both shard and thread counts grow — on multicore
// hardware; a single-core container serializes everything.
//
// Flags / env:
//   --threads N          max worker count for the sweep
//                        (or ALEX_BENCH_THREADS; default 8)
//   --csv PATH, --json PATH   machine-readable results (bench/common.h);
//                        sharded labels contain commas ("sharded,n=8") on
//                        purpose — ResultSink quotes them
//   --quick              CI smoke mode (small sweep)
//   --churn              append the merge-churn phase: alternating
//                        insert/erase waves with tight split/merge
//                        thresholds, so the artifact tracks topology-
//                        change (TopologyTxn) overhead — splits, merges
//                        and the throughput paid for them
//   ALEX_BENCH_SCALE     preloaded key multiplier (default 200k keys)
//   ALEX_BENCH_SECONDS   seconds per timed run
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <atomic>
#include <chrono>

#include "baselines/global_lock_index.h"
#include "bench/common.h"
#include "bench/read_mostly.h"
#include "core/concurrent_alex.h"
#include "shard/sharded_alex.h"
#include "util/timer.h"

namespace {
using namespace alex;  // NOLINT

std::vector<size_t> Dedup(std::vector<size_t> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

/// Merge-churn phase: workers sweep insert waves up their own key
/// stripe, then erase them back down, with thresholds tight enough that
/// the waves keep crossing the split trigger on the way up and the
/// merge floor on the way down. Reports throughput plus how many
/// topology transactions the run paid for.
double RunChurn(size_t threads, size_t wave_keys, double seconds,
                uint64_t* splits, uint64_t* merges) {
  shard::ShardedOptions options;
  options.num_shards = 4;
  options.min_rebalance_keys = 1024;
  options.max_shard_keys = 4096;
  options.merge_threshold_keys = 1024;
  shard::ShardedAlex<int64_t, int64_t> index(options);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total_ops{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  util::Timer timer;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      // Disjoint per-worker stripes keep waves from cancelling out.
      const int64_t base = static_cast<int64_t>(t) << 40;
      uint64_t ops = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (size_t i = 0; i < wave_keys; ++i) {
          index.Insert(base + static_cast<int64_t>(i), 1);
          ++ops;
          if (stop.load(std::memory_order_relaxed)) break;
        }
        for (size_t i = 0; i < wave_keys; ++i) {
          index.Erase(base + static_cast<int64_t>(i));
          ++ops;
          if (stop.load(std::memory_order_relaxed)) break;
        }
      }
      total_ops.fetch_add(ops, std::memory_order_relaxed);
    });
  }
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6)));
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();
  const double elapsed = timer.ElapsedSeconds();
  *splits = index.rebalance_count();
  *merges = index.merge_count();
  return static_cast<double>(total_ops.load()) / elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  alex::bench::ParseBenchArgs(argc, argv);
  bool churn = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--churn") == 0) churn = true;
  }
  const size_t max_threads = bench::BenchThreads(8);
  const size_t preload = bench::ScaledKeys(200000);
  const double seconds = bench::EnvSeconds();

  const std::vector<size_t> thread_counts =
      bench::g_quick_mode ? Dedup({1, max_threads})
                          : Dedup({1, 2, 4, max_threads});
  const std::vector<size_t> shard_counts =
      bench::g_quick_mode ? std::vector<size_t>{2, 8}
                          : std::vector<size_t>{1, 2, 4, 8, 16};

  std::printf("Shard scaling: read-mostly 95/5, %zu preloaded keys, "
              "%.2gs per run, up to %zu threads\n",
              preload, seconds, max_threads);
  bench::PrintRule("shard count x thread count");
  std::printf("| threads | wrapper | Mops/s | vs global |\n"
              "|---|---|---|---|\n");

  bench::ResultSink sink;
  for (const size_t threads : thread_counts) {
    struct RunResult {
      std::string label;
      size_t shards;
      double ops;
    };
    std::vector<RunResult> results;
    results.push_back(
        {"global shared_mutex", 0,
         bench::RunReadMostly(
             [] { return baseline::GlobalLockAlex<int64_t, int64_t>(); },
             threads, preload, seconds)});
    results.push_back(
        {"lock-free reads + EBR", 0,
         bench::RunReadMostly(
             [] { return core::ConcurrentAlex<int64_t, int64_t>(); },
             threads, preload, seconds)});
    for (const size_t shards : shard_counts) {
      // The comma in the label exercises ResultSink's CSV quoting.
      results.push_back(
          {"sharded,n=" + std::to_string(shards), shards,
           bench::RunReadMostly(
               [shards] {
                 shard::ShardedOptions options;
                 options.num_shards = shards;
                 return shard::ShardedAlex<int64_t, int64_t>(options);
               },
               threads, preload, seconds)});
    }
    const double baseline_ops = results.front().ops;
    for (const RunResult& r : results) {
      const double speedup =
          baseline_ops > 0.0 ? r.ops / baseline_ops : 0.0;
      std::printf("| %zu | %s | %s | %.2fx |\n", threads, r.label.c_str(),
                  bench::Mops(r.ops).c_str(), speedup);
      sink.Add({{"bench", "shard_scaling"},
                {"workload", "read_mostly_95_5"},
                {"wrapper", r.label},
                {"shards", bench::ResultSink::Num(
                               static_cast<double>(r.shards))},
                {"threads", bench::ResultSink::Num(
                                static_cast<double>(threads))},
                {"preload_keys", bench::ResultSink::Num(
                                     static_cast<double>(preload))},
                {"seconds", bench::ResultSink::Num(seconds)},
                {"mops", bench::ResultSink::Num(r.ops / 1e6)},
                {"speedup_vs_global", bench::ResultSink::Num(speedup)},
                // Zero for the steady-state sweep; the churn phase rows
                // fill these in (one sink = one rectangular CSV).
                {"wave_keys", "0"},
                {"splits", "0"},
                {"merges", "0"}});
    }
  }

  if (churn) {
    // Topology-change overhead: how much throughput the TopologyTxn
    // machinery costs when the workload keeps crossing the split and
    // merge triggers.
    bench::PrintRule("merge-churn phase (insert/erase waves)");
    std::printf("| threads | Mops/s | splits | merges |\n"
                "|---|---|---|---|\n");
    const size_t wave = bench::g_quick_mode ? 6000 : 20000;
    for (const size_t threads : thread_counts) {
      uint64_t splits = 0, merges = 0;
      const double ops = RunChurn(threads, wave, seconds, &splits,
                                  &merges);
      std::printf("| %zu | %s | %llu | %llu |\n", threads,
                  bench::Mops(ops).c_str(),
                  static_cast<unsigned long long>(splits),
                  static_cast<unsigned long long>(merges));
      sink.Add({{"bench", "shard_churn"},
                {"workload", "insert_erase_waves"},
                {"wrapper", "sharded,n=4"},
                {"shards", "4"},
                {"threads", bench::ResultSink::Num(
                                static_cast<double>(threads))},
                // Churn starts from an empty index; `wave_keys` is the
                // per-worker insert/erase wave length.
                {"preload_keys", "0"},
                {"seconds", bench::ResultSink::Num(seconds)},
                {"mops", bench::ResultSink::Num(ops / 1e6)},
                {"speedup_vs_global", bench::ResultSink::Num(0.0)},
                {"wave_keys",
                 bench::ResultSink::Num(static_cast<double>(wave))},
                {"splits", bench::ResultSink::Num(
                               static_cast<double>(splits))},
                {"merges", bench::ResultSink::Num(
                               static_cast<double>(merges))}});
    }
  }
  sink.Flush();
  return 0;
}
