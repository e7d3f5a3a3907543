// Tiered-storage sweep: zipfian point reads against an all-resident
// index vs the same data with half its shards demoted to mmap-backed
// cold segments behind the verified-block cache (src/tier/).
//
// The tiering claim is that a skewed workload pays almost nothing for
// evicting its cold tail from DRAM: the hot shards stay resident trees,
// cold reads ride the block cache, and the resident footprint collapses
// to the hot set plus segment metadata. So the bench runs the same
// zipfian(0.99) Get stream two ways:
//
//   resident   every shard a resident tree (the pre-tier baseline)
//   tiered     the five upper shards of eight demoted cold (the zipf
//              tail, ~62% of the keys — an exact 50% split can at best
//              halve the footprint, so the cold majority is what makes
//              the 2x resident-bytes floor reachable), block cache
//              sized to hold the cold working set
//
// and reports, per arm, Get throughput with p50/p99 per-op latency
// (split hot/cold for the tiered arm) plus the resident footprint
// (IndexSizeBytes + DataSizeBytes). The headline lines at the end are
// the three acceptance ratios the CI artifact tracks:
//
//   get_ratio        tiered / resident Get throughput   (floor 0.7x)
//   resident_ratio   resident / tiered resident bytes   (floor 2.0x)
//   cache_hit_rate   block-cache hits / lookups, warmed (floor 0.90)
//
// The run exits 1 when a count-based floor (resident_ratio,
// cache_hit_rate) fails; get_ratio, a timing ratio on a shared machine,
// is printed only.
//
// Zipf ranks map to key indices directly (rank 0 = smallest key), so
// the hot set concentrates in the low shards and the demoted upper half
// is genuinely cold — the shape the tiering policy targets.
//
// Flags / env:
//   --csv PATH, --json PATH   machine-readable results (bench/common.h)
//   --quick                   CI smoke mode (smaller preload)
//   ALEX_BENCH_SCALE          preload multiplier (default 1M keys)
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "obs/metrics.h"
#include "shard/sharded_alex.h"
#include "tier/block_cache.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/timer.h"
#include "util/zipf.h"

namespace {
using namespace alex;  // NOLINT

using K = int64_t;
using P = int64_t;
using Sharded = shard::ShardedAlex<K, P>;

constexpr size_t kShards = 8;
/// First demoted shard: shards [kColdFrom, kShards) go cold.
constexpr size_t kColdFrom = 3;
constexpr double kZipfTheta = 0.99;

struct ArmResult {
  double mops = 0.0;
  uint64_t resident_bytes = 0;
  uint64_t cold_bytes = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t cold_p50_ns = 0;  // tiered arm only
  uint64_t cold_p99_ns = 0;
  double hit_rate = 0.0;  // tiered arm only, warmed window
  uint64_t checksum = 0;  // anti-DCE
};

/// Runs warmup + timed throughput + a latency pass of zipfian Gets.
/// The same seed replays the same rank stream in both arms.
ArmResult RunArm(const Sharded& index, const std::vector<K>& keys,
                 uint64_t ops, bool tiered) {
  ArmResult r;
  util::ZipfGenerator zipf(keys.size(), kZipfTheta);
  util::Xoshiro256 rng(42);
  P value = 0;

  // Warmup: populate caches (and for the tiered arm, the block cache)
  // before any stats window opens.
  for (uint64_t i = 0; i < ops / 4; ++i) {
    index.Get(keys[zipf.Next(rng)], &value);
    r.checksum += static_cast<uint64_t>(value);
  }

  // Timed throughput window; the block-cache counters bracketing it
  // yield the warmed hit rate.
  const uint64_t hits0 = index.block_cache().hits();
  const uint64_t misses0 = index.block_cache().misses();
  util::Timer wall;
  for (uint64_t i = 0; i < ops; ++i) {
    index.Get(keys[zipf.Next(rng)], &value);
    r.checksum += static_cast<uint64_t>(value);
  }
  const double elapsed = wall.ElapsedSeconds();
  r.mops = static_cast<double>(ops) / elapsed / 1e6;
  const uint64_t hits = index.block_cache().hits() - hits0;
  const uint64_t misses = index.block_cache().misses() - misses0;
  if (hits + misses > 0) {
    r.hit_rate =
        static_cast<double>(hits) / static_cast<double>(hits + misses);
  }

  // Latency pass: per-op timing, split hot/cold by the key's shard.
  util::Log2Histogram hot_lat, cold_lat;
  for (uint64_t i = 0; i < ops / 4; ++i) {
    const K key = keys[zipf.Next(rng)];
    const bool cold = tiered && index.IsShardCold(index.ShardOf(key));
    const uint64_t t0 = obs::NowTicks();
    index.Get(key, &value);
    const uint64_t ns = obs::TicksToNs(obs::NowTicks() - t0);
    (cold ? cold_lat : hot_lat).Record(ns);
    r.checksum += static_cast<uint64_t>(value);
  }
  r.p50_ns = hot_lat.Quantile(0.50);
  r.p99_ns = hot_lat.Quantile(0.99);
  r.cold_p50_ns = cold_lat.Quantile(0.50);
  r.cold_p99_ns = cold_lat.Quantile(0.99);

  r.resident_bytes = index.IndexSizeBytes() + index.DataSizeBytes();
  r.cold_bytes = index.ColdBytes();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  const size_t n = bench::g_quick_mode ? 200'000 : bench::ScaledKeys(1'000'000);
  const uint64_t ops = bench::g_quick_mode ? 200'000 : 1'000'000;

  std::vector<K> keys(n);
  std::vector<P> payloads(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = static_cast<K>(i) * 2;
    payloads[i] = static_cast<P>(i);
  }

  // Cold tier: the upper shards (the zipf tail). The zipf tail is
  // near-uniform over the cold blocks, so the cache must hold the whole
  // cold set to serve a warmed stream from DRAM: size it to the cold
  // bytes plus 25% headroom.
  const std::string tier_prefix =
      std::string("/tmp/alex-tiering-bench-") + std::to_string(::getpid());

  std::printf("tiering: %zu keys, %llu ops/arm, %zu shards, zipf %.2f\n\n",
              n, static_cast<unsigned long long>(ops), kShards, kZipfTheta);

  bench::ResultSink sink;
  auto add_row = [&sink](const char* arm, const ArmResult& r) {
    sink.Add({{"arm", arm},
              {"get_mops", bench::ResultSink::Num(r.mops)},
              {"p50_ns", std::to_string(r.p50_ns)},
              {"p99_ns", std::to_string(r.p99_ns)},
              {"cold_p50_ns", std::to_string(r.cold_p50_ns)},
              {"cold_p99_ns", std::to_string(r.cold_p99_ns)},
              {"resident_bytes", std::to_string(r.resident_bytes)},
              {"cold_bytes", std::to_string(r.cold_bytes)},
              {"cache_hit_rate", bench::ResultSink::Num(r.hit_rate)}});
    std::printf(
        "%-9s %8.3f Mops/s  p50 %6llu ns  p99 %6llu ns  cold p50/p99 "
        "%6llu/%6llu ns\n          resident %10llu B  cold %10llu B  "
        "hit rate %.4f\n",
        arm, r.mops, static_cast<unsigned long long>(r.p50_ns),
        static_cast<unsigned long long>(r.p99_ns),
        static_cast<unsigned long long>(r.cold_p50_ns),
        static_cast<unsigned long long>(r.cold_p99_ns),
        static_cast<unsigned long long>(r.resident_bytes),
        static_cast<unsigned long long>(r.cold_bytes), r.hit_rate);
  };

  // Arm A: all shards resident.
  ArmResult resident;
  {
    shard::ShardedOptions options;
    options.num_shards = kShards;
    options.min_rebalance_keys = 1u << 30;  // fixed topology
    Sharded index(options);
    index.BulkLoad(keys.data(), payloads.data(), n);
    resident = RunArm(index, keys, ops, /*tiered=*/false);
    add_row("resident", resident);
  }

  // Arm B: upper shards demoted cold.
  ArmResult tiered;
  {
    shard::ShardedOptions options;
    options.num_shards = kShards;
    options.min_rebalance_keys = 1u << 30;
    options.tier_prefix = tier_prefix;
    const size_t cold_keys = n - n * kColdFrom / kShards;
    options.tier_cache_bytes =
        cold_keys * (sizeof(K) + sizeof(P)) * 5 / 4;
    Sharded index(options);
    index.BulkLoad(keys.data(), payloads.data(), n);
    for (size_t s = kColdFrom; s < kShards; ++s) {
      if (index.DemoteShard(s) != core::SnapshotStatus::kOk) {
        std::fprintf(stderr, "FAILED to demote shard %zu\n", s);
        return 1;
      }
    }
    tiered = RunArm(index, keys, ops, /*tiered=*/true);
    add_row("tiered", tiered);
    // Drop the segment files the demotions left behind.
    for (uint64_t id = 1; id <= kShards; ++id) {
      std::remove(tier::SegmentPath(tier_prefix, id).c_str());
    }
  }

  const double get_ratio =
      resident.mops > 0.0 ? tiered.mops / resident.mops : 0.0;
  const double resident_ratio =
      tiered.resident_bytes > 0
          ? static_cast<double>(resident.resident_bytes) /
                static_cast<double>(tiered.resident_bytes)
          : 0.0;
  sink.Add({{"arm", "summary"},
            {"get_mops", bench::ResultSink::Num(get_ratio)},
            {"p50_ns", "0"},
            {"p99_ns", "0"},
            {"cold_p50_ns", "0"},
            {"cold_p99_ns", "0"},
            {"resident_bytes", bench::ResultSink::Num(resident_ratio)},
            {"cold_bytes", std::to_string(tiered.cold_bytes)},
            {"cache_hit_rate", bench::ResultSink::Num(tiered.hit_rate)}});

  std::printf(
      "\nheadline: get_ratio %.3f (floor 0.7)  resident_ratio %.2fx "
      "(floor 2.0)  cache_hit_rate %.4f (floor 0.90)\n",
      get_ratio, resident_ratio, tiered.hit_rate);
  if (resident.checksum != tiered.checksum) {
    std::fprintf(stderr,
                 "CHECKSUM MISMATCH: resident %llu != tiered %llu\n",
                 static_cast<unsigned long long>(resident.checksum),
                 static_cast<unsigned long long>(tiered.checksum));
    return 1;
  }
  sink.Flush();
  if (tiered.hit_rate < 0.90 || resident_ratio < 2.0) {
    std::fprintf(stderr,
                 "FLOOR FAILED: cache_hit_rate %.4f (floor 0.90), "
                 "resident_ratio %.2fx (floor 2.0)\n",
                 tiered.hit_rate, resident_ratio);
    return 1;
  }
  return 0;
}
