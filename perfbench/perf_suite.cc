// perf_suite: the seeded benchmark of the sharded ALEX service
// (shard::ShardedAlex<int64_t, int64_t>).
//
//   perf_suite --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//              [--smoke] [--work-dir DIR] [--trace-dir DIR]
//
// One run measures one workload (read_mostly, ingest, tiered, analytics;
// see perfbench/README.md for why each exists). A run repeats *rounds*
// until --seconds have passed (at least three rounds). Each round
// builds a fresh index, warms it with untimed reads, then lets
// kClients closed-loop client threads replay their precomputed call
// streams from one start barrier, and finally checks the index's state.
// Rounds are fixed work, so structural events (splits, demotions, group
// commits) repeat from round to round; every reported end-to-end metric
// is the median over rounds.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// and traced rounds (the registry in src/obs on, spans kept in memory),
// then runs single-thread probes of each layer, and prints the per-layer
// metrics; it also writes DIR/perf_trace.json (Chrome trace) and
// DIR/layers.json. --smoke shrinks every size to 1/100.
//
// Output: one "workload metric value unit n=..." line per metric, then, as
// the last line, {"correct", "attempted", "failed", "metrics"} as JSON.
// Exit status: 0 when every answer was right, 1 on a wrong answer, 2 on a
// usage or environment error (no JSON then).
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "baselines/btree.h"
#include "core/concurrent_alex.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "shard/sharded_alex.h"
#include "stats.h"
#include "trace.h"

namespace perf {
namespace {

namespace fs = std::filesystem;
using Sharded = alex::shard::ShardedAlex<K, P>;
using Core = alex::core::ConcurrentAlex<K, P>;
using alex::core::SnapshotStatus;
using Values = std::map<std::string, double>;

// ---------------------------------------------------------------------------
// Catalogue. Sizes are full scale; --smoke divides them by 100.

std::vector<Spec> FullScaleSpecs() {
  using alex::data::DatasetId;
  // name, dataset, preload, calls/client/round, insert_every,
  // zipf_by_rank, shards, max_shard_keys, wal, cold_from, probe_reads,
  // probe_inserts
  return {
      // ~200 MB of index: DRAM-bound lookups. 32 shards keep every shard
      // under max_shard_keys; at the default 8 the first inserts would
      // split eight 1M-key shards inside the timed region.
      {"read_mostly", DatasetId::kLognormal, 8'000'000, 800'000, 20, false,
       32, 0, false, 0, 200'000, 50'000},
      // Grows 1M -> 2M keys per round; the 200K per-shard bound splits
      // all 8 shards (8 -> 16) while timed.
      {"ingest", DatasetId::kLognormal, 1'000'000, 500'000, 2, false, 8,
       200'000, true, 0, 200'000, 50'000},
      // Shards 3..7 (62% of the keys) demoted; the block cache holds a
      // quarter of the cold bytes. Gets favour the low, resident ranks;
      // fresh keys land in the resident shards.
      {"tiered", DatasetId::kYcsb, 4'000'000, 1'600'000, 20, true, 8, 0,
       false, 3, 200'000, 50'000},
      // ~50 MB, cache-sized: CPU-bound batch, scan and aggregate paths.
      {"analytics", DatasetId::kLongitudes, 2'000'000, 400'000, 0, false, 8,
       0, false, 0, 200'000, 50'000},
  };
}

Spec Scaled(Spec s, double f) {
  auto scale = [f](size_t v, size_t floor) {
    return std::max(floor, static_cast<size_t>(static_cast<double>(v) * f));
  };
  s.preload = scale(s.preload, 1000);
  s.calls = scale(s.calls, 400);
  if (s.max_shard_keys > 0) s.max_shard_keys = scale(s.max_shard_keys, 200);
  s.probe_reads = scale(s.probe_reads, 1024);
  s.probe_inserts = scale(s.probe_inserts, 256);
  return s;
}

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_ops_s", "1/s"},
    {"read_p50_ns", "ns"},
    {"read_p99_ns", "ns"},
    {"write_p50_ns", "ns"},
    {"write_p99_ns", "ns"},
    {"bytes_per_key", "B/key"},
};

// Every time below comes from a single-thread probe that runs on every
// workload; counts and ratios come from the traced concurrent rounds and
// read 0 where the workload bypasses the layer.
constexpr Metric kPerLayer[] = {
    {"shard.route_ns", "ns"},
    {"shard.get_ns", "ns"},
    {"core.get_ns", "ns"},
    {"ref.btree_get_ns", "ns"},
    {"shard.multiget_ns_per_key", "ns"},
    {"core.multiget_ns_per_key", "ns"},
    {"core.insert_ns", "ns"},
    {"shard.insert_ns", "ns"},
    {"wal.insert_ns", "ns"},
    {"wal.recover_s", "s"},
    {"wal.checkpoint_s", "s"},
    {"wal.replay_records_per_s", "1/s"},
    {"scan.scan_single_ns", "ns"},
    {"scan.scan_cross_ns", "ns"},
    {"scan.agg_single_ns", "ns"},
    {"scan.agg_cross_ns", "ns"},
    {"scan.agg_keys_per_us", "keys/us"},
    {"ref.btree_bytes_per_key", "B/key"},
    {"shard.router_fallback_ratio", "ratio"},
    {"shard.gate_contended_ratio", "ratio"},
    {"shard.gate_wait_share", "ratio"},
    {"shard.topology_splits", "count"},
    {"core.leaf_splits_per_kinsert", "count/kinsert"},
    {"core.descent_retries_per_kop", "count/kop"},
    {"core.latch_contended_per_kop", "count/kop"},
    {"core.latch_wait_share", "ratio"},
    {"core.bounded_search_ratio", "ratio"},
    {"core.simd_vector_ratio", "ratio"},
    {"core.avg_depth", "levels"},
    {"core.model_error_p50", "slots"},
    {"core.model_error_p99", "slots"},
    {"core.unbounded_leaf_ratio", "ratio"},
    {"core.fill_factor", "ratio"},
    {"core.index_bytes_per_key", "B/key"},
    {"core.data_bytes_per_key", "B/key"},
    {"epoch.retired_per_kop", "count/kop"},
    {"epoch.advance_stall_ratio", "ratio"},
    {"epoch.unreclaimed_end", "count"},
    {"wal.records_per_batch", "records/batch"},
    {"wal.fsyncs_per_krecord", "count/krecord"},
    {"wal.sync_tput_ratio", "ratio"},
    {"wal.sync_write_p99_ns", "ns"},
    {"wal.bytes_per_user_byte", "ratio"},
    {"wal.commit_wait_share", "ratio"},
    {"tier.cache_hit_ratio", "ratio"},
    {"tier.evictions_per_kget", "count/kget"},
    {"tier.cold_get_share", "ratio"},
    {"tier.policy_transitions", "count"},
    {"tier.cold_get_slowdown_p50", "ratio"},
    {"tier.cold_get_slowdown_p99", "ratio"},
    {"tier.cold_bytes_per_key", "B/key"},
    {"tier.cache_bytes_per_key", "B/key"},
    {"scan.scan_cross_share", "ratio"},
    {"scan.agg_cross_share", "ratio"},
    {"obs.trace_overhead", "ratio"},
};

// ---------------------------------------------------------------------------
// Plumbing.

/// Wrong answers: counted, with the first one described.
struct Verdict {
  uint64_t wrong = 0;
  std::string first;

  void Fail(const std::string& what) {
    if (wrong++ == 0) first = what;
  }
  void Merge(const Verdict& other) {
    if (wrong == 0) first = other.first;
    wrong += other.wrong;
  }
};

std::string g_work_dir;  // removed by Die and at exit

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perf_suite: %s\n", what.c_str());
  std::error_code ec;
  if (!g_work_dir.empty()) fs::remove_all(g_work_dir, ec);
  std::exit(2);
}

void ResetDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) Die("cannot create " + dir + ": " + ec.message());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

alex::shard::ShardedOptions MakeOptions(const Spec& spec, const Inputs& in,
                                        const std::string& dir) {
  alex::shard::ShardedOptions options;
  options.num_shards = spec.shards;
  if (spec.max_shard_keys > 0) options.max_shard_keys = spec.max_shard_keys;
  if (spec.cold_from > 0) {
    options.tier_prefix = dir + "/tier";
    const size_t n = in.preload.size();
    const size_t cold_keys = n - n * spec.cold_from / spec.shards;
    options.tier_cache_bytes = cold_keys * (sizeof(K) + sizeof(P)) / 4;
  }
  return options;
}

std::string WalPrefix(const std::string& dir) { return dir + "/wal"; }

/// The WAL flush policy. End-to-end rounds use kNone: runs write their logs
/// inside the checkout, on a disk whose fdatasync latency swings from run
/// to run, so without device flushes they measure the logging work itself
/// (encoding, write(2), group commit). `device_sync` selects the library's
/// default policy (kBatch) instead; only the traced sync round uses it.
alex::wal::WalOptions LogOptions(bool device_sync) {
  alex::wal::WalOptions options;
  if (!device_sync) options.sync_policy = alex::wal::SyncPolicy::kNone;
  return options;
}

/// The workload's setup: bulk load, plus the WAL or the demotions.
std::unique_ptr<Sharded> Setup(const Spec& spec, const Inputs& in,
                               const std::string& dir,
                               bool device_sync = false) {
  auto index = std::make_unique<Sharded>(MakeOptions(spec, in, dir));
  index->BulkLoad(in.preload.data(), in.payloads.data(), in.preload.size());
  if (spec.wal && index->EnableWal(WalPrefix(dir), LogOptions(device_sync)) !=
                       alex::wal::WalStatus::kOk) {
    Die("EnableWal failed under " + dir);
  }
  for (size_t s = spec.cold_from; spec.cold_from > 0 && s < spec.shards; ++s) {
    if (index->DemoteShard(s) != SnapshotStatus::kOk) {
      Die("DemoteShard(" + std::to_string(s) + ") failed under " + dir);
    }
  }
  return index;
}

/// Post-round state check: size and every key the streams left behind.
void CheckState(const Sharded& index, const Inputs& in, const char* when,
                Verdict* verdict) {
  const size_t size = index.size();
  if (size != in.expected_size) {
    verdict->Fail(std::string(when) + ": size " + std::to_string(size) +
                  " != expected " + std::to_string(in.expected_size));
  }
  P value = 0;
  for (const auto& [key, payload] : in.must_have) {
    if (!index.Get(key, &value) || value != payload) {
      verdict->Fail(std::string(when) + ": key " + std::to_string(key) +
                    " missing or wrong payload");
    }
  }
  for (const K key : in.must_not_have) {
    if (index.Contains(key)) {
      verdict->Fail(std::string(when) + ": erased key " +
                    std::to_string(key) + " still present");
    }
  }
}

// ---------------------------------------------------------------------------
// Clients.

struct ClientOutput {
  std::vector<uint32_t> lat_ns;  // one per call, in stream order
  uint64_t failed = 0;
  Verdict verdict;
  Clock::time_point end;
  std::vector<Span> spans;
};

size_t CountIn(const std::vector<K>& sorted, K lo, K hi) {
  return static_cast<size_t>(
      std::upper_bound(sorted.begin(), sorted.end(), hi) -
      std::lower_bound(sorted.begin(), sorted.end(), lo));
}

/// Replays one client's stream. Every call is timed on its own; checks run
/// after the second clock read, outside the timed interval (a scan's
/// visitor, which runs inside the call, only records violations).
void RunClient(Sharded* index, const Inputs& in, size_t client,
               const std::atomic<bool>& go, Tracer* tracer,
               uint64_t run_span, bool record_spans, ClientOutput* out) {
  const ClientInput& ci = in.clients[client];
  const size_t n = ci.calls.size();
  P values[kReadBatch];
  bool found[kReadBatch];
  alex::core::AggSpec<P> count_only;
  count_only.count_only = true;
  while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
  for (size_t i = 0; i < n; ++i) {
    const Call& c = ci.calls[i];
    bool ok = false;
    size_t count = 0;
    P value = 0;
    bool bad_record = false;
    const Clock::time_point t0 = Clock::now();
    switch (c.op) {
      case Op::kGet:
        ok = index->Get(c.a, &value);
        break;
      case Op::kInsert:
        ok = index->Insert(c.a, c.b);
        break;
      case Op::kMultiGet:
        count = index->MultiGet(ci.pool.data() + c.a, c.len, values, found);
        break;
      case Op::kScan: {
        bool seen = false;
        K prev = 0;
        count = index->Scan(c.a, c.b, [&](const K& key, const P& payload) {
          if ((seen && !(prev < key)) || key < c.a || c.b < key ||
              payload != PayloadOf(key)) {
            bad_record = true;
          }
          prev = key;
          seen = true;
        });
        break;
      }
      case Op::kAggregate:
        count = index->Aggregate(c.a, c.b, count_only).count;
        break;
      case Op::kMultiInsert:
        count = index->MultiInsert(ci.pool.data() + c.a,
                                   ci.pool_payloads.data() + c.a, c.len);
        break;
      case Op::kMultiErase:
        count = index->MultiErase(ci.pool.data() + c.a, c.len);
        break;
    }
    const Clock::time_point t1 = Clock::now();
    out->lat_ns[i] = Saturate32(NanosBetween(t0, t1));
    // 1 in 64 calls, picked by a hash of the index: a plain stride would
    // always land on the same position of the workload's call cycle.
    if (record_spans && (i * 0x9E3779B97F4A7C15ULL) >> 58 == 0) {
      Span span;
      span.name = OpName(c.op);
      span.tid = static_cast<uint32_t>(client + 1);
      span.id = (static_cast<uint64_t>(client + 1) << 40) | i;
      span.parent = run_span;
      span.start_ns = tracer->NowNs() - NanosBetween(t0, t1);
      span.dur_ns = NanosBetween(t0, t1);
      out->spans.push_back(span);
    }
    switch (c.op) {
      case Op::kGet:
        if (!ok || value != PayloadOf(c.a)) {
          out->verdict.Fail("get " + std::to_string(c.a) +
                            " missed or returned a foreign payload");
        }
        break;
      case Op::kInsert:
        out->failed += ok ? 0 : 1;
        break;
      case Op::kMultiGet:
        if (count != c.len) ++out->failed;
        for (size_t k = 0; k < c.len; ++k) {
          if (found[k] && values[k] != PayloadOf(ci.pool[c.a + k])) {
            out->verdict.Fail("multi_get returned a foreign payload");
          }
        }
        break;
      case Op::kScan:
      case Op::kAggregate: {
        const size_t most = c.expect + CountIn(in.insertable, c.a, c.b);
        if (bad_record || count < c.expect || count > most) {
          out->verdict.Fail(std::string(OpName(c.op)) + " [" +
                            std::to_string(c.a) + ", " + std::to_string(c.b) +
                            "] saw " + std::to_string(count) +
                            " records, expected " + std::to_string(c.expect) +
                            ".." + std::to_string(most) +
                            (bad_record ? " (bad record)" : ""));
        }
        break;
      }
      case Op::kMultiInsert:
      case Op::kMultiErase:
        if (count != c.len) ++out->failed;
        break;
    }
  }
  out->end = Clock::now();
}

// ---------------------------------------------------------------------------
// Rounds.

/// Counts the traced rounds accumulate for the per-layer ratios.
struct TracedTotals {
  uint64_t rounds = 0;
  uint64_t calls = 0;
  uint64_t writes = 0;
  uint64_t gets = 0;
  uint64_t inserted_keys = 0;
  uint64_t user_log_bytes = 0;
  double call_ns = 0;
  double write_ns = 0;
  uint64_t scans = 0, cross_scans = 0, aggs = 0, cross_aggs = 0;
  uint64_t tier_transitions = 0;
  std::vector<uint32_t> hot_get_ns, cold_get_ns;
  Values registry;   // summed counters and histogram sums
  Values structure;  // Inspect() and footprints after the last round
  std::vector<double> traced_tput, untraced_tput;
};

const char* const kRegistryCounters[] = {
    "shard.router_model_hits", "shard.router_fallbacks",
    "shard.write_gate_contended", "shard.topology_splits",
    "core.leaf_splits", "core.descent_retries", "core.leaf_latch_contended",
    "core.search_bounded", "core.search_exponential",
    "simd.bounded_search_vector", "simd.bounded_search_scalar",
    "epoch.retired", "epoch.advances", "epoch.advance_stalls",
    "wal.records_logged", "wal.commit_batches", "wal.fsyncs",
    "wal.bytes_written", "tier.cache_hits", "tier.cache_misses",
    "tier.cache_evictions",
};
const char* const kRegistryHistograms[] = {
    "shard.write_gate_wait_ns", "core.leaf_latch_wait_ns",
    "wal.commit_wait_ns",
};

void AccumulateRegistry(Values* into) {
  alex::obs::MetricsRegistry& reg = alex::obs::MetricsRegistry::Global();
  for (const char* name : kRegistryCounters) {
    (*into)[name] += static_cast<double>(reg.GetCounter(name)->Load());
  }
  for (const char* name : kRegistryHistograms) {
    (*into)[name] += static_cast<double>(reg.GetHistogram(name)->Sum());
  }
  (*into)["epoch.retired_unreclaimed"] = static_cast<double>(
      reg.GetGauge("epoch.retired_unreclaimed")->Load());
}

Values StructureOf(const Sharded& index) {
  Values v;
  const alex::obs::TreeStructure t = index.Inspect().total;
  const double keys = static_cast<double>(index.size());
  v["core.avg_depth"] = t.avg_depth();
  v["core.model_error_p50"] = static_cast<double>(t.model_error.Quantile(0.5));
  v["core.model_error_p99"] = static_cast<double>(t.model_error.Quantile(0.99));
  v["core.unbounded_leaf_ratio"] =
      Ratio(static_cast<double>(t.unbounded_leaves),
            static_cast<double>(t.leaf_count));
  v["core.fill_factor"] = t.fill_factor();
  v["core.index_bytes_per_key"] =
      Ratio(static_cast<double>(index.IndexSizeBytes()), keys);
  v["core.data_bytes_per_key"] =
      Ratio(static_cast<double>(index.DataSizeBytes()), keys);
  v["tier.cold_bytes_per_key"] =
      Ratio(static_cast<double>(index.ColdBytes()), keys);
  v["tier.cache_bytes_per_key"] =
      Ratio(static_cast<double>(index.block_cache().bytes()), keys);
  return v;
}

/// Per-call annotations for the traced ratios, taken after setup: does a
/// Get route to a cold shard, does a range span shards.
std::vector<std::vector<uint8_t>> Annotate(const Sharded& index,
                                           const Inputs& in) {
  std::vector<std::vector<uint8_t>> flags(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    const std::vector<Call>& calls = in.clients[c].calls;
    flags[c].assign(calls.size(), 0);
    for (size_t i = 0; i < calls.size(); ++i) {
      const Call& call = calls[i];
      if (call.op == Op::kGet) {
        flags[c][i] = index.IsShardCold(index.ShardOf(call.a));
      } else if (call.op == Op::kScan || call.op == Op::kAggregate) {
        flags[c][i] = index.ShardOf(call.a) != index.ShardOf(call.b);
      }
    }
  }
  return flags;
}

/// Adds one traced round's calls to the per-layer tallies.
void TallyTracedRound(const Inputs& in, const std::vector<ClientOutput>& outs,
                      const std::vector<std::vector<uint8_t>>& flags,
                      TracedTotals* totals) {
  for (size_t c = 0; c < kClients; ++c) {
    const std::vector<Call>& calls = in.clients[c].calls;
    totals->calls += calls.size();
    for (size_t i = 0; i < calls.size(); ++i) {
      const Op op = calls[i].op;
      const uint64_t keys = op == Op::kInsert ? 1 : calls[i].len;
      const uint32_t ns = outs[c].lat_ns[i];
      totals->call_ns += ns;
      if (ClassOf(op) == OpClass::kWrite || op == Op::kMultiErase) {
        ++totals->writes;
        totals->write_ns += ns;
        // What a log record carries for the user: key and payload, or the
        // key alone for an erase.
        totals->user_log_bytes +=
            keys * (op == Op::kMultiErase ? sizeof(K) : sizeof(K) + sizeof(P));
        if (op != Op::kMultiErase) totals->inserted_keys += keys;
      }
      if (op == Op::kGet) {
        ++totals->gets;
        (flags[c][i] ? totals->cold_get_ns : totals->hot_get_ns).push_back(ns);
      }
      if (op == Op::kScan) {
        ++totals->scans;
        totals->cross_scans += flags[c][i];
      }
      if (op == Op::kAggregate) {
        ++totals->aggs;
        totals->cross_aggs += flags[c][i];
      }
    }
  }
}

struct Round {
  double setup_s = 0;
  double throughput = 0;
  double read_p50 = 0, read_p99 = 0, write_p50 = 0, write_p99 = 0;
  size_t read_samples = 0, write_samples = 0;
  double bytes_per_key = 0;
  uint64_t calls = 0;
  uint64_t failed = 0;
  size_t tier_transitions = 0;
  double seconds = 0;  // whole round, setup and checks included
};

/// One round. `device_sync` runs the WAL under the library's default flush
/// policy instead of kNone (the traced sync round of `ingest`).
Round RunRound(const Spec& spec, const Inputs& in, const std::string& dir,
               bool traced, bool first_round, bool device_sync, Tracer* tracer,
               TracedTotals* totals, Verdict* verdict) {
  const Clock::time_point round_start = Clock::now();
  Round r;
  ResetDir(dir);
  std::unique_ptr<Sharded> index;
  {
    PhaseSpan span(tracer, "setup");
    const Clock::time_point t0 = Clock::now();
    index = Setup(spec, in, dir, device_sync);
    r.setup_s = SecondsBetween(t0, Clock::now());
  }
  P value = 0;
  for (const K key : in.warmup) {
    if (!index->Get(key, &value) || value != PayloadOf(key)) {
      verdict->Fail("warm-up get " + std::to_string(key) + " failed");
    }
  }
  std::vector<std::vector<uint8_t>> flags;
  if (traced) {
    flags = Annotate(*index, in);
    alex::obs::MetricsRegistry::Global().ResetAll();
    alex::obs::SetEnabled(true);
  }

  std::vector<ClientOutput> outs(kClients);
  const bool record_spans = traced && totals->rounds == 0 && !device_sync;
  for (size_t c = 0; c < kClients; ++c) {
    outs[c].lat_ns.assign(in.clients[c].calls.size(), 0);
    if (record_spans) outs[c].spans.reserve(in.clients[c].calls.size() / 64 + 1);
  }
  Clock::time_point start;
  {
    PhaseSpan span(tracer, device_sync ? "run (traced, kBatch)"
                           : traced    ? "run (traced)"
                                       : "run");
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back(RunClient, index.get(), std::cref(in), c,
                           std::cref(go), tracer, span.id(), record_spans,
                           &outs[c]);
    }
    start = Clock::now();
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
  }
  if (traced) {
    alex::obs::SetEnabled(false);
    AccumulateRegistry(&totals->registry);
    TallyTracedRound(in, outs, flags, totals);
  }

  Clock::time_point end = start;
  std::vector<uint32_t> reads, writes;
  for (size_t c = 0; c < kClients; ++c) {
    const ClientOutput& out = outs[c];
    const std::vector<Call>& calls = in.clients[c].calls;
    end = std::max(end, out.end);
    r.calls += calls.size();
    r.failed += out.failed;
    verdict->Merge(out.verdict);
    tracer->Append(out.spans);
    for (size_t i = 0; i < calls.size(); ++i) {
      const OpClass cls = ClassOf(calls[i].op);
      if (cls == OpClass::kRead) reads.push_back(out.lat_ns[i]);
      if (cls == OpClass::kWrite) writes.push_back(out.lat_ns[i]);
    }
  }
  const double wall = SecondsBetween(start, end);
  r.throughput = Ratio(static_cast<double>(r.calls), wall);
  r.read_samples = reads.size();
  r.write_samples = writes.size();
  r.read_p50 = Quantile(&reads, 0.50);
  r.read_p99 = Quantile(&reads, 0.99);
  r.write_p50 = Quantile(&writes, 0.50);
  r.write_p99 = Quantile(&writes, 0.99);

  // The timed tier layout must be one the library's own tiering policy
  // keeps: a policy pass over the round's traffic should move no shard.
  if (spec.cold_from > 0) r.tier_transitions = index->TieringTick();
  CheckState(*index, in, "after the run", verdict);
  if (index->last_wal_error() != alex::wal::WalStatus::kOk) {
    verdict->Fail("the WAL reported an error during the run");
  }
  r.bytes_per_key = Ratio(
      static_cast<double>(index->IndexSizeBytes() + index->DataSizeBytes()),
      static_cast<double>(index->size()));
  if (traced) {
    ++totals->rounds;
    totals->tier_transitions += r.tier_transitions;
    totals->traced_tput.push_back(r.throughput);
    totals->structure = StructureOf(*index);
  } else {
    totals->untraced_tput.push_back(r.throughput);
  }

  // Durability check, once per run: drop the index, recover it from its
  // snapshot and log tails, check it again, and checkpoint it.
  if (spec.wal && first_round) {
    index.reset();
    Sharded recovered(MakeOptions(spec, in, dir));
    SnapshotStatus status;
    {
      PhaseSpan span(tracer, "recover");
      status = recovered.LoadFrom(WalPrefix(dir));
    }
    if (status != SnapshotStatus::kOk) {
      verdict->Fail("recovery failed with status " +
                    std::to_string(static_cast<int>(status)));
    } else {
      CheckState(recovered, in, "after recovery", verdict);
      PhaseSpan span(tracer, "checkpoint");
      if (recovered.SaveTo(WalPrefix(dir)) != SnapshotStatus::kOk) {
        verdict->Fail("checkpoint after recovery failed");
      }
    }
  }
  index.reset();
  r.seconds = SecondsBetween(round_start, Clock::now());
  return r;
}

// ---------------------------------------------------------------------------
// Single-thread probes (traced runs only).

/// Scans of 50 keys and count-only aggregates over 1% of the keys, each
/// either inside one shard or straddling a shard boundary.
void ScanProbes(const Sharded& index, const std::vector<K>& stable,
                Values* layers, Verdict* verdict) {
  constexpr size_t kCalls = 64;
  const size_t n = stable.size();
  const size_t scan_len = std::min<size_t>(50, n);
  const size_t agg_len = std::max<size_t>(2, n / 100);
  auto starts = [&](size_t len, bool cross) {
    std::vector<size_t> out;
    if (cross) {
      std::vector<size_t> at;
      for (const K b : index.ShardBoundaries()) {
        const size_t rank = static_cast<size_t>(
            std::lower_bound(stable.begin(), stable.end(), b) -
            stable.begin());
        if (rank >= len / 2 && rank - len / 2 + len <= n) {
          at.push_back(rank - len / 2);
        }
      }
      for (size_t i = 0; !at.empty() && out.size() < kCalls; ++i) {
        out.push_back(at[i % at.size()]);
      }
      return out;
    }
    for (uint64_t i = 1; out.size() < kCalls && i < 64 * kCalls; ++i) {
      const size_t s = static_cast<size_t>(Mix(i, len) % (n - len + 1));
      if (index.ShardOf(stable[s]) == index.ShardOf(stable[s + len - 1])) {
        out.push_back(s);
      }
    }
    return out;
  };
  alex::core::AggSpec<P> count_only;
  count_only.count_only = true;
  // Median time of one call over [key[s], key[s + len - 1]] per start s.
  auto time_ranges = [&](Op op, size_t len, bool cross) {
    const std::vector<size_t> from = starts(len, cross);
    return ChunkedNanosPerCall(from.size(), 1, [&](size_t i) {
      const K lo = stable[from[i]];
      const K hi = stable[from[i] + len - 1];
      const size_t seen =
          op == Op::kScan
              ? index.Scan(lo, hi, [](const K&, const P&) {})
              : index.Aggregate(lo, hi, count_only).count;
      if (seen < len) verdict->Fail("probe range missed preloaded keys");
    });
  };
  (*layers)["scan.scan_single_ns"] = time_ranges(Op::kScan, scan_len, false);
  (*layers)["scan.scan_cross_ns"] = time_ranges(Op::kScan, scan_len, true);
  const double agg_single = time_ranges(Op::kAggregate, agg_len, false);
  (*layers)["scan.agg_single_ns"] = agg_single;
  (*layers)["scan.agg_cross_ns"] = time_ranges(Op::kAggregate, agg_len, true);
  (*layers)["scan.agg_keys_per_us"] =
      Ratio(static_cast<double>(agg_len), agg_single / 1e3);
}

/// Times the insert of each of `n` fresh keys into `ns`.
template <typename Fn>
void TimeInserts(const K* keys, size_t n, std::vector<uint32_t>* ns,
                 Verdict* verdict, Fn&& insert) {
  for (size_t i = 0; i < n; ++i) {
    const Clock::time_point t0 = Clock::now();
    const bool ok = insert(keys[i], PayloadOf(keys[i]));
    ns->push_back(Saturate32(NanosBetween(t0, Clock::now())));
    if (!ok) verdict->Fail("probe insert of a fresh key failed");
  }
}

void RunProbes(const Spec& spec, const Inputs& in, const std::string& dir,
               Tracer* tracer, Values* layers, Verdict* verdict) {
  const std::vector<K>& reads = in.probe_reads;
  const size_t batches = reads.size() / kReadBatch;
  P values[kReadBatch];
  bool found[kReadBatch];
  P value = 0;
  auto check_get = [&](bool ok, K key) {
    if (!ok || value != PayloadOf(key)) {
      verdict->Fail("probe get " + std::to_string(key) + " failed");
    }
  };
  {
    PhaseSpan span(tracer, "probe shard");
    ResetDir(dir);
    const std::unique_ptr<Sharded> index = Setup(spec, in, dir);
    // Probed calls all pin an epoch (atomic stores), so none is optimized
    // away even though results are dropped.
    (*layers)["shard.route_ns"] = ChunkedNanosPerCall(
        reads.size(), 256, [&](size_t i) { index->ShardOf(reads[i]); });
    (*layers)["shard.get_ns"] =
        ChunkedNanosPerCall(reads.size(), 64, [&](size_t i) {
          check_get(index->Get(reads[i], &value), reads[i]);
        });
    (*layers)["shard.multiget_ns_per_key"] =
        ChunkedNanosPerCall(batches, 1, [&](size_t b) {
          if (index->MultiGet(&reads[b * kReadBatch], kReadBatch, values,
                              found) != kReadBatch) {
            verdict->Fail("probe multi_get came back short");
          }
        }) / kReadBatch;
    ScanProbes(*index, in.stable, layers, verdict);
  }
  {
    PhaseSpan span(tracer, "probe core");
    Core core;
    core.BulkLoad(in.preload.data(), in.payloads.data(), in.preload.size());
    (*layers)["core.get_ns"] =
        ChunkedNanosPerCall(reads.size(), 64, [&](size_t i) {
          check_get(core.Get(reads[i], &value), reads[i]);
        });
    // The unsharded tree requires sorted batches; the shard layer sorts
    // inside MultiGet, so that sort is part of the shard layer's cost.
    std::vector<K> sorted = reads;
    for (size_t i = 0; i + kReadBatch <= sorted.size(); i += kReadBatch) {
      std::sort(sorted.begin() + static_cast<std::ptrdiff_t>(i),
                sorted.begin() + static_cast<std::ptrdiff_t>(i + kReadBatch));
    }
    (*layers)["core.multiget_ns_per_key"] =
        ChunkedNanosPerCall(batches, 1, [&](size_t b) {
          if (core.MultiGet(&sorted[b * kReadBatch], kReadBatch, values,
                            found) != kReadBatch) {
            verdict->Fail("probe core multi_get came back short");
          }
        }) / kReadBatch;
  }
  {
    PhaseSpan span(tracer, "probe btree");
    alex::baseline::BPlusTree<K, P> tree;
    tree.BulkLoad(in.preload.data(), in.payloads.data(), in.preload.size());
    (*layers)["ref.btree_get_ns"] =
        ChunkedNanosPerCall(reads.size(), 64, [&](size_t i) {
          const P* p = tree.Find(reads[i]);
          if (p != nullptr) value = *p;
          check_get(p != nullptr, reads[i]);
        });
    (*layers)["ref.btree_bytes_per_key"] = Ratio(
        static_cast<double>(tree.IndexSizeBytes() + tree.DataSizeBytes()),
        static_cast<double>(tree.size()));
  }

  // Inserts into three targets bulk-loaded with the same sample of the
  // preload: the unsharded tree, one shard, one shard with its WAL. With
  // one shard the differences are the shard layer's and the log's cost
  // per insert, not a difference in tree shape. The targets take turns
  // every kChunk keys, so machine noise falls on all three alike.
  const size_t stride =
      std::max<size_t>(1, in.preload.size() / (4 * in.probe_inserts.size()));
  std::vector<K> base_keys;
  std::vector<P> base_payloads;
  for (size_t i = 0; i < in.preload.size(); i += stride) {
    base_keys.push_back(in.preload[i]);
    base_payloads.push_back(in.payloads[i]);
  }
  alex::shard::ShardedOptions one_shard;
  one_shard.num_shards = 1;
  ResetDir(dir);
  const std::string prefix = WalPrefix(dir);
  {
    PhaseSpan span(tracer, "probe insert");
    Core core;
    Sharded sharded(one_shard);
    Sharded logged(one_shard);
    core.BulkLoad(base_keys.data(), base_payloads.data(), base_keys.size());
    sharded.BulkLoad(base_keys.data(), base_payloads.data(), base_keys.size());
    logged.BulkLoad(base_keys.data(), base_payloads.data(), base_keys.size());
    if (logged.EnableWal(prefix, LogOptions(false)) !=
        alex::wal::WalStatus::kOk) {
      Die("EnableWal failed under " + dir);
    }
    constexpr size_t kChunk = 512;
    const std::vector<K>& keys = in.probe_inserts;
    std::vector<uint32_t> core_ns, shard_ns, wal_ns;
    for (size_t i = 0; i < keys.size(); i += kChunk) {
      const size_t n = std::min(kChunk, keys.size() - i);
      TimeInserts(&keys[i], n, &core_ns, verdict,
                  [&](K key, P payload) { return core.Insert(key, payload); });
      TimeInserts(&keys[i], n, &shard_ns, verdict, [&](K key, P payload) {
        return sharded.Insert(key, payload);
      });
      TimeInserts(&keys[i], n, &wal_ns, verdict, [&](K key, P payload) {
        return logged.Insert(key, payload);
      });
    }
    (*layers)["core.insert_ns"] = Quantile(&core_ns, 0.5);
    (*layers)["shard.insert_ns"] = Quantile(&shard_ns, 0.5);
    (*layers)["wal.insert_ns"] = Quantile(&wal_ns, 0.5);
  }
  Sharded recovered(one_shard);
  alex::wal::RecoveryReport report;
  Clock::time_point t0 = Clock::now();
  SnapshotStatus status;
  {
    PhaseSpan span(tracer, "probe recover");
    status = recovered.LoadFrom(prefix, &report);
  }
  const double recover_s = SecondsBetween(t0, Clock::now());
  (*layers)["wal.recover_s"] = recover_s;
  (*layers)["wal.replay_records_per_s"] =
      Ratio(static_cast<double>(report.records_replayed), recover_s);
  if (status != SnapshotStatus::kOk ||
      recovered.size() != base_keys.size() + in.probe_inserts.size()) {
    verdict->Fail("probe recovery lost keys");
  }
  for (const K key : in.probe_inserts) {
    check_get(recovered.Get(key, &value), key);
  }
  t0 = Clock::now();
  {
    PhaseSpan span(tracer, "probe checkpoint");
    if (recovered.SaveTo(prefix) != SnapshotStatus::kOk) {
      verdict->Fail("probe checkpoint failed");
    }
  }
  (*layers)["wal.checkpoint_s"] = SecondsBetween(t0, Clock::now());
}

double ValueOr0(const Values& values, const char* name) {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

/// The ratios of the traced rounds, by layer.
void TracedLayers(const TracedTotals& t, Values* layers) {
  auto at = [&t](const char* name) { return ValueOr0(t.registry, name); };
  const double ops = static_cast<double>(t.calls);
  Values& L = *layers;
  L["shard.router_fallback_ratio"] =
      Ratio(at("shard.router_fallbacks"),
            at("shard.router_fallbacks") + at("shard.router_model_hits"));
  L["shard.gate_contended_ratio"] =
      Ratio(at("shard.write_gate_contended"), static_cast<double>(t.writes));
  L["shard.gate_wait_share"] = Ratio(at("shard.write_gate_wait_ns"), t.write_ns);
  L["shard.topology_splits"] =
      Ratio(at("shard.topology_splits"), static_cast<double>(t.rounds));
  L["core.leaf_splits_per_kinsert"] =
      Ratio(1e3 * at("core.leaf_splits"), static_cast<double>(t.inserted_keys));
  L["core.descent_retries_per_kop"] = Ratio(1e3 * at("core.descent_retries"), ops);
  L["core.latch_contended_per_kop"] =
      Ratio(1e3 * at("core.leaf_latch_contended"), ops);
  L["core.latch_wait_share"] = Ratio(at("core.leaf_latch_wait_ns"), t.call_ns);
  L["core.bounded_search_ratio"] =
      Ratio(at("core.search_bounded"),
            at("core.search_bounded") + at("core.search_exponential"));
  L["core.simd_vector_ratio"] =
      Ratio(at("simd.bounded_search_vector"),
            at("simd.bounded_search_vector") + at("simd.bounded_search_scalar"));
  L["epoch.retired_per_kop"] = Ratio(1e3 * at("epoch.retired"), ops);
  L["epoch.advance_stall_ratio"] =
      Ratio(at("epoch.advance_stalls"),
            at("epoch.advance_stalls") + at("epoch.advances"));
  L["epoch.unreclaimed_end"] = at("epoch.retired_unreclaimed");
  L["wal.records_per_batch"] =
      Ratio(at("wal.records_logged"), at("wal.commit_batches"));
  L["wal.bytes_per_user_byte"] =
      Ratio(at("wal.bytes_written"), static_cast<double>(t.user_log_bytes));
  L["wal.commit_wait_share"] = Ratio(at("wal.commit_wait_ns"), t.write_ns);
  L["tier.cache_hit_ratio"] =
      Ratio(at("tier.cache_hits"), at("tier.cache_hits") + at("tier.cache_misses"));
  L["tier.evictions_per_kget"] =
      Ratio(1e3 * at("tier.cache_evictions"), static_cast<double>(t.gets));
  L["tier.cold_get_share"] = Ratio(static_cast<double>(t.cold_get_ns.size()),
                                   static_cast<double>(t.gets));
  L["tier.policy_transitions"] = Ratio(static_cast<double>(t.tier_transitions),
                                       static_cast<double>(t.rounds));
  std::vector<uint32_t> hot = t.hot_get_ns;
  std::vector<uint32_t> cold = t.cold_get_ns;
  L["tier.cold_get_slowdown_p50"] =
      Ratio(Quantile(&cold, 0.50), Quantile(&hot, 0.50));
  L["tier.cold_get_slowdown_p99"] =
      Ratio(Quantile(&cold, 0.99), Quantile(&hot, 0.99));
  L["scan.scan_cross_share"] = Ratio(static_cast<double>(t.cross_scans),
                                     static_cast<double>(t.scans));
  L["scan.agg_cross_share"] =
      Ratio(static_cast<double>(t.cross_aggs), static_cast<double>(t.aggs));
  L["obs.trace_overhead"] =
      1.0 - Ratio(Median(t.traced_tput), Median(t.untraced_tput));
  for (const auto& [name, v] : t.structure) L[name] = v;
}

/// The cost of device flushes: one traced round under the library's
/// default flush policy (kBatch), against the traced kNone rounds.
void SyncLayers(const Round& sync, const TracedTotals& sync_totals,
                const TracedTotals& t, Values* layers) {
  (*layers)["wal.sync_tput_ratio"] =
      Ratio(sync.throughput, Median(t.traced_tput));
  (*layers)["wal.sync_write_p99_ns"] = sync.write_p99;
  (*layers)["wal.fsyncs_per_krecord"] =
      Ratio(1e3 * ValueOr0(sync_totals.registry, "wal.fsyncs"),
            ValueOr0(sync_totals.registry, "wal.records_logged"));
}

// ---------------------------------------------------------------------------
// Output.

/// Shortest decimal that reads back as the same double.
std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const Metric* metrics, size_t count,
                       const Values& values) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < count; ++i) {
    const auto it = values.find(metrics[i].name);
    out += std::string(i == 0 ? "" : ", ") + "\"" + metrics[i].name +
           "\": {\"value\": " + Num(it == values.end() ? 0.0 : it->second) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 25;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = "perf_work";
  std::string trace_dir = "perf_trace";
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perf_suite: %s\nusage: perf_suite --workload "
               "read_mostly|ingest|tiered|analytics [--seed S] [--seconds T]"
               " [--trace 0|1] [--smoke] [--work-dir DIR] [--trace-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(arg + " needs a value");
      return argv[++i];
    };
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      const std::string v = value();
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') Usage("bad --seed " + v);
    } else if (arg == "--seconds") {
      const std::string v = value();
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds >= 0)) {
        Usage("bad --seconds " + v);
      }
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") Usage("bad --trace " + v);
      o.trace = v == "1";
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--work-dir") {
      o.work_dir = value();
    } else if (arg == "--trace-dir") {
      o.trace_dir = value();
    } else {
      Usage("unknown argument " + arg);
    }
  }
  return o;
}

int Main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);
  const std::vector<Spec> specs = FullScaleSpecs();
  size_t workload_index = specs.size();
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].name == opt.workload) workload_index = i;
  }
  if (workload_index == specs.size()) Usage("unknown --workload " + opt.workload);
  const Spec spec = opt.smoke ? Scaled(specs[workload_index], 0.01)
                              : specs[workload_index];
  const char* name = spec.name.c_str();

  g_work_dir = opt.work_dir + "/" + spec.name + "-" + std::to_string(::getpid());
  Tracer tracer(opt.trace);
  Inputs in;
  {
    PhaseSpan span(&tracer, "generate");
    in = MakeInputs(spec, workload_index, opt.seed);
  }
  if (in.preload.empty()) Die("dataset generator returned too few keys");
  std::printf("# perf_suite workload=%s seed=%" PRIu64
              " clients=%zu preload=%zu calls/client/round=%zu%s%s\n",
              name, opt.seed, kClients, in.preload.size(), spec.calls,
              opt.trace ? " traced" : "", opt.smoke ? " smoke" : "");
  std::printf("%s input_digest %016" PRIx64 " fnv1a64\n", name, in.digest);

  Verdict verdict;
  TracedTotals totals;
  std::vector<Round> rounds;  // untraced only
  uint64_t attempted = 0;
  uint64_t failed = 0;
  const Clock::time_point run_start = Clock::now();
  constexpr size_t kMinRounds = 3;
  constexpr size_t kMaxRounds = 64;
  for (size_t r = 0;; ++r) {
    const bool traced = opt.trace && r % 2 == 1;
    const Round round = RunRound(spec, in, g_work_dir, traced, r == 0,
                                 false, &tracer, &totals, &verdict);
    attempted += round.calls;
    failed += round.failed;
    if (!traced) rounds.push_back(round);
    std::fprintf(stderr,
                 "round %zu%s: setup_s %.4f throughput_ops_s %.0f read_p50_ns "
                 "%.0f read_p99_ns %.0f write_p50_ns %.0f write_p99_ns %.0f\n",
                 r, traced ? " (traced)" : "", round.setup_s, round.throughput,
                 round.read_p50, round.read_p99, round.write_p50,
                 round.write_p99);
    const double elapsed = SecondsBetween(run_start, Clock::now());
    // Stop when another round would overrun --seconds; traced runs stop
    // after a traced round so that the two kinds pair up.
    const bool paired = !opt.trace || traced;
    if (r + 1 >= kMinRounds && paired &&
        (elapsed + round.seconds > opt.seconds || r + 1 >= kMaxRounds)) {
      break;
    }
  }

  auto median_of = [&rounds](double Round::*field) {
    std::vector<double> v;
    for (const Round& r : rounds) v.push_back(r.*field);
    return Median(std::move(v));
  };

  Values values;
  const Metric* metrics = kEndToEnd;
  size_t metric_count = std::size(kEndToEnd);
  if (!opt.trace) {
    values["setup_s"] = median_of(&Round::setup_s);
    values["throughput_ops_s"] = median_of(&Round::throughput);
    values["read_p50_ns"] = median_of(&Round::read_p50);
    values["read_p99_ns"] = median_of(&Round::read_p99);
    values["write_p50_ns"] = median_of(&Round::write_p50);
    values["write_p99_ns"] = median_of(&Round::write_p99);
    values["bytes_per_key"] = median_of(&Round::bytes_per_key);
    // n = samples behind one round's value.
    const Round& first = rounds.front();
    for (const Metric& m : kEndToEnd) {
      const std::string metric = m.name;
      const size_t samples = metric.rfind("read_", 0) == 0 ? first.read_samples
                             : metric.rfind("write_", 0) == 0
                                 ? first.write_samples
                             : metric == "throughput_ops_s" ? first.calls
                                                            : 1;
      std::printf("%s %s %s %s n=%zu rounds=%zu\n", name, m.name,
                  Num(values[m.name]).c_str(), m.unit, samples,
                  rounds.size());
    }
  } else {
    if (spec.wal) {
      TracedTotals sync_totals;
      const Round sync = RunRound(spec, in, g_work_dir, true, false, true,
                                  &tracer, &sync_totals, &verdict);
      attempted += sync.calls;
      failed += sync.failed;
      SyncLayers(sync, sync_totals, totals, &values);
    }
    RunProbes(spec, in, g_work_dir, &tracer, &values, &verdict);
    TracedLayers(totals, &values);
    metrics = kPerLayer;
    metric_count = std::size(kPerLayer);
    for (const Metric& m : kPerLayer) {
      std::printf("%s %s %s %s traced_rounds=%" PRIu64 "\n", name, m.name,
                  Num(values[m.name]).c_str(), m.unit, totals.rounds);
    }
    // The probes insert the same keys into three stacked targets, so each
    // layer can only add cost.
    const bool ladder = values["core.insert_ns"] <= values["shard.insert_ns"] &&
                        values["shard.insert_ns"] <= values["wal.insert_ns"];
    std::printf("%s check core.insert_ns <= shard.insert_ns <= wal.insert_ns "
                "%s\n",
                name, ladder ? "holds" : "VIOLATED");
    std::error_code ec;
    fs::create_directories(opt.trace_dir, ec);
    const std::string trace_path = opt.trace_dir + "/perf_trace.json";
    if (!tracer.WriteChromeTrace(trace_path)) Die("cannot write " + trace_path);
    const std::string layers_path = opt.trace_dir + "/layers.json";
    std::FILE* f = std::fopen(layers_path.c_str(), "w");
    if (f == nullptr) Die("cannot write " + layers_path);
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %" PRIu64
                 ", \"insert_ladder_holds\": %s, \"result\": %s}\n",
                 name, opt.seed, ladder ? "true" : "false",
                 ResultJson(verdict.wrong == 0, attempted, failed, metrics,
                            metric_count, values)
                     .c_str());
    if (std::fclose(f) != 0) Die("cannot write " + layers_path);
  }
  std::error_code ec;
  fs::remove_all(g_work_dir, ec);

  if (verdict.wrong > 0) {
    std::fprintf(stderr, "perf_suite: %" PRIu64 " wrong answers; first: %s\n",
                 verdict.wrong, verdict.first.c_str());
  }
  std::printf("%s\n", ResultJson(verdict.wrong == 0, attempted, failed,
                                 metrics, metric_count, values)
                          .c_str());
  std::fflush(stdout);
  return verdict.wrong == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perf

int main(int argc, char** argv) { return perf::Main(argc, argv); }
