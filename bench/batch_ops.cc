// Batched-vs-scalar sweep: batch size × workload mix, single-threaded.
//
// The batch API's claim is per-op overhead amortization (one epoch guard;
// for MultiGet, overlapped cache misses across a group of descents; for
// writes, one leaf latch per leaf run and one gate per shard run) — so
// the honest comparison is the same op stream driven through scalar calls
// vs Multi* calls on one thread, with latency recorded per work unit (a group of `batch` ops) so
// the p50/p99 columns compare like for like.
//
// Sweeps: index ∈ {lock-free ConcurrentAlex, ShardedAlex} × mix ∈
// {get, insert, mixed 50/50} × batch ∈ {16, 64, 256, 1024}, each cell run
// scalar and batched. The headline line at the end reports batched
// MultiGet vs the scalar Get loop at the largest batch size (the
// acceptance ratio the CI artifact tracks).
//
// Flags / env:
//   --csv PATH, --json PATH   machine-readable results (bench/common.h)
//   --quick                   CI smoke mode (smaller preload/op counts)
//   ALEX_BENCH_SCALE          preload multiplier
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/common.h"
#include "core/concurrent_alex.h"
#include "shard/sharded_alex.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/timer.h"

namespace {
using namespace alex;  // NOLINT

using K = int64_t;
using P = int64_t;

struct CellResult {
  double mops = 0.0;
  uint64_t p50_us = 0;
  uint64_t p99_us = 0;
};

struct Streams {
  std::vector<K> gets;     // random keys over the loaded range (~50% hits)
  std::vector<K> inserts;  // distinct fresh odd keys, shuffled
};

/// Sorts each `batch`-sized chunk in place (ConcurrentAlex's MultiInsert
/// takes sorted batches; MultiGet takes any order but gets the same
/// sorted chunks, and the scalar runner uses the same chunked stream, so
/// all modes touch identical keys in identical order).
void SortChunks(std::vector<K>* v, size_t batch) {
  for (size_t i = 0; i + batch <= v->size(); i += batch) {
    std::sort(v->begin() + static_cast<ptrdiff_t>(i),
              v->begin() + static_cast<ptrdiff_t>(i + batch));
  }
}

Streams MakeStreams(size_t preload, size_t total_ops, size_t batch) {
  Streams s;
  util::Xoshiro256 rng(4242);
  s.gets.reserve(total_ops);
  for (size_t i = 0; i < total_ops; ++i) {
    s.gets.push_back(
        static_cast<K>(rng.NextUint64(2 * preload)));  // evens hit
  }
  s.inserts.resize(total_ops);
  for (size_t i = 0; i < total_ops; ++i) {
    s.inserts[i] = static_cast<K>(2 * i + 1);  // odd = absent from preload
  }
  for (size_t i = total_ops; i > 1; --i) {  // Fisher-Yates
    std::swap(s.inserts[i - 1], s.inserts[rng.NextUint64(i)]);
  }
  SortChunks(&s.gets, batch);
  SortChunks(&s.inserts, batch);
  return s;
}

/// One cell: drives `total_ops` ops in `batch`-sized work units through
/// `index`, scalar or batched per `batched`. `get_share` of the units are
/// lookups, the rest inserts (interleaved unit by unit).
template <typename Index>
CellResult RunCell(Index* index, const Streams& streams, size_t total_ops,
                   size_t batch, int get_units_of_2, bool batched) {
  std::vector<P> vals(batch);
  const std::unique_ptr<bool[]> flags(new bool[batch]);
  util::PercentileRecorder unit_ns;
  const size_t units = total_ops / batch;
  size_t get_cursor = 0, ins_cursor = 0;
  size_t ops = 0;
  util::Timer total;
  for (size_t u = 0; u < units; ++u) {
    const bool is_get = static_cast<int>(u % 2) < get_units_of_2;
    util::Timer t;
    if (is_get) {
      const K* keys = streams.gets.data() + get_cursor;
      if (batched) {
        index->MultiGet(keys, batch, vals.data(), flags.get());
      } else {
        for (size_t i = 0; i < batch; ++i) index->Get(keys[i], &vals[0]);
      }
      get_cursor += batch;
    } else {
      const K* keys = streams.inserts.data() + ins_cursor;
      if (batched) {
        index->MultiInsert(keys, keys, batch, flags.get());
      } else {
        for (size_t i = 0; i < batch; ++i) index->Insert(keys[i], keys[i]);
      }
      ins_cursor += batch;
    }
    unit_ns.Record(t.ElapsedNanos());
    ops += batch;
  }
  CellResult r;
  r.mops = static_cast<double>(ops) / total.ElapsedSeconds() / 1e6;
  r.p50_us = unit_ns.Percentile(0.5) / 1000;
  r.p99_us = unit_ns.Percentile(0.99) / 1000;
  return r;
}

std::vector<K> PreloadKeys(size_t preload) {
  std::vector<K> keys(preload);
  for (size_t i = 0; i < preload; ++i) keys[i] = static_cast<K>(2 * i);
  return keys;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  const size_t preload =
      bench::ScaledKeys(bench::g_quick_mode ? 200000 : 1000000);
  const size_t total_ops = bench::g_quick_mode ? 131072 : 2097152;
  const size_t batches[] = {16, 64, 256, 1024};
  struct Mix {
    const char* name;
    int get_units_of_2;  // get work units per 2 units (2=all, 1=half, 0=none)
  };
  const Mix mixes[] = {{"get", 2}, {"mixed", 1}, {"insert", 0}};

  std::printf("Batch ops sweep: %zu preloaded keys, %zu ops/cell, "
              "single-threaded\n",
              preload, total_ops);
  bench::PrintRule("batched Multi* vs scalar loop, per index/mix/batch");
  std::printf(
      "| index | mix | batch | scalar Mops | batched Mops | speedup "
      "| scalar p99(us) | batched p99(us) |\n|---|---|---|---|---|---|---|---|\n");

  bench::ResultSink sink;
  double headline_ratio = 0.0;
  const std::vector<K> keys = PreloadKeys(preload);
  const std::vector<P> payloads(keys.begin(), keys.end());

  for (int which = 0; which < 2; ++which) {
    const char* index_name =
        which == 0 ? "lock-free ConcurrentAlex" : "ShardedAlex";
    for (const Mix& mix : mixes) {
      for (const size_t batch : batches) {
        const Streams streams = MakeStreams(preload, total_ops, batch);
        CellResult scalar, batched;
        for (int mode = 0; mode < 2; ++mode) {
          CellResult r;
          if (which == 0) {
            core::ConcurrentAlex<K, P> index;
            index.BulkLoad(keys.data(), payloads.data(), keys.size());
            r = RunCell(&index, streams, total_ops, batch,
                        mix.get_units_of_2, mode == 1);
          } else {
            shard::ShardedAlex<K, P> index;
            index.BulkLoad(keys.data(), payloads.data(), keys.size());
            r = RunCell(&index, streams, total_ops, batch,
                        mix.get_units_of_2, mode == 1);
          }
          (mode == 0 ? scalar : batched) = r;
        }
        const double speedup =
            scalar.mops > 0.0 ? batched.mops / scalar.mops : 0.0;
        if (which == 0 && mix.get_units_of_2 == 2 &&
            batch == batches[3]) {
          headline_ratio = speedup;
        }
        std::printf("| %s | %s | %zu | %.3f | %.3f | %.2fx | %llu | %llu |\n",
                    index_name, mix.name, batch, scalar.mops, batched.mops,
                    speedup,
                    static_cast<unsigned long long>(scalar.p99_us),
                    static_cast<unsigned long long>(batched.p99_us));
        sink.Add({{"bench", "batch_ops"},
                  {"index", index_name},
                  {"mix", mix.name},
                  {"batch", bench::ResultSink::Num(
                                static_cast<double>(batch))},
                  {"scalar_mops", bench::ResultSink::Num(scalar.mops)},
                  {"batched_mops", bench::ResultSink::Num(batched.mops)},
                  {"speedup", bench::ResultSink::Num(speedup)},
                  {"scalar_p50_us", bench::ResultSink::Num(
                                        static_cast<double>(scalar.p50_us))},
                  {"scalar_p99_us", bench::ResultSink::Num(
                                        static_cast<double>(scalar.p99_us))},
                  {"batched_p50_us",
                   bench::ResultSink::Num(
                       static_cast<double>(batched.p50_us))},
                  {"batched_p99_us",
                   bench::ResultSink::Num(
                       static_cast<double>(batched.p99_us))}});
      }
    }
  }
  std::printf("\nheadline: batched MultiGet vs scalar Get loop "
              "(ConcurrentAlex, batch %zu): %.2fx (target >= 1.3x)\n",
              batches[3], headline_ratio);
  sink.Add({{"bench", "batch_ops"},
            {"index", "headline"},
            {"mix", "get"},
            {"batch", bench::ResultSink::Num(
                          static_cast<double>(batches[3]))},
            {"speedup", bench::ResultSink::Num(headline_ratio)}});
  sink.Flush();
  return 0;
}
