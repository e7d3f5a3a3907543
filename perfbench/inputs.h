// Seeded inputs of the perf suite: the preloaded keys, one precomputed call
// stream per client, the keys the post-run checks expect, and the probe
// streams. Everything here is built before any timing starts, and the same
// seed always gives byte-identical inputs (input_digest proves it).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "datasets/dataset.h"
#include "util/random.h"
#include "util/zipf.h"

namespace perf {

using K = int64_t;
using P = int64_t;

/// Closed-loop clients per workload. Fixed (not derived from the host) so
/// that two machines or two commits run identical call streams.
constexpr size_t kClients = 4;

/// Keys per MultiGet, and per MultiInsert and MultiErase, in `analytics`.
constexpr size_t kReadBatch = 32;
constexpr size_t kWriteBatch = 16;

enum class Op : uint8_t {
  kGet,
  kInsert,
  kMultiGet,
  kScan,
  kAggregate,
  kMultiInsert,
  kMultiErase,
};

inline const char* OpName(Op op) {
  switch (op) {
    case Op::kGet: return "get";
    case Op::kInsert: return "insert";
    case Op::kMultiGet: return "multi_get";
    case Op::kScan: return "scan";
    case Op::kAggregate: return "aggregate";
    case Op::kMultiInsert: return "multi_insert";
    case Op::kMultiErase: return "multi_erase";
  }
  return "?";
}

/// Latency class of a call: the end-to-end read_* and write_* metrics are
/// percentiles over one class, so each must hold one call shape.
enum class OpClass : uint8_t { kRead, kWrite, kOther };

inline OpClass ClassOf(Op op) {
  switch (op) {
    case Op::kGet:
    case Op::kMultiGet:
      return OpClass::kRead;
    case Op::kInsert:
    case Op::kMultiInsert:
      return OpClass::kWrite;
    default:
      return OpClass::kOther;
  }
}

/// One precomputed call. Point ops carry the key in `a` and the payload in
/// `b`; batched ops carry the offset of their keys in the client's pool in
/// `a` and the batch length in `len`; range ops carry [a, b] and, in
/// `expect`, how many never-written preloaded keys lie inside.
struct Call {
  K a = 0;
  K b = 0;
  uint32_t expect = 0;
  uint16_t len = 0;
  Op op = Op::kGet;
};

/// Payload of a key, so that every read can check what it got back.
inline P PayloadOf(K key) {
  uint64_t x = static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL;
  return static_cast<P>(x ^ (x >> 29));
}

/// FNV-1a over raw bytes.
class Digest {
 public:
  template <typename T>
  void Add(const T& value) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
    for (size_t i = 0; i < sizeof(T); ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void AddAll(const std::vector<T>& values) {
    for (const T& v : values) Add(v);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Static description of one workload at full scale.
struct Spec {
  std::string name;
  alex::data::DatasetId dataset;
  size_t preload;         // keys bulk-loaded by every setup
  size_t calls;           // calls per client per round
  /// Point mixes: every insert_every-th call inserts a fresh key and the
  /// others Get preloaded keys. 0 selects the batch and range cycle.
  size_t insert_every;
  /// Gets draw Zipf(0.99) ranks directly (rank 0 = smallest key) instead
  /// of scrambling them over the key space.
  bool zipf_by_rank;
  size_t shards;          // ShardedOptions::num_shards
  size_t max_shard_keys;  // 0 keeps the library default
  bool wal;               // EnableWal during setup
  size_t cold_from;       // shards [cold_from, shards) demoted; 0 = none
  size_t probe_reads;     // single-thread probe stream length
  size_t probe_inserts;   // keys of the insert/WAL probe
};

struct ClientInput {
  std::vector<Call> calls;
  std::vector<K> pool;  // keys of batched calls
  std::vector<P> pool_payloads;
};

struct Inputs {
  std::vector<K> preload;  // sorted
  std::vector<P> payloads;
  /// Sorted preloaded keys no call writes; ranges are built over them.
  std::vector<K> stable;
  /// Sorted keys a call may insert; bounds what a range may see beyond
  /// `expect`.
  std::vector<K> insertable;
  std::vector<ClientInput> clients;
  std::vector<K> warmup;  // untimed Gets before each round
  /// After every round each key must read back its payload ...
  std::vector<std::pair<K, P>> must_have;
  /// ... and each of these must be absent.
  std::vector<K> must_not_have;
  /// size() after a round: preload + inserts - erases.
  size_t expected_size = 0;
  std::vector<K> probe_reads;
  std::vector<K> probe_inserts;  // distinct from every other key
  uint64_t digest = 0;
};

inline uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ULL;
  return x ^ (x >> 29);
}

/// `n` distinct keys in generation (random) order. Longitudes become OSM
/// fixed point (round(deg * 1e7)) and lose the rare rounding duplicates.
inline std::vector<K> DistinctKeys(alex::data::DatasetId id, size_t n,
                                   uint64_t seed) {
  const bool fixed_point = id == alex::data::DatasetId::kLongitudes;
  alex::data::DatasetOptions options;
  options.seed = seed;
  const std::vector<double> raw =
      alex::data::GenerateKeys(id, fixed_point ? n + n / 64 + 64 : n, options);
  std::vector<K> keys;
  keys.reserve(raw.size());
  for (const double d : raw) {
    keys.push_back(fixed_point ? static_cast<K>(std::llround(d * 1e7))
                               : static_cast<K>(d));
  }
  if (fixed_point) {
    std::vector<K> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    std::unordered_set<K> dups;
    for (size_t i = 1; i < sorted.size(); ++i) {
      if (sorted[i] == sorted[i - 1]) dups.insert(sorted[i]);
    }
    std::unordered_set<K> kept;
    std::vector<K> unique;
    unique.reserve(n);
    for (const K k : keys) {
      if (dups.count(k) != 0 && !kept.insert(k).second) continue;
      unique.push_back(k);
    }
    keys = std::move(unique);
  }
  keys.resize(std::min(keys.size(), n));
  return keys;
}

/// A range call over the keys of `sorted` with ranks [rank_lo, rank_hi].
inline Call RangeCall(Op op, const std::vector<K>& sorted, size_t rank_lo,
                      size_t rank_hi) {
  Call c;
  c.op = op;
  c.a = sorted[rank_lo];
  c.b = sorted[rank_hi];
  c.expect = static_cast<uint32_t>(rank_hi - rank_lo + 1);
  return c;
}

/// Builds every input of `spec` from `seed`. Leaves `preload` empty when
/// the dataset cannot supply enough distinct keys.
inline Inputs MakeInputs(const Spec& spec, size_t workload_index,
                         uint64_t seed) {
  using alex::util::Xoshiro256;
  Inputs in;
  const size_t n = spec.preload;
  const size_t calls = spec.calls;
  const uint64_t base_seed = Mix(seed, workload_index);

  // Keys written by the call streams, per client. The batch cycle inserts
  // one batch per cycle plus the batch preloaded for the first erase.
  constexpr size_t kCycle = 20;
  const size_t cycles = calls / kCycle;
  const size_t writes_per_client = spec.insert_every > 0
                                       ? calls / spec.insert_every
                                       : (cycles + 1) * kWriteBatch;
  const size_t held_out = writes_per_client * kClients;

  // With cold shards, fresh keys come only from the resident shards' key
  // range: new data is written where the hot data lives, and the cold
  // shards take reads alone. That layout is the one the library's tiering
  // policy leaves as it is (tier.policy_transitions shows it). Over half of
  // the drawn keys are skipped.
  const size_t drawn = n + (spec.cold_from > 0 ? 4 : 1) * held_out;
  std::vector<K> keys =
      DistinctKeys(spec.dataset, drawn + spec.probe_inserts, Mix(base_seed, 1));
  if (keys.size() < drawn + spec.probe_inserts) return in;  // short dataset
  std::vector<K> stable(keys.begin(), keys.begin() + n);
  std::sort(stable.begin(), stable.end());
  const K cold_lo = spec.cold_from > 0
                        ? stable[n * spec.cold_from / spec.shards]
                        : std::numeric_limits<K>::max();
  std::vector<std::vector<K>> written(kClients);
  size_t taken = 0;
  for (size_t i = n; i < drawn && taken < held_out; ++i) {
    if (keys[i] >= cold_lo) continue;
    written[taken / writes_per_client].push_back(keys[i]);
    ++taken;
  }
  if (taken < held_out) return in;
  in.probe_inserts.assign(keys.begin() + drawn, keys.end());
  keys.clear();
  keys.shrink_to_fit();

  in.preload = stable;
  for (size_t c = 0; c < kClients; ++c) {
    in.insertable.insert(in.insertable.end(), written[c].begin(),
                         written[c].end());
  }
  std::sort(in.insertable.begin(), in.insertable.end());

  // The Zipf constructor is O(n): build each generator once, copy per
  // client.
  const alex::util::ScrambledZipfGenerator scrambled(n, 0.99);
  const alex::util::ZipfGenerator by_rank(n, 0.99);
  in.clients.resize(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    ClientInput& ci = in.clients[c];
    Xoshiro256 rng(Mix(base_seed, 100 + c));
    alex::util::ScrambledZipfGenerator zipf = scrambled;
    alex::util::ZipfGenerator rank_zipf = by_rank;
    const std::vector<K>& mine = written[c];
    ci.calls.reserve(calls);
    if (spec.insert_every > 0) {
      size_t next = 0;
      for (size_t i = 0; i < calls; ++i) {
        Call call;
        if (i % spec.insert_every == spec.insert_every - 1) {
          call.op = Op::kInsert;
          call.a = mine[next++];
          call.b = PayloadOf(call.a);
          in.must_have.emplace_back(call.a, call.b);
        } else {
          call.op = Op::kGet;
          call.a = stable[spec.zipf_by_rank ? rank_zipf.Next(rng)
                                            : zipf.Next(rng)];
        }
        ci.calls.push_back(call);
      }
    } else {
      // Cycles of 20: 10 MultiGet(32), 7 Scan(<=100 keys), 1 count-only
      // Aggregate over 1% of the keys, 1 MultiInsert(16) of a fresh batch,
      // 1 MultiErase(16) of the batch inserted one cycle earlier (batch 0
      // is preloaded), so the size stays constant.
      const size_t agg_span = std::max<size_t>(2, n / 100);
      auto batch_call = [&](Op op, const K* batch_keys, size_t len,
                            bool with_payloads) {
        Call call;
        call.op = op;
        call.a = static_cast<K>(ci.pool.size());
        call.len = static_cast<uint16_t>(len);
        for (size_t k = 0; k < len; ++k) {
          ci.pool.push_back(batch_keys[k]);
          ci.pool_payloads.push_back(with_payloads ? PayloadOf(batch_keys[k])
                                                   : 0);
        }
        ci.calls.push_back(call);
      };
      K batch[kReadBatch];
      for (size_t cycle = 0; cycle < cycles; ++cycle) {
        for (int j = 0; j < 10; ++j) {
          for (K& k : batch) k = stable[zipf.Next(rng)];
          batch_call(Op::kMultiGet, batch, kReadBatch, false);
        }
        for (int j = 0; j < 7; ++j) {
          const size_t lo = zipf.Next(rng);
          const size_t hi = std::min(n - 1, lo + rng.NextUint64(100));
          ci.calls.push_back(RangeCall(Op::kScan, stable, lo, hi));
        }
        const size_t lo = rng.NextUint64(n - agg_span + 1);
        ci.calls.push_back(
            RangeCall(Op::kAggregate, stable, lo, lo + agg_span - 1));
        batch_call(Op::kMultiInsert, &mine[(cycle + 1) * kWriteBatch],
                   kWriteBatch, true);
        batch_call(Op::kMultiErase, &mine[cycle * kWriteBatch], kWriteBatch,
                   false);
        for (size_t k = 0; k < kWriteBatch; ++k) {
          in.must_not_have.push_back(mine[cycle * kWriteBatch + k]);
        }
      }
      for (size_t k = 0; k < kWriteBatch; ++k) {
        const K key = mine[cycles * kWriteBatch + k];
        in.must_have.emplace_back(key, PayloadOf(key));
        in.preload.push_back(mine[k]);  // batch 0, erased by cycle 0
      }
    }
  }
  std::sort(in.preload.begin(), in.preload.end());
  in.payloads.reserve(in.preload.size());
  for (const K k : in.preload) in.payloads.push_back(PayloadOf(k));
  size_t inserts = 0;
  size_t erases = 0;
  for (const ClientInput& ci : in.clients) {
    for (const Call& call : ci.calls) {
      if (call.op == Op::kInsert) ++inserts;
      if (call.op == Op::kMultiInsert) inserts += call.len;
      if (call.op == Op::kMultiErase) erases += call.len;
    }
  }
  in.expected_size = in.preload.size() + inserts - erases;
  in.stable = std::move(stable);

  // Untimed warm-up: one sweep over the key space, so that the pages of a
  // fresh index or segment mapping are touched before timing, then reads
  // that follow the workload's own distribution, as does the probe stream.
  Xoshiro256 rng(Mix(base_seed, 7));
  alex::util::ScrambledZipfGenerator zipf = scrambled;
  alex::util::ZipfGenerator rank_zipf = by_rank;
  auto draw = [&] {
    return in.stable[spec.zipf_by_rank ? rank_zipf.Next(rng) : zipf.Next(rng)];
  };
  for (size_t i = 0; i < n; i += 64) in.warmup.push_back(in.stable[i]);
  for (size_t i = 0; i < std::min<size_t>(n, calls / 4); ++i) {
    in.warmup.push_back(draw());
  }
  in.probe_reads.resize(spec.probe_reads);
  for (K& k : in.probe_reads) k = draw();

  Digest digest;
  digest.AddAll(in.preload);
  for (const ClientInput& ci : in.clients) {
    for (const Call& call : ci.calls) {
      digest.Add(call.a);
      digest.Add(call.b);
      digest.Add(call.expect);
      digest.Add(call.len);
      digest.Add(call.op);
    }
    digest.AddAll(ci.pool);
  }
  digest.AddAll(in.warmup);
  digest.AddAll(in.probe_reads);
  digest.AddAll(in.probe_inserts);
  in.digest = digest.value();
  return in;
}

}  // namespace perf
