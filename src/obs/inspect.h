// Structural introspection types and the Chrome-trace exporter.
//
// Metrics answer "how fast"; the journal answers "what happened"; this
// header answers "what does the structure look like right now". The core
// index (ConcurrentAlex::CollectStructure) fills a TreeStructure per
// shard under an epoch guard; ShardedAlex::Inspect() merges them into a
// StructureReport with per-shard and whole-index fill factor, gap
// density, depth distribution, model max-error distribution, and leaf
// chain length — the structural quantities the ALEX paper's cost model
// reasons about, exported as JSON so an operator (or a future network
// front-end) can see whether the RMI has degenerated without attaching a
// debugger.
//
// The Chrome-trace exporter serializes the slow-op ring and the event
// journal into the chrome://tracing / Perfetto JSON event format: slow
// ops become duration ("X") events laid out per shard, journal records
// become instant ("i") events — both on the same TicksToNs timeline, so
// "the p99 spike started right after the shard-3 split" is visible by
// scrolling.
//
// This header is deliberately core-agnostic: pure data + JSON over
// obs/metrics.h and obs/journal.h, no index includes.
#pragma once

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/journal.h"
#include "obs/metrics.h"
#include "util/histogram.h"

namespace alex::obs {

// ---------------------------------------------------------------------------
// Structure reports.

/// Structural stats for one tree (or, merged, a whole sharded index).
struct TreeStructure {
  uint64_t inner_count = 0;
  uint64_t leaf_count = 0;
  uint64_t retired_seen = 0;  // retired leaves skipped during the walk
  uint64_t min_depth = 0;     // leaf depth; root-only tree = 0
  uint64_t max_depth = 0;
  uint64_t depth_sum = 0;     // over leaves, for avg_depth()
  uint64_t keys = 0;
  uint64_t capacity = 0;      // gapped-array slots across leaves
  uint64_t chain_length = 0;  // leaves reached via next-leaf pointers
  uint64_t unbounded_leaves = 0;  // model-less (cold-start) leaves
  util::Log2Histogram model_error;  // exact max |slot - prediction| per
                                    // model leaf

  double fill_factor() const {
    return capacity > 0
               ? static_cast<double>(keys) / static_cast<double>(capacity)
               : 0.0;
  }
  double gap_density() const {
    return capacity > 0 ? 1.0 - fill_factor() : 0.0;
  }
  double avg_depth() const {
    return leaf_count > 0 ? static_cast<double>(depth_sum) /
                                static_cast<double>(leaf_count)
                          : 0.0;
  }

  void Merge(const TreeStructure& other) {
    if (other.leaf_count > 0) {
      min_depth = leaf_count > 0 ? std::min(min_depth, other.min_depth)
                                 : other.min_depth;
      max_depth = std::max(max_depth, other.max_depth);
    }
    inner_count += other.inner_count;
    leaf_count += other.leaf_count;
    retired_seen += other.retired_seen;
    depth_sum += other.depth_sum;
    keys += other.keys;
    capacity += other.capacity;
    chain_length += other.chain_length;
    unbounded_leaves += other.unbounded_leaves;
    model_error.Merge(other.model_error);
  }

  std::string ToJson() const {
    return "{\"inner_count\": " + std::to_string(inner_count) +
           ", \"leaf_count\": " + std::to_string(leaf_count) +
           ", \"retired_seen\": " + std::to_string(retired_seen) +
           ", \"min_depth\": " + std::to_string(min_depth) +
           ", \"max_depth\": " + std::to_string(max_depth) +
           ", \"avg_depth\": " + std::to_string(avg_depth()) +
           ", \"keys\": " + std::to_string(keys) +
           ", \"capacity\": " + std::to_string(capacity) +
           ", \"fill_factor\": " + std::to_string(fill_factor()) +
           ", \"gap_density\": " + std::to_string(gap_density()) +
           ", \"chain_length\": " + std::to_string(chain_length) +
           ", \"unbounded_leaves\": " + std::to_string(unbounded_leaves) +
           ", \"model_error\": {\"count\": " +
           std::to_string(model_error.Count()) +
           ", \"p50\": " + std::to_string(model_error.Quantile(0.50)) +
           ", \"p99\": " + std::to_string(model_error.Quantile(0.99)) +
           ", \"max\": " + std::to_string(model_error.Max()) + "}}";
  }
};

struct ShardStructure {
  uint32_t shard = 0;
  /// Cold shards (tier/segment.h) keep an empty tree; their contents
  /// live in an mmap-backed segment plus a small delta overlay.
  bool cold = false;
  TreeStructure tree;
};

/// The whole sharded index, one entry per live shard plus the merged
/// totals, stamped with the topology epoch the walk observed.
struct StructureReport {
  uint64_t topology_epoch = 0;
  std::vector<ShardStructure> shards;
  TreeStructure total;

  std::string ToJson() const {
    std::string out =
        "{\"topology_epoch\": " + std::to_string(topology_epoch) +
        ", \"num_shards\": " + std::to_string(shards.size()) +
        ", \"shards\": [";
    for (size_t i = 0; i < shards.size(); ++i) {
      if (i > 0) out += ", ";
      out += "{\"shard\": " + std::to_string(shards[i].shard) +
             ", \"tree\": " + shards[i].tree.ToJson() + "}";
    }
    out += "], \"total\": " + total.ToJson() + "}";
    return out;
  }
};

// ---------------------------------------------------------------------------
// Chrome-trace export.

/// The slow-op ring and the event journal as one chrome://tracing /
/// Perfetto JSON document. Slow ops are duration ("X") events placed on
/// a per-shard track (tid = shard; cross-shard ops land on tid 0 under a
/// distinct name suffix); journal records are instant ("i") events with
/// global scope. Both use the shared TicksToNs timeline, microseconds.
inline std::string ChromeTraceJson() {
  char buf[256];
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (const SlowOpRecord& rec : MetricsRegistry::Global().slow_ops().Snapshot()) {
    if (!first) out += ",";
    first = false;
    const bool cross = rec.shard == kShardAll;
    const double dur_us = static_cast<double>(rec.duration_ns) / 1e3;
    const double start_us =
        rec.ts_ns > rec.duration_ns
            ? static_cast<double>(rec.ts_ns - rec.duration_ns) / 1e3
            : 0.0;
    std::snprintf(buf, sizeof(buf),
                  "\n{\"name\": \"%s%s\", \"cat\": \"slow_op\", \"ph\": \"X\""
                  ", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u",
                  OpName(rec.op), cross ? " (cross-shard)" : "", start_us,
                  dur_us, cross ? 0u : rec.shard);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  ", \"args\": {\"descent_retries\": %u, \"probe_retries\": %u"
                  ", \"leaf_splits\": %u, \"wal_wait_ns\": %" PRIu64 "}}",
                  rec.descent_retries, rec.probe_retries, rec.leaf_splits,
                  rec.wal_wait_ns);
    out += buf;
  }
  for (const JournalEvent& e : GlobalJournal().Snapshot()) {
    if (!first) out += ",";
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "\n{\"name\": \"%s\", \"cat\": \"journal\", \"ph\": \"i\""
                  ", \"s\": \"g\", \"ts\": %.3f, \"pid\": 1, \"tid\": 0",
                  EventName(e.type),
                  static_cast<double>(e.ts_ns) / 1e3);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  ", \"args\": {\"shard\": %u, \"wal_id\": %" PRIu64
                  ", \"lsn\": %" PRIu64 ", \"a\": %" PRId64 ", \"b\": %" PRId64
                  "}}",
                  e.shard, e.wal_id, e.lsn, e.a, e.b);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

/// Writes ChromeTraceJson() to `path`. Returns false when the file cannot
/// be opened or fully written.
inline bool WriteChromeTrace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = ChromeTraceJson();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace alex::obs
