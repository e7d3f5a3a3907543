// On-disk manifest for a sharded checkpoint.
//
// A ShardedAlex checkpoint is one tier/segment.h file per shard plus this
// manifest, which records the routing state needed to reassemble the
// index: the boundary array (the router is a search over it, nothing
// more) and the per-shard key counts (so a load can detect a segment file
// that was swapped or rebuilt independently of its manifest).
//
// Layout (format v7): ManifestHeader, boundaries (num_shards-1 keys),
// per-shard key counts (num_shards uint64s), per-shard WAL ids and
// checkpoint LSNs (num_shards uint64s each; all zero when the WAL is
// disabled), per-shard tier tags and segment ids (num_shards uint64s
// each; every shard's contents live in its .seg-<id> file, and the tag
// says what recovery builds from it: 0 = a resident tree bulk-loaded
// from the segment, 1 = a cold shard serving the segment in place), the
// next segment id to allocate (one uint64), then a trailing
// util::Checksum64 digest over everything before it, in one pass. Only v7
// loads: v3/v4 manifests name per-shard snapshot files that no reader
// understands any more, v5 has the v6 layout under the FNV-1a checksum
// v6 replaced, and v6 carries the two router-model doubles v7 dropped
// from the header, so all of them fail with kBadVersion.
// The WAL fields make the manifest the checkpoint record: shard i's
// segment captures exactly the effects of its log's records up to
// checkpoint_lsns[i], so recovery replays only what came after —
// per shard: the boundary array plus the per-shard wal lineage anchors
// are what let LoadFrom rebuild each shard independently with the exact
// pre-crash boundaries (boundary-preserving recovery) instead of
// repartitioning a merged map. The header also records the topology
// epoch (how many topology transactions — splits, merges, rebalances —
// the index has committed), so the counter survives restarts. Reading
// validates magic, version, key size, the declared lengths against the
// actual file size, and the checksum — each failure maps to a distinct
// core::SnapshotStatus.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "core/serialization.h"
#include "util/checksum.h"

namespace alex::shard {

namespace internal {

// "ALEXSHRD" in ASCII.
inline constexpr uint64_t kManifestMagic = 0x414C455853485244ULL;
// Version 2 added the per-shard WAL ids and checkpoint LSNs; version 3
// added the topology epoch and the boundary-preserving-recovery
// contract (each shard file + wal lineage replays independently);
// version 4 added the per-shard tier tags + cold segment ids and the
// next-segment-id watermark; version 5 gives every shard a segment (the
// only durable shard format); version 6 replaced FNV-1a with
// util::Checksum64 (same layout); version 7 dropped the router model's
// slope and intercept from the header. Readers accept v7 alone.
inline constexpr uint32_t kManifestVersion = 7;

/// Tier tag values stored in ShardManifest::tier_tags.
inline constexpr uint64_t kTierResident = 0;
inline constexpr uint64_t kTierCold = 1;

}  // namespace internal

/// Fixed manifest header.
struct ManifestHeader {
  uint64_t magic = 0;
  uint32_t version = 0;
  uint32_t key_size = 0;
  uint64_t num_shards = 0;
  uint64_t total_keys = 0;
  // Checkpoint counter: one more than the manifest this one replaced.
  uint64_t generation = 0;
  // Lower bound on the next WAL id a recovered index may allocate (the
  // directory scan can only raise it); 0 when the WAL is disabled.
  uint64_t next_wal_id = 0;
  // Topology transactions (splits, merges, rebalances) committed over
  // the index's lifetime; restored by LoadFrom so the epoch is monotone
  // across restarts.
  uint64_t topology_epoch = 0;
};

/// In-memory manifest contents.
template <typename K>
struct ShardManifest {
  std::vector<K> boundaries;         ///< num_shards - 1 shard lower bounds
  std::vector<uint64_t> shard_keys;  ///< key count per shard
  /// Per-shard WAL id (0 = shard is not logging) and the LSN up to which
  /// that log's effects are captured by this checkpoint. Either empty (WAL
  /// never enabled) or exactly num_shards long.
  std::vector<uint64_t> wal_ids;
  std::vector<uint64_t> checkpoint_lsns;
  /// Per-shard storage tier (internal::kTierResident / kTierCold) and the
  /// id of the segment file holding the shard's records. Either empty
  /// (in memory only: written as all-resident, segment id 0) or exactly
  /// num_shards long.
  std::vector<uint64_t> tier_tags;
  std::vector<uint64_t> segment_ids;
  uint64_t generation = 0;
  uint64_t next_wal_id = 0;
  uint64_t topology_epoch = 0;
  /// Lower bound on the next segment id to allocate (the directory scan
  /// can only raise it).
  uint64_t next_segment_id = 0;

  size_t num_shards() const { return shard_keys.size(); }
  bool IsCold(size_t shard) const {
    return shard < tier_tags.size() &&
           tier_tags[shard] == internal::kTierCold;
  }
  uint64_t total_keys() const {
    uint64_t total = 0;
    for (const uint64_t n : shard_keys) total += n;
    return total;
  }
};

namespace internal {

/// Appends the raw bytes of `n` elements at `data` to `out`.
template <typename T>
void AppendBytes(std::vector<uint8_t>* out, const T* data, size_t n) {
  const auto* bytes = reinterpret_cast<const uint8_t*>(data);
  out->insert(out->end(), bytes, bytes + n * sizeof(T));
}

/// Copies `n` elements out of `*at` and advances it past them.
template <typename T>
void TakeBytes(const uint8_t** at, std::vector<T>* out, size_t n) {
  out->resize(n);
  if (n > 0) std::memcpy(out->data(), *at, n * sizeof(T));
  *at += n * sizeof(T);
}

}  // namespace internal

template <typename K>
core::SnapshotStatus WriteManifest(const std::string& path,
                                   const ShardManifest<K>& manifest) {
  static_assert(std::is_trivially_copyable_v<K>,
                "keys must be trivially copyable");
  ManifestHeader header;
  header.magic = internal::kManifestMagic;
  header.version = internal::kManifestVersion;
  header.key_size = sizeof(K);
  header.num_shards = manifest.num_shards();
  header.total_keys = manifest.total_keys();
  header.generation = manifest.generation;
  header.next_wal_id = manifest.next_wal_id;
  header.topology_epoch = manifest.topology_epoch;

  // The WAL arrays are optional in memory (an index that never enabled
  // the WAL leaves them empty) but fixed-size on disk: pad with zeros.
  std::vector<uint64_t> wal_ids = manifest.wal_ids;
  std::vector<uint64_t> checkpoint_lsns = manifest.checkpoint_lsns;
  wal_ids.resize(manifest.num_shards(), 0);
  checkpoint_lsns.resize(manifest.num_shards(), 0);
  // Likewise the tier arrays: empty in memory means all-resident.
  std::vector<uint64_t> tier_tags = manifest.tier_tags;
  std::vector<uint64_t> segment_ids = manifest.segment_ids;
  tier_tags.resize(manifest.num_shards(), internal::kTierResident);
  segment_ids.resize(manifest.num_shards(), 0);

  // The file image, header through next_segment_id, then its checksum.
  std::vector<uint8_t> image;
  internal::AppendBytes(&image, &header, 1);
  internal::AppendBytes(&image, manifest.boundaries.data(),
                        manifest.boundaries.size());
  internal::AppendBytes(&image, manifest.shard_keys.data(),
                        manifest.shard_keys.size());
  internal::AppendBytes(&image, wal_ids.data(), wal_ids.size());
  internal::AppendBytes(&image, checkpoint_lsns.data(),
                        checkpoint_lsns.size());
  internal::AppendBytes(&image, tier_tags.data(), tier_tags.size());
  internal::AppendBytes(&image, segment_ids.data(), segment_ids.size());
  internal::AppendBytes(&image, &manifest.next_segment_id, 1);
  const uint64_t checksum = util::Checksum64(image.data(), image.size(), 0);
  internal::AppendBytes(&image, &checksum, 1);

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return core::SnapshotStatus::kIoError;
  bool ok = std::fwrite(image.data(), 1, image.size(), f) == image.size();
  ok = std::fclose(f) == 0 && ok;
  return ok ? core::SnapshotStatus::kOk : core::SnapshotStatus::kIoError;
}

template <typename K>
core::SnapshotStatus ReadManifest(const std::string& path,
                                  ShardManifest<K>* out) {
  static_assert(std::is_trivially_copyable_v<K>,
                "keys must be trivially copyable");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return core::SnapshotStatus::kIoError;
  core::internal::FileCloser closer{f};
  if (std::fseek(f, 0, SEEK_END) != 0) {
    return core::SnapshotStatus::kIoError;
  }
  const long end = std::ftell(f);
  if (end < 0) return core::SnapshotStatus::kIoError;
  if (std::fseek(f, 0, SEEK_SET) != 0) {
    return core::SnapshotStatus::kIoError;
  }
  const uint64_t file_size = static_cast<uint64_t>(end);

  ManifestHeader header;
  if (std::fread(&header, sizeof(header), 1, f) != 1) {
    return core::SnapshotStatus::kTruncated;
  }
  if (header.magic != internal::kManifestMagic) {
    return core::SnapshotStatus::kBadMagic;
  }
  if (header.version != internal::kManifestVersion) {
    return core::SnapshotStatus::kBadVersion;
  }
  if (header.key_size != sizeof(K)) {
    return core::SnapshotStatus::kKeySizeMismatch;
  }
  if (header.num_shards == 0) return core::SnapshotStatus::kTruncated;
  // Validate the declared length against the file before allocating. The
  // division-based bound comes first so the exact byte count below cannot
  // overflow on a corrupt shard count.
  // The next-segment-id watermark and the checksum close the file.
  const uint64_t tail_bytes = 2 * sizeof(uint64_t);
  if (file_size < sizeof(header) + tail_bytes) {
    return core::SnapshotStatus::kTruncated;
  }
  const uint64_t body_budget = file_size - sizeof(header) - tail_bytes;
  // Per shard the body holds one boundary key (except the first shard)
  // plus per-shard uint64s: key count, wal id, checkpoint LSN, tier tag
  // and segment id.
  const uint64_t words_per_shard = 5;
  if (header.num_shards - 1 >
      body_budget / (sizeof(K) + words_per_shard * sizeof(uint64_t))) {
    return core::SnapshotStatus::kTruncated;
  }
  const uint64_t body_bytes =
      (header.num_shards - 1) * sizeof(K) +
      header.num_shards * words_per_shard * sizeof(uint64_t);
  if (body_budget < body_bytes) {
    return core::SnapshotStatus::kTruncated;
  }

  // The checksummed image is contiguous: header through next_segment_id.
  std::vector<uint8_t> image(sizeof(header) + body_bytes + tail_bytes);
  std::memcpy(image.data(), &header, sizeof(header));
  const size_t rest = image.size() - sizeof(header);
  if (std::fread(image.data() + sizeof(header), 1, rest, f) != rest) {
    return core::SnapshotStatus::kTruncated;
  }
  const size_t covered = image.size() - sizeof(uint64_t);
  uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, image.data() + covered,
              sizeof(stored_checksum));
  if (util::Checksum64(image.data(), covered, 0) != stored_checksum) {
    return core::SnapshotStatus::kChecksumMismatch;
  }
  const size_t n = header.num_shards;
  const uint8_t* at = image.data() + sizeof(header);
  internal::TakeBytes(&at, &out->boundaries, n - 1);
  internal::TakeBytes(&at, &out->shard_keys, n);
  internal::TakeBytes(&at, &out->wal_ids, n);
  internal::TakeBytes(&at, &out->checkpoint_lsns, n);
  internal::TakeBytes(&at, &out->tier_tags, n);
  internal::TakeBytes(&at, &out->segment_ids, n);
  uint64_t next_segment_id = 0;
  std::memcpy(&next_segment_id, at, sizeof(next_segment_id));
  if (header.total_keys != out->total_keys()) {
    return core::SnapshotStatus::kChecksumMismatch;
  }
  // Strictly increasing boundaries are the router's precondition (it
  // searches this array); a checksummed-but-malformed manifest from a
  // foreign writer must not misroute.
  for (size_t i = 1; i < out->boundaries.size(); ++i) {
    if (!(out->boundaries[i - 1] < out->boundaries[i])) {
      return core::SnapshotStatus::kUnsortedKeys;
    }
  }
  for (size_t i = 0; i < out->tier_tags.size(); ++i) {
    if (out->tier_tags[i] != internal::kTierResident &&
        out->tier_tags[i] != internal::kTierCold) {
      return core::SnapshotStatus::kManifestMismatch;
    }
  }
  out->generation = header.generation;
  out->next_wal_id = header.next_wal_id;
  out->topology_epoch = header.topology_epoch;
  out->next_segment_id = next_segment_id;
  return core::SnapshotStatus::kOk;
}

}  // namespace alex::shard
