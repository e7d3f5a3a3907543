// On-disk format of the write-ahead log (src/wal/).
//
// A shard's log is a sequence of *segment* files. Each segment starts
// with a checksummed fixed header identifying the log it belongs to (its
// wal id), its position in that log (a rotation sequence number and the
// LSN the log had when the segment was opened), and the lineage link used
// by recovery after a shard split (the parent wal id). After the header
// come back-to-back records: a fixed header (checksum, LSN, type, body
// length) followed by a type-determined body (key, and for Insert/Update
// the payload). Every checksum is util::Checksum64. LSNs are per-shard
// and contiguous, so a reader can detect any dropped or reordered record.
//
// Wal ids are allocated from one monotonic counter, and a shard created
// by a topology transaction (split, merge, rebalance) always has a
// larger id than its (sealed) parents — so replaying logs in ascending
// wal-id order is automatically parent-before-child, which is the only
// cross-log ordering recovery needs (different lineages own disjoint key
// ranges at any instant, and a key's full history threads through logs
// of ascending id).
//
// Lineage is `(parents[] → child)`, not single-parent: a merge or a
// multi-shard rebalance gives one child several parents. The segment
// header's parent_wal_id carries the first parent (and fully describes a
// split child); when there is more than one parent — or whenever a
// topology transaction creates the log — the child's first record is a
// checksummed kTopology record whose body lists every parent wal id.
//
// Every way a log file can be unusable maps to a distinct WalStatus; the
// one *tolerated* defect is a torn tail (a crash mid-append), which the
// reader truncates at the last intact record. A log's last segment may
// also end in a zero-filled remainder: the writer preallocates segment
// space and trims it only when the segment closes (log_writer.h).
#pragma once

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "util/checksum.h"

namespace alex::wal {

/// Outcome of a WAL operation. Everything except kOk identifies one
/// specific failure; recovery surfaces the name (ToString/operator<<)
/// instead of a bare int.
enum class WalStatus {
  kOk,
  kIoError,              ///< open/write/sync failed (path, disk, perms)
  kBadMagic,             ///< not a WAL segment file at all
  kBadVersion,           ///< written by an incompatible format version
  kKeySizeMismatch,      ///< sizeof(K) differs from the writer's
  kPayloadSizeMismatch,  ///< sizeof(P) differs from the writer's
  kBadHeaderChecksum,    ///< segment header corrupted
  kBadRecordType,        ///< record type byte is not a known type
  kBadRecordLength,      ///< record body length is illegal for its type
  kChecksumMismatch,     ///< a record *before* the tail fails its checksum
  kOutOfOrderLsn,        ///< record LSNs are not contiguous ascending
  kSegmentGap,           ///< a rotation/checkpoint left an LSN hole
  kSealed,               ///< append attempted on a sealed log
  kAlreadyEnabled,       ///< EnableWal on an index already logging
  kCheckpointFailed,     ///< the anchor/auto checkpoint could not commit
};

inline const char* ToString(WalStatus status) {
  switch (status) {
    case WalStatus::kOk: return "ok";
    case WalStatus::kIoError: return "io-error";
    case WalStatus::kBadMagic: return "bad-magic";
    case WalStatus::kBadVersion: return "bad-version";
    case WalStatus::kKeySizeMismatch: return "key-size-mismatch";
    case WalStatus::kPayloadSizeMismatch: return "payload-size-mismatch";
    case WalStatus::kBadHeaderChecksum: return "bad-header-checksum";
    case WalStatus::kBadRecordType: return "bad-record-type";
    case WalStatus::kBadRecordLength: return "bad-record-length";
    case WalStatus::kChecksumMismatch: return "checksum-mismatch";
    case WalStatus::kOutOfOrderLsn: return "out-of-order-lsn";
    case WalStatus::kSegmentGap: return "segment-gap";
    case WalStatus::kSealed: return "sealed";
    case WalStatus::kAlreadyEnabled: return "already-enabled";
    case WalStatus::kCheckpointFailed: return "checkpoint-failed";
  }
  return "unknown";
}

inline std::ostream& operator<<(std::ostream& os, WalStatus status) {
  return os << ToString(status);
}

/// When an acknowledged write is durable.
enum class SyncPolicy {
  kNone,    ///< never fsync: the OS decides (fastest, weakest)
  kBatch,   ///< fsync at most once per batch_interval_us, piggybacked on
            ///< whichever group-commit flush crosses the interval
  kAlways,  ///< every acknowledged write is covered by an fsync; the
            ///< group-commit leader coalesces concurrent writers into one
};

inline const char* ToString(SyncPolicy policy) {
  switch (policy) {
    case SyncPolicy::kNone: return "none";
    case SyncPolicy::kBatch: return "batch";
    case SyncPolicy::kAlways: return "always";
  }
  return "unknown";
}

/// Tuning for a shard log.
struct WalOptions {
  SyncPolicy sync_policy = SyncPolicy::kBatch;
  /// kBatch only: minimum microseconds between fsyncs.
  uint64_t batch_interval_us = 2000;
  /// kBatch only: run a background clock thread that fsyncs on the
  /// interval even when no committer arrives, so an idle shard's
  /// acked-but-unsynced window is bounded by ~batch_interval_us instead
  /// of "until the next write". The thread is joined on Seal and
  /// destruction.
  bool background_sync = false;
};

/// What one record means on replay. The semantics mirror the index ops
/// exactly so that a logged-but-failed operation (e.g. a duplicate
/// insert) replays as the same no-op, and replay is idempotent.
enum class WalRecordType : uint32_t {
  kInsert = 1,    ///< insert-if-absent (body: key + payload)
  kUpdate = 2,    ///< overwrite-if-present (body: key + payload)
  kErase = 3,     ///< erase-if-present (body: key)
  kSeal = 4,      ///< log ends here by design (topology victim; no body)
  kTopology = 5,  ///< lineage: this log's parents[] (body: u64 count +
                  ///< count u64 parent wal ids); written as a topology
                  ///< child's first record, never replayed as data
};

/// Cap on the parents one topology record may list (a merge/rebalance
/// rarely has more than a handful of victims; the cap bounds the torn-
/// tail tolerance span in the reader).
inline constexpr size_t kMaxTopologyParents = 16;

/// Sentinel from WalBodyLen: the type's body length is variable and must
/// be validated with ValidTopologyBodyLen instead.
inline constexpr size_t kWalVariableBody = SIZE_MAX - 1;

/// Legal kTopology body: a u64 count followed by exactly count u64 ids,
/// 1 <= count <= kMaxTopologyParents.
inline constexpr bool ValidTopologyBodyLen(size_t body_len) {
  return body_len >= 2 * sizeof(uint64_t) &&
         body_len % sizeof(uint64_t) == 0 &&
         body_len / sizeof(uint64_t) - 1 <= kMaxTopologyParents;
}

namespace internal {

// "ALEXWALS" in ASCII.
inline constexpr uint64_t kWalMagic = 0x414C455857414C53ULL;
// Version 2 replaced FNV-1a with util::Checksum64 (same layout).
inline constexpr uint32_t kWalVersion = 2;

}  // namespace internal

/// Fixed segment-file header. `start_lsn` is the shard log's LSN when the
/// segment was opened: every record in the segment has lsn > start_lsn,
/// and recovery uses it to prove the remaining segments cover everything
/// after the checkpoint (no rotation hole).
struct WalSegmentHeader {
  uint64_t magic = 0;
  uint32_t version = 0;
  uint32_t key_size = 0;
  uint32_t payload_size = 0;
  uint32_t reserved = 0;
  uint64_t wal_id = 0;
  uint64_t parent_wal_id = 0;  ///< sealed log this shard split from; 0 = root
  uint64_t seq = 0;            ///< rotation sequence within the wal id
  uint64_t start_lsn = 0;
  uint64_t header_checksum = 0;  ///< Checksum64 over every field above
};

/// Fixed per-record header; the body (key, optional payload) follows.
/// `checksum` is Checksum64 over the record's bytes after itself (lsn,
/// type, body_len, body — contiguous on disk, hashed in one pass), so a
/// torn or corrupted record cannot replay.
struct WalRecordHeader {
  uint64_t checksum = 0;
  uint64_t lsn = 0;
  uint32_t type = 0;
  uint32_t body_len = 0;
};

/// Legal body length for a record type; kWalVariableBody for kTopology
/// (validate with ValidTopologyBodyLen); SIZE_MAX for an unknown type.
template <typename K, typename P>
constexpr size_t WalBodyLen(uint32_t type) {
  switch (static_cast<WalRecordType>(type)) {
    case WalRecordType::kInsert:
    case WalRecordType::kUpdate:
      return sizeof(K) + sizeof(P);
    case WalRecordType::kErase:
      return sizeof(K);
    case WalRecordType::kSeal:
      return 0;
    case WalRecordType::kTopology:
      return kWalVariableBody;
  }
  return SIZE_MAX;
}

/// Checksum of the encoded record at `record` whose body is `body_len`
/// bytes: every byte after the checksum field, lsn through the body.
inline uint64_t WalRecordChecksum(const uint8_t* record, uint32_t body_len) {
  constexpr size_t kFrom = offsetof(WalRecordHeader, lsn);
  return util::Checksum64(record + kFrom,
                          sizeof(WalRecordHeader) - kFrom + body_len, 0);
}

/// Checksum of a segment header (over every field before header_checksum).
inline uint64_t WalHeaderChecksum(const WalSegmentHeader& header) {
  return util::Checksum64(&header,
                          sizeof(WalSegmentHeader) - sizeof(uint64_t), 0);
}

/// On-disk bytes of one record of a fixed-body type (header + body).
template <typename K, typename P>
constexpr size_t WalRecordBytes(WalRecordType type) {
  return sizeof(WalRecordHeader) +
         WalBodyLen<K, P>(static_cast<uint32_t>(type));
}

/// On-disk bytes of one kTopology record listing `num_parents` parents.
inline constexpr size_t WalTopologyRecordBytes(size_t num_parents) {
  return sizeof(WalRecordHeader) + (1 + num_parents) * sizeof(uint64_t);
}

/// Fills in the checksum field of the record encoded at `out`.
inline void StampWalRecordChecksum(uint8_t* out, uint32_t body_len) {
  const uint64_t checksum = WalRecordChecksum(out, body_len);
  std::memcpy(out + offsetof(WalRecordHeader, checksum), &checksum,
              sizeof(checksum));
}

/// Encodes one fixed-body record (header + body) in place at `out`,
/// which must have room for WalRecordBytes<K, P>(type).
template <typename K, typename P>
void EncodeWalRecord(uint8_t* out, uint64_t lsn, WalRecordType type,
                     const K& key, const P* payload) {
  WalRecordHeader header;
  header.lsn = lsn;
  header.type = static_cast<uint32_t>(type);
  header.body_len = static_cast<uint32_t>(WalBodyLen<K, P>(header.type));
  std::memcpy(out, &header, sizeof(header));
  uint8_t* body = out + sizeof(header);
  if (header.body_len >= sizeof(K)) std::memcpy(body, &key, sizeof(K));
  if (header.body_len == sizeof(K) + sizeof(P)) {
    std::memcpy(body + sizeof(K), payload, sizeof(P));
  }
  StampWalRecordChecksum(out, header.body_len);
}

/// Encodes one kTopology record listing `parents` (at most
/// kMaxTopologyParents, at least one) in place at `out`, which must have
/// room for WalTopologyRecordBytes(parents.size()).
inline void EncodeWalTopologyRecord(uint8_t* out, uint64_t lsn,
                                    const std::vector<uint64_t>& parents) {
  WalRecordHeader header;
  header.lsn = lsn;
  header.type = static_cast<uint32_t>(WalRecordType::kTopology);
  header.body_len = static_cast<uint32_t>(
      WalTopologyRecordBytes(parents.size()) - sizeof(header));
  std::memcpy(out, &header, sizeof(header));
  const uint64_t count = parents.size();
  uint8_t* body = out + sizeof(header);
  std::memcpy(body, &count, sizeof(count));
  std::memcpy(body + sizeof(count), parents.data(),
              parents.size() * sizeof(uint64_t));
  StampWalRecordChecksum(out, header.body_len);
}

// ---- File naming ----

/// Splits a snapshot/WAL prefix into the directory to scan and the
/// filename stem every file of this prefix starts with.
inline void SplitPrefixPath(const std::string& prefix, std::string* dir,
                            std::string* base) {
  const size_t slash = prefix.find_last_of('/');
  if (slash == std::string::npos) {
    *dir = ".";
    *base = prefix;
  } else {
    *dir = prefix.substr(0, slash);
    *base = prefix.substr(slash + 1);
  }
}

/// Path of segment `seq` of log `wal_id` under `prefix`.
inline std::string WalSegmentPath(const std::string& prefix,
                                  uint64_t wal_id, uint64_t seq) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), ".wal-%06llu-%06llu",
                static_cast<unsigned long long>(wal_id),
                static_cast<unsigned long long>(seq));
  return prefix + buf;
}

/// Inverse of WalSegmentPath over a bare filename. Returns false when
/// `name` is not a WAL segment of the prefix whose stem is `base`.
inline bool ParseWalSegmentName(const std::string& name,
                                const std::string& base, uint64_t* wal_id,
                                uint64_t* seq) {
  const std::string marker = base + ".wal-";
  if (name.size() <= marker.size() ||
      name.compare(0, marker.size(), marker) != 0) {
    return false;
  }
  unsigned long long id = 0, s = 0;
  int consumed = 0;
  const char* tail = name.c_str() + marker.size();
  // Unbounded widths: the writer zero-pads to 6 digits but prints more
  // once an id/seq outgrows them, and a capped parse would make such
  // segments invisible to recovery and the sweeps. sscanf would also
  // accept signs/whitespace, so insist the fields start with digits.
  if (tail[0] < '0' || tail[0] > '9') return false;
  if (std::sscanf(tail, "%llu-%llu%n", &id, &s, &consumed) != 2 ||
      tail[consumed] != '\0') {
    return false;
  }
  const char* dash = std::strchr(tail, '-');
  if (dash == nullptr || dash[1] < '0' || dash[1] > '9') return false;
  *wal_id = id;
  *seq = s;
  return true;
}

/// fsyncs an existing file (or directory) by path. A checkpoint must
/// make its segment files and manifest — and the directory entry of the
/// manifest rename — durable *before* deleting the fdatasync-durable WAL
/// segments they supersede, or a power loss would downgrade acknowledged
/// writes to page-cache-only.
inline bool SyncPath(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

/// Lists a directory's entry names (files only as far as the caller
/// cares; no filtering here). Returns false when the directory cannot be
/// opened.
inline bool ListDirectory(const std::string& dir,
                          std::vector<std::string>* names) {
  names->clear();
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return false;
  while (struct dirent* entry = ::readdir(d)) {
    names->push_back(entry->d_name);
  }
  ::closedir(d);
  return true;
}

/// One discovered segment file of a prefix.
struct WalSegmentFile {
  std::string path;
  uint64_t wal_id = 0;
  uint64_t seq = 0;
};

/// Finds every WAL segment file belonging to `prefix`, sorted by
/// (wal_id, seq). A missing directory yields an empty list (there is
/// nothing to replay), not an error.
inline std::vector<WalSegmentFile> ListWalSegments(
    const std::string& prefix) {
  std::string dir, base;
  SplitPrefixPath(prefix, &dir, &base);
  std::vector<std::string> names;
  std::vector<WalSegmentFile> out;
  if (!ListDirectory(dir, &names)) return out;
  for (const std::string& name : names) {
    WalSegmentFile f;
    if (ParseWalSegmentName(name, base, &f.wal_id, &f.seq)) {
      f.path = dir + "/" + name;
      out.push_back(std::move(f));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const WalSegmentFile& a, const WalSegmentFile& b) {
              return a.wal_id != b.wal_id ? a.wal_id < b.wal_id
                                          : a.seq < b.seq;
            });
  return out;
}

}  // namespace alex::wal
