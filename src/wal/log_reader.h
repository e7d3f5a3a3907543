// WAL segment reader and crash-recovery replayer.
//
// Reading a segment validates everything the writer promised: magic,
// version, key/payload sizes, the header checksum, per-record checksums,
// legal types/lengths, and contiguous ascending LSNs. Exactly one defect
// is *tolerated* rather than reported: a torn tail. A crash mid-append
// can leave the final record half-written (short header, short body, or
// a record whose bytes are present but whose checksum fails at EOF); the
// reader stops at the last intact record and reports how many bytes were
// valid, so the caller can truncate the file and lose at most that one
// unacknowledged record. Any defect *before* the tail region — a flipped
// byte mid-segment, an illegal type with intact data after it — is real
// corruption and maps to its distinct WalStatus instead.
//
// The writer preallocates each segment and trims it only on close, so
// the last segment of a log — the one a live or crashed writer may still
// have mapped — may end in a zero-filled remainder. In that segment
// alone the file reads as if it ended where an all-zero remainder begins
// at a record boundary; the torn-tail span is then measured from its
// last nonzero byte, and every other rule applies unchanged. An all-zero
// last segment is a header stub, like one shorter than its header.
// Zeros followed by a nonzero byte, a remainder after a kSeal record,
// and a remainder in any other segment stay corruption, with the status
// their bytes decode to. Recovery never shrinks a file that ends in
// zeros: its writer may be alive.
//
// The same segment may also have lost a page *inside* its content: after
// an OS crash or power loss, writeback may have persisted the dirty pages
// of the mapping in any order, and a page that never reached the disk
// reads as zeros. Under kAlways every page before the last acknowledged
// record was synced, so such a page lies past it. In a log's last
// segment, an all-zero page-aligned page (sysconf(_SC_PAGESIZE) bytes)
// before the end of its content therefore ends it: the segment reads as
// if its content ended where the zero run reaching that page begins (the
// page before a lost one may itself have been persisted before its last
// records reached it). Every tail rule above then applies unchanged, so
// an intact record is never dropped; whatever follows is a torn tail
// whose bytes are reported as dropped. A zero page in any other segment
// or after a kSeal record, and nonzero garbage anywhere, stay
// corruption. Such a file is never shrunk either.
//
// Replay is layered so the shard layer can reuse the validated pieces:
// ReadWalLineages groups segments by wal id, chains each group by
// (seq, start_lsn) so a rotation hole is detected, and returns one
// WalLineage per log — its parents (segment header + kTopology record,
// so merge/rebalance children list every parent), checkpoint LSN, and
// intact records. AnchorLineages walks the lineage graph in ascending
// wal-id order (parent-before-child by construction, wal_format.h) and
// marks each lineage whose baseline is provably in the snapshot; with
// require_known_roots, an orphan lineage holding records fails instead
// of silently replaying over the wrong baseline. ReplayWal composes the
// two and applies anchored records into one logical map (the
// no-manifest recovery path); ShardedAlex::LoadFrom composes them with
// its own per-shard parallel apply (boundary-preserving recovery).
// Records at or below a log's checkpoint LSN are skipped (their effect
// is already in the snapshot), making replay idempotent.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/serialization.h"
#include "wal/wal_format.h"

namespace alex::wal {

/// One decoded record.
template <typename K, typename P>
struct WalRecord {
  uint64_t lsn = 0;
  WalRecordType type = WalRecordType::kInsert;
  K key{};
  P payload{};
};

/// Everything a segment read learns beyond the records.
struct WalSegmentInfo {
  uint64_t wal_id = 0;
  uint64_t parent_wal_id = 0;
  uint64_t seq = 0;
  uint64_t start_lsn = 0;
  uint64_t last_lsn = 0;     ///< start_lsn when the segment is empty
  bool sealed = false;       ///< ends with a kSeal record
  bool tail_truncated = false;
  uint64_t valid_bytes = 0;  ///< file is intact up to here
  /// Last segment only: the file ends in zero bytes, typically the
  /// preallocated remainder of a segment a writer may still have mapped.
  bool zero_tail = false;
  /// Last segment only: all-zero or shorter than a header (a crash before
  /// the header was written), or its header page was lost; it yields no
  /// records and is skipped.
  bool header_stub = false;
  /// Last segment only: a lost (all-zero) page inside the content cut the
  /// intact prefix short; never shrink such a file.
  bool lost_page = false;
  /// Torn tail or stub: content bytes past valid_bytes (up to the last
  /// nonzero byte of a last segment) that were not read.
  uint64_t dropped_bytes = 0;
  /// Parent wal ids from a kTopology record (merge/rebalance children
  /// list several); empty when the segment holds none — the header's
  /// parent_wal_id is then the whole lineage story.
  std::vector<uint64_t> topology_parents;
};

/// Offset of the first all-zero, page-aligned page that starts before
/// `end`, or SIZE_MAX when there is none.
inline size_t FirstZeroPage(const std::vector<uint8_t>& data, size_t end) {
  const long page_size = ::sysconf(_SC_PAGESIZE);
  const size_t page = page_size > 0 ? static_cast<size_t>(page_size) : 4096;
  for (size_t p = 0; p < end && p + page <= data.size(); p += page) {
    const uint8_t* b = data.data() + p;
    if (b[0] == 0 && std::memcmp(b, b + 1, page - 1) == 0) return p;
  }
  return SIZE_MAX;
}

/// Reads and validates one segment. On kOk, `records` holds every intact
/// record in order (the kSeal marker is reflected in info->sealed, not
/// appended). A torn tail yields kOk with info->tail_truncated set and
/// info->valid_bytes marking where the intact prefix ends.
///
/// `last_of_log` applies the rules for a log's last segment, the one a
/// writer (live or crashed) may still have preallocated: an all-zero or
/// shorter-than-header file is a header stub (kOk, info->header_stub),
/// and the file reads as if it ended where an all-zero remainder begins
/// at a record boundary (info->zero_tail; never shrink such a file). A
/// zero remainder after a kSeal record, or in any other segment, stays
/// corruption with the status the zero bytes decode to. A lost page
/// inside a last segment ends its intact prefix (info->lost_page; see the
/// file comment).
template <typename K, typename P>
WalStatus ReadWalSegment(const std::string& path, WalSegmentInfo* info,
                         std::vector<WalRecord<K, P>>* records,
                         bool last_of_log = false) {
  records->clear();
  *info = WalSegmentInfo{};
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return WalStatus::kIoError;
  core::internal::FileCloser closer{f};
  if (std::fseek(f, 0, SEEK_END) != 0) return WalStatus::kIoError;
  const long size = std::ftell(f);
  if (size < 0) return WalStatus::kIoError;
  if (std::fseek(f, 0, SEEK_SET) != 0) return WalStatus::kIoError;
  std::vector<uint8_t> data(static_cast<size_t>(size));
  if (!data.empty() &&
      std::fread(data.data(), 1, data.size(), f) != data.size()) {
    return WalStatus::kIoError;
  }

  // `end` is where the file's content ends for the tail rules below: one
  // past its last nonzero byte in a last segment, its size otherwise.
  // With a lost page, `end` is where the zero run reaching it begins, and
  // `content_end` stays one past the last nonzero byte.
  size_t end = data.size();
  size_t content_end = end;
  if (last_of_log) {
    while (end > 0 && data[end - 1] == 0) --end;
    info->zero_tail = end < data.size();
    content_end = end;
    const size_t hole = FirstZeroPage(data, end);
    if (hole != SIZE_MAX) {
      info->lost_page = true;
      end = hole;
      while (end > 0 && data[end - 1] == 0) --end;
    }
    if (end == 0 || data.size() < sizeof(WalSegmentHeader) ||
        (info->lost_page && end < sizeof(WalSegmentHeader))) {
      info->header_stub = true;  // the header never reached the disk
      info->dropped_bytes = content_end;
      return WalStatus::kOk;
    }
  }
  WalSegmentHeader header;
  if (data.size() < sizeof(header)) return WalStatus::kBadMagic;
  std::memcpy(&header, data.data(), sizeof(header));
  if (header.magic != internal::kWalMagic) return WalStatus::kBadMagic;
  if (header.version != internal::kWalVersion) {
    return WalStatus::kBadVersion;
  }
  if (header.key_size != sizeof(K)) return WalStatus::kKeySizeMismatch;
  if (header.payload_size != sizeof(P)) {
    return WalStatus::kPayloadSizeMismatch;
  }
  if (header.header_checksum != WalHeaderChecksum(header)) {
    return WalStatus::kBadHeaderChecksum;
  }
  info->wal_id = header.wal_id;
  info->parent_wal_id = header.parent_wal_id;
  info->seq = header.seq;
  info->start_lsn = header.start_lsn;
  info->last_lsn = header.start_lsn;

  // A torn write can only damage the final record, so a defect is
  // tolerated as "torn" only when it lies within one maximal record's
  // span of the content's end; anything earlier is mid-segment
  // corruption. The span is position-dependent: a topology record's body
  // (count + up to kMaxTopologyParents ids) can exceed key+payload, but
  // the writer only ever emits one as a log's *first* record — so only
  // that position gets the wide span. Using it everywhere would let a
  // corrupted type/length field within ~4 data records of EOF pass as
  // "torn" and silently truncate acknowledged durable writes.
  constexpr size_t kMaxDataRecord =
      sizeof(WalRecordHeader) + sizeof(K) + sizeof(P);
  constexpr size_t kMaxFirstRecord = std::max(
      kMaxDataRecord, sizeof(WalRecordHeader) +
                          (1 + kMaxTopologyParents) * sizeof(uint64_t));
  uint64_t expected_lsn = header.start_lsn;
  size_t at = sizeof(header);
  info->valid_bytes = at;
  auto torn = [&] {
    info->tail_truncated = true;
    info->dropped_bytes = content_end - std::min(at, content_end);
    return WalStatus::kOk;
  };
  // Every record header holds a nonzero LSN, so once `at` reaches `end`
  // only the all-zero remainder is left: the segment ends there.
  while (at < end) {
    const size_t remaining = data.size() - at;
    const bool in_tail_span =
        end - at <= (at == sizeof(header) ? kMaxFirstRecord : kMaxDataRecord);
    if (remaining < sizeof(WalRecordHeader)) {
      return torn();  // header itself is torn
    }
    WalRecordHeader rec;
    std::memcpy(&rec, data.data() + at, sizeof(rec));
    const size_t legal_len = WalBodyLen<K, P>(rec.type);
    if (legal_len == SIZE_MAX) {
      return in_tail_span ? torn() : WalStatus::kBadRecordType;
    }
    const bool bad_len = legal_len == kWalVariableBody
                             ? !ValidTopologyBodyLen(rec.body_len)
                             : rec.body_len != legal_len;
    if (bad_len) {
      return in_tail_span ? torn() : WalStatus::kBadRecordLength;
    }
    if (sizeof(rec) + rec.body_len > remaining) {
      return torn();  // body runs past EOF
    }
    const uint8_t* record = data.data() + at;
    const uint8_t* body = record + sizeof(rec);
    if (rec.checksum != WalRecordChecksum(record, rec.body_len)) {
      if (at + sizeof(rec) + rec.body_len >= end) {
        return torn();  // final record, torn mid-write
      }
      return WalStatus::kChecksumMismatch;
    }
    if (rec.lsn != expected_lsn + 1) return WalStatus::kOutOfOrderLsn;
    expected_lsn = rec.lsn;
    info->last_lsn = rec.lsn;
    const auto type = static_cast<WalRecordType>(rec.type);
    if (type == WalRecordType::kSeal) {
      info->sealed = true;
      end = data.size();  // a sealed segment was trimmed: no remainder
    } else if (type == WalRecordType::kTopology) {
      // Lineage metadata, never data: the body's declared count must
      // agree with its length (ValidTopologyBodyLen bounded the shape).
      uint64_t count = 0;
      std::memcpy(&count, body, sizeof(count));
      if (count != rec.body_len / sizeof(uint64_t) - 1) {
        return WalStatus::kBadRecordLength;
      }
      info->topology_parents.resize(count);
      std::memcpy(info->topology_parents.data(), body + sizeof(count),
                  count * sizeof(uint64_t));
    } else {
      WalRecord<K, P> out;
      out.lsn = rec.lsn;
      out.type = type;
      std::memcpy(&out.key, body, sizeof(K));
      if (rec.body_len == sizeof(K) + sizeof(P)) {
        std::memcpy(&out.payload, body + sizeof(K), sizeof(P));
      }
      records->push_back(out);
    }
    at += sizeof(rec) + rec.body_len;
    info->valid_bytes = at;
  }
  // Whatever lay past a lost page is a torn tail.
  return info->lost_page && !info->sealed ? torn() : WalStatus::kOk;
}

/// Per-shard (or per-lineage) replay accounting, so an operator can see
/// *which* shard lost its unacked write, not just that one did.
struct ShardReplayStats {
  /// Manifest shard index this entry describes; SIZE_MAX when recovery
  /// ran without a manifest (the entry is then per-lineage).
  size_t shard = SIZE_MAX;
  uint64_t wal_id = 0;  ///< the shard's log at checkpoint / lineage root
  size_t records_replayed = 0;
  size_t records_skipped = 0;
  /// A torn final record was truncated somewhere in this shard's
  /// lineage: this shard is where the lost unacknowledged write lived
  /// (a merge child's torn tail flags every shard it spanned).
  bool tail_truncated = false;
};

/// What a recovery replay did, for operators and tests. `status` mirrors
/// the returned status; `detail` names the offending file on failure.
/// `shards` breaks the aggregate counts down per shard (with a
/// manifest) or per lineage (without one).
struct RecoveryReport {
  WalStatus status = WalStatus::kOk;
  size_t segments_scanned = 0;
  size_t records_replayed = 0;
  size_t records_skipped = 0;  ///< at or below their log's checkpoint LSN
  bool tail_truncated = false;
  /// Bytes of torn tails and stubs left unread (see
  /// WalSegmentInfo::dropped_bytes), summed over every log.
  uint64_t tail_bytes_dropped = 0;
  uint64_t max_wal_id = 0;  ///< highest wal id seen on disk
  std::string detail;
  std::vector<ShardReplayStats> shards;
};

/// One log's worth of validated recovery input: its lineage links, its
/// checkpoint LSN, and every intact record across its segment chain.
template <typename K, typename P>
struct WalLineage {
  uint64_t wal_id = 0;
  /// Parent wal ids: the kTopology record's list when present, else the
  /// segment header's single parent (empty for a root log).
  std::vector<uint64_t> parents;
  uint64_t checkpoint_lsn = 0;  ///< from the caller's map; 0 if unknown
  bool known = false;      ///< wal id appears in the checkpoint map
  bool anchored = false;   ///< baseline proven (set by AnchorLineages)
  bool tail_truncated = false;
  std::string last_path;   ///< last segment file (error detail)
  std::vector<WalRecord<K, P>> records;
};

/// Reads and validates every WAL segment of `prefix`, grouped into one
/// WalLineage per wal id (ascending id order — parent-before-child).
/// Validates each lineage's segment chain: the first remaining segment
/// must start at or below the checkpoint LSN and each later one must
/// resume exactly where its predecessor ended (a hole means a rotation
/// deleted records the snapshot never captured → kSegmentGap). A torn
/// final record is tolerated and, with `truncate_torn_tail`, physically
/// truncated away. Fills the report's segments_scanned / max_wal_id /
/// tail_truncated; on failure, status and detail.
template <typename K, typename P>
WalStatus ReadWalLineages(
    const std::string& prefix,
    const std::map<uint64_t, uint64_t>& checkpoint_lsns,
    std::vector<WalLineage<K, P>>* out, RecoveryReport* rep,
    bool truncate_torn_tail) {
  out->clear();
  const std::vector<WalSegmentFile> files = ListWalSegments(prefix);
  size_t i = 0;
  while (i < files.size()) {
    const uint64_t wal_id = files[i].wal_id;
    if (wal_id > rep->max_wal_id) rep->max_wal_id = wal_id;
    WalLineage<K, P> lineage;
    lineage.wal_id = wal_id;
    const auto cp = checkpoint_lsns.find(wal_id);
    lineage.known = cp != checkpoint_lsns.end();
    lineage.checkpoint_lsn = lineage.known ? cp->second : 0;
    uint64_t prev_last_lsn = 0;
    bool first_segment = true;
    bool have_segment = false;
    uint64_t header_parent = 0;
    for (; i < files.size() && files[i].wal_id == wal_id; ++i) {
      // Only a log's last segment may still be open (preallocated, its
      // remainder zero) or torn down to a header stub by a crash; it
      // cannot have held acknowledged records past either.
      const bool last_of_log = i + 1 >= files.size() ||
                               files[i + 1].wal_id != wal_id;
      WalSegmentInfo info;
      std::vector<WalRecord<K, P>> records;
      const WalStatus status =
          ReadWalSegment<K, P>(files[i].path, &info, &records, last_of_log);
      ++rep->segments_scanned;
      if (status != WalStatus::kOk) {
        rep->detail = files[i].path;
        return rep->status = status;
      }
      rep->tail_bytes_dropped += info.dropped_bytes;
      if (info.header_stub) {
        rep->tail_truncated = true;
        continue;
      }
      // The remaining segments must cover everything past the
      // checkpoint: the first one must start at or before it, and each
      // later one must resume exactly where its predecessor ended.
      if (first_segment ? info.start_lsn > lineage.checkpoint_lsn
                        : info.start_lsn != prev_last_lsn) {
        rep->detail = files[i].path;
        return rep->status = WalStatus::kSegmentGap;
      }
      if (first_segment) header_parent = info.parent_wal_id;
      first_segment = false;
      have_segment = true;
      prev_last_lsn = info.last_lsn;
      lineage.last_path = files[i].path;
      if (!info.topology_parents.empty()) {
        lineage.parents = info.topology_parents;
      }
      if (info.tail_truncated) {
        rep->tail_truncated = true;
        lineage.tail_truncated = true;
        // Best effort: a failure just means the next recovery
        // re-tolerates the same tail. A file ending in zeros or holding
        // a lost page is never shrunk: a live writer may still have it
        // mapped.
        if (truncate_torn_tail && !info.zero_tail && !info.lost_page) {
          (void)::truncate(files[i].path.c_str(),
                           static_cast<off_t>(info.valid_bytes));
        }
        // A torn tail is only tolerable at the very end of a log: a
        // later segment of the same wal id would have started past the
        // lost records, which the chain check above reports as a gap.
      }
      for (WalRecord<K, P>& rec : records) {
        lineage.records.push_back(std::move(rec));
      }
    }
    if (!have_segment) continue;  // only a torn header stub
    if (lineage.parents.empty() && header_parent != 0) {
      lineage.parents.push_back(header_parent);
    }
    out->push_back(std::move(lineage));
  }
  return WalStatus::kOk;
}

/// Marks every lineage whose baseline is provably covered: a
/// checkpointed root, or a child all of whose parents are themselves
/// anchored (its baseline is the parents' final states, which replay
/// reconstructs parent-first). With `require_known_roots` (set when a
/// checkpoint manifest exists), an *orphan* lineage — unknown root, or
/// a child with an unanchored parent — means records whose baseline was
/// never checkpointed (e.g. a crash between a bulk load's publish and
/// its auto-checkpoint): replaying them over the older snapshot would
/// silently produce wrong contents, so an orphan with records fails
/// with kSegmentGap, while an empty orphan (nothing acknowledged) is
/// skipped. One more orphan shape is benign: a lineage some *known*
/// lineage names as its parent is a topology victim *superseded* by
/// the checkpoint that anchored its child — the snapshot already holds
/// its full effects (the victim was sealed before the child could
/// acknowledge anything), and only the crash window between a
/// checkpoint's manifest rename and its segment sweep leaves it on
/// disk. It is skipped, not fatal, so such a crash never wedges
/// recovery. Without the flag everything anchors (logs-alone
/// recovery).
template <typename K, typename P>
WalStatus AnchorLineages(std::vector<WalLineage<K, P>>* lineages,
                         const std::map<uint64_t, uint64_t>& checkpoint_lsns,
                         bool require_known_roots, RecoveryReport* rep) {
  std::vector<uint64_t> anchored;
  for (const auto& [id, lsn] : checkpoint_lsns) {
    (void)lsn;
    anchored.push_back(id);
  }
  // Every ancestor of a checkpointed lineage is superseded by that
  // checkpoint: a child's snapshot baseline includes its parents' final
  // states, transitively. Descending wal-id order visits children
  // before parents, so one pass propagates coverage up the whole
  // lineage tree (a victim whose children were themselves split before
  // the checkpoint is covered through those intermediate victims).
  std::vector<uint64_t> superseded;
  for (auto it = lineages->rbegin(); it != lineages->rend(); ++it) {
    const bool covered =
        it->known || std::find(superseded.begin(), superseded.end(),
                               it->wal_id) != superseded.end();
    if (covered) {
      superseded.insert(superseded.end(), it->parents.begin(),
                        it->parents.end());
    }
  }
  for (WalLineage<K, P>& lineage : *lineages) {
    bool parents_anchored = !lineage.parents.empty();
    for (const uint64_t parent : lineage.parents) {
      parents_anchored =
          parents_anchored && std::find(anchored.begin(), anchored.end(),
                                        parent) != anchored.end();
    }
    if (require_known_roots && !lineage.known && !parents_anchored) {
      if (std::find(superseded.begin(), superseded.end(),
                    lineage.wal_id) != superseded.end()) {
        continue;  // superseded victim: already in the snapshot, skip
      }
      if (!lineage.records.empty()) {
        rep->detail = lineage.last_path;
        return rep->status = WalStatus::kSegmentGap;
      }
      continue;  // empty orphan: nothing was acknowledged, skip it
    }
    lineage.anchored = true;
    anchored.push_back(lineage.wal_id);
  }
  return WalStatus::kOk;
}

/// Applies one record to the logical map with the index ops' exact
/// semantics (insert-if-absent / overwrite-if-present / erase); replay
/// of a logged-but-failed operation is therefore the same no-op.
template <typename K, typename P>
void ApplyWalRecord(const WalRecord<K, P>& rec, std::map<K, P>* state) {
  switch (rec.type) {
    case WalRecordType::kInsert:
      state->emplace(rec.key, rec.payload);
      break;
    case WalRecordType::kUpdate: {
      auto it = state->find(rec.key);
      if (it != state->end()) it->second = rec.payload;
      break;
    }
    case WalRecordType::kErase:
      state->erase(rec.key);
      break;
    case WalRecordType::kSeal:
    case WalRecordType::kTopology:
      break;  // never materialized as data records
  }
}

/// Replays every WAL segment of `prefix` into `state` (the logical
/// key-payload map recovered so far, typically pre-seeded from the
/// snapshot). `checkpoint_lsns` maps wal id -> highest LSN already
/// captured by the snapshot; unknown wal ids replay from LSN 0. When
/// `truncate_torn_tail` is set, a torn final record is physically
/// truncated away so a second recovery sees a clean log.
/// ReadWalLineages + AnchorLineages + one sequential apply pass in
/// ascending wal-id order; the report gains one per-lineage stats entry
/// (shard = SIZE_MAX — this path has no manifest to name shards).
template <typename K, typename P>
WalStatus ReplayWal(const std::string& prefix,
                    const std::map<uint64_t, uint64_t>& checkpoint_lsns,
                    std::map<K, P>* state, RecoveryReport* report,
                    bool truncate_torn_tail = true,
                    bool require_known_roots = false) {
  RecoveryReport local;
  RecoveryReport* rep = report != nullptr ? report : &local;
  *rep = RecoveryReport{};
  std::vector<WalLineage<K, P>> lineages;
  WalStatus status = ReadWalLineages<K, P>(prefix, checkpoint_lsns,
                                           &lineages, rep,
                                           truncate_torn_tail);
  if (status != WalStatus::kOk) return status;
  status = AnchorLineages(&lineages, checkpoint_lsns, require_known_roots,
                          rep);
  if (status != WalStatus::kOk) return status;
  for (const WalLineage<K, P>& lineage : lineages) {
    if (!lineage.anchored) continue;
    ShardReplayStats stats;
    stats.wal_id = lineage.wal_id;
    stats.tail_truncated = lineage.tail_truncated;
    for (const WalRecord<K, P>& rec : lineage.records) {
      if (rec.lsn <= lineage.checkpoint_lsn) {
        ++stats.records_skipped;
        continue;
      }
      ApplyWalRecord(rec, state);
      ++stats.records_replayed;
    }
    rep->records_replayed += stats.records_replayed;
    rep->records_skipped += stats.records_skipped;
    rep->shards.push_back(stats);
  }
  return rep->status = WalStatus::kOk;
}

}  // namespace alex::wal
