// The status vocabulary of every on-disk reader and writer: cold-tier
// segments (tier/segment.h), the shard manifest (shard/manifest.h) and
// the WAL reader's file handling (wal/log_reader.h).
//
// Index persistence (paper §7, "Secondary Storage") has no format of its
// own: a saved index is one segment, the same sorted run of keys and
// payloads that checkpoints, demotions and compactions write, so
// tier::SaveIndex / tier::LoadIndex live beside the segment reader.
#pragma once

#include <cstdio>
#include <ostream>

namespace alex::core {

/// Outcome of an on-disk read/write. Everything except kOk identifies one
/// specific way a file can be unusable; benches and the shard layer
/// surface the name to the operator instead of a bare `false`.
enum class SnapshotStatus {
  kOk,
  kIoError,              ///< open/write failed (missing file, bad path, disk)
  kBadMagic,             ///< not a file of the expected format at all
  kBadVersion,           ///< written by an incompatible format version
  kKeySizeMismatch,      ///< sizeof(K) differs from the writer's
  kPayloadSizeMismatch,  ///< sizeof(P) differs from the writer's
  kTruncated,            ///< file shorter than its header claims
  kChecksumMismatch,     ///< stored checksum does not match the contents
  kUnsortedKeys,         ///< keys/boundaries not strictly increasing
  kMissingShard,         ///< a manifest references a shard file that is gone
  kManifestMismatch,     ///< a shard file disagrees with its manifest entry
  kWalReplayFailed,      ///< the WAL tail could not be replayed (see the
                         ///< wal::RecoveryReport for the distinct WalStatus)
  kSegmentCorrupt,       ///< a segment failed a block or metadata
                         ///< checksum (tier/segment.h)
};

inline const char* SnapshotStatusName(SnapshotStatus status) {
  switch (status) {
    case SnapshotStatus::kOk: return "ok";
    case SnapshotStatus::kIoError: return "io-error";
    case SnapshotStatus::kBadMagic: return "bad-magic";
    case SnapshotStatus::kBadVersion: return "bad-version";
    case SnapshotStatus::kKeySizeMismatch: return "key-size-mismatch";
    case SnapshotStatus::kPayloadSizeMismatch:
      return "payload-size-mismatch";
    case SnapshotStatus::kTruncated: return "truncated";
    case SnapshotStatus::kChecksumMismatch: return "checksum-mismatch";
    case SnapshotStatus::kUnsortedKeys: return "unsorted-keys";
    case SnapshotStatus::kMissingShard: return "missing-shard";
    case SnapshotStatus::kManifestMismatch: return "manifest-mismatch";
    case SnapshotStatus::kWalReplayFailed: return "wal-replay-failed";
    case SnapshotStatus::kSegmentCorrupt: return "segment-corrupt";
  }
  return "unknown";
}

/// Spelled like the WAL's ToString(WalStatus) so call sites and test
/// output read uniformly.
inline const char* ToString(SnapshotStatus status) {
  return SnapshotStatusName(status);
}

/// Lets gtest and diagnostics print status names instead of raw ints.
inline std::ostream& operator<<(std::ostream& os, SnapshotStatus status) {
  return os << SnapshotStatusName(status);
}

namespace internal {

/// RAII fclose so every early return in the readers closes the handle.
struct FileCloser {
  std::FILE* f;
  ~FileCloser() {
    if (f != nullptr) std::fclose(f);
  }
};

}  // namespace internal

}  // namespace alex::core
