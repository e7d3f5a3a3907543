// Index persistence (paper §7, "Secondary Storage": ALEX's node-per-leaf
// layout maps naturally to pages; this module provides the simplest sound
// form of that — whole-index snapshots).
//
// Format: a fixed header, then the sorted key array, then the payload
// array, then a util::Checksum64 digest over the two arrays. Models and
// node structure are NOT serialized: loading bulk-loads the pairs, which
// deterministically retrains models for the *loader's* configuration.
// That keeps snapshots portable across config changes and is exactly the
// paper's bulk-load path.
//
// Loading is defensive: every header field is validated against the
// loading instantiation and against the actual file size, so a corrupted
// or truncated snapshot yields a distinct SnapshotStatus — never a crash,
// an over-allocation, or a silent misload.
//
// Payloads must be trivially copyable (they are written byte-wise).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/alex.h"
#include "util/checksum.h"

namespace alex::core {

/// Outcome of a snapshot read/write. Everything except kOk identifies one
/// specific way a file can be unusable; benches and the shard layer
/// surface the name to the operator instead of a bare `false`.
enum class SnapshotStatus {
  kOk,
  kIoError,              ///< open/write failed (missing file, bad path, disk)
  kBadMagic,             ///< not a snapshot file at all
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
  kSegmentCorrupt,       ///< a cold-tier segment failed a block or
                         ///< metadata checksum (tier/segment.h)
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

// "ALEXSNAP" in ASCII.
inline constexpr uint64_t kSnapshotMagic = 0x414C4558534E4150ULL;
// Version 2 added the trailing content checksum; version 3 computes it
// with util::Checksum64 instead of FNV-1a (same layout).
inline constexpr uint32_t kSnapshotVersion = 3;

// Elements per checksummed chunk. The writer streams and hashes the key
// and payload arrays this many elements at a time, each chunk seeded
// with the previous digest, and the reader hashes the same chunks.
inline constexpr size_t kSnapshotChunk = 4096;

/// RAII fclose so every early return in the readers closes the handle.
struct FileCloser {
  std::FILE* f;
  ~FileCloser() {
    if (f != nullptr) std::fclose(f);
  }
};

/// Extends `checksum` over `n` elements at `data` in the writer's
/// kSnapshotChunk-element chunks.
template <typename T>
uint64_t ChecksumChunks(const T* data, size_t n, uint64_t checksum) {
  for (size_t i = 0; i < n; i += kSnapshotChunk) {
    const size_t m = std::min(kSnapshotChunk, n - i);
    checksum = util::Checksum64(data + i, m * sizeof(T), checksum);
  }
  return checksum;
}

}  // namespace internal

/// On-disk snapshot header.
struct SnapshotHeader {
  uint64_t magic = 0;
  uint32_t version = 1;
  uint32_t key_size = 0;
  uint32_t payload_size = 0;
  uint32_t reserved = 0;
  uint64_t num_keys = 0;
};

namespace internal {

/// The one authoritative snapshot writer: header, key array, payload
/// array (each in kSnapshotChunk-element passes), trailing checksum over
/// those chunks so interior corruption — not just truncation — is
/// detected at load. `key_at(i)` / `payload_at(i)` supply element i,
/// letting callers stream from any layout without materializing parallel
/// arrays.
template <typename K, typename P, typename KeyAt, typename PayloadAt>
SnapshotStatus WriteSnapshotImpl(const std::string& path, size_t n,
                                 KeyAt key_at, PayloadAt payload_at) {
  static_assert(std::is_trivially_copyable_v<K>,
                "keys must be trivially copyable");
  static_assert(std::is_trivially_copyable_v<P>,
                "payloads must be trivially copyable");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return SnapshotStatus::kIoError;
  SnapshotHeader header;
  header.magic = kSnapshotMagic;
  header.version = kSnapshotVersion;
  header.key_size = sizeof(K);
  header.payload_size = sizeof(P);
  header.num_keys = n;
  bool ok = std::fwrite(&header, sizeof(header), 1, f) == 1;
  uint64_t checksum = 0;
  std::vector<K> key_buf;
  for (size_t i = 0; ok && i < n; i += kSnapshotChunk) {
    const size_t m = std::min(kSnapshotChunk, n - i);
    key_buf.clear();
    for (size_t j = 0; j < m; ++j) key_buf.push_back(key_at(i + j));
    checksum = util::Checksum64(key_buf.data(), m * sizeof(K), checksum);
    ok = std::fwrite(key_buf.data(), sizeof(K), m, f) == m;
  }
  std::vector<P> payload_buf;
  for (size_t i = 0; ok && i < n; i += kSnapshotChunk) {
    const size_t m = std::min(kSnapshotChunk, n - i);
    payload_buf.clear();
    for (size_t j = 0; j < m; ++j) {
      payload_buf.push_back(payload_at(i + j));
    }
    checksum = util::Checksum64(payload_buf.data(), m * sizeof(P),
                                checksum);
    ok = std::fwrite(payload_buf.data(), sizeof(P), m, f) == m;
  }
  ok = ok && std::fwrite(&checksum, sizeof(checksum), 1, f) == 1;
  ok = std::fclose(f) == 0 && ok;
  return ok ? SnapshotStatus::kOk : SnapshotStatus::kIoError;
}

}  // namespace internal

/// Writes `n` sorted (key, payload) pairs as a snapshot file.
template <typename K, typename P>
SnapshotStatus WriteSnapshotFile(const std::string& path, const K* keys,
                                 const P* payloads, size_t n) {
  return internal::WriteSnapshotImpl<K, P>(
      path, n, [keys](size_t i) { return keys[i]; },
      [payloads](size_t i) { return payloads[i]; });
}

/// Writes sorted (key, payload) pairs as a snapshot file without
/// materializing separate key/payload arrays.
template <typename K, typename P>
SnapshotStatus WriteSnapshotFile(const std::string& path,
                                 const std::vector<std::pair<K, P>>& pairs) {
  return internal::WriteSnapshotImpl<K, P>(
      path, pairs.size(), [&pairs](size_t i) { return pairs[i].first; },
      [&pairs](size_t i) { return pairs[i].second; });
}

/// Reads a snapshot file into `keys`/`payloads`. The header's key count is
/// validated against the file's actual size before any allocation, so a
/// corrupt count can neither over-allocate nor over-read.
template <typename K, typename P>
SnapshotStatus ReadSnapshotFile(const std::string& path,
                                std::vector<K>* keys,
                                std::vector<P>* payloads) {
  static_assert(std::is_trivially_copyable_v<K>,
                "keys must be trivially copyable");
  static_assert(std::is_trivially_copyable_v<P>,
                "payloads must be trivially copyable");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return SnapshotStatus::kIoError;
  internal::FileCloser closer{f};
  if (std::fseek(f, 0, SEEK_END) != 0) return SnapshotStatus::kIoError;
  const long end = std::ftell(f);
  if (end < 0) return SnapshotStatus::kIoError;
  if (std::fseek(f, 0, SEEK_SET) != 0) return SnapshotStatus::kIoError;
  const uint64_t file_size = static_cast<uint64_t>(end);

  SnapshotHeader header;
  if (std::fread(&header, sizeof(header), 1, f) != 1) {
    return SnapshotStatus::kTruncated;
  }
  if (header.magic != internal::kSnapshotMagic) {
    return SnapshotStatus::kBadMagic;
  }
  if (header.version != internal::kSnapshotVersion) {
    return SnapshotStatus::kBadVersion;
  }
  if (header.key_size != sizeof(K)) {
    return SnapshotStatus::kKeySizeMismatch;
  }
  if (header.payload_size != sizeof(P)) {
    return SnapshotStatus::kPayloadSizeMismatch;
  }
  if (file_size < sizeof(header) + sizeof(uint64_t)) {
    return SnapshotStatus::kTruncated;
  }
  const uint64_t remaining = file_size - sizeof(header) - sizeof(uint64_t);
  constexpr uint64_t kPairBytes = sizeof(K) + sizeof(P);
  // Floor division keeps the bound overflow-safe for any num_keys value.
  if (header.num_keys > remaining / kPairBytes) {
    return SnapshotStatus::kTruncated;
  }
  keys->resize(header.num_keys);
  payloads->resize(header.num_keys);
  uint64_t checksum = 0;
  if (header.num_keys > 0) {
    if (std::fread(keys->data(), sizeof(K), keys->size(), f) !=
            keys->size() ||
        std::fread(payloads->data(), sizeof(P), payloads->size(), f) !=
            payloads->size()) {
      return SnapshotStatus::kTruncated;
    }
    checksum = internal::ChecksumChunks(keys->data(), keys->size(), checksum);
    checksum = internal::ChecksumChunks(payloads->data(), payloads->size(),
                                        checksum);
  }
  uint64_t stored_checksum = 0;
  if (std::fread(&stored_checksum, sizeof(stored_checksum), 1, f) != 1) {
    return SnapshotStatus::kTruncated;
  }
  if (checksum != stored_checksum) {
    return SnapshotStatus::kChecksumMismatch;
  }
  // Sortedness is BulkLoad's precondition; a file that checksums clean
  // but is out of order (a buggy or foreign writer) must not misload.
  for (size_t i = 1; i < keys->size(); ++i) {
    if (!((*keys)[i - 1] < (*keys)[i])) {
      return SnapshotStatus::kUnsortedKeys;
    }
  }
  return SnapshotStatus::kOk;
}

/// Writes a snapshot of `index` to `path`. Returns false on I/O failure.
template <typename K, typename P>
bool SaveIndex(const Alex<K, P>& index, const std::string& path) {
  // Gather pairs in key order through the leaf chain.
  std::vector<K> keys;
  std::vector<P> payloads;
  keys.reserve(index.size());
  payloads.reserve(index.size());
  index.ForEachLeaf([&](const DataNode<K, P>& leaf) {
    std::vector<K> k;
    std::vector<P> p;
    leaf.ExtractAll(&k, &p);
    keys.insert(keys.end(), k.begin(), k.end());
    payloads.insert(payloads.end(), p.begin(), p.end());
  });
  return WriteSnapshotFile(path, keys.data(), payloads.data(),
                           keys.size()) == SnapshotStatus::kOk;
}

/// Loads a snapshot from `path` into `index` (replacing its contents, and
/// rebuilding models under the index's current Config). On any non-kOk
/// status the index is left untouched.
template <typename K, typename P>
SnapshotStatus LoadIndexEx(Alex<K, P>* index, const std::string& path) {
  std::vector<K> keys;
  std::vector<P> payloads;
  const SnapshotStatus status = ReadSnapshotFile<K, P>(path, &keys,
                                                       &payloads);
  if (status != SnapshotStatus::kOk) return status;
  index->BulkLoad(keys.data(), payloads.data(), keys.size());
  return SnapshotStatus::kOk;
}

/// Boolean convenience wrapper over LoadIndexEx.
template <typename K, typename P>
bool LoadIndex(Alex<K, P>* index, const std::string& path) {
  return LoadIndexEx(index, path) == SnapshotStatus::kOk;
}

}  // namespace alex::core
