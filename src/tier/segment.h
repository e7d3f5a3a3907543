// Cold-tier segment: a sealed, checksummed, read-only on-disk image of one
// demoted shard (ROADMAP "larger-than-RAM tiering"). The shape follows the
// paper's own argument one level down: instead of a comparison tree over
// blocks, a *learned fence model* (models/linear_model.h) predicts which
// block holds a key, verified against the resident fence-key array exactly
// like the shard router verifies its shard prediction.
//
// File layout (little-endian, fixed-width fields, no padding):
//
//   SegmentHeader                      88 bytes, self-checksummed
//   block_checksums  u64[num_blocks]   Checksum64 of each block's bytes
//   fence_keys       K[num_blocks]     first key of each block (sorted)
//   blocks           block i = K[m_i] keys then P[m_i] payloads, where
//                    m_i = keys_per_block except a short final block;
//                    every block before the last is full, so block i
//                    starts at data_offset + i*keys_per_block*(|K|+|P|).
//
// The header and the two metadata arrays are read once at Open and kept
// resident (they are the "index" of the segment: ~16 bytes per block).
// Block data is mmap'd PROT_READ with MADV_RANDOM — the kernel pages cold
// blocks in on demand and every read searches the mapping in place; the
// block cache (tier/block_cache.h) only remembers which blocks already
// passed their checksum, so a segment's DRAM cost is its metadata plus
// whatever pages of it the kernel keeps.
//
// One writer serves four producers: checkpointing any shard (resident or
// cold), demoting a resident shard, compacting a cold shard's delta
// overlay, and saving a whole index (SaveIndex, the paper's §7 sorted run)
// — all stream sorted (key, payload) runs through WriteSegmentFile, so the
// four paths cannot diverge in format. The segment is the only durable
// form of a shard and of a saved index.
//
// An empty shard is an empty segment: num_keys == 0, num_blocks == 0, the
// file just the header. Its key range is the inverted [max(), lowest()],
// so every range check below rejects every key without a branch of its
// own.
//
// Integrity: every block carries its own util::Checksum64 digest
// (verified in place by VerifyBlock before a block enters the block cache,
// and by VerifyAllBlocks at recovery and index load),
// the two metadata arrays are covered by one meta_checksum over their
// contiguous bytes, and the header by header_checksum. Any mismatch
// surfaces as core::SnapshotStatus::kSegmentCorrupt — distinct from
// kTruncated/kBadMagic so a flipped byte is never mistaken for a torn or
// foreign file. The version is checked before the header checksum, so a
// file of an older format version reads as kBadVersion. The full audit
// (OpenAudited) also checks key order, which no checksum can vouch for:
// a buggy or foreign writer's out-of-order run is kUnsortedKeys.
#pragma once

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/serialization.h"
#include "models/linear_model.h"
#include "util/checksum.h"

namespace alex::tier {

namespace internal {

// "ALEXCSEG" in ASCII.
inline constexpr uint64_t kSegmentMagic = 0x414C455843534547ULL;
// Version 2 replaced FNV-1a with util::Checksum64 (same layout).
inline constexpr uint64_t kSegmentVersion = 2;

/// Unaligned typed load: block payloads start at keys_per_block * |K|,
/// which is not a multiple of alignof(P) for every K/P pairing, and the
/// metadata arrays land wherever num_blocks puts them. memcpy keeps every
/// access well-defined (and compiles to a plain load on x86/ARM).
template <typename T>
inline T LoadAt(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

/// Next ColdSegment::cache_id(): one counter for the whole process.
inline uint64_t NextSegmentCacheId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace internal

/// On-disk segment header. All fields 8 bytes so the struct has no
/// padding; `header_checksum` covers every byte before itself.
struct SegmentHeader {
  uint64_t magic = internal::kSegmentMagic;
  uint64_t version = internal::kSegmentVersion;
  uint64_t key_size = 0;
  uint64_t payload_size = 0;
  uint64_t keys_per_block = 0;
  uint64_t num_keys = 0;
  uint64_t num_blocks = 0;
  double fence_slope = 0.0;
  double fence_intercept = 0.0;
  uint64_t meta_checksum = 0;
  uint64_t header_checksum = 0;
};
static_assert(sizeof(SegmentHeader) == 88, "segment header must be packed");

/// Checksum of a segment header (over every field before header_checksum).
inline uint64_t SegmentHeaderChecksum(const SegmentHeader& header) {
  return util::Checksum64(
      &header, sizeof(header) - sizeof(header.header_checksum), 0);
}

/// Block size of every segment written: a saved index's, and each cold
/// shard's.
inline constexpr size_t kDefaultBlockBytes = 4096;

/// Keys per block for a `block_bytes` target: whole records, at least 64.
template <typename K, typename P>
constexpr size_t KeysPerBlock(size_t block_bytes) {
  return std::max<size_t>(64, block_bytes / (sizeof(K) + sizeof(P)));
}

/// Path of segment `id` at `prefix` (beside the manifest / WAL files).
inline std::string SegmentPath(const std::string& prefix, uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), ".seg-%llu",
                static_cast<unsigned long long>(id));
  return prefix + buf;
}

/// Parses `<base>.seg-<id>` (and the writer's `.tmp` staging suffix, so
/// the checkpoint sweep also collects segments a crash left half-written).
/// Returns false for any other name.
inline bool ParseSegmentFileName(const std::string& name,
                                 const std::string& base, uint64_t* id,
                                 bool* is_tmp) {
  const std::string marker = base + ".seg-";
  if (name.size() <= marker.size() ||
      name.compare(0, marker.size(), marker) != 0) {
    return false;
  }
  unsigned long long parsed = 0;
  int consumed = 0;
  const char* tail = name.c_str() + marker.size();
  if (std::sscanf(tail, "%llu%n", &parsed, &consumed) != 1) return false;
  if (tail[consumed] == '\0') {
    *is_tmp = false;
  } else if (std::strcmp(tail + consumed, ".tmp") == 0) {
    *is_tmp = true;
  } else {
    return false;
  }
  *id = parsed;
  return true;
}

/// The one segment writer (checkpoint, demotion and compaction all call
/// it). `keys` must be strictly increasing; `n` may be 0. Writes straight
/// to `path`; durability and atomicity are the caller's (fsync, and a
/// commit point that makes the file reachable only once complete).
template <typename K, typename P>
core::SnapshotStatus WriteSegmentFile(const std::string& path,
                                      const K* keys, const P* payloads,
                                      size_t n, size_t keys_per_block) {
  if (keys_per_block == 0) return core::SnapshotStatus::kIoError;
  const size_t kpb = keys_per_block;
  const size_t num_blocks = (n + kpb - 1) / kpb;

  // The metadata exactly as it lies on disk: the block checksums, then
  // the fence keys, so meta_checksum is one pass over contiguous bytes.
  std::vector<uint8_t> meta(num_blocks * (sizeof(uint64_t) + sizeof(K)));
  uint8_t* const fence_bytes = meta.data() + num_blocks * sizeof(uint64_t);
  model::LinearModelBuilder fence_fit;
  std::vector<uint8_t> block;
  for (size_t b = 0; b < num_blocks; ++b) {
    const size_t lo = b * kpb;
    const size_t m = std::min(kpb, n - lo);
    std::memcpy(fence_bytes + b * sizeof(K), keys + lo, sizeof(K));
    // An infinite fence key would flatten the fit to slope 0; BlockOfKey
    // verifies every prediction, so leaving it out costs nothing.
    const double fence = static_cast<double>(keys[lo]);
    if (std::isfinite(fence)) fence_fit.Add(fence, static_cast<double>(b));
    block.resize(m * (sizeof(K) + sizeof(P)));
    std::memcpy(block.data(), keys + lo, m * sizeof(K));
    std::memcpy(block.data() + m * sizeof(K), payloads + lo,
                m * sizeof(P));
    const uint64_t checksum = util::Checksum64(block.data(), block.size(), 0);
    std::memcpy(meta.data() + b * sizeof(uint64_t), &checksum,
                sizeof(checksum));
  }
  const model::LinearModel fence_model = fence_fit.Build();

  SegmentHeader header;
  header.key_size = sizeof(K);
  header.payload_size = sizeof(P);
  header.keys_per_block = kpb;
  header.num_keys = n;
  header.num_blocks = num_blocks;
  header.fence_slope = fence_model.slope();
  header.fence_intercept = fence_model.intercept();
  header.meta_checksum = util::Checksum64(meta.data(), meta.size(), 0);
  header.header_checksum = SegmentHeaderChecksum(header);

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return core::SnapshotStatus::kIoError;
  bool ok = std::fwrite(&header, sizeof(header), 1, f) == 1;
  if (!meta.empty()) {  // an empty segment is its header alone
    ok = ok && std::fwrite(meta.data(), 1, meta.size(), f) == meta.size();
  }
  for (size_t b = 0; ok && b < num_blocks; ++b) {
    const size_t lo = b * kpb;
    const size_t m = std::min(kpb, n - lo);
    ok = std::fwrite(keys + lo, sizeof(K), m, f) == m &&
         std::fwrite(payloads + lo, sizeof(P), m, f) == m;
  }
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(path.c_str());
    return core::SnapshotStatus::kIoError;
  }
  return core::SnapshotStatus::kOk;
}

/// An open, validated, mmap'd cold segment. Immutable after Open; all
/// read methods are const and safe from any thread (the mapping is
/// PROT_READ and the resident metadata never changes). Every method reads
/// the mapping in place; checking a block's checksum is VerifyBlock's
/// job, which the shard layer runs before a block enters its cache.
template <typename K, typename P>
class ColdSegment {
 public:
  ColdSegment() = default;
  ~ColdSegment() { Close(); }
  ColdSegment(const ColdSegment&) = delete;
  ColdSegment& operator=(const ColdSegment&) = delete;

  /// Opens and fully validates `path`: magic, version, K/P widths,
  /// structural sizes against the file length, header + metadata
  /// checksums, fence sortedness. Does NOT touch block data (that is the
  /// whole point of the tier); call VerifyAllBlocks for a full audit.
  core::SnapshotStatus Open(const std::string& path, uint64_t id) {
    Close();
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return core::SnapshotStatus::kIoError;
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return core::SnapshotStatus::kIoError;
    }
    const uint64_t file_size = static_cast<uint64_t>(st.st_size);
    if (file_size < sizeof(SegmentHeader)) {
      ::close(fd);
      return core::SnapshotStatus::kTruncated;
    }
    void* map = ::mmap(nullptr, file_size, PROT_READ, MAP_SHARED, fd, 0);
    ::close(fd);  // the mapping keeps its own reference
    if (map == MAP_FAILED) return core::SnapshotStatus::kIoError;
    base_ = static_cast<const uint8_t*>(map);
    map_size_ = file_size;

    SegmentHeader header;
    std::memcpy(&header, base_, sizeof(header));
    const core::SnapshotStatus status = Validate(header, file_size);
    if (status != core::SnapshotStatus::kOk) {
      Close();
      return status;
    }
    header_ = header;
    fence_model_ =
        model::LinearModel(header.fence_slope, header.fence_intercept);
    id_ = id;
    cache_id_ = internal::NextSegmentCacheId();
    path_ = path;
    // Random point reads dominate the cold tier; tell the kernel not to
    // read ahead. Best-effort: a hint, not a correctness requirement.
    ::madvise(const_cast<uint8_t*>(base_), map_size_, MADV_RANDOM);
    if (header_.num_keys == 0) {
      min_key_ = std::numeric_limits<K>::max();
      max_key_ = std::numeric_limits<K>::lowest();
      return core::SnapshotStatus::kOk;
    }
    min_key_ = fence_[0];
    max_key_ = internal::LoadAt<K>(base_ +
                                   BlockOffset(header_.num_blocks - 1) +
                                   (LastBlockKeys() - 1) * sizeof(K));
    return core::SnapshotStatus::kOk;
  }

  uint64_t id() const { return id_; }
  /// Process-unique id of this open mapping, the key of its blocks in a
  /// BlockCache. The on-disk id() cannot be that key: checkpoints at
  /// different prefixes number their segments alike.
  uint64_t cache_id() const { return cache_id_; }
  const std::string& path() const { return path_; }
  uint64_t num_keys() const { return header_.num_keys; }
  uint64_t num_blocks() const { return header_.num_blocks; }
  size_t keys_per_block() const { return header_.keys_per_block; }
  uint64_t file_bytes() const { return map_size_; }
  const K& min_key() const { return min_key_; }
  const K& max_key() const { return max_key_; }
  /// Resident metadata footprint (fence + checksum arrays + header).
  size_t MetaSizeBytes() const {
    return sizeof(SegmentHeader) + fence_.size() * sizeof(K) +
           checksums_.size() * sizeof(uint64_t);
  }

  /// Block that could hold `key`: one fence-model predict verified
  /// against the resident fence array, binary-search fallback on a miss
  /// (the shard-router idiom). `key` must be >= min_key().
  size_t BlockOfKey(const K& key) const {
    const size_t n = fence_.size();
    size_t b = fence_model_.Predict(static_cast<double>(key), n);
    if (!(fence_[b] <= key) || (b + 1 < n && !(key < fence_[b + 1]))) {
      b = static_cast<size_t>(
              std::upper_bound(fence_.begin(), fence_.end(), key) -
              fence_.begin()) -
          1;
    }
    return b;
  }

  size_t BlockKeys(size_t b) const {
    return b + 1 == header_.num_blocks ? LastBlockKeys()
                                       : header_.keys_per_block;
  }
  size_t BlockBytes(size_t b) const {
    return BlockKeys(b) * (sizeof(K) + sizeof(P));
  }

  /// Block `b`'s bytes in the mapping: BlockKeys(b) keys, then as many
  /// payloads (the layout SearchBlock reads).
  const uint8_t* BlockData(size_t b) const { return base_ + BlockOffset(b); }

  /// Re-checksums block `b` in place; kSegmentCorrupt on a mismatch.
  core::SnapshotStatus VerifyBlock(size_t b) const {
    return util::Checksum64(BlockData(b), BlockBytes(b), 0) == checksums_[b]
               ? core::SnapshotStatus::kOk
               : core::SnapshotStatus::kSegmentCorrupt;
  }

  /// Full-audit pass (OpenAudited): every block re-checksummed, and its
  /// keys strictly increasing from fence[b] to below fence[b+1] — the
  /// order Get, ScanUntil and BulkLoad rely on; kUnsortedKeys otherwise.
  /// The order check stays out of VerifyBlock, which runs on cold reads.
  core::SnapshotStatus VerifyAllBlocks() const {
    for (size_t b = 0; b < header_.num_blocks; ++b) {
      const core::SnapshotStatus status = VerifyBlock(b);
      if (status != core::SnapshotStatus::kOk) return status;
      const uint8_t* block = BlockData(b);
      K prev = internal::LoadAt<K>(block);
      if (prev != fence_[b]) return core::SnapshotStatus::kUnsortedKeys;
      for (size_t i = 1; i < BlockKeys(b); ++i) {
        const K key = internal::LoadAt<K>(block + i * sizeof(K));
        if (!(prev < key)) return core::SnapshotStatus::kUnsortedKeys;
        prev = key;
      }
      if (b + 1 < header_.num_blocks && !(prev < fence_[b + 1])) {
        return core::SnapshotStatus::kUnsortedKeys;
      }
    }
    return core::SnapshotStatus::kOk;
  }

  /// Point lookup against the raw mapping, unverified.
  bool Get(const K& key, P* out) const {
    if (key < min_key_ || max_key_ < key) return false;
    const size_t b = BlockOfKey(key);
    return SearchBlock(BlockData(b), BlockKeys(b), key, out);
  }

  bool Contains(const K& key) const {
    P ignored;
    return Get(key, &ignored);
  }

  /// Streams [lo, hi] from the raw mapping in ascending key order;
  /// `visit(key, payload)` returns false to stop early. Returns the
  /// number of records visited. The cached equivalent lives at the shard
  /// layer, which interleaves the delta overlay.
  template <typename Visitor>
  size_t ScanUntil(const K& lo, const K& hi, Visitor&& visit) const {
    if (hi < lo || hi < min_key_ || max_key_ < lo) return 0;
    size_t count = 0;
    const size_t first = lo < min_key_ ? 0 : BlockOfKey(lo);
    for (size_t b = first; b < header_.num_blocks; ++b) {
      if (hi < fence_[b]) break;
      const uint8_t* block = BlockData(b);
      const size_t m = BlockKeys(b);
      for (size_t i = 0; i < m; ++i) {
        const K key = internal::LoadAt<K>(block + i * sizeof(K));
        if (key < lo) continue;
        if (hi < key) return count;
        const P payload = internal::LoadAt<P>(
            block + m * sizeof(K) + i * sizeof(P));
        if (!visit(key, payload)) return count + 1;
        ++count;
      }
    }
    return count;
  }

  /// Binary search of one block image (BlockData). Exposed so the shard
  /// layer can search a block it has verified.
  static bool SearchBlock(const uint8_t* block, size_t m, const K& key,
                          P* out) {
    size_t lo = 0, hi = m;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      const K probe = internal::LoadAt<K>(block + mid * sizeof(K));
      if (probe < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == m) return false;
    if (internal::LoadAt<K>(block + lo * sizeof(K)) != key) return false;
    *out = internal::LoadAt<P>(block + m * sizeof(K) + lo * sizeof(P));
    return true;
  }

 private:
  size_t LastBlockKeys() const {
    const size_t rem = header_.num_keys % header_.keys_per_block;
    return rem == 0 ? header_.keys_per_block : rem;
  }

  size_t DataOffset() const {
    return sizeof(SegmentHeader) +
           header_.num_blocks * (sizeof(uint64_t) + sizeof(K));
  }

  size_t BlockOffset(size_t b) const {
    return DataOffset() +
           b * header_.keys_per_block * (sizeof(K) + sizeof(P));
  }

  core::SnapshotStatus Validate(const SegmentHeader& header,
                                uint64_t file_size) {
    if (header.magic != internal::kSegmentMagic) {
      return core::SnapshotStatus::kBadMagic;
    }
    if (header.version != internal::kSegmentVersion) {
      return core::SnapshotStatus::kBadVersion;
    }
    if (SegmentHeaderChecksum(header) != header.header_checksum) {
      return core::SnapshotStatus::kSegmentCorrupt;
    }
    if (header.key_size != sizeof(K)) {
      return core::SnapshotStatus::kKeySizeMismatch;
    }
    if (header.payload_size != sizeof(P)) {
      return core::SnapshotStatus::kPayloadSizeMismatch;
    }
    if (header.keys_per_block == 0) {
      return core::SnapshotStatus::kTruncated;
    }
    // Division-first overflow guards: bound the counts by what the file
    // could possibly hold before any multiplication.
    const uint64_t record = sizeof(K) + sizeof(P);
    if (header.num_keys > file_size / record ||
        header.num_blocks > file_size / (sizeof(uint64_t) + sizeof(K))) {
      return core::SnapshotStatus::kTruncated;
    }
    const uint64_t expect_blocks =
        (header.num_keys + header.keys_per_block - 1) /
        header.keys_per_block;
    if (header.num_blocks != expect_blocks) {
      return core::SnapshotStatus::kTruncated;
    }
    const uint64_t expect_size =
        sizeof(SegmentHeader) +
        header.num_blocks * (sizeof(uint64_t) + sizeof(K)) +
        header.num_keys * record;
    if (file_size != expect_size) {
      return core::SnapshotStatus::kTruncated;
    }
    // Metadata arrays: checksum, then copy resident (fence via memcpy —
    // its file offset is only 8-aligned, not alignof(K)-aligned for
    // every K).
    const uint8_t* checksum_bytes = base_ + sizeof(SegmentHeader);
    const uint8_t* fence_bytes =
        checksum_bytes + header.num_blocks * sizeof(uint64_t);
    const uint64_t meta = util::Checksum64(
        checksum_bytes, header.num_blocks * (sizeof(uint64_t) + sizeof(K)),
        0);
    if (meta != header.meta_checksum) {
      return core::SnapshotStatus::kSegmentCorrupt;
    }
    checksums_.assign(header.num_blocks, 0);
    fence_.assign(header.num_blocks, K{});
    if (header.num_blocks > 0) {
      std::memcpy(checksums_.data(), checksum_bytes,
                  header.num_blocks * sizeof(uint64_t));
      std::memcpy(fence_.data(), fence_bytes,
                  header.num_blocks * sizeof(K));
    }
    for (size_t b = 1; b < fence_.size(); ++b) {
      if (!(fence_[b - 1] < fence_[b])) {
        return core::SnapshotStatus::kUnsortedKeys;
      }
    }
    return core::SnapshotStatus::kOk;
  }

  void Close() {
    if (base_ != nullptr) {
      ::munmap(const_cast<uint8_t*>(base_), map_size_);
      base_ = nullptr;
      map_size_ = 0;
    }
    fence_.clear();
    checksums_.clear();
  }

  const uint8_t* base_ = nullptr;
  size_t map_size_ = 0;
  SegmentHeader header_;
  model::LinearModel fence_model_;
  std::vector<K> fence_;
  std::vector<uint64_t> checksums_;
  K min_key_{};
  K max_key_{};
  uint64_t id_ = 0;
  uint64_t cache_id_ = 0;
  std::string path_;
};

/// The one full reader audit, shared by LoadIndex and
/// ShardedAlex::LoadFrom: Open's structural and metadata checks, then
/// VerifyAllBlocks' block checksums and key order.
template <typename K, typename P>
core::SnapshotStatus OpenAudited(ColdSegment<K, P>* segment,
                                 const std::string& path, uint64_t id) {
  const core::SnapshotStatus status = segment->Open(path, id);
  return status == core::SnapshotStatus::kOk ? segment->VerifyAllBlocks()
                                             : status;
}

/// Saves `index` (an Alex or a ConcurrentAlex) to `path` as one segment of
/// kDefaultBlockBytes blocks. Models and node structure are not saved:
/// LoadIndex bulk-loads the pairs, retraining models under the loader's
/// Config, so a saved index is portable across configs. On a
/// ConcurrentAlex with writers in flight the run is read-committed
/// (RangeScan's contract); a point-in-time image needs quiesced writers,
/// which is what ShardedAlex::SaveTo does with its write gates.
template <template <typename, typename> class Index, typename K,
          typename P>
core::SnapshotStatus SaveIndex(const Index<K, P>& index,
                               const std::string& path) {
  std::vector<std::pair<K, P>> pairs;
  index.RangeScan(std::numeric_limits<K>::lowest(),
                  std::numeric_limits<size_t>::max(), &pairs);
  std::vector<K> keys(pairs.size());
  std::vector<P> payloads(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    keys[i] = pairs[i].first;
    payloads[i] = pairs[i].second;
  }
  return WriteSegmentFile(path, keys.data(), payloads.data(), keys.size(),
                          KeysPerBlock<K, P>(kDefaultBlockBytes));
}

/// Replaces `index`'s contents with the segment at `path` via BulkLoad
/// (on a ConcurrentAlex, concurrent operations linearize around the
/// swap). The segment passes OpenAudited first, so on any non-kOk status
/// the index is left untouched.
template <template <typename, typename> class Index, typename K,
          typename P>
core::SnapshotStatus LoadIndex(Index<K, P>* index, const std::string& path) {
  ColdSegment<K, P> segment;
  const core::SnapshotStatus status = OpenAudited(&segment, path, 0);
  if (status != core::SnapshotStatus::kOk) return status;
  std::vector<K> keys;
  std::vector<P> payloads;
  keys.reserve(segment.num_keys());
  payloads.reserve(segment.num_keys());
  segment.ScanUntil(std::numeric_limits<K>::lowest(),
                    std::numeric_limits<K>::max(),
                    [&](const K& key, const P& payload) {
                      keys.push_back(key);
                      payloads.push_back(payload);
                      return true;
                    });
  index->BulkLoad(keys.data(), payloads.data(), keys.size());
  return core::SnapshotStatus::kOk;
}

}  // namespace alex::tier
