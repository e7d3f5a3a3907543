// Per-shard write-ahead log writer: appends are stores into a mapped
// segment file, and group commit covers only the fdatasync.
//
// One ShardLog serializes Put/Erase records for one shard (format:
// wal_format.h). The current segment file is preallocated
// (posix_fallocate, 64 KiB first, doubling) and mapped MAP_SHARED; each
// record is encoded straight into the mapping under a short mutex. A
// store to a shared file mapping lands in the page cache, so an appended
// record is already in the file — there is no staging buffer and no
// write(2) — and it survives a process crash. While a segment is open
// the file ends in a zero-filled preallocated remainder, which the
// reader (log_reader.h) accepts in a log's last segment only; Seal,
// Rotate (for the superseded segment) and destruction trim the file to
// its logical end, so a closed segment is byte-identical to one written
// record by record.
//
// What remains to amortize is fdatasync(2), driven by a leader/follower
// *group commit*: a committer that needs a sync and finds none in flight
// leads one covering every record appended so far; committers arriving
// meanwhile keep appending, wait for it, and (typically) lead the next
// one together. The cost of a sync therefore amortizes over every writer
// that arrived during the previous sync, instead of charging one fsync
// per operation.
//
// Sync policy decides what an acknowledged Log() means:
//   kAlways — the record is fdatasync-durable before Log() returns
//             (fdatasync writes back pages dirtied through the mapping).
//   kBatch  — the record is in the file (page cache); the first committer
//             past batch_interval_us since the last sync leads one.
//             A power loss can lose at most the last interval's records.
//   kNone   — the record is in the file; the OS syncs whenever.
//
// Seal() ends the log permanently (topology victim/retire hand-off): it
// appends a kSeal record stamped with the final LSN, syncs, and closes.
// Rotate() is the checkpoint hand-off: it closes the current segment and
// opens the next one (seq+1) whose header records the LSN watershed, so
// the superseded segment can be deleted once the checkpoint commits.
// LogTopology() writes a topology child's lineage record (parents[]) as
// the log's first record, fdatasync-durable before any data record can
// be acknowledged.
//
// Under kBatch with WalOptions::background_sync, a clock thread fsyncs
// on the interval even when no committer arrives, bounding how long an
// idle shard's acked records stay page-cache-only; it is joined on Seal
// and destruction, and Rotate waits out any in-flight clock sync before
// swapping segments.
//
// Failure is sticky: once growing or trimming the segment or a sync
// fails, every later append returns kIoError (a kWalError journal event
// records the first), and no store ever lands past the allocated size.
//
// Appends neither fault nor sleep in the common case. The first store to
// each page of the mapping would take a write fault (ext4's page_mkwrite,
// microseconds) under the mutex, so a *prefaulted runway* is kept ahead of
// the logical end: when an append leaves less than half of kRunwayBytes
// prefaulted, that appender (one per half runway) drops the mutex and
// prefaults up to a whole runway past the end, never past the allocated
// size, with madvise(MADV_POPULATE_WRITE), which faults the pages in
// writable without storing, so records other appenders encode meanwhile
// are safe. One prefault per log runs at a time; growth (mremap), Rotate,
// Seal and destruction wait it out as they wait out a sync. The prefault
// is a hint: without the macro it is compiled out, and a failed one stops
// prefaulting that segment, never failing an append. Under kAlways and
// kBatch a prefaulted page is written back once while still zero, before
// its records: at most one extra page write per page of log, with the
// file format and recovery rules unchanged. Appenders take the mutex
// spin-then-sleep (kAppendSpins); the kAlways/kBatch condition-variable
// waits are unchanged.
//
// Commit latency: while obs is enabled, every successful Log()/LogBatch()
// records its wait (entry to commit, nanoseconds on the obs clock,
// obs::NowTicks; a call that refilled the runway counts its prefault too)
// in the obs registry's "wal.commit_wait_ns" histogram — the one record
// of commit wait. With obs off, an append reads no clock.
//
// Thread safety: Log() may be called from any number of threads. Seal()
// and Rotate() require the caller to exclude concurrent Log() calls —
// ShardedAlex calls them under the shard's exclusive write gate.
#pragma once

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/journal.h"
#include "obs/metrics.h"
#include "wal/wal_format.h"

namespace alex::wal {

template <typename K, typename P>
class ShardLog {
 public:
  /// Describes a log without opening it; call Open() next. `start_lsn` is
  /// the LSN already covered elsewhere (0 for a brand-new shard,
  /// last_lsn at rotation).
  ShardLog(std::string prefix, uint64_t wal_id, uint64_t parent_wal_id,
           uint64_t seq, uint64_t start_lsn, const WalOptions& options)
      : prefix_(std::move(prefix)),
        options_(options),
        wal_id_(wal_id),
        parent_wal_id_(parent_wal_id),
        seq_(seq),
        last_lsn_(start_lsn),
        durable_lsn_(start_lsn),
        last_sync_(std::chrono::steady_clock::now()) {}

  /// Trims the segment to its logical end (no sync) and closes it.
  ~ShardLog() {
    std::unique_lock<std::mutex> lock(mu_);
    StopClockLocked(lock);
    WaitIdleLocked(lock);
    if (seg_.fd >= 0 && !CloseSegmentLocked(/*sync=*/false)) {
      FailLocked(last_lsn_);
    }
  }

  ShardLog(const ShardLog&) = delete;
  ShardLog& operator=(const ShardLog&) = delete;

  /// Creates (truncating) the segment file and writes its header; starts
  /// the background sync clock when the options ask for one.
  WalStatus Open() {
    std::unique_lock<std::mutex> lock(mu_);
    const WalStatus status = OpenSegmentLocked();
    if (status == WalStatus::kOk &&
        options_.sync_policy == SyncPolicy::kBatch &&
        options_.background_sync && !clock_thread_.joinable()) {
      stop_clock_ = false;
      clock_thread_ = std::thread([this] { ClockLoop(); });
    }
    return status;
  }

  /// Appends one record and commits it per the sync policy (see the file
  /// comment for what "committed" means under each policy). Returns the
  /// first error sticky: once the log hit an I/O error no later append
  /// can claim durability.
  WalStatus Log(WalRecordType type, const K& key, const P* payload) {
    return LogBatch(type, &key, payload, 1);
  }

  /// Appends `n` same-type records with consecutive LSNs in one
  /// reservation and commits them as ONE group-commit batch: one wait on
  /// the batch's last LSN (so at most one fdatasync(2) covers the whole
  /// run, plus any concurrent committers it carries) and one commit-wait
  /// histogram sample for the batch. `payloads` may be null (erase
  /// batches carry no payload). All-or-nothing acknowledgement: on error
  /// none of the batch may be claimed durable.
  WalStatus LogBatch(WalRecordType type, const K* keys, const P* payloads,
                     size_t n) {
    if (n == 0) return WalStatus::kOk;
    // Only the obs registry reads the commit wait: with it off, the
    // append reads no clock, and with it on, the obs clock.
    const bool timed = obs::Enabled();
    const uint64_t t0 = timed ? obs::NowTicks() : 0;
    const size_t bytes = WalRecordBytes<K, P>(type);
    std::unique_lock<std::mutex> lock = LockAppend();
    // Growth moves the mapping, so it waits out a prefault reading it.
    while (prefault_in_flight_ && seg_.end + n * bytes >= seg_.map_size) {
      cv_.wait(lock);
    }
    if (sealed_) return WalStatus::kSealed;
    if (io_error_) return WalStatus::kIoError;
    uint8_t* out = ReserveLocked(n * bytes);
    if (out == nullptr) return WalStatus::kIoError;
    for (size_t i = 0; i < n; ++i, out += bytes) {
      EncodeWalRecord<K, P>(out, ++last_lsn_, type, keys[i],
                            payloads == nullptr ? nullptr : &payloads[i]);
    }
    const WalStatus status = CommitLocked(lock, last_lsn_);
    if (status == WalStatus::kOk) ExtendRunwayLocked(lock);
    lock.unlock();
    CountAppend(n * bytes, n);
    if (status != WalStatus::kOk) return status;
    if (timed) RecordCommitWait(t0);
    return WalStatus::kOk;
  }

  /// Writes this log's lineage record — the wal ids of the topology
  /// victims it replaces — as its next (in practice: first) record, and
  /// makes it fdatasync-durable before returning. A recovery must never
  /// see acknowledged data records in a merge child without the parent
  /// list that anchors their baseline. Caller must exclude concurrent
  /// Log() calls (ShardedAlex writes it before the child is published).
  WalStatus LogTopology(const std::vector<uint64_t>& parents) {
    std::unique_lock<std::mutex> lock(mu_);
    if (sealed_) return WalStatus::kSealed;
    if (io_error_) return WalStatus::kIoError;
    if (parents.empty() || parents.size() > kMaxTopologyParents) {
      return WalStatus::kBadRecordLength;
    }
    WaitIdleLocked(lock);
    const size_t bytes = WalTopologyRecordBytes(parents.size());
    uint8_t* out = ReserveLocked(bytes);
    if (out == nullptr) return WalStatus::kIoError;
    EncodeWalTopologyRecord(out, ++last_lsn_, parents);
    ALEX_OBS_COUNTER_ADD("wal.bytes_written", bytes);
    return SyncLocked(lock) ? WalStatus::kOk : WalStatus::kIoError;
  }

  /// Ends the log: appends a kSeal record at the final LSN, trims, syncs,
  /// closes. Caller must exclude concurrent Log() calls. The seal is what
  /// lets recovery distinguish "this log is complete by design" (a split
  /// victim) from a log that merely stops.
  WalStatus Seal() {
    std::unique_lock<std::mutex> lock(mu_);
    StopClockLocked(lock);  // the log is ending; the clock must not
                            // touch the fd past this point
    WaitIdleLocked(lock);
    if (sealed_) return WalStatus::kOk;
    if (io_error_) return WalStatus::kIoError;
    const size_t bytes = WalRecordBytes<K, P>(WalRecordType::kSeal);
    uint8_t* out = ReserveLocked(bytes);
    if (out == nullptr) return WalStatus::kIoError;
    // Trim the file to end with the seal *before* storing it: a crash
    // then leaves a log that merely stops (or a torn seal), never a
    // sealed segment followed by a zero remainder, which is corruption.
    if (!TrimLocked()) {
      seg_.end -= bytes;  // the seal was never stored
      FailLocked(last_lsn_ + 1);
      return WalStatus::kIoError;
    }
    const K unused{};  // kSeal has no body; the key is never serialized
    EncodeWalRecord<K, P>(out, ++last_lsn_, WalRecordType::kSeal, unused,
                          nullptr);
    ALEX_OBS_COUNTER_ADD("wal.bytes_written", bytes);
    if (!CloseSegmentLocked(/*sync=*/true)) {
      FailLocked(last_lsn_);
      return WalStatus::kIoError;
    }
    durable_lsn_ = last_lsn_;
    sealed_ = true;
    return WalStatus::kOk;
  }

  /// Checkpoint rotation: trims the current segment to its logical end,
  /// opens segment seq+1 (whose header records the current LSN as its
  /// watershed), then closes the old segment. On failure to open the
  /// new segment the old one stays current, so the log never loses its
  /// tail. Caller must exclude concurrent Log() calls and is responsible
  /// for deleting the superseded segment once its checkpoint committed.
  /// `old_path` (optional) receives the superseded segment's path.
  WalStatus Rotate(std::string* old_path = nullptr) {
    std::unique_lock<std::mutex> lock(mu_);
    // The clock thread may be mid-fdatasync, or an appender mid-prefault,
    // with the mutex dropped; the segment must not be swapped out from
    // under either. (The clock survives rotation — only Seal and
    // destruction stop it.)
    WaitIdleLocked(lock);
    if (sealed_) return WalStatus::kSealed;
    if (io_error_) return WalStatus::kIoError;
    // Trim before the successor exists, so no crash can leave a zero
    // remainder in a segment that is not its log's last. Under kAlways
    // the trim is synced too: a power loss must not resurrect it.
    bool trimmed = TrimLocked();
    if (trimmed && options_.sync_policy == SyncPolicy::kAlways) {
      trimmed = SyncFd(seg_.fd);
    }
    if (!trimmed) {
      FailLocked(last_lsn_);
      return WalStatus::kIoError;
    }
    const Segment old = seg_;
    const uint64_t old_seq = seq_;
    seq_ += 1;
    const WalStatus status = OpenSegmentLocked();
    if (status != WalStatus::kOk) {
      // Keep the old segment current: give its preallocation back. The
      // trim dropped the pages past the end, so its runway starts over.
      seg_ = old;
      seg_.populated = 0;
      seq_ = old_seq;
      if (::posix_fallocate(seg_.fd, 0,
                            static_cast<off_t>(seg_.map_size)) != 0) {
        FailLocked(last_lsn_);
      }
      return status;
    }
    ::munmap(old.map, old.map_size);
    ::close(old.fd);
    if (old_path != nullptr) {
      *old_path = WalSegmentPath(prefix_, wal_id_, old_seq);
    }
    durable_lsn_ = last_lsn_;
    return WalStatus::kOk;
  }

  /// Prefaulted runway kept ahead of the append cursor, refilled when
  /// less than half of it is left (64 pages, ~6.5K 40-byte records).
  /// From 64 KiB to 1 MiB, ingest's write p99 read the same; at 64 KiB a
  /// lone appender's p99.9 held the refills (8-11 us against 0.2-0.3 us),
  /// and above 256 KiB each refill only populates more page cache ahead
  /// of every open log.
  static constexpr size_t kRunwayBytes = 256 * 1024;

  uint64_t wal_id() const { return wal_id_; }
  uint64_t seq() const {
    std::lock_guard<std::mutex> lock(mu_);
    return seq_;
  }
  uint64_t last_lsn() const {
    std::lock_guard<std::mutex> lock(mu_);
    return last_lsn_;
  }
  /// Highest LSN covered by an fdatasync (tests/diagnostics; this is
  /// what the background sync clock advances on an idle log).
  uint64_t durable_lsn() const {
    std::lock_guard<std::mutex> lock(mu_);
    return durable_lsn_;
  }
  bool sealed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sealed_;
  }
  std::string current_path() const {
    std::lock_guard<std::mutex> lock(mu_);
    return WalSegmentPath(prefix_, wal_id_, seq_);
  }

 private:
  /// First preallocation of a segment; each growth doubles it.
  static constexpr size_t kFirstChunk = 64 * 1024;

  /// Appenders spin on the append mutex this many times (a try_lock and
  /// a pause each) before sleeping on it. The critical section is an
  /// encode and a 40-byte store, well under a futex sleep and wake-up;
  /// 32 rounds took 0.8-0.9 us on a 4-CPU Xeon (a pause is ~20 ns),
  /// long enough to outlast one append and short enough to cost little
  /// when the holder is busy for longer.
  static constexpr int kAppendSpins = 32;

  /// The open segment: its file, its mapping, the logical end (the byte
  /// after the last record) and the runway. The file is map_size bytes
  /// long; [0, populated) is prefaulted, and `prefault` turns false for
  /// good once a prefault of this segment failed.
  struct Segment {
    int fd = -1;
    uint8_t* map = nullptr;
    size_t map_size = 0;
    size_t end = 0;
    size_t populated = 0;
    bool prefault = true;
  };

  // ---- Segment syscalls (open, preallocate/map, trim, sync, close) ----

  WalStatus OpenSegmentLocked() {
    const std::string path = WalSegmentPath(prefix_, wal_id_, seq_);
    const int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_TRUNC, 0644);
    if (fd < 0) return WalStatus::kIoError;
    // Persist the directory entry: fdatasync(fd) makes record *data*
    // durable but not the file's existence — without this, a power loss
    // after a rotation could vanish the whole segment, acknowledged
    // records included.
    std::string dir, base;
    SplitPrefixPath(prefix_, &dir, &base);
    void* map = MAP_FAILED;
    if (SyncPath(dir) && ::posix_fallocate(fd, 0, kFirstChunk) == 0) {
      map = ::mmap(nullptr, kFirstChunk, PROT_READ | PROT_WRITE, MAP_SHARED,
                   fd, 0);
    }
    if (map == MAP_FAILED) {
      // Leave no file behind: a stray successor would make a rotated-out
      // segment look like it is not its log's last.
      ::close(fd);
      ::unlink(path.c_str());
      return WalStatus::kIoError;
    }
    seg_ = Segment{fd, static_cast<uint8_t*>(map), kFirstChunk, 0};
    WalSegmentHeader header;
    header.magic = internal::kWalMagic;
    header.version = internal::kWalVersion;
    header.key_size = sizeof(K);
    header.payload_size = sizeof(P);
    header.wal_id = wal_id_;
    header.parent_wal_id = parent_wal_id_;
    header.seq = seq_;
    header.start_lsn = last_lsn_;
    header.header_checksum = WalHeaderChecksum(header);
    std::memcpy(seg_.map, &header, sizeof(header));
    seg_.end = sizeof(header);
    return WalStatus::kOk;
  }

  /// Reserves `n` bytes at the logical end, doubling the file and its
  /// mapping until they fit with at least one zero byte to spare (so an
  /// open segment always ends in a zero remainder, which recovery never
  /// trims). Returns where to encode, or nullptr with the log failed
  /// sticky when the segment cannot grow.
  uint8_t* ReserveLocked(size_t n) {
    if (seg_.end + n >= seg_.map_size) {
      size_t size = seg_.map_size;
      while (seg_.end + n >= size) size *= 2;
      void* grown = MAP_FAILED;
      if (::posix_fallocate(seg_.fd, static_cast<off_t>(seg_.map_size),
                            static_cast<off_t>(size - seg_.map_size)) == 0) {
        grown = ::mremap(seg_.map, seg_.map_size, size, MREMAP_MAYMOVE);
      }
      if (grown == MAP_FAILED) {
        FailLocked(last_lsn_ + 1);
        return nullptr;
      }
      seg_.map = static_cast<uint8_t*>(grown);
      seg_.map_size = size;
    }
    uint8_t* out = seg_.map + seg_.end;
    seg_.end += n;
    return out;
  }

  /// Shrinks the file to the logical end (the mapping stays; nothing is
  /// stored past the end afterwards).
  bool TrimLocked() {
    return ::ftruncate(seg_.fd, static_cast<off_t>(seg_.end)) == 0;
  }

  static bool SyncFd(int fd) {
    const bool ok = ::fdatasync(fd) == 0;
    ALEX_OBS_COUNTER_INC("wal.fsyncs");
    return ok;
  }

  /// Unmaps the segment, trims the file to its logical end (optionally
  /// syncing it) and closes it. False when the trim or sync failed.
  bool CloseSegmentLocked(bool sync) {
    ::munmap(seg_.map, seg_.map_size);
    bool ok = TrimLocked();
    if (ok && sync) ok = SyncFd(seg_.fd);
    ::close(seg_.fd);
    seg_ = Segment{};
    return ok;
  }

  // ---- Commit protocol ----

  /// Marks the log failed (sticky) and journals the first failure.
  void FailLocked([[maybe_unused]] uint64_t lsn) {
    if (io_error_) return;
    io_error_ = true;
    ALEX_OBS_EVENT(obs::EventType::kWalError, obs::kShardAll, wal_id_, lsn,
                   static_cast<int64_t>(WalStatus::kIoError), 0);
  }

  /// Blocks until no sync (leader or clock) and no prefault is in
  /// flight; whatever trims, moves or closes the segment waits here.
  /// mu_ held.
  void WaitIdleLocked(std::unique_lock<std::mutex>& lock) {
    while (flush_in_flight_ || prefault_in_flight_) cv_.wait(lock);
  }

  /// Takes mu_ for an append: kAppendSpins try_locks with a pause after
  /// each, then a blocking lock.
  std::unique_lock<std::mutex> LockAppend() {
    for (int i = 0; i < kAppendSpins; ++i) {
      std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
      if (lock.owns_lock()) return lock;
      CpuPause();
    }
    return std::unique_lock<std::mutex>(mu_);
  }

  static void CpuPause() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  /// Refills the runway (see the file comment) when less than half of
  /// it is left and no prefault is in flight, with mu_ dropped around
  /// the madvise. On any error (EINVAL before Linux 5.14, say) the
  /// segment stops prefaulting and its appends fault their own pages.
  void ExtendRunwayLocked([[maybe_unused]] std::unique_lock<std::mutex>& lock) {
#if defined(MADV_POPULATE_WRITE)
    const size_t want = std::min(seg_.map_size, seg_.end + kRunwayBytes / 2);
    if (prefault_in_flight_ || !seg_.prefault || seg_.populated >= want) {
      return;
    }
    static const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
    const size_t from = std::max(seg_.populated, seg_.end / page * page);
    const size_t to = std::min(
        seg_.map_size, (seg_.end + kRunwayBytes + page - 1) / page * page);
    uint8_t* const start = seg_.map + from;
    prefault_in_flight_ = true;
    lock.unlock();
    const bool ok = ::madvise(start, to - from, MADV_POPULATE_WRITE) == 0;
    lock.lock();
    prefault_in_flight_ = false;
    if (ok) {
      seg_.populated = to;
    } else {
      seg_.prefault = false;
    }
    cv_.notify_all();
#endif
  }

  /// Stops and joins the background sync clock, dropping mu_ around the
  /// join (the thread needs it to observe the stop flag and exit).
  void StopClockLocked(std::unique_lock<std::mutex>& lock) {
    if (!clock_thread_.joinable()) return;
    stop_clock_ = true;
    clock_cv_.notify_all();
    lock.unlock();
    clock_thread_.join();
    lock.lock();
  }

  /// kBatch background sync: wake every batch_interval_us and, when
  /// appended records are sitting unsynced past the interval with no
  /// sync in flight, run the fdatasync a committer would have. The clock
  /// leads exactly like a committer (SyncLocked), so kAlways-style
  /// waiters and Rotate/Seal wait it out before touching the segment.
  void ClockLoop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_clock_) {
      clock_cv_.wait_for(
          lock, std::chrono::microseconds(options_.batch_interval_us));
      if (stop_clock_) break;
      if (seg_.fd < 0 || sealed_ || io_error_ || flush_in_flight_) continue;
      if (durable_lsn_ >= last_lsn_) continue;
      if (std::chrono::steady_clock::now() - last_sync_ <
          std::chrono::microseconds(options_.batch_interval_us)) {
        continue;
      }
      SyncLocked(lock);
    }
  }

  /// Leads one fdatasync covering every record appended so far, with mu_
  /// dropped around it (appenders keep storing meanwhile; the segment
  /// cannot be swapped while flush_in_flight_ is set). False — with the
  /// log failed sticky — when the sync fails.
  bool SyncLocked(std::unique_lock<std::mutex>& lock) {
    flush_in_flight_ = true;
    const uint64_t target = last_lsn_;
    const int fd = seg_.fd;
    lock.unlock();
    const bool ok = SyncFd(fd);
    lock.lock();
    flush_in_flight_ = false;
    if (ok) {
      if (target > durable_lsn_) durable_lsn_ = target;
      last_sync_ = std::chrono::steady_clock::now();
    } else {
      FailLocked(target);
    }
    cv_.notify_all();
    return ok;
  }

  /// Commits `lsn`, which is already in the file: kNone is done; kBatch
  /// leads a sync when the interval has passed and none is in flight;
  /// kAlways waits until a sync covers `lsn`, leading one whenever none
  /// is in flight. mu_ held on entry and exit; dropped around a sync.
  WalStatus CommitLocked(std::unique_lock<std::mutex>& lock, uint64_t lsn) {
    if (options_.sync_policy == SyncPolicy::kNone) return WalStatus::kOk;
    if (options_.sync_policy == SyncPolicy::kBatch) {
      if (flush_in_flight_ ||
          std::chrono::steady_clock::now() - last_sync_ <
              std::chrono::microseconds(options_.batch_interval_us)) {
        return WalStatus::kOk;
      }
      return SyncLocked(lock) ? WalStatus::kOk : WalStatus::kIoError;
    }
    while (durable_lsn_ < lsn) {
      if (io_error_) return WalStatus::kIoError;
      if (flush_in_flight_) {
        // A sync is in flight that may predate our record: wait it out,
        // then (typically) lead the next one, carrying everyone who
        // appended meanwhile.
        cv_.wait(lock);
        continue;
      }
      if (!SyncLocked(lock)) return WalStatus::kIoError;
    }
    return WalStatus::kOk;
  }

  /// Counts one Log()/LogBatch() append of `records` records.
  static void CountAppend([[maybe_unused]] size_t bytes,
                          [[maybe_unused]] size_t records) {
    ALEX_OBS_COUNTER_ADD("wal.bytes_written", bytes);
    ALEX_OBS_COUNTER_INC("wal.commit_batches");
    ALEX_OBS_COUNTER_ADD("wal.records_logged", records);
    // Batch-shape distributions only for multi-record batches: single
    // records say nothing about batching and would swamp the histograms.
    // Exact rates and means stay derivable from the counters
    // (bytes_written / records_logged / commit_batches).
    if (records > 1) {
      ALEX_OBS_HIST_RECORD("wal.commit_batch_bytes", bytes);
      ALEX_OBS_HIST_RECORD("wal.commit_batch_records", records);
    }
  }

  /// Records one acknowledgement's commit wait, entry to ack.
  /// `t0` is the obs::NowTicks() reading at entry.
  static void RecordCommitWait(uint64_t t0) {
    [[maybe_unused]] const uint64_t wait_ns =
        obs::TicksToNs(obs::NowTicks() - t0);
    ALEX_OBS_HIST_RECORD("wal.commit_wait_ns", wait_ns);
    // Feed the op-context from the wait this call already measured —
    // the slow-op trace gets the number without a second clock pair.
    ALEX_OBS_CTX_ADD(wal_wait_ns, wait_ns);
  }

  const std::string prefix_;
  const WalOptions options_;
  const uint64_t wal_id_;
  const uint64_t parent_wal_id_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Segment seg_;
  uint64_t seq_;
  uint64_t last_lsn_;     ///< highest LSN appended (all of it in the file)
  uint64_t durable_lsn_;  ///< highest LSN covered by an fdatasync
  bool flush_in_flight_ = false;  ///< a sync is running with mu_ dropped
  bool prefault_in_flight_ = false;  ///< a prefault runs with mu_ dropped
  bool sealed_ = false;
  bool io_error_ = false;
  std::chrono::steady_clock::time_point last_sync_;
  std::thread clock_thread_;         ///< background sync clock (kBatch)
  std::condition_variable clock_cv_;
  bool stop_clock_ = false;
};

}  // namespace alex::wal
