// Per-shard write-ahead log writer with group commit.
//
// One ShardLog serializes Put/Erase records for one shard (format:
// wal_format.h). Appends are cheap — serialize into an in-memory arena
// under a short mutex — and durability is driven by a leader/follower
// *group commit*: the first committer whose record is not yet covered
// steals the whole arena, writes it with one write(2) and (policy
// permitting) one fdatasync(2), then wakes every follower whose record
// the batch covered. While a leader is in flight, later writers keep
// appending to the fresh arena and wait; the next leader flushes them all
// at once. The cost of a sync therefore amortizes over every writer that
// arrived during the previous sync, instead of charging one fsync per
// operation.
//
// Sync policy decides what an acknowledged Log() means:
//   kAlways — the record is fdatasync-durable before Log() returns.
//   kBatch  — the record has reached the file (page cache); an fdatasync
//             is piggybacked on the first flush after batch_interval_us.
//             A crash can lose at most the last interval's records.
//   kNone   — the record has reached the file; the OS syncs whenever.
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
// idle shard's acked batch stays page-cache-only; it is joined on Seal
// and destruction, and Rotate waits out any in-flight clock sync before
// swapping file descriptors.
//
// Commit latency: every successful Log()/LogBatch() records its
// wall-clock wait (entry to commit, nanoseconds) in the obs registry's
// "wal.commit_wait_ns" histogram — the one record of commit wait.
//
// Thread safety: Log() may be called from any number of threads. Seal()
// and Rotate() require the caller to exclude concurrent Log() calls —
// ShardedAlex calls them under the shard's exclusive write gate.
#pragma once

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
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
        flushed_lsn_(start_lsn),
        durable_lsn_(start_lsn),
        last_sync_(std::chrono::steady_clock::now()) {}

  /// Flushes what the arena still holds (best effort, no sync) and closes.
  ~ShardLog() {
    std::unique_lock<std::mutex> lock(mu_);
    StopClockLocked(lock);
    WaitFlushIdleLocked(lock);
    if (fd_ >= 0) {
      FlushArenaLocked(/*sync=*/false);
      ::close(fd_);
      fd_ = -1;
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
    const auto t0 = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(mu_);
    if (sealed_) return WalStatus::kSealed;
    if (io_error_) return WalStatus::kIoError;
    const uint64_t lsn = ++last_lsn_;
    AppendWalRecord<K, P>(&arena_, lsn, type, key, payload);
    arena_lsn_ = lsn;
    arena_records_ += 1;
    const WalStatus status = CommitLocked(lock, lsn);
    if (status != WalStatus::kOk) return status;
    // Commit wait, entry to acknowledgement.
    [[maybe_unused]] const uint64_t wait_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    ALEX_OBS_HIST_RECORD("wal.commit_wait_ns", wait_ns);
    // Feed the op-context from the wait this call already measured —
    // the slow-op trace gets the number without a second clock pair.
    ALEX_OBS_CTX_ADD(wal_wait_ns, wait_ns);
    return WalStatus::kOk;
  }

  /// Appends `n` same-type records with consecutive LSNs in one arena
  /// append and commits them as ONE group-commit batch: one wait on the
  /// batch's last LSN (so one write(2) + at most one fdatasync(2) cover
  /// the whole run, plus any concurrent committers it carries) and one
  /// commit-wait histogram sample for the batch. `payloads` may be null
  /// (erase batches carry no payload). All-or-nothing acknowledgement:
  /// on error none of the batch may be claimed durable.
  WalStatus LogBatch(WalRecordType type, const K* keys, const P* payloads,
                     size_t n) {
    if (n == 0) return WalStatus::kOk;
    const auto t0 = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(mu_);
    if (sealed_) return WalStatus::kSealed;
    if (io_error_) return WalStatus::kIoError;
    uint64_t lsn = last_lsn_;
    for (size_t i = 0; i < n; ++i) {
      AppendWalRecord<K, P>(&arena_, ++lsn, type, keys[i],
                            payloads == nullptr ? nullptr : &payloads[i]);
    }
    last_lsn_ = lsn;
    arena_lsn_ = lsn;
    arena_records_ += n;
    const WalStatus status = CommitLocked(lock, lsn);
    if (status != WalStatus::kOk) return status;
    [[maybe_unused]] const uint64_t wait_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    ALEX_OBS_HIST_RECORD("wal.commit_wait_ns", wait_ns);
    ALEX_OBS_CTX_ADD(wal_wait_ns, wait_ns);
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
    WaitFlushIdleLocked(lock);
    const uint64_t lsn = ++last_lsn_;
    AppendWalTopologyRecord(&arena_, lsn, parents);
    arena_lsn_ = lsn;
    arena_records_ += 1;
    if (!FlushArenaLocked(/*sync=*/true)) {
      io_error_ = true;
      ALEX_OBS_EVENT(obs::EventType::kWalError, obs::kShardAll, wal_id_, lsn,
                     static_cast<int64_t>(WalStatus::kIoError), 0);
      return WalStatus::kIoError;
    }
    return WalStatus::kOk;
  }

  /// Ends the log: appends a kSeal record at the final LSN, flushes,
  /// syncs, closes. Caller must exclude concurrent Log() calls. The seal
  /// is what lets recovery distinguish "this log is complete by design"
  /// (a split victim) from a log that merely stops.
  WalStatus Seal() {
    std::unique_lock<std::mutex> lock(mu_);
    StopClockLocked(lock);  // the log is ending; the clock must not
                            // touch the fd past this point
    WaitFlushIdleLocked(lock);
    if (sealed_) return WalStatus::kOk;
    if (io_error_) return WalStatus::kIoError;
    const uint64_t lsn = ++last_lsn_;
    const K unused{};  // kSeal has no body; the key is never serialized
    AppendWalRecord<K, P>(&arena_, lsn, WalRecordType::kSeal, unused,
                          nullptr);
    arena_lsn_ = lsn;
    arena_records_ += 1;
    if (!FlushArenaLocked(/*sync=*/true)) {
      io_error_ = true;
      ALEX_OBS_EVENT(obs::EventType::kWalError, obs::kShardAll, wal_id_, lsn,
                     static_cast<int64_t>(WalStatus::kIoError), 0);
      return WalStatus::kIoError;
    }
    ::close(fd_);
    fd_ = -1;
    sealed_ = true;
    return WalStatus::kOk;
  }

  /// Checkpoint rotation: opens segment seq+1 (whose header records the
  /// current LSN as its watershed), then closes the old segment. On
  /// failure the old segment stays current, so the log never loses its
  /// tail. Caller must exclude concurrent Log() calls and is responsible
  /// for deleting the superseded segment once its checkpoint committed.
  /// `old_path` (optional) receives the superseded segment's path.
  WalStatus Rotate(std::string* old_path = nullptr) {
    std::unique_lock<std::mutex> lock(mu_);
    // The clock thread may be mid-fdatasync with the mutex dropped; the
    // fd must not be swapped out from under it. (It survives rotation —
    // only Seal and destruction stop it.)
    WaitFlushIdleLocked(lock);
    if (sealed_) return WalStatus::kSealed;
    if (io_error_) return WalStatus::kIoError;
    if (!FlushArenaLocked(/*sync=*/false)) {
      io_error_ = true;
      ALEX_OBS_EVENT(obs::EventType::kWalError, obs::kShardAll, wal_id_,
                     last_lsn_, static_cast<int64_t>(WalStatus::kIoError), 0);
      return WalStatus::kIoError;
    }
    const int old_fd = fd_;
    const uint64_t old_seq = seq_;
    fd_ = -1;
    seq_ += 1;
    const WalStatus status = OpenSegmentLocked();
    if (status != WalStatus::kOk) {
      fd_ = old_fd;  // keep the old segment current
      seq_ = old_seq;
      return status;
    }
    ::close(old_fd);
    if (old_path != nullptr) {
      *old_path = WalSegmentPath(prefix_, wal_id_, old_seq);
    }
    flushed_lsn_ = last_lsn_;
    durable_lsn_ = last_lsn_;
    return WalStatus::kOk;
  }

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
  WalStatus OpenSegmentLocked() {
    const std::string path = WalSegmentPath(prefix_, wal_id_, seq_);
    fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (fd_ < 0) return WalStatus::kIoError;
    // Persist the directory entry: fdatasync(fd_) makes record *data*
    // durable but not the file's existence — without this, a power loss
    // after a rotation could vanish the whole segment, acknowledged
    // records included.
    {
      std::string dir, base;
      SplitPrefixPath(prefix_, &dir, &base);
      if (!SyncPath(dir)) {
        ::close(fd_);
        fd_ = -1;
        return WalStatus::kIoError;
      }
    }
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
    if (!WriteAll(&header, sizeof(header))) {
      ::close(fd_);
      fd_ = -1;
      return WalStatus::kIoError;
    }
    return WalStatus::kOk;
  }

  bool WriteAll(const void* data, size_t n) {
    const auto* bytes = static_cast<const uint8_t*>(data);
    while (n > 0) {
      const ssize_t w = ::write(fd_, bytes, n);
      if (w <= 0) return false;
      bytes += w;
      n -= static_cast<size_t>(w);
    }
    return true;
  }

  /// Blocks until no flush (leader or clock) is in flight. mu_ held.
  void WaitFlushIdleLocked(std::unique_lock<std::mutex>& lock) {
    while (flush_in_flight_) cv_.wait(lock);
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
  /// flushed records are sitting unsynced past the interval with no
  /// committer in flight, run the fdatasync a committer would have. The
  /// leader/follower protocol is reused verbatim: the clock claims
  /// flush_in_flight_, so committers wait on it exactly as they would on
  /// a flushing leader, and Rotate/Seal wait it out before touching fd_.
  void ClockLoop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_clock_) {
      clock_cv_.wait_for(
          lock, std::chrono::microseconds(options_.batch_interval_us));
      if (stop_clock_) break;
      if (fd_ < 0 || sealed_ || io_error_ || flush_in_flight_) continue;
      if (durable_lsn_ >= flushed_lsn_) continue;
      if (std::chrono::steady_clock::now() - last_sync_ <
          std::chrono::microseconds(options_.batch_interval_us)) {
        continue;
      }
      flush_in_flight_ = true;
      const uint64_t target = flushed_lsn_;
      lock.unlock();
      const bool ok = ::fdatasync(fd_) == 0;
      ALEX_OBS_COUNTER_INC("wal.fsyncs");
      lock.lock();
      flush_in_flight_ = false;
      if (!ok) {
        io_error_ = true;  // sticky, like any committer's failed sync
        ALEX_OBS_EVENT(obs::EventType::kWalError, obs::kShardAll, wal_id_,
                       target, static_cast<int64_t>(WalStatus::kIoError), 0);
      } else {
        if (target > durable_lsn_) durable_lsn_ = target;
        last_sync_ = std::chrono::steady_clock::now();
      }
      cv_.notify_all();
    }
  }

  /// The leader/follower commit protocol: blocks until `lsn` is covered
  /// per the sync policy (flushed for kBatch/kNone, durable for kAlways),
  /// leading a flush of the whole arena whenever no leader is in flight.
  /// mu_ held on entry and exit; dropped around the I/O.
  WalStatus CommitLocked(std::unique_lock<std::mutex>& lock, uint64_t lsn) {
    const bool want_durable = options_.sync_policy == SyncPolicy::kAlways;
    while ((want_durable ? durable_lsn_ : flushed_lsn_) < lsn) {
      if (io_error_) return WalStatus::kIoError;
      if (flush_in_flight_) {
        // A leader is mid-flush; our record is in the arena it did NOT
        // steal. Wait for it to finish, then (typically) lead the next
        // batch ourselves, carrying everyone who queued meanwhile.
        cv_.wait(lock);
        continue;
      }
      flush_in_flight_ = true;
      std::vector<uint8_t> batch;
      batch.swap(arena_);
      const uint64_t batch_lsn = arena_lsn_;
      const uint64_t batch_records = arena_records_;
      arena_records_ = 0;
      if (!batch.empty()) {
        ALEX_OBS_COUNTER_ADD("wal.bytes_written", batch.size());
        ALEX_OBS_COUNTER_INC("wal.commit_batches");
        ALEX_OBS_COUNTER_ADD("wal.records_logged", batch_records);
        // Batch-shape distributions only when group commit actually
        // grouped: single-record batches say nothing about batching
        // efficiency and would swamp the histograms on uncontended
        // writers. Exact rates and means stay derivable from the
        // counters (bytes_written / records_logged / commit_batches).
        if (batch_records > 1) {
          ALEX_OBS_HIST_RECORD("wal.commit_batch_bytes", batch.size());
          ALEX_OBS_HIST_RECORD("wal.commit_batch_records", batch_records);
        }
      }
      bool do_sync = want_durable;
      if (options_.sync_policy == SyncPolicy::kBatch) {
        const auto now = std::chrono::steady_clock::now();
        do_sync = now - last_sync_ >=
                  std::chrono::microseconds(options_.batch_interval_us);
      }
      lock.unlock();
      bool ok = WriteAll(batch.data(), batch.size());
      if (ok && do_sync) {
        ok = ::fdatasync(fd_) == 0;
        ALEX_OBS_COUNTER_INC("wal.fsyncs");
      }
      lock.lock();
      flush_in_flight_ = false;
      if (!ok) {
        io_error_ = true;
        ALEX_OBS_EVENT(obs::EventType::kWalError, obs::kShardAll, wal_id_,
                       batch_lsn, static_cast<int64_t>(WalStatus::kIoError),
                       0);
        cv_.notify_all();
        return WalStatus::kIoError;
      }
      if (batch_lsn > flushed_lsn_) flushed_lsn_ = batch_lsn;
      if (do_sync) {
        durable_lsn_ = flushed_lsn_;
        last_sync_ = std::chrono::steady_clock::now();
      }
      cv_.notify_all();
    }
    return WalStatus::kOk;
  }

  bool FlushArenaLocked(bool sync) {
    if (!arena_.empty()) {
      if (!WriteAll(arena_.data(), arena_.size())) return false;
      ALEX_OBS_COUNTER_ADD("wal.bytes_written", arena_.size());
      arena_.clear();
      arena_records_ = 0;
      flushed_lsn_ = arena_lsn_;
    }
    if (sync) {
      const bool ok = ::fdatasync(fd_) == 0;
      ALEX_OBS_COUNTER_INC("wal.fsyncs");
      if (!ok) return false;
      durable_lsn_ = flushed_lsn_;
    }
    return true;
  }

  const std::string prefix_;
  const WalOptions options_;
  const uint64_t wal_id_;
  const uint64_t parent_wal_id_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  int fd_ = -1;
  uint64_t seq_;
  uint64_t last_lsn_;     ///< highest LSN assigned (arena included)
  uint64_t arena_lsn_ = 0;  ///< highest LSN currently in the arena
  uint64_t arena_records_ = 0;  ///< records currently in the arena
  uint64_t flushed_lsn_;  ///< highest LSN written to the file
  uint64_t durable_lsn_;  ///< highest LSN covered by an fdatasync
  bool flush_in_flight_ = false;
  bool sealed_ = false;
  bool io_error_ = false;
  std::vector<uint8_t> arena_;
  std::chrono::steady_clock::time_point last_sync_;
  std::thread clock_thread_;         ///< background sync clock (kBatch)
  std::condition_variable clock_cv_;
  bool stop_clock_ = false;
};

}  // namespace alex::wal
