// Epoch-based reclamation (EBR) for lock-free readers.
//
// The problem: once readers traverse the RMI without any tree-wide lock
// (see core/concurrent_alex.h), a split cannot `delete` the leaf it
// replaced — a reader that loaded the old child pointer an instant earlier
// may still be searching inside it. EBR defers the free until every reader
// that could possibly hold such a reference has provably moved on.
//
// Protocol (the classic three-epoch scheme):
//
//   * A global epoch counter advances one step at a time.
//   * Each reader *pins* the current epoch into a private slot for the
//     duration of one operation (EpochGuard, RAII) and clears the slot on
//     exit. Pinning is two atomic ops on the reader's own cache line —
//     no shared writes, no RMW, no lock.
//   * Writers retire unlinked nodes instead of deleting them; each retired
//     node is stamped with the epoch at retirement.
//   * The epoch may advance from E to E+1 only when every pinned slot
//     holds E (idle slots don't block). A node stamped `s` is freed once
//     the global epoch reaches s+2: the two intervening advances prove no
//     reader pinned at <= s survives, and the slot loads that proved it
//     form the happens-before edge from every reader access to the free.
//
// Memory ordering: pins, unpins, epoch loads and the publish/unlink stores
// in the index are all seq_cst. The formal argument needs the single total
// order: a reader whose pin-load returned epoch s+1 ordered after the
// retirement's epoch-load (which returned s), so the reader's subsequent
// seq_cst child-pointer loads cannot observe the pre-unlink pointer. On
// x86/ARM a seq_cst *load* costs the same as an acquire load, so the read
// hot path pays nothing for this rigor; seq_cst *stores* happen only on
// pin/unpin (reader-private line) and publish (rare).
//
// Slot management: a thread claims one slot per EpochManager on first use
// and caches it thread-locally; the slot is returned to the manager's free
// list when the thread exits (so short-lived threads don't exhaust the
// fixed slot array). A global registry of live managers keeps that
// hand-back safe when managers die before threads do.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace alex::util {

class EpochManager {
 public:
  /// Slot value meaning "not pinned".
  static constexpr uint64_t kIdle = ~uint64_t{0};
  /// Maximum threads concurrently registered with one manager.
  static constexpr size_t kMaxSlots = 1024;
  /// Retirements between two reclamation attempts of MaybeReclaim.
  static constexpr size_t kReclaimBatch = 64;

  EpochManager() : id_(NextId()) {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    Registry()[id_] = this;
  }

  /// Drains every retired object unconditionally. The caller must
  /// guarantee quiescence (no live guards, no concurrent operations) —
  /// the same contract as destroying the index that owns the manager.
  ~EpochManager() {
    {
      std::lock_guard<std::mutex> lock(RegistryMutex());
      Registry().erase(id_);
    }
    std::lock_guard<std::mutex> lock(retire_mutex_);
    for (const Retired& r : retired_) {
      r.deleter(r.object);
    }
    freed_ += retired_.size();
    retired_.clear();
  }

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// RAII epoch pin. Cheap (two seq_cst accesses on a thread-private
  /// line), reentrant (a nested guard reuses the outer pin), and
  /// non-copyable. References obtained from the protected structure must
  /// not outlive the guard.
  class Guard {
   public:
    explicit Guard(EpochManager& manager)
        : slot_(manager.SlotForThisThread()) {
      outer_ = slot_->load(std::memory_order_relaxed);
      if (outer_ != kIdle) return;  // nested: outer pin already protects us
      uint64_t e = manager.global_epoch_.load(std::memory_order_seq_cst);
      while (true) {
        slot_->store(e, std::memory_order_seq_cst);
        const uint64_t now =
            manager.global_epoch_.load(std::memory_order_seq_cst);
        if (now == e) break;  // slot holds the current epoch
        e = now;
      }
    }

    ~Guard() {
      if (outer_ == kIdle) slot_->store(kIdle, std::memory_order_seq_cst);
    }

    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    std::atomic<uint64_t>* slot_;
    uint64_t outer_;
  };

  /// Hands `object` to the reclaimer; `delete`d (virtually, through T)
  /// once no reader pinned at or before the current epoch remains.
  template <typename T>
  void Retire(T* object) {
    RetireRaw(object,
              [](void* p) { delete static_cast<T*>(p); });
  }

  /// Type-erased retire for callers that already hold a deleter.
  void RetireRaw(void* object, void (*deleter)(void*)) {
    const uint64_t stamp = global_epoch_.load(std::memory_order_seq_cst);
    std::lock_guard<std::mutex> lock(retire_mutex_);
    retired_.push_back(Retired{object, deleter, stamp});
    unattempted_.store(unattempted_.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
    ALEX_OBS_COUNTER_INC("epoch.retired");
    ALEX_OBS_GAUGE_SET("epoch.retired_unreclaimed",
                       static_cast<int64_t>(retired_.size()));
  }

  /// Tries to advance the epoch and frees every sufficiently old retired
  /// object. Non-blocking: bails out if another thread is reclaiming.
  /// Called opportunistically from the structural write paths; safe to
  /// call while the calling thread itself holds a Guard (its own pin just
  /// bounds how far the epoch can advance this round).
  void TryReclaim() {
    std::unique_lock<std::mutex> lock(retire_mutex_, std::try_to_lock);
    if (!lock.owns_lock()) return;
    unattempted_.store(0, std::memory_order_relaxed);
    uint64_t epoch = global_epoch_.load(std::memory_order_seq_cst);
    // Scan the whole array, not just up to the claim watermark: a
    // watermark bound would need a happens-before edge from slot claiming
    // (which runs under the registry mutex, never taken here) or a fresh
    // pinned slot could be skipped across two advances. Unclaimed slots
    // read kIdle, so the full scan is trivially sound and costs only a
    // few microseconds on this rare path.
    bool can_advance = true;
    for (size_t i = 0; i < kMaxSlots; ++i) {
      const uint64_t pinned =
          slots_[i].epoch.load(std::memory_order_seq_cst);
      if (pinned != kIdle && pinned != epoch) {
        can_advance = false;
        break;
      }
    }
    if (can_advance) {
      // Only reclaimers mutate the epoch and they serialize on
      // retire_mutex_, so a plain store would do; the CAS documents the
      // invariant.
      global_epoch_.compare_exchange_strong(epoch, epoch + 1,
                                            std::memory_order_seq_cst);
      epoch += 1;
      ALEX_OBS_COUNTER_INC("epoch.advances");
      ALEX_OBS_GAUGE_SET("epoch.global_epoch", static_cast<int64_t>(epoch));
    } else {
      ALEX_OBS_COUNTER_INC("epoch.advance_stalls");
    }
    size_t kept = 0;
    size_t freed_this_round = 0;
    for (size_t i = 0; i < retired_.size(); ++i) {
      if (retired_[i].stamp + 2 <= epoch) {
        retired_[i].deleter(retired_[i].object);
        ++freed_;
        ++freed_this_round;
      } else {
        retired_[kept++] = retired_[i];
      }
    }
    retired_.resize(kept);
    if (freed_this_round > 0) {
      ALEX_OBS_COUNTER_ADD("epoch.freed",
                           static_cast<uint64_t>(freed_this_round));
    }
    ALEX_OBS_GAUGE_SET("epoch.retired_unreclaimed",
                       static_cast<int64_t>(retired_.size()));
  }

  /// TryReclaim, amortized for the write paths that retire often (leaf
  /// splits, leaf storage rebuilds): attempts only once kReclaimBatch
  /// objects were retired since the last attempt, since each attempt
  /// scans all kMaxSlots epoch slots. Bulk loads call TryReclaim, and the
  /// destructor drains everything.
  void MaybeReclaim() {
    if (unattempted_.load(std::memory_order_relaxed) >= kReclaimBatch) {
      TryReclaim();
    }
  }

  /// Current global epoch (diagnostics).
  uint64_t epoch() const {
    return global_epoch_.load(std::memory_order_seq_cst);
  }

  /// Objects currently awaiting reclamation (diagnostics/tests).
  size_t retired_count() const {
    std::lock_guard<std::mutex> lock(retire_mutex_);
    return retired_.size();
  }

  /// Objects freed so far, destructor drain included (diagnostics/tests).
  uint64_t freed_count() const {
    std::lock_guard<std::mutex> lock(retire_mutex_);
    return freed_;
  }

 private:
  struct Retired {
    void* object;
    void (*deleter)(void*);
    uint64_t stamp;
  };

  // Each slot gets its own cache line so one thread's pin/unpin traffic
  // never invalidates another reader's line.
  struct alignas(64) Slot {
    std::atomic<uint64_t> epoch{kIdle};
  };

  // ---- global registry: manager id -> live manager ----
  // Lets a thread-exit hook return cached slots without dangling when the
  // manager died first. Touched only on manager create/destroy, first pin
  // of a (thread, manager) pair, and thread exit.

  static std::mutex& RegistryMutex() {
    static std::mutex m;
    return m;
  }
  static std::unordered_map<uint64_t, EpochManager*>& Registry() {
    static std::unordered_map<uint64_t, EpochManager*> r;
    return r;
  }
  static uint64_t NextId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  // ---- per-thread slot cache ----

  struct ThreadSlots {
    struct Entry {
      uint64_t manager_id;
      std::atomic<uint64_t>* slot;
    };
    std::vector<Entry> entries;

    ~ThreadSlots() {
      // Thread exit: hand every claimed slot back to its manager (if the
      // manager is still alive) so the slot array never fills up under
      // workloads that churn short-lived threads.
      std::lock_guard<std::mutex> lock(RegistryMutex());
      for (const Entry& e : entries) {
        auto it = Registry().find(e.manager_id);
        if (it != Registry().end()) it->second->ReleaseSlot(e.slot);
      }
    }
  };

  static ThreadSlots& ThisThreadSlots() {
    thread_local ThreadSlots slots;
    return slots;
  }

  std::atomic<uint64_t>* SlotForThisThread() {
    ThreadSlots& cache = ThisThreadSlots();
    for (const ThreadSlots::Entry& e : cache.entries) {
      if (e.manager_id == id_) return e.slot;
    }
    // Slow path: first pin of this (thread, manager) pair.
    std::lock_guard<std::mutex> lock(RegistryMutex());
    // Drop cache entries whose managers are gone, so a thread touching
    // many short-lived indexes keeps its scan short.
    auto& entries = cache.entries;
    for (size_t i = 0; i < entries.size();) {
      if (Registry().count(entries[i].manager_id) == 0) {
        entries[i] = entries.back();
        entries.pop_back();
      } else {
        ++i;
      }
    }
    std::atomic<uint64_t>* slot = ClaimSlotLocked();
    entries.push_back(ThreadSlots::Entry{id_, slot});
    return slot;
  }

  // Both called under RegistryMutex().
  std::atomic<uint64_t>* ClaimSlotLocked() {
    if (!free_slots_.empty()) {
      std::atomic<uint64_t>* slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    const size_t i = slot_watermark_;
    assert(i < kMaxSlots && "EpochManager: too many concurrent threads");
    slot_watermark_ = i + 1;
    return &slots_[i].epoch;
  }

  void ReleaseSlot(std::atomic<uint64_t>* slot) {
    assert(slot->load(std::memory_order_relaxed) == kIdle);
    free_slots_.push_back(slot);
  }

  const uint64_t id_;
  // Starts at 2 so `stamp + 2 <= epoch` never needs underflow care.
  std::atomic<uint64_t> global_epoch_{2};
  size_t slot_watermark_ = 0;  // under RegistryMutex()
  Slot slots_[kMaxSlots];
  std::vector<std::atomic<uint64_t>*> free_slots_;  // under RegistryMutex()
  mutable std::mutex retire_mutex_;
  std::vector<Retired> retired_;  // under retire_mutex_
  uint64_t freed_ = 0;            // under retire_mutex_
  // Retirements since the last reclamation attempt; written under
  // retire_mutex_, read without it by MaybeReclaim.
  std::atomic<size_t> unattempted_{0};
};

}  // namespace alex::util
