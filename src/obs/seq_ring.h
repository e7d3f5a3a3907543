// SeqRing: the one fixed-size, lock-free record ring of the observability
// layer. The slow-op trace (obs/metrics.h) and the event journal
// (obs/journal.h) each hold one.
//
// A writer claims a ticket with one fetch_add and publishes its record
// into slot ticket % kCapacity through the slot's sequence word: odd
// while writing, 2 * ticket + 2 once published. The record travels as
// atomic 64-bit words (release stores, acquire loads, so a word is never
// seen before the odd mark that precedes it), and no access is ever a
// data race. A reader copies a slot's words between two reads of its
// sequence word and keeps the copy only when both reads see the same
// even value.
//
// The guarantee, stated once: Snapshot() returns only whole records,
// each with its own ticket, unless a slot is claimed again while a Push
// into it is still in flight (kCapacity further tickets handed out during
// one Push). Only then can two writers interleave their words under a
// sequence value the reader accepts. A slot caught mid-write, or reused
// between the reader's two sequence reads, is skipped, never returned.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace alex::obs {

template <typename T, size_t N>
class SeqRing {
  static_assert(std::is_trivially_copyable<T>::value,
                "SeqRing publishes records as raw words");
  static_assert(N > 0 && (N & (N - 1)) == 0, "N must be a power of two");

 public:
  static constexpr size_t kCapacity = N;

  /// One stable record and the ticket its Push claimed.
  struct Entry {
    uint64_t ticket;
    T record;
  };

  /// Records ever pushed (the ring keeps the newest kCapacity).
  uint64_t pushed() const { return next_.load(std::memory_order_relaxed); }

  /// Publishes `record`; safe from any thread. Returns its ticket.
  uint64_t Push(const T& record) {
    uint64_t words[kWords] = {};
    std::memcpy(words, &record, sizeof(T));
    const uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
    Slot& s = slots_[ticket & (kCapacity - 1)];
    s.seq.store(2 * ticket + 1, std::memory_order_relaxed);
    for (size_t w = 0; w < kWords; ++w) {  // release: after the odd mark
      s.words[w].store(words[w], std::memory_order_release);
    }
    s.seq.store(2 * ticket + 2, std::memory_order_release);
    return ticket;
  }

  /// Stable records, oldest first. Wait-free with respect to writers.
  std::vector<Entry> Snapshot() const {
    std::vector<Entry> out;
    out.reserve(kCapacity);
    for (const Slot& s : slots_) {
      const uint64_t seq = s.seq.load(std::memory_order_acquire);
      if (seq == 0 || (seq & 1) != 0) continue;  // empty or being written
      uint64_t words[kWords];
      for (size_t w = 0; w < kWords; ++w) {  // acquire: before the re-read
        words[w] = s.words[w].load(std::memory_order_acquire);
      }
      if (s.seq.load(std::memory_order_relaxed) != seq) continue;  // reused
      Entry e;
      e.ticket = seq / 2 - 1;
      std::memcpy(&e.record, words, sizeof(T));
      out.push_back(e);
    }
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
      return a.ticket < b.ticket;
    });
    return out;
  }

  /// Test/bench-only; must not race Push().
  void Reset() {
    next_.store(0, std::memory_order_relaxed);
    for (Slot& s : slots_) s.seq.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kWords = (sizeof(T) + 7) / 8;

  struct Slot {
    std::atomic<uint64_t> seq{0};
    std::array<std::atomic<uint64_t>, kWords> words{};
  };

  std::atomic<uint64_t> next_{0};
  std::array<Slot, kCapacity> slots_{};
};

}  // namespace alex::obs
