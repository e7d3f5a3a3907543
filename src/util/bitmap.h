// Occupancy bitmap for ALEX data nodes (paper §5.2.3: "ALEX maintains a
// bitmap for each leaf node, so that each bit tracks whether its
// corresponding location in the node is occupied by a key or is a gap. The
// bitmap is fast to query and has low space overhead").
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace alex::util {

/// Fixed-capacity bitset with fast next-set / next-clear scans.
///
/// Used by data nodes to distinguish real keys from gap-fill copies, by
/// range scans to skip gaps, and by model-based (re)insertion to find the
/// first gap to the right of a predicted position.
class Bitmap {
 public:
  Bitmap() = default;

  /// Creates a bitmap of `size` bits, all clear.
  explicit Bitmap(size_t size)
      : size_(size), words_((size + 63) / 64, 0) {}

  size_t size() const { return size_; }

  /// Heap bytes used by the bitmap (counted in ALEX's data size, §5.1).
  size_t SizeBytes() const { return words_.size() * sizeof(uint64_t); }

  bool Get(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  void Set(size_t i) { words_[i >> 6] |= 1ULL << (i & 63); }

  void Clear(size_t i) { words_[i >> 6] &= ~(1ULL << (i & 63)); }

  /// Clears all bits, keeping the size.
  void Reset() {
    for (auto& w : words_) w = 0;
  }

  /// Index of the first set bit at or after `from`, or `size()` if none.
  size_t NextSet(size_t from) const {
    if (from >= size_) return size_;
    size_t word_idx = from >> 6;
    uint64_t word = words_[word_idx] & (~0ULL << (from & 63));
    while (true) {
      if (word != 0) {
        const size_t bit =
            (word_idx << 6) + static_cast<size_t>(__builtin_ctzll(word));
        return bit < size_ ? bit : size_;
      }
      if (++word_idx >= words_.size()) return size_;
      word = words_[word_idx];
    }
  }

  /// Index of the first clear bit at or after `from`, or `size()` if none.
  size_t NextClear(size_t from) const {
    if (from >= size_) return size_;
    size_t word_idx = from >> 6;
    uint64_t word = ~words_[word_idx] & (~0ULL << (from & 63));
    while (true) {
      if (word != 0) {
        const size_t bit =
            (word_idx << 6) + static_cast<size_t>(__builtin_ctzll(word));
        return bit < size_ ? bit : size_;
      }
      if (++word_idx >= words_.size()) return size_;
      word = ~words_[word_idx];
    }
  }

  /// Index of the last set bit at or before `from`, or `size()` if none.
  size_t PrevSet(size_t from) const {
    if (size_ == 0) return size_;
    if (from >= size_) from = size_ - 1;
    size_t word_idx = from >> 6;
    uint64_t word = words_[word_idx] & (~0ULL >> (63 - (from & 63)));
    while (true) {
      if (word != 0) {
        return (word_idx << 6) + 63 -
               static_cast<size_t>(__builtin_clzll(word));
      }
      if (word_idx == 0) return size_;
      word = words_[--word_idx];
    }
  }

  /// Index of the last clear bit at or before `from`, or `size()` if none.
  size_t PrevClear(size_t from) const {
    if (size_ == 0) return size_;
    if (from >= size_) from = size_ - 1;
    size_t word_idx = from >> 6;
    uint64_t word = ~words_[word_idx] & (~0ULL >> (63 - (from & 63)));
    while (true) {
      if (word != 0) {
        return (word_idx << 6) + 63 -
               static_cast<size_t>(__builtin_clzll(word));
      }
      if (word_idx == 0) return size_;
      word = ~words_[--word_idx];
    }
  }

  /// Number of set bits in [0, size).
  size_t PopCount() const {
    size_t total = 0;
    for (uint64_t w : words_) {
      total += static_cast<size_t>(__builtin_popcountll(w));
    }
    return total;
  }

  /// Number of set bits in [lo, hi). Word-at-a-time: the boundary words
  /// are masked, interior words take one popcount each.
  size_t PopCountRange(size_t lo, size_t hi) const {
    if (hi > size_) hi = size_;
    if (lo >= hi) return 0;
    const size_t w_lo = lo >> 6;
    const size_t w_hi = (hi - 1) >> 6;
    const uint64_t lo_mask = ~0ULL << (lo & 63);
    const uint64_t hi_mask = ~0ULL >> (63 - ((hi - 1) & 63));
    if (w_lo == w_hi) {
      return static_cast<size_t>(
          __builtin_popcountll(words_[w_lo] & lo_mask & hi_mask));
    }
    size_t total =
        static_cast<size_t>(__builtin_popcountll(words_[w_lo] & lo_mask));
    for (size_t w = w_lo + 1; w < w_hi; ++w) {
      total += static_cast<size_t>(__builtin_popcountll(words_[w]));
    }
    total += static_cast<size_t>(__builtin_popcountll(words_[w_hi] & hi_mask));
    return total;
  }

  /// Calls visit(i) for each set bit i in [lo, hi) in ascending order,
  /// stopping early when visit returns false. This is the one
  /// occupied-slot walk (§5.2.3): each word is masked to the range once,
  /// then its set bits are taken by count-trailing-zeros and
  /// clear-lowest-bit, so gaps cost nothing per slot.
  template <typename Visitor>
  void ForEachSet(size_t lo, size_t hi, Visitor&& visit) const {
    if (hi > size_) hi = size_;
    if (lo >= hi) return;
    const size_t w_hi = (hi - 1) >> 6;
    size_t w = lo >> 6;
    uint64_t word = words_[w] & (~0ULL << (lo & 63));
    while (true) {
      if (w == w_hi) word &= ~0ULL >> (63 - ((hi - 1) & 63));
      const size_t base = w << 6;
      for (; word != 0; word &= word - 1) {
        if (!visit(base + static_cast<size_t>(__builtin_ctzll(word)))) return;
      }
      if (++w > w_hi) return;
      word = words_[w];
    }
  }

  /// Raw 64-bit occupancy words (bit i of word w = slot w*64 + i). Exposed
  /// so a probe can prefetch the word of a slot without the owner's latch
  /// (container::GappedStorage::PrefetchSlot). Bits at or past size() are
  /// zero.
  const uint64_t* words() const { return words_.data(); }

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace alex::util
