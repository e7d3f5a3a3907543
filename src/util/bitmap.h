// Occupancy bitmap for ALEX data nodes (paper §5.2.3: "ALEX maintains a
// bitmap for each leaf node, so that each bit tracks whether its
// corresponding location in the node is occupied by a key or is a gap. The
// bitmap is fast to query and has low space overhead").
//
// A leaf keeps its bitmap words inside its one storage block
// (containers/storage_common.h), so the algorithms live on a non-owning
// BitmapView over those words; Bitmap is the owning variant for code that
// wants a standalone bitset.
//
// Word stores are atomic release stores: an optimistic probe
// (core/concurrent_alex.h) may load a word of a published block while its
// writer updates it. The probe loads through the kSync variants of Get and
// NextSet (acquire loads). On x86-64 both compile to plain moves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace alex::util {

/// Fixed-size bitset over caller-owned 64-bit words, with fast next-set /
/// next-clear scans. Bits at or past size() in the last word stay zero.
///
/// Used by data nodes to distinguish real keys from gap-fill copies, by
/// range scans to skip gaps, and by model-based (re)insertion to find the
/// first gap to the right of a predicted position.
class BitmapView {
 public:
  BitmapView() = default;
  BitmapView(uint64_t* words, size_t size) : words_(words), size_(size) {}

  /// Words needed for `bits` bits.
  static constexpr size_t WordsFor(size_t bits) { return (bits + 63) / 64; }

  size_t size() const { return size_; }

  /// Bytes of the words (counted in ALEX's data size, §5.1).
  size_t SizeBytes() const { return WordsFor(size_) * sizeof(uint64_t); }

  template <bool kSync = false>
  bool Get(size_t i) const {
    return (Word<kSync>(i >> 6) >> (i & 63)) & 1ULL;
  }

  void Set(size_t i) {
    StoreWord(i >> 6, words_[i >> 6] | (1ULL << (i & 63)));
  }

  void Clear(size_t i) {
    StoreWord(i >> 6, words_[i >> 6] & ~(1ULL << (i & 63)));
  }

  /// Clears all bits, keeping the size.
  void Reset() {
    for (size_t w = 0; w < WordsFor(size_); ++w) StoreWord(w, 0);
  }

  /// Index of the first set bit at or after `from`, or `size()` if none.
  template <bool kSync = false>
  size_t NextSet(size_t from) const {
    if (from >= size_) return size_;
    const size_t num_words = WordsFor(size_);
    size_t word_idx = from >> 6;
    uint64_t word = Word<kSync>(word_idx) & (~0ULL << (from & 63));
    while (true) {
      if (word != 0) {
        const size_t bit =
            (word_idx << 6) + static_cast<size_t>(__builtin_ctzll(word));
        return bit < size_ ? bit : size_;
      }
      if (++word_idx >= num_words) return size_;
      word = Word<kSync>(word_idx);
    }
  }

  /// Index of the first clear bit at or after `from`, or `size()` if none.
  size_t NextClear(size_t from) const {
    if (from >= size_) return size_;
    const size_t num_words = WordsFor(size_);
    size_t word_idx = from >> 6;
    uint64_t word = ~words_[word_idx] & (~0ULL << (from & 63));
    while (true) {
      if (word != 0) {
        const size_t bit =
            (word_idx << 6) + static_cast<size_t>(__builtin_ctzll(word));
        return bit < size_ ? bit : size_;
      }
      if (++word_idx >= num_words) return size_;
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
    for (size_t w = 0; w < WordsFor(size_); ++w) {
      total += static_cast<size_t>(__builtin_popcountll(words_[w]));
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

  /// Raw 64-bit occupancy words (bit i of word w = slot w*64 + i).
  const uint64_t* words() const { return words_; }

 protected:
  template <bool kSync>
  uint64_t Word(size_t w) const {
    if constexpr (kSync) {
      return __atomic_load_n(&words_[w], __ATOMIC_ACQUIRE);
    } else {
      return words_[w];
    }
  }

  void StoreWord(size_t w, uint64_t value) {
    __atomic_store_n(&words_[w], value, __ATOMIC_RELEASE);
  }

  uint64_t* words_ = nullptr;
  size_t size_ = 0;
};

/// A BitmapView that owns its words.
class Bitmap : public BitmapView {
 public:
  Bitmap() = default;

  /// Creates a bitmap of `size` bits, all clear.
  explicit Bitmap(size_t size) : storage_(WordsFor(size), 0) { Bind(size); }

  Bitmap(const Bitmap& other) : BitmapView(), storage_(other.storage_) {
    Bind(other.size_);
  }
  Bitmap(Bitmap&& other) noexcept
      : BitmapView(), storage_(std::move(other.storage_)) {
    Bind(other.size_);
    other.storage_.clear();
    other.Bind(0);
  }
  Bitmap& operator=(Bitmap other) noexcept {
    storage_.swap(other.storage_);
    Bind(other.size_);
    return *this;
  }

 private:
  void Bind(size_t size) {
    words_ = storage_.data();
    size_ = size;
  }

  std::vector<uint64_t> storage_;
};

}  // namespace alex::util
