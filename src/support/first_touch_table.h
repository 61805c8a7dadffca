// FirstTouchTable<T> — a fixed-size table whose elements are built the first
// time they are touched.
//
// Per-erase-sector state (the flash device's wear and extents, the FTL's
// sector metadata and victim-index nodes) is sized to the card, but a
// machine touches only the sectors it writes: a two-second fleet user opens
// a handful per bank out of thousands. The table allocates storage for N
// elements without constructing any of them and keeps one bit per element
// recording which exist, plus one summary bit per 64 of those. Construction
// costs one allocation plus an N-bit clear; NextTouched() skips 4096
// untouched elements per summary word, so destruction visits only the set
// bits (none at all for a trivially destructible T).
//
// An untouched element stands for the owner's "fresh" state, which the owner
// answers itself: readers that may meet one use Find() (null) or contains();
// paths that only ever reach touched elements index unchecked with
// operator[], which asserts in debug builds.
//
// Not thread-safe; the simulator is single-threaded.

#ifndef SSMC_SRC_SUPPORT_FIRST_TOUCH_TABLE_H_
#define SSMC_SRC_SUPPORT_FIRST_TOUCH_TABLE_H_

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

namespace ssmc {

template <typename T>
class FirstTouchTable {
 public:
  explicit FirstTouchTable(size_t n)
      : size_(n),
        words_(Words(n)),
        bits_(std::make_unique<uint64_t[]>(words_ + Words(words_))),
        slots_(n > 0 ? std::allocator<T>().allocate(n) : nullptr) {}

  ~FirstTouchTable() {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      for (size_t i = NextTouched(0); i < size_; i = NextTouched(i + 1)) {
        std::destroy_at(slots_ + i);
      }
    }
    if (slots_ != nullptr) {
      std::allocator<T>().deallocate(slots_, size_);
    }
  }

  FirstTouchTable(const FirstTouchTable&) = delete;
  FirstTouchTable& operator=(const FirstTouchTable&) = delete;

  size_t size() const { return size_; }

  bool contains(size_t i) const {
    assert(i < size_);
    return ((bits_[i >> 6] >> (i & 63)) & 1) != 0;
  }

  // Element `i`, which must have been touched.
  T& operator[](size_t i) {
    assert(contains(i) && "element read before its first touch");
    return slots_[i];
  }
  const T& operator[](size_t i) const {
    assert(contains(i) && "element read before its first touch");
    return slots_[i];
  }

  // Element `i`, or null if it was never touched.
  const T* Find(size_t i) const { return contains(i) ? slots_ + i : nullptr; }

  // Element `i`, value-initialized here if this is its first touch.
  T& Touch(size_t i) {
    if (!contains(i)) {
      std::construct_at(slots_ + i);
      bits_[i >> 6] |= uint64_t{1} << (i & 63);
      bits_[words_ + (i >> 12)] |= uint64_t{1} << ((i >> 6) & 63);
    }
    return slots_[i];
  }

  // The first touched index at or after `i`, or size() if there is none.
  size_t NextTouched(size_t i) const {
    if (i >= size_) {
      return size_;
    }
    size_t w = i >> 6;
    const uint64_t bits = bits_[w] & (~uint64_t{0} << (i & 63));
    if (bits != 0) {
      return (w << 6) + static_cast<size_t>(std::countr_zero(bits));
    }
    // The next non-empty word after w, from the summary.
    if (++w == words_) {
      return size_;
    }
    const uint64_t* summary = bits_.get() + words_;
    size_t sw = w >> 6;
    uint64_t sbits = summary[sw] & (~uint64_t{0} << (w & 63));
    while (sbits == 0) {
      if (++sw == Words(words_)) {
        return size_;
      }
      sbits = summary[sw];
    }
    w = (sw << 6) + static_cast<size_t>(std::countr_zero(sbits));
    return (w << 6) + static_cast<size_t>(std::countr_zero(bits_[w]));
  }

  // Address of slot `i`, built or not: for prefetch hints only.
  const T* slot(size_t i) const { return slots_ + i; }

 private:
  static size_t Words(size_t n) { return (n + 63) / 64; }

  size_t size_;
  size_t words_;  // Words of per-element bits.
  // Bit i of the first words_ words: slot i is constructed. Bit w of the
  // summary words after them: word w has a bit set.
  std::unique_ptr<uint64_t[]> bits_;
  T* slots_;
};

}  // namespace ssmc

#endif  // SSMC_SRC_SUPPORT_FIRST_TOUCH_TABLE_H_
