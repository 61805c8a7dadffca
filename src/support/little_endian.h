// Little-endian integer codec for the simulator's on-media formats: the
// metadata journal's records and block headers (journal_format.h) and the
// file system's dense checkpoint (memory_fs.h). One copy, so both formats
// agree on byte order by construction.

#ifndef SSMC_SRC_SUPPORT_LITTLE_ENDIAN_H_
#define SSMC_SRC_SUPPORT_LITTLE_ENDIAN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace ssmc {

// Writes the sizeof(T) low bytes of `v`, least significant first, at
// out[pos]; the caller has checked the bounds.
template <typename T>
void StoreLe(std::span<uint8_t> out, uint64_t pos, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    out[pos + i] = static_cast<uint8_t>(uint64_t{v} >> (8 * i));
  }
}

// Reads the sizeof(T)-byte little-endian unsigned integer at data[pos]; the
// caller has checked the bounds.
template <typename T>
T LoadLe(std::span<const uint8_t> data, uint64_t pos) {
  uint64_t v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v |= uint64_t{data[pos + i]} << (8 * i);
  }
  return static_cast<T>(v);
}

// Appends `v` to `out`, least significant byte first. T is never deduced
// (AppendLe<uint32_t>(out, 0)), so a literal cannot pick the width.
template <typename T>
void AppendLe(std::vector<uint8_t>& out, std::type_identity_t<T> v) {
  out.resize(out.size() + sizeof(T));
  StoreLe<T>(out, out.size() - sizeof(T), v);
}

// Bounds-checked sequential reader over a blob: every read fails (returns
// false, consuming nothing) rather than run past the end.
class LeReader {
 public:
  explicit LeReader(std::span<const uint8_t> data) : data_(data) {}

  // Reads a sizeof(T)-byte little-endian unsigned integer.
  template <typename T>
  bool Read(T* v) {
    if (sizeof(T) > remaining()) {
      return false;
    }
    *v = LoadLe<T>(data_, pos_);
    pos_ += sizeof(T);
    return true;
  }
  bool ReadString(size_t n, std::string* out) {
    if (n > remaining()) {
      return false;
    }
    out->assign(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return true;
  }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace ssmc

#endif  // SSMC_SRC_SUPPORT_LITTLE_ENDIAN_H_
