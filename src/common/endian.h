// Little-endian fixed-width loads and stores.
//
// The wire format and the workload's value bytes are little-endian. On a
// little-endian host each access is one unaligned move (std::memcpy);
// elsewhere it falls back to the byte-by-byte shift loop.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace pahoehoe {

template <typename T>
inline void store_le(uint8_t* out, T v) {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &v, sizeof(T));
  } else {
    for (size_t i = 0; i < sizeof(T); ++i) {
      out[i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }
}

template <typename T>
inline T load_le(const uint8_t* in) {
  static_assert(std::is_unsigned_v<T>);
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, in, sizeof(T));
  } else {
    for (size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | static_cast<T>(static_cast<T>(in[i]) << (8 * i)));
    }
  }
  return v;
}

}  // namespace pahoehoe
