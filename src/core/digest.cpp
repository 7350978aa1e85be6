#include "core/digest.hpp"

#include <array>
#include <cinttypes>
#include <cstdint>
#include <cstdio>

namespace rcsim {

std::string Fnv1a::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
  return std::string{buf};
}

std::string fnv1aHexDigest(std::string_view text) { return Fnv1a{}.add(text).hex(); }

namespace {

const std::array<std::uint32_t, 256>& crcTable() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

std::string crc32Hex(std::string_view text) {
  const auto& table = crcTable();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const unsigned char c : text) crc = table[(crc ^ c) & 0xFFu] ^ (crc >> 8);
  crc ^= 0xFFFFFFFFu;
  char buf[9];
  std::snprintf(buf, sizeof buf, "%08x", crc);
  return std::string{buf};
}

}  // namespace rcsim
