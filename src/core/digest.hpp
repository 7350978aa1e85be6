#pragma once

// Small content-identity hashes shared across layers: the result/aggregate
// fingerprints (core/fingerprint), the run journal's CRC framing
// (exp/journal), and the rcsim-trace-v1 stream (obs/trace_io). Kept in
// core so obs and exp can both use them without depending on each other.

#include <cstdint>
#include <string>
#include <string_view>

namespace rcsim {

/// Incremental FNV-1a 64-bit: offset basis 14695981039346656037, prime
/// 1099511628211. Bytes fed in order hash exactly like their concatenation.
class Fnv1a {
 public:
  Fnv1a& add(std::string_view bytes) {
    for (const unsigned char c : bytes) addByte(c);
    return *this;
  }
  /// A 64-bit word as its eight bytes, least significant first.
  Fnv1a& addWord(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) addByte(static_cast<unsigned char>(v >> (i * 8)));
    return *this;
  }

  [[nodiscard]] std::uint64_t value() const { return h_; }
  /// value() as 16 lowercase hex chars.
  [[nodiscard]] std::string hex() const;

 private:
  void addByte(unsigned char c) {
    h_ ^= c;
    h_ *= 1099511628211ull;
  }

  std::uint64_t h_ = 14695981039346656037ull;
};

/// FNV-1a 64-bit digest of arbitrary text, as 16 lowercase hex chars —
/// compact enough to check golden values into a test.
[[nodiscard]] std::string fnv1aHexDigest(std::string_view text);

/// CRC-32/ISO-HDLC (the zlib/PNG polynomial) as 8 lowercase hex chars.
/// Guards each journal and trace line against torn writes and bit rot.
[[nodiscard]] std::string crc32Hex(std::string_view text);

}  // namespace rcsim
