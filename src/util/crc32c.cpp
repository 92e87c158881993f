#include "util/crc32c.hpp"

#include <array>

namespace skt::util {
namespace {

/// Reflected Castagnoli polynomial.
constexpr std::uint32_t kPoly = 0x82F63B78u;

using Table = std::array<std::uint32_t, 256>;

/// Slicing-by-8 tables. kTables[0] is the classic byte-at-a-time table;
/// kTables[k][i] is the CRC of byte i followed by k zero bytes, so eight
/// lookups (one per table) advance the CRC over eight input bytes at once.
constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr std::array<Table, 8> kTables = make_tables();

constexpr std::uint32_t byte_at(const std::byte* p, std::size_t i) {
  return static_cast<std::uint32_t>(p[i]);
}

}  // namespace

std::uint32_t crc32c(std::span<const std::byte> bytes, std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
  // Each 8-byte block is assembled byte by byte (the low four in
  // little-endian order, as the reflected CRC consumes them), so the
  // result does not depend on host byte order or alignment; compilers
  // fold the four shifts into one load on little-endian targets.
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ (byte_at(p, 0) | byte_at(p, 1) << 8 |
                                    byte_at(p, 2) << 16 | byte_at(p, 3) << 24);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][byte_at(p, 4)] ^ kTables[2][byte_at(p, 5)] ^
          kTables[1][byte_at(p, 6)] ^ kTables[0][byte_at(p, 7)];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ byte_at(p, 0)) & 0xFFu];
  }
  return ~crc;
}

}  // namespace skt::util
