#include "common/checksum.h"

#include <array>
#include <cstddef>
#include <cstring>

#if defined(SCANRAW_SIMD) && defined(__x86_64__)
#define SCANRAW_CRC32C_SSE42 1
#include <nmmintrin.h>
#else
#define SCANRAW_CRC32C_SSE42 0
#endif

namespace scanraw {

namespace {

// The Castagnoli polynomial 0x1EDC6F41, bit-reflected.
constexpr uint32_t kCrc32cPoly = 0x82F63B78u;

// Slicing-by-8 tables: kCrc32cTables[0] advances the CRC over one byte,
// kCrc32cTables[k] over a byte followed by k zero bytes, so eight lookups
// fold eight bytes at once.
using Crc32cTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32cTables MakeCrc32cTables() {
  Crc32cTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) != 0 ? kCrc32cPoly : 0);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Crc32cTables kCrc32cTables = MakeCrc32cTables();

// Little-endian u32 at `p`, whatever the host's byte order.
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

#if SCANRAW_CRC32C_SSE42

bool HaveSse42() {
  static const bool have = __builtin_cpu_supports("sse4.2") != 0;
  return have;
}

// Eight bytes per `crc32` instruction, then the tail a byte at a time.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(
    std::string_view data) {
  const char* p = data.data();
  size_t n = data.size();
  uint64_t crc = 0xFFFFFFFFu;
  for (; n >= sizeof(uint64_t); p += sizeof(uint64_t), n -= sizeof(uint64_t)) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++p, --n) {
    crc32 = _mm_crc32_u8(crc32, static_cast<uint8_t>(*p));
  }
  return ~crc32;
}

#endif  // SCANRAW_CRC32C_SSE42

}  // namespace

uint32_t Crc32cPortable(std::string_view data) {
  const auto& t = kCrc32cTables;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFFu];
  return ~crc;
}

uint32_t Crc32c(std::string_view data) {
#if SCANRAW_CRC32C_SSE42
  if (HaveSse42()) return Crc32cSse42(data);
#endif
  return Crc32cPortable(data);
}

uint64_t Fnv1aHash(std::string_view data) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace scanraw
