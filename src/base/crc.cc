#include "src/base/crc.h"

#include <array>
#include <cstring>

namespace vnros {
namespace {

constexpr std::array<u32, 256> make_crc32c_table() {
  std::array<u32, 256> table{};
  for (u32 i = 0; i < 256; ++i) {
    u32 crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) != 0 ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<u64, 256> make_crc64_table() {
  std::array<u64, 256> table{};
  for (u64 i = 0; i < 256; ++i) {
    u64 crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) != 0 ? 0xC96C5795D7870F42ull : 0ull);
    }
    table[i] = crc;
  }
  return table;
}

constexpr auto kCrc32cTable = make_crc32c_table();
constexpr auto kCrc64Table = make_crc64_table();

#if defined(__x86_64__) && defined(__GNUC__)
// The SSE4.2 `crc32` instruction computes the same reflected Castagnoli CRC
// as the table: 8 bytes per crc32q, then crc32b for the tail. Compiled for
// SSE4.2 in this function only, so the binary still runs on older CPUs.
__attribute__((target("sse4.2"))) u32 crc32c_sse42(std::span<const u8> data, u32 seed) {
  const u8* p = data.data();
  usize n = data.size();
  u64 crc = ~seed;
  for (; n >= 8; p += 8, n -= 8) {
    u64 word;
    std::memcpy(&word, p, sizeof word);
    crc = __builtin_ia32_crc32di(crc, word);
  }
  u32 crc32 = static_cast<u32>(crc);
  for (; n > 0; ++p, --n) {
    crc32 = __builtin_ia32_crc32qi(crc32, *p);
  }
  return ~crc32;
}

bool cpu_has_sse42() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2") != 0;
}

// False until this file's dynamic initialisation runs, so a call from an
// earlier static initialiser takes the table path and gets the same bits.
const bool kUseSse42 = cpu_has_sse42();
#endif

}  // namespace

u32 crc32c_reference(std::span<const u8> data, u32 seed) {
  u32 crc = ~seed;
  for (u8 byte : data) {
    crc = (crc >> 8) ^ kCrc32cTable[(crc ^ byte) & 0xFF];
  }
  return ~crc;
}

u32 crc32c(std::span<const u8> data, u32 seed) {
#if defined(__x86_64__) && defined(__GNUC__)
  if (kUseSse42) {
    return crc32c_sse42(data, seed);
  }
#endif
  return crc32c_reference(data, seed);
}

u64 crc64(std::span<const u8> data, u64 seed) {
  u64 crc = ~seed;
  for (u8 byte : data) {
    crc = (crc >> 8) ^ kCrc64Table[(crc ^ byte) & 0xFF];
  }
  return ~crc;
}

}  // namespace vnros
