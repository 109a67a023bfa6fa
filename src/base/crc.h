// Checksums used by the storage stack.
//
// crc32c (Castagnoli) guards filesystem journal records, block-store
// payloads and VTP/UDP packets; crc64 guards whole-device snapshots in tests.
// crc32c uses the SSE4.2 `crc32` instruction when the CPU has it (chosen once
// at start-up) and the byte-table loop otherwise; the table loop is the
// reference, so results are bit-identical on any host. crc64 is table-driven.
#ifndef VNROS_SRC_BASE_CRC_H_
#define VNROS_SRC_BASE_CRC_H_

#include <span>

#include "src/base/types.h"

namespace vnros {

// CRC-32C (polynomial 0x1EDC6F41, reflected). `seed` allows incremental use:
// crc32c(b, crc32c(a)) == crc32c(a ++ b).
u32 crc32c(std::span<const u8> data, u32 seed = 0);

// The byte-table CRC-32C that crc32c must agree with on every input; also the
// path crc32c takes on CPUs without SSE4.2. Same contract as crc32c.
u32 crc32c_reference(std::span<const u8> data, u32 seed = 0);

// CRC-64/XZ (polynomial 0x42F0E1EBA9EA3693, reflected).
u64 crc64(std::span<const u8> data, u64 seed = 0);

}  // namespace vnros

#endif  // VNROS_SRC_BASE_CRC_H_
