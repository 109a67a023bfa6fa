// Simulated physical memory.
//
// This is the bottom of the hardware spec (§5): a flat array of frames that
// both the OS (writing page-table bits, file data, ...) and the MMU model
// (walking those bits) read and write. Keeping a single PhysMem object shared
// by implementation and hardware model is what makes the refinement check
// meaningful — the checker interprets the *same bytes* the implementation
// wrote, exactly as hardware would.
//
// Accesses are bounds-checked unconditionally (VNROS_CHECK): an out-of-range
// physical access is a broken simulation, not a verifiable-code bug.
//
// Memory starts all-zero, as after a hardware reset. The backing store is a
// ZeroedBytes, so frames nobody touches cost no host memory and booting a
// 1 GiB machine costs no more than booting a 4 MiB one.
#ifndef VNROS_SRC_HW_PHYS_MEM_H_
#define VNROS_SRC_HW_PHYS_MEM_H_

#include <cstring>
#include <span>

#include "src/base/contracts.h"
#include "src/base/types.h"
#include "src/base/zeroed_bytes.h"

namespace vnros {

class PhysMem {
 public:
  explicit PhysMem(u64 num_frames) : bytes_(num_frames * kPageSize) {
    VNROS_CHECK(num_frames > 0);
  }

  u64 num_frames() const { return bytes_.size() / kPageSize; }
  u64 size_bytes() const { return bytes_.size(); }

  bool contains(PAddr addr, u64 len = 1) const {
    return addr.value + len <= bytes_.size() && addr.value + len >= addr.value;
  }

  u64 read_u64(PAddr addr) const {
    VNROS_CHECK(contains(addr, 8));
    VNROS_CHECK(addr.is_aligned(8));
    u64 v;
    std::memcpy(&v, bytes_.data() + addr.value, 8);
    return v;
  }

  void write_u64(PAddr addr, u64 value) {
    VNROS_CHECK(contains(addr, 8));
    VNROS_CHECK(addr.is_aligned(8));
    std::memcpy(bytes_.data() + addr.value, &value, 8);
  }

  u8 read_u8(PAddr addr) const {
    VNROS_CHECK(contains(addr));
    return bytes_.data()[addr.value];
  }

  void write_u8(PAddr addr, u8 value) {
    VNROS_CHECK(contains(addr));
    bytes_.data()[addr.value] = value;
  }

  void read(PAddr addr, std::span<u8> out) const {
    VNROS_CHECK(contains(addr, out.size()));
    std::memcpy(out.data(), bytes_.data() + addr.value, out.size());
  }

  void write(PAddr addr, std::span<const u8> data) {
    VNROS_CHECK(contains(addr, data.size()));
    std::memcpy(bytes_.data() + addr.value, data.data(), data.size());
  }

  void zero_frame(PAddr frame_base) {
    VNROS_CHECK(frame_base.is_page_aligned());
    VNROS_CHECK(contains(frame_base, kPageSize));
    std::memset(bytes_.data() + frame_base.value, 0, kPageSize);
  }

  // Direct view of a frame for bulk operations (file pages, DMA models).
  std::span<u8> frame_span(PAddr frame_base) {
    VNROS_CHECK(frame_base.is_page_aligned());
    VNROS_CHECK(contains(frame_base, kPageSize));
    return std::span<u8>(bytes_.data() + frame_base.value, kPageSize);
  }

  std::span<const u8> frame_span(PAddr frame_base) const {
    VNROS_CHECK(frame_base.is_page_aligned());
    VNROS_CHECK(contains(frame_base, kPageSize));
    return std::span<const u8>(bytes_.data() + frame_base.value, kPageSize);
  }

 private:
  ZeroedBytes bytes_;
};

}  // namespace vnros

#endif  // VNROS_SRC_HW_PHYS_MEM_H_
