// A fixed-size byte array that reads as zero until written, and costs
// nothing for the bytes nobody touches.
//
// Simulated machines are big and mostly idle: a pt VC boots a 1 GiB
// PhysMem, every Kernel a 32 MiB one, every BlockDevice 8 MiB of stable
// media, yet a run writes a few pages of each. A zero-filled std::vector
// writes every byte at construction (about 850 ms and 1 GiB of RSS for the
// 1 GiB machine). ZeroedBytes instead takes an anonymous private mapping,
// which the kernel guarantees reads as zero, and pays for a page only on
// its first write. calloc is not a substitute: whether it maps fresh pages
// or memsets recycled heap depends on glibc's dynamic mmap threshold, which
// moves with the process's allocation history.
//
// Move-only; the mapping is released on destruction. A size of zero holds
// no mapping and data() is null.
#ifndef VNROS_SRC_BASE_ZEROED_BYTES_H_
#define VNROS_SRC_BASE_ZEROED_BYTES_H_

#include <utility>

#include "src/base/types.h"

namespace vnros {

class ZeroedBytes {
 public:
  ZeroedBytes() = default;
  // Aborts (VNROS_CHECK) if the host refuses the mapping.
  explicit ZeroedBytes(usize size);
  ~ZeroedBytes();

  ZeroedBytes(ZeroedBytes&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)), size_(std::exchange(other.size_, 0)) {}
  ZeroedBytes& operator=(ZeroedBytes&& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    return *this;
  }
  ZeroedBytes(const ZeroedBytes&) = delete;
  ZeroedBytes& operator=(const ZeroedBytes&) = delete;

  u8* data() { return data_; }
  const u8* data() const { return data_; }
  usize size() const { return size_; }

 private:
  u8* data_ = nullptr;
  usize size_ = 0;
};

}  // namespace vnros

#endif  // VNROS_SRC_BASE_ZEROED_BYTES_H_
