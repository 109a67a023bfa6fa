#include "src/base/zeroed_bytes.h"

#include <sys/mman.h>

#include "src/base/contracts.h"

namespace vnros {

ZeroedBytes::ZeroedBytes(usize size) : size_(size) {
  if (size == 0) {
    return;
  }
  // MAP_NORESERVE: untouched pages are never committed, so a mostly idle
  // 1 GiB machine does not count against the host's overcommit budget.
  void* p = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  VNROS_CHECK(p != MAP_FAILED);
  data_ = static_cast<u8*>(p);
}

ZeroedBytes::~ZeroedBytes() {
  if (data_ != nullptr) {
    munmap(data_, size_);
  }
}

}  // namespace vnros
