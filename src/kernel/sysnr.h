// Syscall numbers and per-syscall flags, derived from syscalls.def.
//
// A leaf header (types only) so that ring.cc can ask "is this op
// ring-submittable / parkable?" without including syscall.h, which includes
// kernel.h, which includes ring.h. The static_asserts below check the table
// itself at compile time.
#ifndef VNROS_SRC_KERNEL_SYSNR_H_
#define VNROS_SRC_KERNEL_SYSNR_H_

#include <algorithm>

#include "src/base/types.h"

namespace vnros {

// Syscall numbers (stable ABI).
enum class SysNr : u32 {
#define VNROS_SYSCALL(Name, nr, ...) Name = nr,
#include "src/kernel/syscalls.def"
};

// Row flags (see syscalls.def).
enum SysFlag : u32 {
  kSysRing = 1u << 0,      // ring-submittable
  kSysPark = 1u << 1,      // transient kWouldBlock parks the SQE in flight
  kSysIoFault = 1u << 2,   // "syscall/io_error" eligible
  kSysMemFault = 1u << 3,  // "syscall/no_memory" eligible
};

// The row's flags; 0 for a number no row declares.
constexpr u32 sys_flags(u32 nr) {
  switch (nr) {
#define VNROS_SYSCALL(Name, num, name, args, reply, flags) \
  case num:                                                \
    return flags;
#include "src/kernel/syscalls.def"
    default:
      return 0;
  }
}

constexpr bool ring_submittable(u32 nr) { return (sys_flags(nr) & kSysRing) != 0; }
constexpr bool ring_parkable(u32 nr) { return (sys_flags(nr) & kSysPark) != 0; }

namespace sys_table {

struct Row {
  u32 nr;
  u32 flags;
};

inline constexpr Row kRows[] = {
#define VNROS_SYSCALL(Name, num, name, args, reply, flags) {num, flags},
#include "src/kernel/syscalls.def"
};

constexpr bool numbers_unique() {
  for (const Row& a : kRows) {
    if (std::count_if(std::begin(kRows), std::end(kRows),
                      [&a](const Row& b) { return b.nr == a.nr; }) != 1) {
      return false;
    }
  }
  return true;
}

static_assert(numbers_unique(), "two syscalls.def rows share a number");
static_assert(std::none_of(std::begin(kRows), std::end(kRows),
                           [](const Row& r) { return r.nr >= 70 && r.nr <= 75; }),
              "70-75 stay unassigned (retired RTP)");
static_assert(std::all_of(std::begin(kRows), std::end(kRows),
                          [](const Row& r) { return !(r.flags & kSysPark) || (r.flags & kSysRing); }),
              "a parkable row must be ring-submittable");
static_assert(!ring_submittable(static_cast<u32>(SysNr::kRingSetup)) &&
                  !ring_submittable(static_cast<u32>(SysNr::kRingSubmit)) &&
                  !ring_submittable(static_cast<u32>(SysNr::kRingWait)),
              "ring syscalls never nest inside a ring");

}  // namespace sys_table
}  // namespace vnros

#endif  // VNROS_SRC_KERNEL_SYSNR_H_
