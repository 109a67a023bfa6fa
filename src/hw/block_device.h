// Block device model with a volatile write cache, a crash model, and
// deterministic fault injection.
//
// The paper's component list includes disk controllers and a filesystem with
// persistence; Amazon's S3 storage-node verification (the paper's motivating
// application) is fundamentally about crash consistency. This device gives
// the filesystem and block store something honest to be correct *against*:
//
//   - write() lands in a volatile cache, not on stable media;
//   - flush() moves all cached sectors to stable media (a write barrier);
//   - crash() throws away the volatile cache — except that, to model
//     controller reordering, each cached sector independently *may* have
//     reached media (decided by a seeded Rng), and, to model torn sector
//     writes at power loss, a surviving sector may persist only a prefix;
//   - injection sites "<prefix>/read_error", "<prefix>/write_error" and
//     "<prefix>/torn_write" (src/base/fault.h) let a schedule make read()
//     and write() fail with kIoError — a torn write additionally applies a
//     random prefix of the data before failing, like a controller dying
//     mid-sector.
//
// A filesystem is crash-consistent iff recovery from any crash()-produced
// media state yields a state reachable by the abstract spec; the fs and
// blockstore test suites (and the chaos harness) check exactly that.
#ifndef VNROS_SRC_HW_BLOCK_DEVICE_H_
#define VNROS_SRC_HW_BLOCK_DEVICE_H_

#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/fault.h"
#include "src/base/result.h"
#include "src/base/rng.h"
#include "src/base/types.h"
#include "src/base/zeroed_bytes.h"

namespace vnros {

inline constexpr u64 kSectorSize = 512;

struct BlockDeviceStats {
  u64 reads = 0;
  u64 writes = 0;
  u64 flushes = 0;
  u64 crashes = 0;
  u64 injected_read_errors = 0;
  u64 injected_write_errors = 0;
  u64 torn_writes = 0;        // injected mid-sector write failures
  u64 torn_crash_sectors = 0; // sectors that persisted only a prefix at crash
  u64 bit_rot_reads = 0;      // reads that silently returned flipped bytes
};

class BlockDevice {
 public:
  // `fault_prefix` namespaces this device's injection sites so a multi-disk
  // harness can fault one node's disk without touching the others.
  BlockDevice(u64 num_sectors, u64 rng_seed = 0x5EC70Full,
              std::string fault_prefix = "blockdev")
      : stable_(num_sectors * kSectorSize),
        rng_(rng_seed),
        fault_prefix_(std::move(fault_prefix)),
        read_error_site_(&FaultRegistry::global().site(fault_prefix_ + "/read_error")),
        write_error_site_(&FaultRegistry::global().site(fault_prefix_ + "/write_error")),
        torn_write_site_(&FaultRegistry::global().site(fault_prefix_ + "/torn_write")),
        bit_rot_site_(&FaultRegistry::global().site(fault_prefix_ + "/bit_rot")) {}

  u64 num_sectors() const { return stable_.size() / kSectorSize; }
  const std::string& fault_prefix() const { return fault_prefix_; }

  // Reads observe the device's current view: cached sector if present,
  // otherwise stable media (a controller serves reads from its cache).
  // Out-of-range sectors are a typed kOutOfRange error; a span that is not
  // exactly one sector is kInvalidArgument. Never clamps.
  Result<Unit> read(u64 sector, std::span<u8> out);

  // Writes go to the volatile cache only. Same bounds contract as read().
  // An injected torn write applies a random nonempty strict prefix of
  // `data` over the sector's current cached/stable content, then fails.
  Result<Unit> write(u64 sector, std::span<const u8> data);

  // Write barrier: all cached sectors become stable, cache empties.
  void flush();

  // Simulated power failure. Each cached sector independently persists with
  // probability `persist_ppm` parts-per-million (0 = nothing un-flushed
  // survives, 1'000'000 = crash behaves like flush). A sector that does
  // persist is additionally torn — only a prefix reaches media — with
  // probability `torn_ppm`. Afterwards the cache is empty and the device is
  // usable again ("reboot").
  void crash(u64 persist_ppm = 500'000, u64 torn_ppm = 0);

  // Exact count of dirty (cached, unflushed) sectors.
  usize dirty_sectors() const;

  const BlockDeviceStats& stats() const { return stats_; }

  // Test hook: a stable-media snapshot for golden comparisons.
  std::vector<u8> snapshot_stable() const;

 private:
  mutable std::mutex mu_;
  ZeroedBytes stable_;                               // persistent media, zero until written
  std::unordered_map<u64, std::vector<u8>> cache_;   // sector -> pending bytes
  Rng rng_;
  std::string fault_prefix_;
  FaultSite* read_error_site_;
  FaultSite* write_error_site_;
  FaultSite* torn_write_site_;
  FaultSite* bit_rot_site_;
  BlockDeviceStats stats_;
};

}  // namespace vnros

#endif  // VNROS_SRC_HW_BLOCK_DEVICE_H_
