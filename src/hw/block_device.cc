#include "src/hw/block_device.h"

#include <algorithm>
#include <cstring>

#include "src/base/contracts.h"

namespace vnros {

Result<Unit> BlockDevice::read(u64 sector, std::span<u8> out) {
  if (out.size() != kSectorSize) {
    return ErrorCode::kInvalidArgument;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (sector >= num_sectors()) {
    return ErrorCode::kOutOfRange;
  }
  if (auto injected = read_error_site_->fire()) {
    ++stats_.injected_read_errors;
    return *injected;
  }
  ++stats_.reads;
  auto it = cache_.find(sector);
  if (it != cache_.end()) {
    std::memcpy(out.data(), it->second.data(), kSectorSize);
  } else {
    std::memcpy(out.data(), stable_.data() + sector * kSectorSize, kSectorSize);
  }
  if (auto rot = bit_rot_site_->fire_corrupt()) {
    // Silent media decay: the read SUCCEEDS but some returned bytes are
    // flipped. The media itself is untouched (decay is modeled per-read so
    // a later read may see clean bytes again — like a marginal sector).
    // Only an end-to-end checksum above the device can catch this.
    ++stats_.bit_rot_reads;
    u64 n = std::min<u64>(*rot, kSectorSize);
    for (u64 i = 0; i < n; ++i) {
      u64 pos = rng_.next_below(kSectorSize);
      out[pos] ^= static_cast<u8>(rng_.next_range(1, 255));
    }
  }
  return Unit{};
}

Result<Unit> BlockDevice::write(u64 sector, std::span<const u8> data) {
  if (data.size() != kSectorSize) {
    return ErrorCode::kInvalidArgument;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (sector >= num_sectors()) {
    return ErrorCode::kOutOfRange;
  }
  if (auto injected = write_error_site_->fire()) {
    ++stats_.injected_write_errors;
    return *injected;
  }
  if (auto injected = torn_write_site_->fire()) {
    // The controller died mid-sector: a nonempty strict prefix of the new
    // data lands over the sector's current content, and the caller learns
    // the write failed. Durability protocols must tolerate the partial
    // state (the fs journal's per-record CRC detects exactly this).
    ++stats_.torn_writes;
    auto& slot = cache_[sector];
    if (slot.empty()) {
      const u8* media = stable_.data() + sector * kSectorSize;
      slot.assign(media, media + kSectorSize);
    }
    u64 torn_len = rng_.next_range(1, kSectorSize - 1);
    std::memcpy(slot.data(), data.data(), torn_len);
    return *injected;
  }
  ++stats_.writes;
  cache_[sector].assign(data.begin(), data.end());
  return Unit{};
}

void BlockDevice::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.flushes;
  for (const auto& [sector, bytes] : cache_) {
    std::memcpy(stable_.data() + sector * kSectorSize, bytes.data(), kSectorSize);
  }
  cache_.clear();
}

void BlockDevice::crash(u64 persist_ppm, u64 torn_ppm) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.crashes;
  for (const auto& [sector, bytes] : cache_) {
    if (!rng_.chance_ppm(persist_ppm)) {
      continue;  // this sector never reached media
    }
    u64 persisted = kSectorSize;
    if (torn_ppm != 0 && rng_.chance_ppm(torn_ppm)) {
      persisted = rng_.next_range(1, kSectorSize - 1);
      ++stats_.torn_crash_sectors;
    }
    std::memcpy(stable_.data() + sector * kSectorSize, bytes.data(), persisted);
  }
  cache_.clear();
}

usize BlockDevice::dirty_sectors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

std::vector<u8> BlockDevice::snapshot_stable() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<u8>(stable_.data(), stable_.data() + stable_.size());
}

}  // namespace vnros
