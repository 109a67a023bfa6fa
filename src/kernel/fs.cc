#include "src/kernel/fs.h"

#include <algorithm>
#include <cstring>

#include "src/base/contracts.h"
#include "src/base/crc.h"
#include "src/base/serde.h"

namespace vnros {
namespace {

constexpr u64 kSbMagic = 0x766E'726F'7346'5321ull;  // "vnrosFS!"
constexpr u32 kRecMagic = 0x4A524E4C;               // "JRNL"
constexpr u64 kRootIno = 1;

// Journal payload opcodes.
enum class FsOp : u8 {
  kMkdir = 1,
  kRmdir = 2,
  kCreate = 3,
  kUnlink = 4,
  kRename = 5,
  kWrite = 6,
  kTruncate = 7,
};

// On-disk record header (fixed prefix, before the payload).
struct RecHeader {
  u32 magic;
  u64 epoch;
  u32 len;
  u32 crc;
};
constexpr usize kRecHeaderBytes = 4 + 8 + 4 + 4;
constexpr usize kRecLenOffset = 4 + 8;
constexpr usize kRecCrcOffset = kRecLenOffset + 4;

u64 sectors_for(u64 bytes) { return (bytes + kSectorSize - 1) / kSectorSize; }

bool valid_name(std::string_view name) {
  return !name.empty() && name.size() <= 255 && name.find('/') == std::string_view::npos;
}

}  // namespace

MemFs::MemFs() : MemFs(nullptr) {}

MemFs::MemFs(BlockDevice* dev) : dev_(dev) {
  ObsRegistry& reg = ObsRegistry::global();
  const std::string prefix = reg.instance_prefix("fs");
  c_journal_records_ = &reg.counter(prefix + "journal_records");
  c_journal_bytes_ = &reg.counter(prefix + "journal_bytes");
  c_checkpoints_ = &reg.counter(prefix + "checkpoints");
  c_fsyncs_ = &reg.counter(prefix + "fsyncs");
  h_journal_record_bytes_ = &reg.histogram(prefix + "journal_record_bytes");
  span_journal_commit_ = reg.tracer().intern_site("fs/journal_commit");
  span_fsync_ = reg.tracer().intern_site("fs/fsync");
  inodes_[kRootIno] = Inode{.is_dir = true, .data = {}, .entries = {}};
}

u64 MemFs::journal_start_sector() const {
  // Sector 0: superblock. Checkpoint area: a quarter of the device.
  return 1 + (dev_ != nullptr ? dev_->num_sectors() / 4 : 0);
}

u64 MemFs::journal_capacity_sectors() const {
  return dev_ != nullptr ? dev_->num_sectors() - journal_start_sector() : 0;
}

// --- Formatting / recovery ----------------------------------------------------

Result<MemFs> MemFs::format(BlockDevice& dev) {
  if (dev.num_sectors() < 16) {
    return ErrorCode::kInvalidArgument;
  }
  MemFs fs(&dev);
  fs.journal_head_ = fs.journal_start_sector();
  auto sb = fs.write_superblock();
  if (!sb.ok()) {
    return sb.error();
  }
  dev.flush();
  return fs;
}

Result<MemFs> MemFs::recover(BlockDevice& dev) {
  MemFs fs(&dev);

  // Read and validate the superblock.
  std::vector<u8> sb_bytes(kSectorSize);
  auto rd = dev.read(0, sb_bytes);
  if (!rd.ok()) {
    return rd.error();
  }
  Reader sb(sb_bytes);
  auto magic = sb.get_u64();
  auto epoch = sb.get_u64();
  auto ckpt_valid = sb.get_bool();
  auto ckpt_sectors = sb.get_u64();
  auto crc = sb.get_u32();
  if (!magic || *magic != kSbMagic || !epoch || !ckpt_valid || !ckpt_sectors || !crc) {
    return ErrorCode::kCorrupted;
  }
  u32 expect = crc32c(std::span<const u8>(sb_bytes.data(), sb.position() - 4));
  if (*crc != expect) {
    return ErrorCode::kCorrupted;
  }
  fs.epoch_ = *epoch;
  fs.ckpt_valid_ = *ckpt_valid;
  fs.ckpt_sectors_ = *ckpt_sectors;

  // Load the checkpoint, if one is valid.
  if (fs.ckpt_valid_) {
    std::vector<u8> raw(fs.ckpt_sectors_ * kSectorSize);
    for (u64 s = 0; s < fs.ckpt_sectors_; ++s) {
      auto r = dev.read(1 + s, std::span<u8>(raw.data() + s * kSectorSize, kSectorSize));
      if (!r.ok()) {
        return r.error();
      }
    }
    Reader hdr(raw);
    auto rmagic = hdr.get_u32();
    auto repoch = hdr.get_u64();
    auto rlen = hdr.get_u32();
    auto rcrc = hdr.get_u32();
    // The checkpoint epoch must match the superblock's: a failed checkpoint
    // attempt can leave a newer-epoch image in the checkpoint area while the
    // superblock still describes the old one — that mix must be detected,
    // never loaded.
    if (!rmagic || *rmagic != kRecMagic || !repoch || *repoch != fs.epoch_ || !rlen || !rcrc ||
        kRecHeaderBytes + *rlen > raw.size()) {
      return ErrorCode::kCorrupted;
    }
    std::span<const u8> payload(raw.data() + kRecHeaderBytes, *rlen);
    if (crc32c(payload) != *rcrc) {
      return ErrorCode::kCorrupted;
    }
    auto loaded = fs.load_state(payload);
    if (!loaded.ok()) {
      return loaded.error();
    }
  }

  // Replay the longest valid journal prefix of this epoch.
  fs.journal_head_ = fs.journal_start_sector();
  auto replayed = fs.replay_journal();
  if (!replayed.ok()) {
    return replayed.error();
  }

  // Re-anchor durability: checkpoint the recovered state under a fresh
  // epoch. This makes the mount durable and invalidates any stale records
  // beyond the replayed prefix (they carry the old epoch).
  std::lock_guard<std::mutex> lock(*fs.mu_);
  auto ck = fs.checkpoint_locked();
  if (!ck.ok()) {
    return ck.error();
  }
  return fs;
}

Result<Unit> MemFs::replay_journal() {
  u64 s = journal_start_sector();
  const u64 end = dev_->num_sectors();
  std::vector<u8> sector(kSectorSize);
  while (s < end) {
    auto r = dev_->read(s, sector);
    if (!r.ok()) {
      // A device error is not "end of journal": silently truncating the
      // replay prefix here would drop acknowledged operations. Surface it
      // so recovery fails loudly instead of recovering a stale state.
      return r.error();
    }
    Reader hdr(sector);
    auto magic = hdr.get_u32();
    auto epoch = hdr.get_u64();
    auto len = hdr.get_u32();
    auto crc = hdr.get_u32();
    if (!magic || *magic != kRecMagic || !epoch || *epoch != epoch_ || !len || !crc) {
      break;
    }
    u64 rec_sectors = sectors_for(kRecHeaderBytes + *len);
    if (s + rec_sectors > end) {
      break;
    }
    std::vector<u8> raw(rec_sectors * kSectorSize);
    for (u64 i = 0; i < rec_sectors; ++i) {
      auto rr = dev_->read(s + i, std::span<u8>(raw.data() + i * kSectorSize, kSectorSize));
      if (!rr.ok()) {
        return rr.error();  // device error, not a torn record: fail recovery
      }
    }
    std::span<const u8> payload(raw.data() + kRecHeaderBytes, *len);
    if (crc32c(payload) != *crc) {
      break;  // torn record: end of valid prefix
    }
    // Apply. Replay of a record journaled after a successful apply cannot
    // fail; a failure means the journal and state machine disagree.
    Reader body(payload);
    auto opcode = body.get_u8();
    if (!opcode) {
      break;
    }
    switch (static_cast<FsOp>(*opcode)) {
      case FsOp::kMkdir: {
        auto path = body.get_string();
        if (!path || !do_mkdir(*path).ok()) {
          return ErrorCode::kCorrupted;
        }
        break;
      }
      case FsOp::kRmdir: {
        auto path = body.get_string();
        if (!path || !do_rmdir(*path).ok()) {
          return ErrorCode::kCorrupted;
        }
        break;
      }
      case FsOp::kCreate: {
        auto path = body.get_string();
        if (!path || !do_create(*path).ok()) {
          return ErrorCode::kCorrupted;
        }
        break;
      }
      case FsOp::kUnlink: {
        auto path = body.get_string();
        if (!path || !do_unlink(*path).ok()) {
          return ErrorCode::kCorrupted;
        }
        break;
      }
      case FsOp::kRename: {
        auto from = body.get_string();
        auto to = body.get_string();
        if (!from || !to || !do_rename(*from, *to).ok()) {
          return ErrorCode::kCorrupted;
        }
        break;
      }
      case FsOp::kWrite: {
        auto path = body.get_string();
        auto offset = body.get_u64();
        auto data = body.get_bytes();
        if (!path || !offset || !data || !do_write(*path, *offset, *data).ok()) {
          return ErrorCode::kCorrupted;
        }
        break;
      }
      case FsOp::kTruncate: {
        auto path = body.get_string();
        auto size = body.get_u64();
        if (!path || !size || !do_truncate(*path, *size).ok()) {
          return ErrorCode::kCorrupted;
        }
        break;
      }
      default:
        return ErrorCode::kCorrupted;
    }
    s += rec_sectors;
  }
  journal_head_ = s;
  return Unit{};
}

Result<Unit> MemFs::write_superblock() {
  Writer w;
  w.put_u64(kSbMagic);
  w.put_u64(epoch_);
  w.put_bool(ckpt_valid_);
  w.put_u64(ckpt_sectors_);
  w.put_u32(crc32c(w.bytes()));
  std::vector<u8> sector(kSectorSize, 0);
  VNROS_CHECK(w.size() <= kSectorSize);
  std::memcpy(sector.data(), w.bytes().data(), w.size());
  return dev_->write(0, sector);
}

Result<Unit> MemFs::load_state(std::span<const u8> bytes) {
  inodes_.clear();
  next_ino_ = 2;
  inodes_[kRootIno] = Inode{.is_dir = true, .data = {}, .entries = {}};

  Reader r(bytes);
  auto ndirs = r.get_u32();
  if (!ndirs) {
    return ErrorCode::kCorrupted;
  }
  // dirs came from a std::set => sorted => parents precede children.
  for (u32 i = 0; i < *ndirs; ++i) {
    auto path = r.get_string();
    if (!path || !do_mkdir(*path).ok()) {
      return ErrorCode::kCorrupted;
    }
  }
  auto nfiles = r.get_u32();
  if (!nfiles) {
    return ErrorCode::kCorrupted;
  }
  for (u32 i = 0; i < *nfiles; ++i) {
    auto path = r.get_string();
    auto data = r.get_bytes();
    if (!path || !data || !do_create(*path).ok()) {
      return ErrorCode::kCorrupted;
    }
    if (!data->empty() && !do_write(*path, 0, *data).ok()) {
      return ErrorCode::kCorrupted;
    }
  }
  return Unit{};
}

Result<Unit> MemFs::checkpoint_locked() {
  VNROS_CHECK(dev_ != nullptr);
  // Collect the tree by absolute path. Sorting by full path gives the order
  // FsAbsState's set/map would, so the payload bytes are those of view()
  // serialized, and dirs stay parent-first for load_state. Files are held by
  // pointer: the only copy of their bytes is the one into ckpt_buf_.
  std::vector<std::string> dirs;
  std::vector<std::pair<std::string, const std::vector<u8>*>> files;
  struct Item {
    u64 ino;
    std::string path;
  };
  std::vector<Item> stack{{kRootIno, ""}};
  while (!stack.empty()) {
    Item item = std::move(stack.back());
    stack.pop_back();
    for (const auto& [name, child_ino] : inodes_.at(item.ino).entries) {
      const Inode& child = inodes_.at(child_ino);
      std::string child_path = item.path + "/" + name;
      if (child.is_dir) {
        dirs.push_back(child_path);
        stack.push_back({child_ino, std::move(child_path)});
      } else {
        files.emplace_back(std::move(child_path), &child.data);
      }
    }
  }
  std::sort(dirs.begin(), dirs.end());
  std::sort(files.begin(), files.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // Header (length and crc patched once the payload is in place), payload,
  // zero padding to whole sectors, all in the one reused buffer.
  Writer w(std::move(ckpt_buf_));
  w.put_u32(kRecMagic);
  w.put_u64(epoch_ + 1);
  w.put_u32(0);  // payload length
  w.put_u32(0);  // payload crc32c
  w.put_u32(static_cast<u32>(dirs.size()));
  for (const auto& d : dirs) {
    w.put_string(d);
  }
  w.put_u32(static_cast<u32>(files.size()));
  for (const auto& [path, data] : files) {
    w.put_string(path);
    w.put_bytes(*data);
  }
  const usize payload_len = w.size() - kRecHeaderBytes;
  w.patch_u32(kRecLenOffset, static_cast<u32>(payload_len));
  w.patch_u32(kRecCrcOffset, crc32c(std::span<const u8>(w.bytes()).subspan(kRecHeaderBytes)));
  ckpt_buf_ = w.take();
  u64 need_sectors = sectors_for(ckpt_buf_.size());
  u64 ckpt_cap = journal_start_sector() - 1;
  if (need_sectors > ckpt_cap) {
    return ErrorCode::kNoSpace;  // device misconfigured for this dataset
  }
  ckpt_buf_.resize(need_sectors * kSectorSize, 0);
  for (u64 s = 0; s < need_sectors; ++s) {
    auto wr = dev_->write(1 + s,
                          std::span<const u8>(ckpt_buf_.data() + s * kSectorSize, kSectorSize));
    if (!wr.ok()) {
      return wr.error();
    }
  }
  dev_->flush();  // checkpoint durable before the superblock points at it

  const u64 old_epoch = epoch_;
  const bool old_ckpt_valid = ckpt_valid_;
  const u64 old_ckpt_sectors = ckpt_sectors_;
  epoch_ += 1;
  ckpt_valid_ = true;
  ckpt_sectors_ = need_sectors;
  auto sb = write_superblock();
  if (!sb.ok()) {
    // The switch did not commit: keep describing the old checkpoint so the
    // in-memory superblock stays consistent with the on-disk one.
    epoch_ = old_epoch;
    ckpt_valid_ = old_ckpt_valid;
    ckpt_sectors_ = old_ckpt_sectors;
    return sb.error();
  }
  dev_->flush();  // superblock switch is the commit point

  journal_head_ = journal_start_sector();
  c_checkpoints_->inc();
  return Unit{};
}

Result<Unit> MemFs::journal_append(std::span<const u8> payload) {
  if (dev_ == nullptr) {
    return Unit{};  // in-memory mode
  }
  SpanScope span(ObsRegistry::global().tracer(), span_journal_commit_);
  u64 total = kRecHeaderBytes + payload.size();
  u64 need = sectors_for(total);
  if (journal_head_ + need > dev_->num_sectors()) {
    auto ck = checkpoint_locked();
    if (!ck.ok()) {
      return ck.error();
    }
    // After compaction the record is already part of the checkpointed state;
    // nothing further to journal.
    return Unit{};
  }
  Writer w;
  w.put_u32(kRecMagic);
  w.put_u64(epoch_);
  w.put_u32(static_cast<u32>(payload.size()));
  w.put_u32(crc32c(payload));
  w.put_raw(payload);
  std::vector<u8> raw = w.take();
  raw.resize(need * kSectorSize, 0);
  for (u64 s = 0; s < need; ++s) {
    auto wr = dev_->write(journal_head_ + s,
                          std::span<const u8>(raw.data() + s * kSectorSize, kSectorSize));
    if (!wr.ok()) {
      return wr.error();
    }
  }
  journal_head_ += need;
  c_journal_records_->inc();
  c_journal_bytes_->add(total);
  h_journal_record_bytes_->record(total);
  return Unit{};
}

// --- Path plumbing -------------------------------------------------------------

Result<std::vector<std::string>> MemFs::split_path(std::string_view path) {
  if (path.empty() || path[0] != '/') {
    return ErrorCode::kInvalidArgument;
  }
  std::vector<std::string> parts;
  usize i = 1;
  while (i < path.size()) {
    usize j = path.find('/', i);
    if (j == std::string_view::npos) {
      j = path.size();
    }
    std::string_view name = path.substr(i, j - i);
    if (!valid_name(name)) {
      return ErrorCode::kInvalidArgument;
    }
    parts.emplace_back(name);
    i = j + 1;
  }
  return parts;
}

Result<u64> MemFs::lookup(std::string_view path) const {
  auto parts = split_path(path);
  if (!parts.ok()) {
    return parts.error();
  }
  u64 ino = kRootIno;
  for (const auto& name : parts.value()) {
    const Inode& node = inodes_.at(ino);
    if (!node.is_dir) {
      return ErrorCode::kNotDirectory;
    }
    auto it = node.entries.find(name);
    if (it == node.entries.end()) {
      return ErrorCode::kNotFound;
    }
    ino = it->second;
  }
  return ino;
}

Result<std::pair<u64, std::string>> MemFs::lookup_parent(std::string_view path) const {
  auto parts = split_path(path);
  if (!parts.ok()) {
    return parts.error();
  }
  if (parts.value().empty()) {
    return ErrorCode::kInvalidArgument;  // root has no parent
  }
  u64 ino = kRootIno;
  for (usize i = 0; i + 1 < parts.value().size(); ++i) {
    const Inode& node = inodes_.at(ino);
    if (!node.is_dir) {
      return ErrorCode::kNotDirectory;
    }
    auto it = node.entries.find(parts.value()[i]);
    if (it == node.entries.end()) {
      return ErrorCode::kNotFound;
    }
    ino = it->second;
  }
  if (!inodes_.at(ino).is_dir) {
    return ErrorCode::kNotDirectory;
  }
  return std::pair<u64, std::string>{ino, parts.value().back()};
}

// --- Unjournaled mutation cores --------------------------------------------------

Result<Unit> MemFs::do_mkdir(std::string_view path) {
  auto parent = lookup_parent(path);
  if (!parent.ok()) {
    return parent.error();
  }
  auto& [pino, name] = parent.value();
  Inode& dir = inodes_.at(pino);
  if (dir.entries.count(name) != 0) {
    return ErrorCode::kAlreadyExists;
  }
  u64 ino = next_ino_++;
  inodes_[ino] = Inode{.is_dir = true, .data = {}, .entries = {}};
  inodes_.at(pino).entries[name] = ino;  // re-lookup: map may have rehashed
  return Unit{};
}

Result<Unit> MemFs::do_rmdir(std::string_view path) {
  auto parent = lookup_parent(path);
  if (!parent.ok()) {
    return parent.error();
  }
  auto& [pino, name] = parent.value();
  Inode& dir = inodes_.at(pino);
  auto it = dir.entries.find(name);
  if (it == dir.entries.end()) {
    return ErrorCode::kNotFound;
  }
  Inode& target = inodes_.at(it->second);
  if (!target.is_dir) {
    return ErrorCode::kNotDirectory;
  }
  if (!target.entries.empty()) {
    return ErrorCode::kNotEmpty;
  }
  inodes_.erase(it->second);
  dir.entries.erase(it);
  return Unit{};
}

Result<Unit> MemFs::do_create(std::string_view path) {
  auto parent = lookup_parent(path);
  if (!parent.ok()) {
    return parent.error();
  }
  auto& [pino, name] = parent.value();
  Inode& dir = inodes_.at(pino);
  if (dir.entries.count(name) != 0) {
    return ErrorCode::kAlreadyExists;
  }
  u64 ino = next_ino_++;
  inodes_[ino] = Inode{.is_dir = false, .data = {}, .entries = {}};
  inodes_.at(pino).entries[name] = ino;
  return Unit{};
}

Result<Unit> MemFs::do_unlink(std::string_view path) {
  auto parent = lookup_parent(path);
  if (!parent.ok()) {
    return parent.error();
  }
  auto& [pino, name] = parent.value();
  Inode& dir = inodes_.at(pino);
  auto it = dir.entries.find(name);
  if (it == dir.entries.end()) {
    return ErrorCode::kNotFound;
  }
  if (inodes_.at(it->second).is_dir) {
    return ErrorCode::kIsDirectory;
  }
  inodes_.erase(it->second);
  dir.entries.erase(it);
  return Unit{};
}

Result<Unit> MemFs::do_rename(std::string_view from, std::string_view to) {
  auto src = lookup_parent(from);
  if (!src.ok()) {
    return src.error();
  }
  auto dst = lookup_parent(to);
  if (!dst.ok()) {
    return dst.error();
  }
  auto& [src_ino, src_name] = src.value();
  auto& [dst_ino, dst_name] = dst.value();
  Inode& src_dir = inodes_.at(src_ino);
  auto it = src_dir.entries.find(src_name);
  if (it == src_dir.entries.end()) {
    return ErrorCode::kNotFound;
  }
  u64 moving = it->second;
  Inode& dst_dir = inodes_.at(dst_ino);
  auto existing = dst_dir.entries.find(dst_name);
  if (existing != dst_dir.entries.end()) {
    // POSIX replace semantics for files: rename atomically unlinks the old
    // destination file (this is what makes write-temp-then-rename a crash-safe
    // publish). Directories are never replaced.
    if (inodes_.at(existing->second).is_dir) {
      return ErrorCode::kIsDirectory;
    }
    if (inodes_.at(moving).is_dir) {
      return ErrorCode::kNotDirectory;
    }
    // Renaming a path onto itself is a no-op, not a self-unlink.
    if (existing->second == moving) {
      return Unit{};
    }
  }
  // Moving a directory under itself would orphan the subtree.
  if (inodes_.at(moving).is_dir) {
    std::string from_prefix = std::string(from) + "/";
    if (std::string(to).rfind(from_prefix, 0) == 0) {
      return ErrorCode::kInvalidArgument;
    }
  }
  if (existing != dst_dir.entries.end()) {
    inodes_.erase(existing->second);
    dst_dir.entries.erase(existing);
  }
  src_dir.entries.erase(it);
  inodes_.at(dst_ino).entries[dst_name] = moving;
  return Unit{};
}

Result<u64> MemFs::do_write(std::string_view path, u64 offset, std::span<const u8> data) {
  auto ino = lookup(path);
  if (!ino.ok()) {
    return ino.error();
  }
  Inode& node = inodes_.at(ino.value());
  if (node.is_dir) {
    return ErrorCode::kIsDirectory;
  }
  if (offset + data.size() > node.data.size()) {
    node.data.resize(offset + data.size(), 0);
  }
  std::copy(data.begin(), data.end(), node.data.begin() + static_cast<std::ptrdiff_t>(offset));
  return static_cast<u64>(data.size());
}

Result<Unit> MemFs::do_truncate(std::string_view path, u64 new_size) {
  auto ino = lookup(path);
  if (!ino.ok()) {
    return ino.error();
  }
  Inode& node = inodes_.at(ino.value());
  if (node.is_dir) {
    return ErrorCode::kIsDirectory;
  }
  node.data.resize(new_size, 0);
  return Unit{};
}

// --- Public (journaled) operations -----------------------------------------------

std::vector<u8> MemFs::file_data_locked(std::string_view path) const {
  auto ino = lookup(path);
  VNROS_CHECK(ino.ok());
  return inodes_.at(ino.value()).data;
}

void MemFs::set_file_data_locked(std::string_view path, std::vector<u8> data) {
  auto ino = lookup(path);
  VNROS_CHECK(ino.ok());
  inodes_.at(ino.value()).data = std::move(data);
}

Result<Unit> MemFs::mkdir(std::string_view path) {
  std::lock_guard<std::mutex> lock(*mu_);
  auto r = do_mkdir(path);
  if (!r.ok()) {
    return r;
  }
  Writer w;
  w.put_u8(static_cast<u8>(FsOp::kMkdir));
  w.put_string(path);
  auto j = journal_append(w.bytes());
  if (!j.ok()) {
    VNROS_CHECK(do_rmdir(path).ok());
    return j;
  }
  return j;
}

Result<Unit> MemFs::rmdir(std::string_view path) {
  std::lock_guard<std::mutex> lock(*mu_);
  auto r = do_rmdir(path);
  if (!r.ok()) {
    return r;
  }
  Writer w;
  w.put_u8(static_cast<u8>(FsOp::kRmdir));
  w.put_string(path);
  auto j = journal_append(w.bytes());
  if (!j.ok()) {
    VNROS_CHECK(do_mkdir(path).ok());
    return j;
  }
  return j;
}

Result<Unit> MemFs::create(std::string_view path) {
  std::lock_guard<std::mutex> lock(*mu_);
  auto r = do_create(path);
  if (!r.ok()) {
    return r;
  }
  Writer w;
  w.put_u8(static_cast<u8>(FsOp::kCreate));
  w.put_string(path);
  auto j = journal_append(w.bytes());
  if (!j.ok()) {
    VNROS_CHECK(do_unlink(path).ok());
    return j;
  }
  return j;
}

Result<Unit> MemFs::unlink(std::string_view path) {
  std::lock_guard<std::mutex> lock(*mu_);
  auto pre = lookup(path);
  std::vector<u8> old_data;
  if (pre.ok() && !inodes_.at(pre.value()).is_dir) {
    old_data = inodes_.at(pre.value()).data;
  }
  auto r = do_unlink(path);
  if (!r.ok()) {
    return r;
  }
  Writer w;
  w.put_u8(static_cast<u8>(FsOp::kUnlink));
  w.put_string(path);
  auto j = journal_append(w.bytes());
  if (!j.ok()) {
    VNROS_CHECK(do_create(path).ok());
    set_file_data_locked(path, std::move(old_data));
    return j;
  }
  return j;
}

Result<Unit> MemFs::rename(std::string_view from, std::string_view to) {
  std::lock_guard<std::mutex> lock(*mu_);
  // If this rename will replace an existing destination file, capture its
  // bytes so a failed journal append can roll the replacement back too.
  bool replaced = false;
  std::vector<u8> old_dest;
  auto from_ino = lookup(from);
  auto to_ino = lookup(to);
  if (from_ino.ok() && to_ino.ok() && from_ino.value() != to_ino.value() &&
      !inodes_.at(to_ino.value()).is_dir) {
    replaced = true;
    old_dest = inodes_.at(to_ino.value()).data;
  }
  auto r = do_rename(from, to);
  if (!r.ok()) {
    return r;
  }
  Writer w;
  w.put_u8(static_cast<u8>(FsOp::kRename));
  w.put_string(from);
  w.put_string(to);
  auto j = journal_append(w.bytes());
  if (!j.ok()) {
    VNROS_CHECK(do_rename(to, from).ok());
    if (replaced) {
      VNROS_CHECK(do_create(to).ok());
      set_file_data_locked(to, std::move(old_dest));
    }
    return j;
  }
  return j;
}

Result<u64> MemFs::write(std::string_view path, u64 offset, std::span<const u8> data) {
  std::lock_guard<std::mutex> lock(*mu_);
  auto pre = lookup(path);
  std::vector<u8> old_data;
  if (pre.ok() && !inodes_.at(pre.value()).is_dir) {
    old_data = inodes_.at(pre.value()).data;
  }
  auto r = do_write(path, offset, data);
  if (!r.ok()) {
    return r;
  }
  Writer w;
  w.put_u8(static_cast<u8>(FsOp::kWrite));
  w.put_string(path);
  w.put_u64(offset);
  w.put_bytes(data);
  auto j = journal_append(w.bytes());
  if (!j.ok()) {
    set_file_data_locked(path, std::move(old_data));
    return j.error();
  }
  return r;
}

Result<Unit> MemFs::truncate(std::string_view path, u64 new_size) {
  std::lock_guard<std::mutex> lock(*mu_);
  auto pre = lookup(path);
  std::vector<u8> old_data;
  if (pre.ok() && !inodes_.at(pre.value()).is_dir) {
    old_data = inodes_.at(pre.value()).data;
  }
  auto r = do_truncate(path, new_size);
  if (!r.ok()) {
    return r;
  }
  Writer w;
  w.put_u8(static_cast<u8>(FsOp::kTruncate));
  w.put_string(path);
  w.put_u64(new_size);
  auto j = journal_append(w.bytes());
  if (!j.ok()) {
    set_file_data_locked(path, std::move(old_data));
    return j;
  }
  return j;
}

Result<Unit> MemFs::fsync() {
  std::lock_guard<std::mutex> lock(*mu_);
  SpanScope span(ObsRegistry::global().tracer(), span_fsync_);
  c_fsyncs_->inc();
  if (dev_ != nullptr) {
    dev_->flush();
  }
  return Unit{};
}

// --- Read-only operations ---------------------------------------------------------

Result<std::vector<std::string>> MemFs::readdir(std::string_view path) const {
  std::lock_guard<std::mutex> lock(*mu_);
  auto ino = lookup(path);
  if (!ino.ok()) {
    return ino.error();
  }
  const Inode& node = inodes_.at(ino.value());
  if (!node.is_dir) {
    return ErrorCode::kNotDirectory;
  }
  std::vector<std::string> names;
  names.reserve(node.entries.size());
  for (const auto& [name, child] : node.entries) {
    names.push_back(name);
  }
  return names;
}

Result<FileStat> MemFs::stat(std::string_view path) const {
  std::lock_guard<std::mutex> lock(*mu_);
  auto ino = lookup(path);
  if (!ino.ok()) {
    return ino.error();
  }
  const Inode& node = inodes_.at(ino.value());
  return FileStat{ino.value(), node.data.size(), node.is_dir};
}

Result<u64> MemFs::read(std::string_view path, u64 offset, std::span<u8> out) const {
  std::lock_guard<std::mutex> lock(*mu_);
  auto ino = lookup(path);
  if (!ino.ok()) {
    return ino.error();
  }
  const Inode& node = inodes_.at(ino.value());
  if (node.is_dir) {
    return ErrorCode::kIsDirectory;
  }
  if (offset >= node.data.size()) {
    return u64{0};
  }
  u64 n = std::min<u64>(out.size(), node.data.size() - offset);
  std::memcpy(out.data(), node.data.data() + offset, n);
  // The paper's read_spec postcondition, executably:
  VNROS_ENSURES(n == std::min<u64>(out.size(), node.data.size() - offset));
  return n;
}

FsAbsState MemFs::view() const {
  std::lock_guard<std::mutex> lock(*mu_);
  FsAbsState state;
  struct Item {
    u64 ino;
    std::string path;
  };
  std::vector<Item> stack{{kRootIno, ""}};
  while (!stack.empty()) {
    Item item = stack.back();
    stack.pop_back();
    const Inode& node = inodes_.at(item.ino);
    for (const auto& [name, child_ino] : node.entries) {
      const Inode& child = inodes_.at(child_ino);
      std::string child_path = item.path + "/" + name;
      if (child.is_dir) {
        state.dirs.insert(child_path);
        stack.push_back({child_ino, child_path});
      } else {
        state.files[child_path] = child.data;
      }
    }
  }
  return state;
}

}  // namespace vnros
