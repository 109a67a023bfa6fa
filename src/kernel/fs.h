// The filesystem (Table 2 "filesystem" row): an inode-based in-memory tree
// with a write-ahead journal on the simulated block device and crash
// recovery.
//
// Persistence model (what the crash-consistency VCs check):
//   - every mutating operation appends one journal record (CRC-protected,
//     epoch-tagged) before being acknowledged;
//   - fsync() is the only durability barrier (BlockDevice::flush);
//   - after a simulated crash (volatile cache partially lost), recover()
//     replays the longest valid journal prefix. The recovered state is
//     therefore the state after some prefix of acknowledged operations, and
//     the prefix provably includes everything acknowledged before the last
//     completed fsync — exactly the contract applications (and the paper's
//     S3 storage-node example) rely on.
//   - when the journal area fills, fsync() compacts: a full-state checkpoint
//     is written and the journal restarts under a new epoch. Crash at any
//     point of compaction recovers either the old or the new state, never a
//     mix (epoch tagging).
//
// The abstract state is FsAbsState: which directories exist and what bytes
// each file holds. kernel/fs_* VCs drive MemFs and the FsModel reference
// interpreter in lockstep and diff the abstractions after every step.
#ifndef VNROS_SRC_KERNEL_FS_H_
#define VNROS_SRC_KERNEL_FS_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/result.h"
#include "src/base/types.h"
#include "src/hw/block_device.h"
#include "src/obs/registry.h"

namespace vnros {

struct FileStat {
  u64 inode = 0;
  u64 size = 0;
  bool is_dir = false;

  bool operator==(const FileStat&) const = default;
};

// Abstract filesystem state ("/" is implicit and always a directory).
struct FsAbsState {
  std::set<std::string> dirs;                         // absolute paths
  std::map<std::string, std::vector<u8>> files;       // absolute path -> bytes

  bool operator==(const FsAbsState&) const = default;
};

// Snapshot of the filesystem's obs counters (see stats()).
struct FsStats {
  u64 journal_records = 0;
  u64 journal_bytes = 0;
  u64 checkpoints = 0;
  u64 fsyncs = 0;
};

class MemFs {
 public:
  // Purely in-memory filesystem (no persistence; journaling disabled).
  MemFs();

  // mkfs: formats `dev` (superblock + empty journal) and attaches.
  static Result<MemFs> format(BlockDevice& dev);

  // Mounts `dev` after a crash or clean shutdown: loads the checkpoint (if
  // any) and replays the longest valid journal prefix of the current epoch.
  static Result<MemFs> recover(BlockDevice& dev);

  MemFs(MemFs&&) = default;
  MemFs& operator=(MemFs&&) = default;

  // --- Namespace operations -------------------------------------------------
  Result<Unit> mkdir(std::string_view path);
  Result<Unit> rmdir(std::string_view path);            // must be empty
  Result<Unit> create(std::string_view path);           // empty regular file
  Result<Unit> unlink(std::string_view path);           // remove regular file
  // POSIX replace semantics: an existing destination *file* is atomically
  // replaced (old bytes unreachable from the instant the rename commits),
  // which is what makes write-temp-then-rename a crash-safe publish. A
  // directory destination is rejected with kIsDirectory; a directory source
  // never replaces a file (kNotDirectory).
  Result<Unit> rename(std::string_view from, std::string_view to);
  Result<std::vector<std::string>> readdir(std::string_view path) const;
  Result<FileStat> stat(std::string_view path) const;

  // --- Data operations -------------------------------------------------------
  // Reads up to out.size() bytes from `offset`; returns bytes read (0 at or
  // past EOF — the read_spec's min(buffer.len, size - offset) semantics).
  Result<u64> read(std::string_view path, u64 offset, std::span<u8> out) const;

  // Writes at `offset`, zero-filling any gap, extending the file. Returns
  // bytes written (always data.size() on success).
  Result<u64> write(std::string_view path, u64 offset, std::span<const u8> data);

  Result<Unit> truncate(std::string_view path, u64 new_size);

  // Durability barrier; may compact the journal into a checkpoint.
  Result<Unit> fsync();

  // --- Introspection ----------------------------------------------------------
  FsAbsState view() const;

  // Thin view over the obs counters ("fs<N>/..."): race-free merged reads.
  FsStats stats() const {
    return FsStats{c_journal_records_->value(), c_journal_bytes_->value(),
                   c_checkpoints_->value(), c_fsyncs_->value()};
  }
  bool has_device() const { return dev_ != nullptr; }
  u64 journal_head_sector() const { return journal_head_; }

 private:
  struct Inode {
    bool is_dir = false;
    std::vector<u8> data;                 // file payload
    std::map<std::string, u64> entries;   // dir contents: name -> ino
  };

  explicit MemFs(BlockDevice* dev);

  // Path helpers. Canonical absolute paths: "/a/b"; "/" is the root.
  static Result<std::vector<std::string>> split_path(std::string_view path);
  Result<u64> lookup(std::string_view path) const;                    // ino of path
  Result<std::pair<u64, std::string>> lookup_parent(std::string_view path) const;

  // The unjournaled core of each mutation (used by both the public ops and
  // journal replay, so replay is bit-identical to first execution).
  Result<Unit> do_mkdir(std::string_view path);
  Result<Unit> do_rmdir(std::string_view path);
  Result<Unit> do_create(std::string_view path);
  Result<Unit> do_unlink(std::string_view path);
  Result<Unit> do_rename(std::string_view from, std::string_view to);
  Result<u64> do_write(std::string_view path, u64 offset, std::span<const u8> data);
  Result<Unit> do_truncate(std::string_view path, u64 new_size);

  // Undo support: when a mutation applied in memory but its journal record
  // could not be written (device I/O error), the mutation is rolled back so
  // a failed operation is never visible — I/O errors propagate without
  // corrupting metadata (kernel/fs_io_error_* VCs).
  std::vector<u8> file_data_locked(std::string_view path) const;
  void set_file_data_locked(std::string_view path, std::vector<u8> data);

  // Journaling.
  Result<Unit> journal_append(std::span<const u8> payload);
  Result<Unit> write_superblock();
  Result<Unit> checkpoint_locked();
  Result<Unit> load_state(std::span<const u8> bytes);
  Result<Unit> replay_journal();

  u64 journal_start_sector() const;
  u64 journal_capacity_sectors() const;

  // unique_ptr keeps MemFs movable (factories return it by value).
  mutable std::unique_ptr<std::mutex> mu_ = std::make_unique<std::mutex>();
  BlockDevice* dev_ = nullptr;
  std::map<u64, Inode> inodes_;
  u64 next_ino_ = 2;  // 1 is the root
  u64 epoch_ = 1;
  bool ckpt_valid_ = false;
  u64 ckpt_sectors_ = 0;
  u64 journal_head_ = 0;  // absolute sector of the next record
  // The checkpoint record is serialized here and kept between checkpoints:
  // a checkpoint of a large tree is a multi-MiB buffer, and allocating it
  // afresh each time costs a first-touch page fault per 4 KiB once glibc
  // serves it by mmap (see checkpoint_locked).
  std::vector<u8> ckpt_buf_;
  // Metrics ("fs<N>/..."). Pointers (registry-owned, process lifetime) so
  // MemFs stays movable; journal commits and fsyncs are also traced as spans.
  Counter* c_journal_records_ = nullptr;
  Counter* c_journal_bytes_ = nullptr;
  Counter* c_checkpoints_ = nullptr;
  Counter* c_fsyncs_ = nullptr;
  Histogram* h_journal_record_bytes_ = nullptr;
  u32 span_journal_commit_ = 0;
  u32 span_fsync_ = 0;
};

}  // namespace vnros

#endif  // VNROS_SRC_KERNEL_FS_H_
