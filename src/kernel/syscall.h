// The syscall layer: the paper's client application contract (§3), made
// executable.
//
// Every call crosses a real marshalling boundary: the user-side Sys facade
// serializes the syscall number and arguments into a byte frame, the
// kernel-side SyscallDispatcher deserializes, checks, executes, and
// serializes the reply. Each syscall is declared once, as a row of
// syscalls.def; the frame encoders and decoders on both sides are derived
// from the row's arg and reply shapes (src/base/codec.h). This discharges,
// dynamically, the three obligations §3 names:
//   - marshalling: arguments/results round-trip the boundary byte-exactly,
//     and a frame that is not exactly its row's shape is kInvalidArgument
//     (kernel/sys_marshalling_rejects_garbage walks every row);
//   - mapping: user buffers are reached through the process's verified page
//     table (read_user/write_user translate page-by-page);
//   - data-race freedom: each process's syscall state is guarded by a
//     BorrowCell — a concurrent conflicting entry trips a contract instead
//     of racing (the dynamic stand-in for Rust's unique &mut).
//
// The read() handler carries the paper's read_spec as an executable
// postcondition — see the kRead handler in syscall.cc.
#ifndef VNROS_SRC_KERNEL_SYSCALL_H_
#define VNROS_SRC_KERNEL_SYSCALL_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/base/codec.h"
#include "src/base/fault.h"
#include "src/base/result.h"
#include "src/kernel/kernel.h"
#include "src/kernel/sysnr.h"
#include "src/spec/ownership.h"

namespace vnros {

inline constexpr u32 kOpenCreate = 1u << 0;   // create if missing
inline constexpr u32 kOpenTrunc = 1u << 1;    // truncate to zero
inline constexpr u32 kOpenAppend = 1u << 2;   // start offset at EOF

enum class SeekWhence : u32 { kSet = 0, kCur = 1, kEnd = 2 };

using FdPair = std::pair<Fd, Fd>;  // pipe_create: (read_fd, write_fd)

template <>
struct Wire<FileStat> : Fields<FileStat, &FileStat::inode, &FileStat::size, &FileStat::is_dir> {};
template <>
struct Wire<Datagram>
    : Fields<Datagram, &Datagram::src_addr, &Datagram::src_port, &Datagram::payload> {};
template <>
struct Wire<RingSqe> : Fields<RingSqe, &RingSqe::user_data, &RingSqe::op, &RingSqe::args> {};
template <>
struct Wire<RingCqe> : Fields<RingCqe, &RingCqe::user_data, &RingCqe::err, &RingCqe::payload> {};

// Each row's arg shape and reply shape as types.
template <SysNr N>
struct SysSpec;
#define VNROS_SHAPE(...) Shape<__VA_ARGS__>
#define VNROS_SYSCALL(Name, nr, name, args, reply, flags) \
  template <>                                             \
  struct SysSpec<SysNr::Name> {                           \
    using Args = VNROS_SHAPE args;                        \
    using Reply = reply;                                  \
  };
#include "src/kernel/syscalls.def"
#undef VNROS_SHAPE

template <SysNr N>
using SysArgs = typename SysSpec<N>::Args::Tuple;
template <SysNr N>
using SysReply = typename SysSpec<N>::Reply;
template <SysNr N>
using SysResult = Result<SysReply<N>>;

// The argument frame of syscall N: the synchronous frame minus the nr word.
template <SysNr N, typename... A>
void encode_args(Writer& w, const A&... args) {
  SysSpec<N>::Args::put(w, args...);
}

// Decodes syscall N's reply: the error, else the payload as the row's reply
// shape (kCorrupted if it does not decode).
template <SysNr N>
SysResult<N> decode_reply(ErrorCode err, std::span<const u8> payload) {
  if (err != ErrorCode::kOk) {
    return err;
  }
  Reader r(payload);
  SysReply<N> out{};
  if (!Wire<SysReply<N>>::get(r, out)) {
    return ErrorCode::kCorrupted;
  }
  return out;
}

// A ring completion carries the same (err, payload) as the synchronous reply.
template <SysNr N>
SysResult<N> decode_reply(const RingCqe& cqe) {
  return decode_reply<N>(static_cast<ErrorCode>(cqe.err), cqe.payload);
}

// An open descriptor. Files carry the read_spec's (path, offset) pair;
// socket fds carry their transport identity.
struct OpenFile {
  enum class Kind : u8 { kFile, kUdp, kVtp, kPipeRead, kPipeWrite } kind = Kind::kFile;
  std::string path{};
  u64 offset = 0;
  Port port = 0;      // udp: bound port
  ConnId conn = 0;    // vtp: connection
  PipeId pipe = 0;    // pipe endpoints
  bool listener = false;

  bool operator==(const OpenFile&) const = default;
};

// Abstract per-process syscall state (the §3 spec's State), used by the
// kernel/sys_* VCs: the fd table plus the filesystem view.
struct SysAbsState {
  std::map<Fd, OpenFile> fds;
  FsAbsState fs;

  bool operator==(const SysAbsState&) const = default;
};

// Kernel-side entry point. One instance per Kernel.
class SyscallDispatcher {
 public:
  explicit SyscallDispatcher(Kernel& kernel) : kernel_(kernel) {}

  // The "syscall instruction": a serialized request frame in, a serialized
  // reply frame out. `core` models which CPU the calling thread runs on.
  std::vector<u8> handle(Pid pid, CoreId core, std::span<const u8> frame);

  // Abstract view for refinement checks.
  SysAbsState view(Pid pid) const;

  // Tears down a process's syscall state (fds) — called on exit.
  void destroy_process_state(Pid pid);

 private:
  struct ProcState {
    std::map<Fd, OpenFile> fds;
    Fd next_fd = 3;  // 0..2 reserved by convention
    // Closed descriptors, recycled LIFO before next_fd grows. Between close
    // and reuse a stale fd stays kBadFd; reuse hands out a fresh OpenFile
    // (kernel/sys_fd_reuse_safe VC + SyscallTest.FdReuse).
    std::vector<Fd> free_fds;
    BorrowCell borrow;
  };

  ProcState& proc_state(Pid pid);
  // Allocates a descriptor: pops the free list, else extends next_fd.
  // Caller holds mu_.
  static Fd alloc_fd(ProcState& ps);
  // Allocates a descriptor for `of` in pid's table.
  Fd install_fd(Pid pid, OpenFile of);
  // Closes `fd` and releases the endpoint behind it. With `only` set, an fd
  // of another kind is kBadFd and stays open.
  Result<Unit> close_fd(Pid pid, Fd fd, std::optional<OpenFile::Kind> only);
  // The connection behind a connected (non-listener) VTP fd.
  Result<ConnId> vtp_conn(Pid pid, Fd fd);

  // The shared transition function: executes one syscall by number against
  // kernel state, appending the reply payload. Both the synchronous path
  // (handle) and the ring reactor (kernel_.rings()) dispatch through here,
  // so a ring-executed op refines the synchronous one by construction.
  ErrorCode exec_syscall(Pid pid, CoreId core, u32 nr, Reader& args, Writer& payload);

  // The one dispatcher arm, instantiated per row: injects the row's
  // eligible faults (once per execution attempt), decodes the exact arg
  // frame (kInvalidArgument otherwise), runs the handler and encodes its
  // reply.
  template <SysNr N>
  ErrorCode arm(Pid pid, CoreId core, Reader& args, Writer& payload);

  // The handler of row N (defined in syscall.cc, one per row): typed args
  // in, typed reply out. Semantic checks on the decoded values stay here.
  template <SysNr N>
  SysResult<N> on(Pid pid, CoreId core, SysArgs<N>& args);

  Kernel& kernel_;
  // Transient-error injection at the contract boundary: "syscall/io_error"
  // fails filesystem syscalls with kIoError, "syscall/no_memory" fails
  // mmap/spawn with kNoMemory — errors the §3 contract already allows, so
  // a correct application must tolerate them (and the chaos harness checks
  // that it does). Eligibility is a row flag in syscalls.def.
  FaultSite* io_fault_site_ = &FaultRegistry::global().site("syscall/io_error");
  FaultSite* mem_fault_site_ = &FaultRegistry::global().site("syscall/no_memory");
  mutable std::mutex mu_;
  std::map<Pid, std::unique_ptr<ProcState>> procs_;
  u64 next_ephemeral_ = 0;  // ephemeral UDP port counter
  // One scheduler/process-directory token per core, created lazily.
  std::mutex token_mu_;
  std::map<CoreId, ThreadToken> proc_tokens_;
  std::map<CoreId, ThreadToken> sched_tokens_;
  ThreadToken proc_token(CoreId core);
  ThreadToken sched_token(CoreId core);
};

// User-side facade: what a process links against (the Sys type of §3). All
// methods marshal through the dispatcher — there is no back door.
class Sys {
 public:
  Sys(SyscallDispatcher& dispatcher, Pid pid, CoreId core = 0)
      : dispatcher_(dispatcher), pid_(pid), core_(core) {}

  Pid pid() const { return pid_; }

  // --- Files ---------------------------------------------------------------
  Result<Fd> open(std::string_view path, u32 flags = 0) { return call<SysNr::kOpen>(path, flags); }
  Result<Unit> close(Fd fd) { return call<SysNr::kClose>(fd); }
  // Reads up to `len` bytes at the fd's offset, advancing it (§3 read_spec).
  Result<std::vector<u8>> read(Fd fd, usize len) { return call<SysNr::kRead>(fd, len); }
  // Writes at the fd's offset, advancing it; returns bytes written.
  Result<u64> write(Fd fd, std::span<const u8> data) { return call<SysNr::kWrite>(fd, data); }
  Result<u64> lseek(Fd fd, i64 delta, SeekWhence whence) {
    return call<SysNr::kLseek>(fd, delta, whence);
  }
  Result<FileStat> fstat(Fd fd) { return call<SysNr::kFstat>(fd); }
  Result<Unit> mkdir(std::string_view path) { return call<SysNr::kMkdir>(path); }
  Result<Unit> unlink(std::string_view path) { return call<SysNr::kUnlink>(path); }
  Result<Unit> rmdir(std::string_view path) { return call<SysNr::kRmdir>(path); }
  Result<std::vector<std::string>> readdir(std::string_view path) {
    return call<SysNr::kReaddir>(path);
  }
  Result<Unit> rename(std::string_view from, std::string_view to) {
    return call<SysNr::kRename>(from, to);
  }
  Result<Unit> truncate(std::string_view path, u64 size) {
    return call<SysNr::kTruncate>(path, size);
  }
  Result<Unit> fsync() { return call<SysNr::kFsync>(); }
  // Reads into / writes from this process's own mapped memory.
  Result<u64> read_user(Fd fd, VAddr buffer, usize len) {
    return call<SysNr::kReadUser>(fd, buffer, len);
  }
  Result<u64> write_user(Fd fd, VAddr buffer, usize len) {
    return call<SysNr::kWriteUser>(fd, buffer, len);
  }
  // Creates a pipe; returns (read_fd, write_fd).
  Result<std::pair<Fd, Fd>> pipe_create() { return call<SysNr::kPipeCreate>(); }

  // --- Memory ----------------------------------------------------------------
  // An eager map omits the trailing `lazy` field, as older clients do.
  Result<VAddr> mmap(u64 length, bool writable, bool lazy = false) {
    return call<SysNr::kMmap>(length, writable, lazy ? std::optional<bool>(true) : std::nullopt);
  }
  Result<Unit> munmap(VAddr base) { return call<SysNr::kMunmap>(base); }

  // --- Processes ---------------------------------------------------------------
  Result<Pid> spawn() { return call<SysNr::kSpawn>(); }
  Result<i32> waitpid(Pid child) {  // kWouldBlock while running
    auto code = call<SysNr::kWaitPid>(child);
    return code.ok() ? Result<i32>(static_cast<i32>(code.value())) : code.error();
  }
  Result<Unit> exit_proc(i32 code) { return call<SysNr::kExit>(code); }
  Result<Unit> kill(Pid target, u32 signal) { return call<SysNr::kKill>(target, signal); }
  Result<u32> take_signal() { return call<SysNr::kTakeSignal>(); }

  // --- Futex -------------------------------------------------------------------
  Result<Unit> futex_wait(VAddr uaddr, u32 expected, Tid tid) {
    return call<SysNr::kFutexWait>(uaddr, expected, tid);
  }
  Result<u64> futex_wake(VAddr uaddr, usize count) {
    return call<SysNr::kFutexWake>(uaddr, count);
  }

  // --- Network ------------------------------------------------------------------
  Result<Fd> udp_socket() { return call<SysNr::kUdpSocket>(); }
  Result<Unit> udp_bind(Fd fd, Port port) { return call<SysNr::kUdpBind>(fd, port); }
  Result<Unit> udp_sendto(Fd fd, NetAddr dst, Port dst_port, std::span<const u8> data) {
    return call<SysNr::kUdpSendTo>(fd, dst, dst_port, data);
  }
  Result<Datagram> udp_recvfrom(Fd fd) { return call<SysNr::kUdpRecvFrom>(fd); }
  // VTP stream sockets. vtp_send returns how many bytes the transport
  // accepted (partial under backpressure, kWouldBlock when none fit);
  // vtp_accept/vtp_recv return kWouldBlock while nothing is ready — all
  // three park cleanly when submitted through a ring.
  Result<Fd> vtp_listen(Port port, usize backlog = 16) {
    return call<SysNr::kVtpListen>(port, backlog);
  }
  Result<Fd> vtp_connect(NetAddr dst, Port dst_port, Port src_port) {
    return call<SysNr::kVtpConnect>(dst, dst_port, src_port);
  }
  Result<Fd> vtp_accept(Fd listener) { return call<SysNr::kVtpAccept>(listener); }
  Result<u64> vtp_send(Fd fd, std::span<const u8> data) { return call<SysNr::kVtpSend>(fd, data); }
  Result<std::vector<u8>> vtp_recv(Fd fd, usize max_len) {
    return call<SysNr::kVtpRecv>(fd, max_len);
  }
  Result<Unit> vtp_close(Fd fd) { return call<SysNr::kVtpClose>(fd); }

  // --- Console ---------------------------------------------------------------------
  Result<Unit> console_write(std::string_view text) { return call<SysNr::kConsoleWrite>(text); }

  // --- Async rings -------------------------------------------------------------------
  // io_uring-shaped submission/completion queues (src/kernel/ring.h): setup
  // returns a ring id; submit accepts a prefix of the batch bounded by free
  // SQ slots (typed kWouldBlock when none fits); wait reaps up to max_reap
  // completions, parking on the scheduler when fewer than min_complete are
  // ready and `tid` is nonzero (kWouldBlock signals the park — nothing
  // reaped). Args inside each RingSqe use the synchronous frame encoding
  // minus the leading nr word; see ring_args below.
  Result<u32> ring_setup(u32 sq_slots, u32 cq_slots) {
    return call<SysNr::kRingSetup>(sq_slots, cq_slots);
  }
  Result<u32> ring_submit(u32 ring_id, std::span<const RingSqe> entries) {
    return call<SysNr::kRingSubmit>(ring_id, entries);
  }
  Result<std::vector<RingCqe>> ring_wait(u32 ring_id, u32 min_complete, u32 max_reap,
                                         Tid tid = 0) {
    return call<SysNr::kRingWait>(ring_id, min_complete, max_reap, tid);
  }

  // --- Introspection ----------------------------------------------------------------
  // Reads one of the kernel's contract counters by stable name (e.g.
  // "fs/fsyncs"); kNotFound for names outside the published table. The value
  // is monotone in program order: a kstat read is never less than an earlier
  // read of the same name (obs/kstat_refinement VC).
  Result<u64> kstat(std::string_view name) { return call<SysNr::kKstat>(name); }
  // Enumerates every published counter name.
  Result<std::vector<std::string>> kstat_list() { return call<SysNr::kKstatList>(); }

 private:
  // Marshals one call: the nr word plus the row's arg frame in, the reply's
  // error word plus the row's reply shape out.
  template <SysNr N, typename... A>
  SysResult<N> call(const A&... args) {
    Writer frame;
    frame.put_u32(static_cast<u32>(N));
    encode_args<N>(frame, args...);
    std::vector<u8> reply = dispatcher_.handle(pid_, core_, frame.bytes());
    Reader r(reply);
    auto err = r.get_u32();
    if (!err) {
      return ErrorCode::kCorrupted;  // kernel reply must at least carry an error word
    }
    return decode_reply<N>(static_cast<ErrorCode>(*err), std::span<const u8>(reply).subspan(4));
  }

  SyscallDispatcher& dispatcher_;
  Pid pid_;
  CoreId core_;
};

// Argument-frame builders for ring submissions, one per row: each returns
// the encoding the synchronous syscall uses after the nr word (the same
// encode_args Sys uses), so a RingSqe{user_data, nr, ring_args::...} is
// exactly the synchronous frame split at the nr boundary.
namespace ring_args {
#define VNROS_SYSCALL(Name, nr, name, args, reply, flags) \
  template <typename... A>                                \
  std::vector<u8> name(const A&... a) {                   \
    Writer w;                                             \
    encode_args<SysNr::Name>(w, a...);                    \
    return w.take();                                      \
  }
#include "src/kernel/syscalls.def"
}  // namespace ring_args

}  // namespace vnros

#endif  // VNROS_SRC_KERNEL_SYSCALL_H_
