#include "src/kernel/syscall.h"

#include <algorithm>

#include "src/base/contracts.h"

namespace vnros {
namespace {

// Ephemeral UDP ports are allocated from here per kernel instance.
constexpr Port kEphemeralBase = 49152;

// Upper bound on a single I/O request. A frame asking for more is malformed
// (prevents a hostile length field from driving giant kernel allocations).
constexpr u64 kMaxIoBytes = u64{16} << 20;

}  // namespace

// --- Dispatcher scaffolding ------------------------------------------------------

SyscallDispatcher::ProcState& SyscallDispatcher::proc_state(Pid pid) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = procs_.find(pid);
  if (it == procs_.end()) {
    it = procs_.emplace(pid, std::make_unique<ProcState>()).first;
  }
  return *it->second;
}

void SyscallDispatcher::destroy_process_state(Pid pid) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    procs_.erase(pid);
  }
  kernel_.rings().destroy_rings(pid);
}

Fd SyscallDispatcher::alloc_fd(ProcState& ps) {
  if (!ps.free_fds.empty()) {
    Fd fd = ps.free_fds.back();
    ps.free_fds.pop_back();
    return fd;
  }
  return ps.next_fd++;
}

Fd SyscallDispatcher::install_fd(Pid pid, OpenFile of) {
  ProcState& ps = proc_state(pid);
  std::lock_guard<std::mutex> lock(mu_);
  Fd fd = alloc_fd(ps);
  ps.fds[fd] = std::move(of);
  return fd;
}

Result<Unit> SyscallDispatcher::close_fd(Pid pid, Fd fd, std::optional<OpenFile::Kind> only) {
  ProcState& ps = proc_state(pid);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ps.fds.find(fd);
  if (it == ps.fds.end() || (only && it->second.kind != *only)) {
    return ErrorCode::kBadFd;
  }
  const OpenFile& of = it->second;
  switch (of.kind) {
    case OpenFile::Kind::kFile:
      break;
    case OpenFile::Kind::kUdp:
      if (of.port != 0) {
        (void)kernel_.udp().unbind(of.port);
      }
      break;
    case OpenFile::Kind::kPipeRead:
      kernel_.pipes().close_reader(of.pipe);
      break;
    case OpenFile::Kind::kPipeWrite:
      kernel_.pipes().close_writer(of.pipe);
      break;
    case OpenFile::Kind::kVtp:
      (void)(of.listener ? kernel_.vtp().unlisten(of.port) : kernel_.vtp().close(of.conn));
      break;
  }
  ps.free_fds.push_back(fd);  // recycled LIFO by alloc_fd
  ps.fds.erase(it);
  return Unit{};
}

ThreadToken SyscallDispatcher::proc_token(CoreId core) {
  std::lock_guard<std::mutex> lock(token_mu_);
  auto it = proc_tokens_.find(core);
  if (it == proc_tokens_.end()) {
    it = proc_tokens_.emplace(core, kernel_.procs().register_core(core)).first;
  }
  return it->second;
}

ThreadToken SyscallDispatcher::sched_token(CoreId core) {
  std::lock_guard<std::mutex> lock(token_mu_);
  auto it = sched_tokens_.find(core);
  if (it == sched_tokens_.end()) {
    it = sched_tokens_.emplace(core, kernel_.sched().register_core(core)).first;
  }
  return it->second;
}

SysAbsState SyscallDispatcher::view(Pid pid) const {
  SysAbsState state;
  state.fs = kernel_.fs().view();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = procs_.find(pid);
  if (it != procs_.end()) {
    state.fds = it->second->fds;
  }
  return state;
}

std::vector<u8> SyscallDispatcher::handle(Pid pid, CoreId core, std::span<const u8> frame) {
  // The reply is the error word followed by the payload. The payload is
  // encoded straight into the reply frame behind a placeholder word, which
  // is patched (little-endian, as put_u32 writes it) once the call has run.
  Reader args(frame);
  Writer reply;
  reply.put_u32(0);
  auto nr = args.get_u32();
  const ErrorCode err =
      nr ? exec_syscall(pid, core, *nr, args, reply) : ErrorCode::kInvalidArgument;
  std::vector<u8> out = reply.take();
  for (usize i = 0; i < sizeof(u32); ++i) {
    out[i] = static_cast<u8>(static_cast<u32>(err) >> (8 * i));
  }
  return out;
}


// --- Handlers: one per syscalls.def row ------------------------------------------
//
// Each receives its row's decoded args (the frame was exact) and returns its
// row's reply. A Unit handler may return an ErrorCode directly: kOk then
// means success with an empty payload.

#define VNROS_SYS_HANDLER(Name)                                                  \
  template <>                                                                    \
  SysResult<SysNr::Name> SyscallDispatcher::on<SysNr::Name>(                     \
      [[maybe_unused]] Pid pid, [[maybe_unused]] CoreId core,                    \
      [[maybe_unused]] SysArgs<SysNr::Name>& args)

VNROS_SYS_HANDLER(kGetPid) { return pid; }

// --- Files -----------------------------------------------------------------------

VNROS_SYS_HANDLER(kOpen) {
  auto& [path, flags] = args;
  MemFs& fs = kernel_.fs();
  auto st = fs.stat(path);
  if (!st.ok()) {
    if (st.error() != ErrorCode::kNotFound || (flags & kOpenCreate) == 0) {
      return st.error();
    }
    auto created = fs.create(path);
    if (!created.ok()) {
      return created.error();
    }
    st = fs.stat(path);
    if (!st.ok()) {
      return st.error();
    }
  }
  if (st.value().is_dir) {
    return ErrorCode::kIsDirectory;
  }
  if ((flags & kOpenTrunc) != 0) {
    auto tr = fs.truncate(path, 0);
    if (!tr.ok()) {
      return tr.error();
    }
  }
  const bool append = (flags & kOpenAppend) != 0 && (flags & kOpenTrunc) == 0;
  return install_fd(pid, OpenFile{.kind = OpenFile::Kind::kFile,
                                  .path = std::move(path),
                                  .offset = append ? st.value().size : 0});
}

VNROS_SYS_HANDLER(kClose) { return close_fd(pid, std::get<0>(args), std::nullopt); }

VNROS_SYS_HANDLER(kRead) {
  auto [fd, len] = args;
  if (len > kMaxIoBytes) {
    return ErrorCode::kInvalidArgument;
  }
  ProcState& ps = proc_state(pid);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ps.fds.find(fd);
  if (it == ps.fds.end()) {
    return ErrorCode::kBadFd;
  }
  if (it->second.kind == OpenFile::Kind::kPipeRead) {
    std::vector<u8> buf(len);
    auto r = kernel_.pipes().read(it->second.pipe, buf);
    if (!r.ok()) {
      return r.error();
    }
    buf.resize(r.value());
    return buf;
  }
  if (it->second.kind != OpenFile::Kind::kFile) {
    return ErrorCode::kBadFd;
  }
  OpenFile& of = it->second;
  auto st = kernel_.fs().stat(of.path);
  if (!st.ok()) {
    return st.error();  // file unlinked while open: surfaced, not UB
  }
  const u64 pre_offset = of.offset;
  const u64 file_size = st.value().size;

  std::vector<u8> buf(len);
  auto r = kernel_.fs().read(of.path, pre_offset, buf);
  if (!r.ok()) {
    return r.error();
  }
  u64 n = r.value();
  of.offset = pre_offset + n;

  // The paper's read_spec, executably:
  //   read_len == min(buffer.len(), pre.files[fd].size - pre.files[fd].offset)
  //   && post.files[fd].offset == pre.files[fd].offset + read_len
  VNROS_ENSURES(n == std::min<u64>(len, file_size > pre_offset ? file_size - pre_offset : 0));
  VNROS_ENSURES(of.offset == pre_offset + n);

  buf.resize(n);
  return buf;
}

VNROS_SYS_HANDLER(kWrite) {
  auto& [fd, data] = args;
  ProcState& ps = proc_state(pid);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ps.fds.find(fd);
  if (it == ps.fds.end()) {
    return ErrorCode::kBadFd;
  }
  if (it->second.kind == OpenFile::Kind::kPipeWrite) {
    return kernel_.pipes().write(it->second.pipe, data);
  }
  if (it->second.kind != OpenFile::Kind::kFile) {
    return ErrorCode::kBadFd;
  }
  OpenFile& of = it->second;
  auto r = kernel_.fs().write(of.path, of.offset, data);
  if (r.ok()) {
    of.offset += r.value();
  }
  return r;
}

VNROS_SYS_HANDLER(kLseek) {
  auto [fd, delta, whence] = args;
  if (static_cast<u32>(whence) > 2) {
    return ErrorCode::kInvalidArgument;
  }
  ProcState& ps = proc_state(pid);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ps.fds.find(fd);
  if (it == ps.fds.end() || it->second.kind != OpenFile::Kind::kFile) {
    return ErrorCode::kBadFd;
  }
  OpenFile& of = it->second;
  i64 base = 0;
  switch (whence) {
    case SeekWhence::kSet: base = 0; break;
    case SeekWhence::kCur: base = static_cast<i64>(of.offset); break;
    case SeekWhence::kEnd: {
      auto st = kernel_.fs().stat(of.path);
      if (!st.ok()) {
        return st.error();
      }
      base = static_cast<i64>(st.value().size);
      break;
    }
  }
  i64 target = base + delta;
  if (target < 0) {
    return ErrorCode::kInvalidArgument;
  }
  of.offset = static_cast<u64>(target);
  return of.offset;
}

VNROS_SYS_HANDLER(kFstat) {
  ProcState& ps = proc_state(pid);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ps.fds.find(std::get<0>(args));
  if (it == ps.fds.end() || it->second.kind != OpenFile::Kind::kFile) {
    return ErrorCode::kBadFd;
  }
  return kernel_.fs().stat(it->second.path);
}

VNROS_SYS_HANDLER(kMkdir) { return kernel_.fs().mkdir(std::get<0>(args)); }
VNROS_SYS_HANDLER(kUnlink) { return kernel_.fs().unlink(std::get<0>(args)); }
VNROS_SYS_HANDLER(kRmdir) { return kernel_.fs().rmdir(std::get<0>(args)); }
VNROS_SYS_HANDLER(kReaddir) { return kernel_.fs().readdir(std::get<0>(args)); }
VNROS_SYS_HANDLER(kRename) { return kernel_.fs().rename(std::get<0>(args), std::get<1>(args)); }
VNROS_SYS_HANDLER(kTruncate) {
  return kernel_.fs().truncate(std::get<0>(args), std::get<1>(args));
}
VNROS_SYS_HANDLER(kFsync) { return kernel_.fs().fsync(); }

VNROS_SYS_HANDLER(kReadUser) {
  auto [fd, uaddr, len] = args;
  if (len > kMaxIoBytes) {
    return ErrorCode::kInvalidArgument;
  }
  Process* proc = kernel_.procs().get(pid);
  if (proc == nullptr) {
    return ErrorCode::kNotFound;
  }
  ProcState& ps = proc_state(pid);
  // Data-race-freedom obligation: the buffer (process memory) is borrowed
  // exclusively for the duration of the handler.
  ExclusiveBorrow borrow(ps.borrow);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ps.fds.find(fd);
  if (it == ps.fds.end() || it->second.kind != OpenFile::Kind::kFile) {
    return ErrorCode::kBadFd;
  }
  OpenFile& of = it->second;
  std::vector<u8> buf(len);
  auto r = kernel_.fs().read(of.path, of.offset, buf);
  if (!r.ok()) {
    return r.error();
  }
  buf.resize(r.value());
  // Mapping obligation: the bytes land in user memory through the verified
  // page table.
  auto copied = proc->vm().copy_out(uaddr, buf);
  if (!copied.ok()) {
    return copied.error();
  }
  of.offset += r.value();
  return r.value();
}

VNROS_SYS_HANDLER(kWriteUser) {
  auto [fd, uaddr, len] = args;
  if (len > kMaxIoBytes) {
    return ErrorCode::kInvalidArgument;
  }
  Process* proc = kernel_.procs().get(pid);
  if (proc == nullptr) {
    return ErrorCode::kNotFound;
  }
  ProcState& ps = proc_state(pid);
  ExclusiveBorrow borrow(ps.borrow);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ps.fds.find(fd);
  if (it == ps.fds.end() || it->second.kind != OpenFile::Kind::kFile) {
    return ErrorCode::kBadFd;
  }
  OpenFile& of = it->second;
  std::vector<u8> buf(len);
  auto copied = proc->vm().copy_in(uaddr, buf);
  if (!copied.ok()) {
    return copied.error();
  }
  auto r = kernel_.fs().write(of.path, of.offset, buf);
  if (r.ok()) {
    of.offset += r.value();
  }
  return r;
}

VNROS_SYS_HANDLER(kPipeCreate) {
  PipeId id = kernel_.pipes().create();
  ProcState& ps = proc_state(pid);
  std::lock_guard<std::mutex> lock(mu_);
  Fd rfd = alloc_fd(ps);
  Fd wfd = alloc_fd(ps);
  ps.fds[rfd] = OpenFile{.kind = OpenFile::Kind::kPipeRead, .pipe = id};
  ps.fds[wfd] = OpenFile{.kind = OpenFile::Kind::kPipeWrite, .pipe = id};
  return FdPair{rfd, wfd};
}

// --- Memory ----------------------------------------------------------------------

VNROS_SYS_HANDLER(kMmap) {
  auto [length, writable, lazy] = args;
  if (length > kMaxIoBytes) {
    return ErrorCode::kInvalidArgument;
  }
  Process* proc = kernel_.procs().get(pid);
  if (proc == nullptr) {
    return ErrorCode::kNotFound;
  }
  // A lazy region is demand-paged instead of backed eagerly.
  Perms perms{writable, true, false};
  return lazy.value_or(false) ? proc->vm().mmap_lazy(length, perms)
                              : proc->vm().mmap(length, perms);
}

VNROS_SYS_HANDLER(kMunmap) {
  Process* proc = kernel_.procs().get(pid);
  if (proc == nullptr) {
    return ErrorCode::kNotFound;
  }
  return proc->vm().munmap(std::get<0>(args));
}

// --- Processes -------------------------------------------------------------------

VNROS_SYS_HANDLER(kSpawn) { return kernel_.procs().spawn(proc_token(core), pid); }

VNROS_SYS_HANDLER(kWaitPid) {
  auto r = kernel_.procs().wait(proc_token(core), pid, std::get<0>(args));
  return r.ok() ? SysResult<SysNr::kWaitPid>(r.value()) : r.error();
}

VNROS_SYS_HANDLER(kExit) {
  auto r = kernel_.procs().exit(proc_token(core), pid, static_cast<i32>(std::get<0>(args)));
  if (r.ok()) {
    destroy_process_state(pid);
  }
  return r;
}

VNROS_SYS_HANDLER(kKill) {
  // Permission model: any process may signal any other (no uids).
  auto [target, signal] = args;
  auto r = kernel_.procs().kill(proc_token(core), target, signal);
  if (r.ok() && signal == kSigKill) {
    destroy_process_state(target);
  }
  return r;
}

VNROS_SYS_HANDLER(kTakeSignal) { return kernel_.procs().take_signal(proc_token(core), pid); }

// --- Futex -----------------------------------------------------------------------

VNROS_SYS_HANDLER(kFutexWait) {
  auto [uaddr, expected, tid] = args;
  Process* proc = kernel_.procs().get(pid);
  if (proc == nullptr) {
    return ErrorCode::kNotFound;
  }
  auto current = proc->vm().read_u32(uaddr);
  if (!current.ok()) {
    return current.error();
  }
  return kernel_.simfutex().wait(sched_token(core), pid, uaddr, current.value(), expected, tid);
}

VNROS_SYS_HANDLER(kFutexWake) {
  auto [uaddr, count] = args;
  return u64{kernel_.simfutex().wake(sched_token(core), pid, uaddr, count)};
}

// --- Network ---------------------------------------------------------------------

VNROS_SYS_HANDLER(kUdpSocket) { return install_fd(pid, OpenFile{.kind = OpenFile::Kind::kUdp}); }

VNROS_SYS_HANDLER(kUdpBind) {
  auto [fd, port] = args;
  ProcState& ps = proc_state(pid);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ps.fds.find(fd);
  if (it == ps.fds.end() || it->second.kind != OpenFile::Kind::kUdp) {
    return ErrorCode::kBadFd;
  }
  if (it->second.port != 0) {
    return ErrorCode::kAlreadyExists;
  }
  auto r = kernel_.udp().bind(port);
  if (r.ok()) {
    it->second.port = port;
  }
  return r;
}

VNROS_SYS_HANDLER(kUdpSendTo) {
  auto& [fd, dst, dport, data] = args;
  ProcState& ps = proc_state(pid);
  Port src_port;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ps.fds.find(fd);
    if (it == ps.fds.end() || it->second.kind != OpenFile::Kind::kUdp) {
      return ErrorCode::kBadFd;
    }
    if (it->second.port == 0) {
      // Auto-bind an ephemeral port, as first use of an unbound socket.
      Port p = static_cast<Port>(kEphemeralBase + (next_ephemeral_++ % 16000));
      auto b = kernel_.udp().bind(p);
      if (!b.ok()) {
        return b.error();
      }
      it->second.port = p;
    }
    src_port = it->second.port;
  }
  return kernel_.udp().send(dst, dport, src_port, data);
}

VNROS_SYS_HANDLER(kUdpRecvFrom) {
  ProcState& ps = proc_state(pid);
  Port port;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ps.fds.find(std::get<0>(args));
    if (it == ps.fds.end() || it->second.kind != OpenFile::Kind::kUdp) {
      return ErrorCode::kBadFd;
    }
    if (it->second.port == 0) {
      return ErrorCode::kNotConnected;
    }
    port = it->second.port;
  }
  return kernel_.udp().recv(port);
}

VNROS_SYS_HANDLER(kVtpListen) {
  auto [port, backlog] = args;
  auto r = kernel_.vtp().listen(port, backlog);
  if (!r.ok()) {
    return r.error();
  }
  return install_fd(pid, OpenFile{.kind = OpenFile::Kind::kVtp, .port = port, .listener = true});
}

VNROS_SYS_HANDLER(kVtpConnect) {
  auto [dst, dport, sport] = args;
  auto r = kernel_.vtp().connect(dst, dport, sport);
  if (!r.ok()) {
    return r.error();
  }
  return install_fd(pid, OpenFile{.kind = OpenFile::Kind::kVtp, .conn = r.value()});
}

VNROS_SYS_HANDLER(kVtpAccept) {
  ProcState& ps = proc_state(pid);
  Port port;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ps.fds.find(std::get<0>(args));
    if (it == ps.fds.end() || it->second.kind != OpenFile::Kind::kVtp ||
        !it->second.listener) {
      return ErrorCode::kBadFd;
    }
    port = it->second.port;
  }
  auto r = kernel_.vtp().accept(port);
  if (!r.ok()) {
    return r.error();  // kWouldBlock while empty: transient, ring-parkable
  }
  return install_fd(pid, OpenFile{.kind = OpenFile::Kind::kVtp, .conn = r.value()});
}

Result<ConnId> SyscallDispatcher::vtp_conn(Pid pid, Fd fd) {
  ProcState& ps = proc_state(pid);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ps.fds.find(fd);
  if (it == ps.fds.end() || it->second.kind != OpenFile::Kind::kVtp || it->second.listener) {
    return ErrorCode::kBadFd;
  }
  return it->second.conn;
}

VNROS_SYS_HANDLER(kVtpSend) {
  auto& [fd, data] = args;
  auto conn = vtp_conn(pid, fd);
  if (!conn.ok()) {
    return conn.error();
  }
  // Stream semantics: bytes accepted, not all-or-nothing; kWouldBlock when
  // the send buffer is full.
  return kernel_.vtp().send(conn.value(), data);
}

VNROS_SYS_HANDLER(kVtpRecv) {
  auto [fd, max_len] = args;
  if (max_len > kMaxIoBytes) {
    return ErrorCode::kInvalidArgument;
  }
  auto conn = vtp_conn(pid, fd);
  if (!conn.ok()) {
    return conn.error();
  }
  return kernel_.vtp().recv(conn.value(), max_len);
}

VNROS_SYS_HANDLER(kVtpClose) { return close_fd(pid, std::get<0>(args), OpenFile::Kind::kVtp); }

// --- Console and introspection ---------------------------------------------------

VNROS_SYS_HANDLER(kConsoleWrite) {
  kernel_.console().write(std::get<0>(args));
  return Unit{};
}

VNROS_SYS_HANDLER(kKstat) { return kernel_.kstat(std::get<0>(args)); }
VNROS_SYS_HANDLER(kKstatList) { return kernel_.kstat_names(); }

// --- Rings -----------------------------------------------------------------------

VNROS_SYS_HANDLER(kRingSetup) {
  return kernel_.rings().setup(pid, std::get<0>(args), std::get<1>(args));
}

VNROS_SYS_HANDLER(kRingSubmit) {
  auto& [ring_id, entries] = args;
  if (entries.size() > SysRingTable::kMaxSlots) {
    return ErrorCode::kInvalidArgument;
  }
  auto exec = [this, pid, core](u32 op, Reader& a, Writer& p) {
    return exec_syscall(pid, core, op, a, p);
  };
  return kernel_.rings().submit(pid, ring_id, entries, exec, sched_token(core));
}

VNROS_SYS_HANDLER(kRingWait) {
  auto [ring_id, min_complete, max_reap, tid] = args;
  auto exec = [this, pid, core](u32 op, Reader& a, Writer& p) {
    return exec_syscall(pid, core, op, a, p);
  };
  return kernel_.rings().wait(pid, ring_id, min_complete, max_reap, tid, exec,
                              sched_token(core));
}

#undef VNROS_SYS_HANDLER

// --- Dispatch ----------------------------------------------------------------------

template <SysNr N>
ErrorCode SyscallDispatcher::arm(Pid pid, CoreId core, Reader& args, Writer& payload) {
  constexpr u32 kFlags = sys_flags(static_cast<u32>(N));
  if constexpr ((kFlags & kSysIoFault) != 0) {
    if (auto injected = io_fault_site_->fire()) {
      return *injected;
    }
  }
  if constexpr ((kFlags & kSysMemFault) != 0) {
    if (auto injected = mem_fault_site_->fire()) {
      return *injected;
    }
  }
  SysArgs<N> decoded;
  if (!SysSpec<N>::Args::get(args, decoded) || !args.exhausted()) {
    return ErrorCode::kInvalidArgument;  // frames are exact
  }
  SysResult<N> r = on<N>(pid, core, decoded);
  if (r.ok()) {
    Wire<SysReply<N>>::put(payload, r.value());
  }
  return r.error();
}

// The shared transition function: the synchronous path calls it once per
// frame; the ring reactor calls it once per execution attempt of a pending
// SQE, so both paths see the same injected error distribution per executed
// op.
ErrorCode SyscallDispatcher::exec_syscall(Pid pid, CoreId core, u32 nr, Reader& args,
                                          Writer& payload) {
  switch (static_cast<SysNr>(nr)) {
#define VNROS_SYSCALL(Name, ...) \
  case SysNr::Name:              \
    return arm<SysNr::Name>(pid, core, args, payload);
#include "src/kernel/syscalls.def"
  }
  return ErrorCode::kUnsupported;
}

}  // namespace vnros
