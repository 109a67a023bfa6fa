// kv_small_mixed and kv_large_put: the paper's storage node (§1, Table 2)
// built on the syscall contract alone. A 3-node BlockStoreNode cluster
// (replication 2, admission off, loss-free fabric) serves closed-loop
// virtual clients over the VTP client plane. Everything runs on one OS
// thread: hosts, fabric and clients are simulated in-process and open no OS
// sockets, so one harness tick = one serve_once() per node, one VTP tick per
// host, one step per client.
//
// Wall-clock latency of an op runs from the harness starting to frame the
// request to the harness having parsed the reply. Every reply is validated:
// values carry their key hash, write sequence and crc (harness.h), and a
// read must return a value at least as new as the newest write acked before
// it was sent. After the measured phase every key is read back from every
// owner, and one node is dirty-crashed and remounted from its disk.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"
#include "src/app/blockstore.h"
#include "src/base/serde.h"
#include "src/hw/block_device.h"
#include "src/hw/network.h"
#include "src/kernel/kernel.h"
#include "src/kernel/syscall.h"

namespace perfbench {
namespace {

using vnros::BlockDevice;
using vnros::BlockStoreNode;
using vnros::BsNodeId;
using vnros::BsOp;
using vnros::BsPeer;
using vnros::BsTransport;
using vnros::ClusterConfig;
using vnros::ClusterView;
using vnros::ErrorCode;
using vnros::Fd;
using vnros::Kernel;
using vnros::KernelConfig;
using vnros::LinkAddr;
using vnros::Network;
using vnros::Pid;
using vnros::Port;
using vnros::Reader;
using vnros::Sys;
using vnros::SyscallDispatcher;
using vnros::Writer;

constexpr Port kPort = 9300;
constexpr usize kNodes = 3;
constexpr usize kReplication = 2;
constexpr u64 kDiskSectors = 16384;  // 8 MiB, the kernel default
constexpr u64 kReplyTimeoutTicks = 2000;
constexpr u64 kDrainTicks = 4 * kReplyTimeoutTicks;
// Set-ups per run: half before the measured phase, half after it, so a slow
// moment of the host at one end moves setup_s less.
constexpr int kSetupReps = 16;
constexpr usize kKeepSpans = 20'000;  // in the span dump
constexpr u64 kWindowNs = 5'000'000'000;  // latency percentiles: median over windows
constexpr double kSliceSeconds = 0.5;     // traced run: alternating slice length

struct KvParams {
  u32 clients;
  KvMix mix;
  usize value_bytes;
};

// kv_small_mixed: many small requests, so per-message cost dominates.
// kv_large_put: bulk writes, so fsync, journal, checkpoints and the device
// dominate; ~384 x 4 KiB x 2 replicas / 3 nodes is ~1 MiB per node, under
// the checkpoint area, while the journal compacts every few hundred puts.
KvParams params_for(const std::string& workload) {
  if (workload == "kv_large_put") {
    return KvParams{16, KvMix{384, 10, 0, 0}, 4096};
  }
  return KvParams{64, KvMix{4096, 50, 20, 80}, 128};
}

enum Layer : u32 { kServe, kPump, kVtpTick, kClientSys };
const std::vector<std::string> kLayerNames = {"app.serve_once", "app.pump", "net.vtp_tick",
                                              "kernel.client_sys"};

struct Host {
  Kernel kernel;
  SyscallDispatcher disp;
  Pid pid;
  Sys sys;

  explicit Host(const KernelConfig& config)
      : kernel(config), disp(kernel), pid(spawn(disp)), sys(disp, pid, 0) {}

  static Pid spawn(SyscallDispatcher& disp) {
    Sys boot(disp, vnros::kInvalidPid, 0);
    auto p = boot.spawn();
    VNROS_CHECK(p.ok());
    return p.value();
  }
};

// What the harness knows about one key: the newest write sequence stamped
// on a put, and the newest one acknowledged.
struct KeyState {
  u64 stamped = 0;
  u64 acked = 0;
};

struct Cluster {
  Network net;
  std::vector<std::unique_ptr<BlockDevice>> disks;
  std::vector<LinkAddr> addrs;
  std::vector<std::unique_ptr<Host>> hosts;
  std::vector<std::unique_ptr<BlockStoreNode>> nodes;
  ClusterView view;
  std::unique_ptr<Host> client_host;
  SpanLog* log = nullptr;  // traced phase: pump serves are spans too

  Cluster() {
    view.ring = vnros::PlacementRing(32);
    view.replication = kReplication;
    for (usize i = 0; i < kNodes; ++i) {
      disks.push_back(std::make_unique<BlockDevice>(kDiskSectors, 0x5EC70Full + i,
                                                    "perfbench/node" + std::to_string(i)));
      hosts.push_back(std::make_unique<Host>(host_config(i, false)));
      addrs.push_back(hosts[i]->kernel.net_addr());
      view.ring.add_node(static_cast<BsNodeId>(i));
      view.directory[static_cast<BsNodeId>(i)] = BsPeer{addrs[i], kPort};
    }
    nodes.resize(kNodes);
    for (usize i = 0; i < kNodes; ++i) {
      start_node(i);
    }
    KernelConfig cc;
    cc.network = &net;
    client_host = std::make_unique<Host>(cc);
  }

  KernelConfig host_config(usize i, bool recover) {
    KernelConfig c;
    c.network = &net;
    c.disk = disks[i].get();
    c.recover_fs = recover;
    if (recover) {
      c.link_addr = addrs[i];
    }
    return c;
  }

  // The replication pump: while node i waits for a replica ack, the other
  // nodes are served. Those nested serves are the app.pump layer.
  void start_node(usize i) {
    nodes[i] = std::make_unique<BlockStoreNode>(
        hosts[i]->sys, kPort, std::vector<BsPeer>{},
        [this, i] {
          for (usize j = 0; j < nodes.size(); ++j) {
            if (j != i && nodes[j]) {
              SpanScope s(log, kPump, 0);
              nodes[j]->serve_once();
            }
          }
        },
        std::string{}, BsTransport::kVtp);
    VNROS_CHECK(nodes[i]->init().ok());
    ClusterConfig cfg;
    cfg.self = static_cast<BsNodeId>(i);
    nodes[i]->configure_cluster(cfg, view);
  }

  // Power failure on node i: the process and kernel die, the disk loses its
  // unflushed cache, and the node is remounted through journal recovery.
  bool crash_and_remount(usize i, std::string& why) {
    nodes[i].reset();
    hosts[i].reset();
    disks[i]->crash();
    if (auto probe = vnros::MemFs::recover(*disks[i]); !probe.ok()) {
      why = std::string("journal recovery failed: ") + vnros::error_name(probe.error());
      return false;
    }
    hosts[i] = std::make_unique<Host>(host_config(i, true));
    start_node(i);
    return true;
  }
};

// One closed-loop virtual client: frame, send, await the reply, validate,
// repeat. One VTP stream per owner node, framed [u32 len][body] both ways.
class Client {
 public:
  Client(Sys& sys, const ClusterView& view, const KvParams& p, u64 seed, u64 id,
         std::vector<KeyState>& keys)
      : sys_(sys), view_(view), p_(p), seed_(seed), id_(id), stream_(seed, id, p.mix),
        keys_(keys), sport_base_(static_cast<Port>(20'000 + id * 8)) {}

  // Per-phase accounting.
  struct Stats {
    LatencyHistogram get, put;
    std::vector<u64> ticks;  // ticks per op, by count (index = ticks)
    u64 started = 0, completed = 0, failed = 0, gets = 0, puts = 0;
  };

  bool idle() const { return state_ == State::kIdle; }

  // Closed loop: a reply completes the op and, while the phase is still
  // issuing, the next op is framed and sent in the same step.
  void step(u64 tick, bool may_start, Stats& st, SpanLog* log, RunResult& res) {
    log_ = log;
    if (state_ == State::kWaiting) {
      poll(tick, st, res);
    }
    if (state_ == State::kIdle && may_start) {
      begin(tick, st);
    }
  }

  // Unfinished at the end of the drain: the op failed.
  void abandon(Stats& st) {
    if (state_ == State::kWaiting) {
      ++st.failed;
      state_ = State::kIdle;
    }
  }

 private:
  enum class State { kIdle, kWaiting };

  struct Chan {
    Fd fd = vnros::kInvalidFd;
    std::vector<u8> inbuf;
    std::vector<u8> outbuf;
  };

  void begin(u64 tick, Stats& st) {
    op_ = stream_.next();
    key_ = kv_key(op_.key);
    KeyState& ks = keys_[op_.key];
    floor_ = ks.acked;
    value_.clear();
    if (op_.kind == KvKind::kPut) {
      seq_ = ++ks.stamped;
      value_ = make_value(seed_, key_, seq_, p_.value_bytes);
    }
    ++op_id_;
    ++st.started;
    timed_out_ = false;
    start_ns_ = now_ns();
    start_tick_ = tick;
    send(tick);
  }

  Chan* chan(BsNodeId owner) {
    auto it = chans_.find(owner);
    if (it != chans_.end()) {
      return &it->second;
    }
    const BsPeer& peer = view_.directory.at(owner);
    Port sport = static_cast<Port>(sport_base_ + (sport_off_++ & 7));
    vnros::Result<Fd> fd = ErrorCode::kNotConnected;
    {
      SpanScope s(log_, kClientSys, op_id());
      fd = sys_.vtp_connect(peer.addr, peer.port, sport);
    }
    if (!fd.ok()) {
      return nullptr;
    }
    Chan& ch = chans_[owner];
    ch.fd = fd.value();
    return &ch;
  }

  void drop_chan(BsNodeId owner) {
    auto it = chans_.find(owner);
    if (it == chans_.end()) {
      return;
    }
    {
      SpanScope s(log_, kClientSys, op_id());
      (void)sys_.vtp_close(it->second.fd);
    }
    chans_.erase(it);
  }

  void flush(BsNodeId owner) {
    auto it = chans_.find(owner);
    if (it == chans_.end()) {
      return;
    }
    Chan& ch = it->second;
    while (!ch.outbuf.empty()) {
      vnros::Result<u64> sent = ErrorCode::kNotConnected;
      {
        SpanScope s(log_, kClientSys, op_id());
        sent = sys_.vtp_send(ch.fd, std::span<const u8>(ch.outbuf));
      }
      if (sent.ok() && sent.value() > 0) {
        ch.outbuf.erase(ch.outbuf.begin(), ch.outbuf.begin() + static_cast<long>(sent.value()));
        continue;
      }
      if (!sent.ok() && sent.error() != ErrorCode::kWouldBlock) {
        drop_chan(owner);
      }
      return;
    }
  }

  void send(u64 tick) {
    req_id_ = next_req_id_++;
    Writer w;
    w.put_u8(static_cast<u8>(op_.kind == KvKind::kGet ? BsOp::kGet : BsOp::kPut));
    w.put_u64(req_id_);
    w.put_string(key_);
    if (op_.kind == KvKind::kPut) {
      w.put_u64(seq_);
      w.put_bytes(value_);
    }
    owner_ = view_.owners(key_).front();
    if (Chan* ch = chan(owner_)) {
      Writer framed;
      framed.put_u32(static_cast<u32>(w.bytes().size()));
      ch->outbuf.insert(ch->outbuf.end(), framed.bytes().begin(), framed.bytes().end());
      ch->outbuf.insert(ch->outbuf.end(), w.bytes().begin(), w.bytes().end());
      flush(owner_);
    }
    sent_tick_ = tick;
    state_ = State::kWaiting;
  }

  static std::optional<std::vector<u8>> pop_frame(Chan& ch) {
    if (ch.inbuf.size() < 4) {
      return std::nullopt;
    }
    Reader hdr(std::span<const u8>(ch.inbuf.data(), 4));
    auto len = hdr.get_u32();
    if (!len || ch.inbuf.size() < 4 + usize{*len}) {
      return std::nullopt;
    }
    std::vector<u8> body(ch.inbuf.begin() + 4, ch.inbuf.begin() + 4 + *len);
    ch.inbuf.erase(ch.inbuf.begin(), ch.inbuf.begin() + 4 + *len);
    return body;
  }

  void poll(u64 tick, Stats& st, RunResult& res) {
    flush(owner_);
    std::optional<std::vector<u8>> frame;
    if (auto it = chans_.find(owner_); it != chans_.end()) {
      vnros::Result<std::vector<u8>> bytes = ErrorCode::kNotConnected;
      {
        SpanScope s(log_, kClientSys, op_id());
        bytes = sys_.vtp_recv(it->second.fd, 32 * 1024);
      }
      if (bytes.ok()) {
        it->second.inbuf.insert(it->second.inbuf.end(), bytes.value().begin(),
                                bytes.value().end());
        frame = pop_frame(it->second);
      } else if (bytes.error() != ErrorCode::kWouldBlock) {
        drop_chan(owner_);
      }
    }
    if (!frame) {
      if (tick - sent_tick_ >= kReplyTimeoutTicks) {
        timed_out_ = true;  // a resent op counts as failed
        send(tick);
      }
      return;
    }
    Reader r(*frame);
    auto rid = r.get_u64();
    auto err = r.get_u32();
    auto bytes = r.get_bytes();
    auto seq = r.get_u64();
    const u64 end_ns = now_ns();
    if (!rid || *rid != req_id_) {
      return;  // a reply to an earlier (resent) request: keep waiting
    }
    state_ = State::kIdle;
    ++st.completed;
    const ErrorCode code = err ? static_cast<ErrorCode>(*err) : ErrorCode::kInvalidArgument;
    const bool ok = !timed_out_ && bytes && seq && check(code, *bytes, *seq, res);
    if (!ok) {
      ++st.failed;
      return;
    }
    const u64 ticks = tick - start_tick_;
    if (st.ticks.size() <= ticks) {
      st.ticks.resize(ticks + 1, 0);
    }
    ++st.ticks[ticks];
    if (op_.kind == KvKind::kGet) {
      ++st.gets;
      st.get.record(end_ns - start_ns_);
    } else {
      ++st.puts;
      st.put.record(end_ns - start_ns_);
    }
  }

  bool check(ErrorCode code, std::span<const u8> bytes, u64 seq, RunResult& res) {
    KeyState& ks = keys_[op_.key];
    if (code != ErrorCode::kOk) {
      // Every key is preloaded, so even kNotFound means a lost write.
      res.fail(key_ + ": " + (op_.kind == KvKind::kGet ? "get" : "put") + " returned " +
               vnros::error_name(code));
      return false;
    }
    if (op_.kind == KvKind::kPut) {
      ks.acked = std::max(ks.acked, seq_);
      return true;
    }
    auto got = validate_value(seed_, key_, bytes, p_.value_bytes);
    if (!got) {
      res.fail(key_ + ": get returned bytes that fail validation");
      return false;
    }
    if (*got != seq || *got < floor_ || *got > ks.stamped) {
      res.fail(key_ + ": get returned seq " + std::to_string(*got) + ", acked floor " +
               std::to_string(floor_) + ", stamped " + std::to_string(ks.stamped));
      return false;
    }
    return true;
  }

  u64 op_id() const { return (id_ + 1) << 40 | op_id_; }

  Sys& sys_;
  const ClusterView& view_;
  const KvParams& p_;
  u64 seed_;
  u64 id_;
  KvOpStream stream_;
  std::vector<KeyState>& keys_;
  Port sport_base_;
  vnros::u16 sport_off_ = 0;
  std::map<BsNodeId, Chan> chans_;
  SpanLog* log_ = nullptr;
  State state_ = State::kIdle;
  KvOp op_;
  std::string key_;
  std::vector<u8> value_;
  u64 seq_ = 0;
  u64 floor_ = 0;
  u64 op_id_ = 0;
  u64 req_id_ = 0;
  u64 next_req_id_ = 1;
  BsNodeId owner_ = 0;
  u64 start_ns_ = 0;
  u64 start_tick_ = 0;
  u64 sent_tick_ = 0;
  bool timed_out_ = false;
};

// Counters read around each traced slice, summed over the nodes (and, for
// kernel-wide ones, the client host).
enum Ctr : usize {
  kReplicasPushed,
  kStaleIgnored,
  kVtpRetransmits,
  kRxDroppedFull,
  kFramesLost,
  kRingSubmitted,
  kRingSqFull,
  kFsyncs,
  kJournalBytes,
  kCheckpoints,
  kDiskWrites,
  kDiskFlushes,
  kNumCtrs
};
using Counters = std::array<u64, kNumCtrs>;

u64 kstat(Kernel& k, const char* name) {
  auto v = k.kstat(name);
  return v.ok() ? v.value() : 0;
}

Counters read_counters(Cluster& c) {
  Counters out{};
  std::vector<Kernel*> kernels;
  for (usize i = 0; i < kNodes; ++i) {
    const vnros::BlockStoreStats s = c.nodes[i]->stats();
    out[kReplicasPushed] += s.replicas_pushed;
    out[kStaleIgnored] += s.stale_ignored;
    out[kDiskWrites] += c.disks[i]->stats().writes;
    out[kDiskFlushes] += c.disks[i]->stats().flushes;
    kernels.push_back(&c.hosts[i]->kernel);
  }
  kernels.push_back(&c.client_host->kernel);
  for (Kernel* k : kernels) {
    out[kVtpRetransmits] += k->vtp().stats().retransmits;
    out[kRxDroppedFull] += k->nic().stats().rx_dropped_full;
    out[kRingSubmitted] += kstat(*k, "ring/submitted");
    out[kRingSqFull] += kstat(*k, "ring/sq_full");
    out[kFsyncs] += kstat(*k, "fs/fsyncs");
    out[kJournalBytes] += kstat(*k, "fs/journal_bytes");
    out[kCheckpoints] += kstat(*k, "fs/checkpoints");
  }
  out[kFramesLost] = c.net.frames_lost();
  return out;
}

struct Phase {
  Client::Stats st;
  u64 wall_ns = 0;
  u64 ticks = 0;
  u64 serve_passes = 0, useful_passes = 0;
  double ops_per_s = 0;
  WindowedLatency get, put;              // closed from st.get / st.put
  std::vector<double> window_ops_per_s;  // completed ops per second, per window
};

class TickLoop {
 public:
  TickLoop(Cluster& c, std::vector<std::unique_ptr<Client>>& clients, RunResult& res)
      : c_(c), clients_(clients), res_(res) {}

  // Ops start until `seconds` have passed; then the run drains, so every
  // op it started completes (or, past the drain budget, counts as failed).
  // Successive runs into one Phase add up.
  void run(double seconds, SpanLog* log, Phase& ph) {
    c_.log = log;
    const u64 start = now_ns();
    const u64 deadline = start + static_cast<u64>(seconds * 1e9);
    bool issuing = true;
    u64 drain_left = kDrainTicks;
    u64 window_start = start;
    u64 window_ops = ph.st.completed;
    auto close_window = [&](u64 now) {
      ph.window_ops_per_s.push_back(static_cast<double>(ph.st.completed - window_ops) /
                                    (static_cast<double>(now - window_start) / 1e9));
      ph.get.close_window(ph.st.get);
      ph.put.close_window(ph.st.put);
      window_start = now;
      window_ops = ph.st.completed;
    };
    for (;;) {
      const u64 now = now_ns();
      if (issuing && now >= deadline) {
        issuing = false;
      }
      // The last window runs to the end of the drain: between half and one
      // and a half window lengths.
      if (issuing && now - window_start >= kWindowNs && deadline - now >= kWindowNs / 2) {
        close_window(now);
      }
      tick(issuing, log, ph);
      if (!issuing) {
        const bool all_idle = std::all_of(clients_.begin(), clients_.end(),
                                          [](const auto& cl) { return cl->idle(); });
        if (all_idle || --drain_left == 0) {
          break;
        }
      }
    }
    for (auto& cl : clients_) {
      cl->abandon(ph.st);
    }
    close_window(now_ns());
    ph.wall_ns += now_ns() - start;
    ph.ops_per_s = static_cast<double>(ph.st.completed) / (static_cast<double>(ph.wall_ns) / 1e9);
    c_.log = nullptr;
  }

 private:
  void tick(bool issuing, SpanLog* log, Phase& ph) {
    for (auto& node : c_.nodes) {
      SpanScope s(log, kServe, 0);
      ph.useful_passes += node->serve_once() ? 1 : 0;
      ++ph.serve_passes;
    }
    {
      SpanScope s(log, kVtpTick, 0);
      for (auto& h : c_.hosts) {
        h->kernel.vtp().tick();
      }
      c_.client_host->kernel.vtp().tick();
    }
    for (auto& cl : clients_) {
      cl->step(clock_, issuing, ph.st, log, res_);
    }
    ++clock_;
    ++ph.ticks;
  }

  Cluster& c_;
  std::vector<std::unique_ptr<Client>>& clients_;
  RunResult& res_;
  u64 clock_ = 0;  // the harness's virtual tick clock, monotone across phases
};

void preload(Cluster& c, const KvParams& p, u64 seed, std::vector<KeyState>& keys) {
  keys.assign(p.mix.keys, KeyState{});
  for (u32 k = 0; k < p.mix.keys; ++k) {
    const std::string key = kv_key(k);
    // A fresh key's first direct put is stamped seq 1 by the node.
    const std::vector<u8> v = make_value(seed, key, 1, p.value_bytes);
    VNROS_CHECK(c.nodes[c.view.owners(key).front()]->put(key, v).ok());
    keys[k] = KeyState{1, 1};
  }
}

// Reads `key` from node i and checks it is the newest acked value (or a
// newer write that was stamped but never acked).
bool check_copy(BlockStoreNode& node, const std::string& key, const KeyState& ks,
                const KvParams& p, u64 seed) {
  auto got = node.get(key);
  if (!got.ok()) {
    return false;
  }
  auto seq = validate_value(seed, key, got.value(), p.value_bytes);
  return seq && *seq >= ks.acked && *seq <= ks.stamped;
}

void check_durability(Cluster& c, const KvParams& p, u64 seed, const std::vector<KeyState>& keys,
                      RunResult& res, std::vector<std::string>& report) {
  u64 bad = 0, copies = 0;
  for (u32 k = 0; k < keys.size(); ++k) {
    const std::string key = kv_key(k);
    for (BsNodeId owner : c.view.owners(key)) {
      ++copies;
      if (!check_copy(*c.nodes[owner], key, keys[k], p, seed)) {
        ++bad;
      }
    }
  }
  if (bad != 0) {
    res.fail("read-back: " + std::to_string(bad) + " of " + std::to_string(copies) +
             " owner copies differ from the last acked value");
  }
  const usize victim = static_cast<usize>(seed % kNodes);
  std::string why;
  if (!c.crash_and_remount(victim, why)) {
    res.fail("node " + std::to_string(victim) + " crash: " + why);
    return;
  }
  u64 owned = 0, lost = 0;
  for (u32 k = 0; k < keys.size(); ++k) {
    const std::string key = kv_key(k);
    const auto owners = c.view.owners(key);
    if (std::find(owners.begin(), owners.end(), victim) == owners.end()) {
      continue;
    }
    ++owned;
    if (!check_copy(*c.nodes[victim], key, keys[k], p, seed)) {
      ++lost;
    }
  }
  if (lost != 0) {
    res.fail("after dirty crash of node " + std::to_string(victim) + ": " +
             std::to_string(lost) + " of " + std::to_string(owned) + " acked keys lost");
  }
  report.push_back(format("  durability: %llu owner copies read back; node %zu crashed, %llu "
                          "owned keys recovered, %llu lost",
                          static_cast<unsigned long long>(copies), victim,
                          static_cast<unsigned long long>(owned - lost),
                          static_cast<unsigned long long>(lost)));
}

double ticks_p50(const std::vector<u64>& by_ticks) {
  u64 n = 0;
  for (u64 c : by_ticks) {
    n += c;
  }
  u64 cum = 0;
  for (usize t = 0; t < by_ticks.size(); ++t) {
    cum += by_ticks[t];
    if (2 * cum >= n && n != 0) {
      return static_cast<double>(t);
    }
  }
  return 0;
}

std::string params_json(const KvParams& p) {
  return std::string("{\"nodes\":") + std::to_string(kNodes) +
         ",\"replication\":" + std::to_string(kReplication) + ",\"transport\":\"vtp\"" +
         ",\"admission\":false,\"fabric_loss_ppm\":0" +
         ",\"clients\":" + std::to_string(p.clients) +
         ",\"keys\":" + std::to_string(p.mix.keys) +
         ",\"get_pct\":" + std::to_string(p.mix.get_pct) +
         ",\"hot_key_pct\":" + std::to_string(p.mix.hot_key_pct) +
         ",\"hot_op_pct\":" + std::to_string(p.mix.hot_op_pct) +
         ",\"value_bytes\":" + std::to_string(p.value_bytes) +
         ",\"disk_sectors\":" + std::to_string(kDiskSectors) +
         ",\"reply_timeout_ticks\":" + std::to_string(kReplyTimeoutTicks) +
         ",\"setup_reps\":" + std::to_string(kSetupReps) + "}";
}

void account(const Phase& ph, RunResult& res) {
  res.attempted += ph.st.started;
  res.failed += ph.st.failed;
}

}  // namespace

RunResult run_kv(const Options& opt) {
  RunResult res;
  const KvParams p = params_for(opt.workload);
  res.params_json = params_json(p);
  // The whole simulation runs on this thread; keep it on one CPU. The last
  // one: CPU 0 also takes the host's interrupt and timer work.
  pin_to_cpu(static_cast<u32>(sysconf(_SC_NPROCESSORS_ONLN)) - 1);

  // Set-up: build kernels and cluster, preload every key. The last one built
  // is the cluster measured.
  std::vector<double> setups;
  std::unique_ptr<Cluster> cluster;
  std::vector<KeyState> keys;
  auto time_setups = [&](int reps) {
    for (int rep = 0; rep < reps; ++rep) {
      cluster.reset();
      const u64 t0 = now_ns();
      cluster = std::make_unique<Cluster>();
      preload(*cluster, p, opt.seed, keys);
      setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
  };
  time_setups(kSetupReps / 2);
  Cluster& c = *cluster;
  std::vector<std::unique_ptr<Client>> clients;
  for (u32 i = 0; i < p.clients; ++i) {
    clients.push_back(
        std::make_unique<Client>(c.client_host->sys, c.view, p, opt.seed, i, keys));
  }
  TickLoop loop(c, clients, res);

  // Warm-up: connections are established and caches fill.
  Phase warm;
  loop.run(std::min(1.0, opt.seconds / 10), nullptr, warm);
  account(warm, res);

  std::map<std::string, double> values;
  if (!opt.trace) {
    Phase ph;
    loop.run(opt.seconds, nullptr, ph);
    account(ph, res);
    const LatencySummary get = ph.get.summary();
    const LatencySummary put = ph.put.summary();
    values["ops_per_s"] = ph.ops_per_s;
    values["read_p50_us"] = get.p50_us;
    values["read_p99_us"] = get.p99_us;
    values["write_p50_us"] = put.p50_us;
    values["write_p99_us"] = put.p99_us;
    check_durability(c, p, opt.seed, keys, res, res.report);
    values["peak_rss_mb"] = peak_rss_mb();
    // The measured cluster is done with; the other half of the set-ups
    // replaces it one at a time, so the peak stays that of one cluster.
    clients.clear();
    time_setups(kSetupReps - kSetupReps / 2);
    values["setup_s"] = median(setups);
    res.metrics = end_to_end_metrics(values, res);
    res.samples_json = "{\"get\":" + summary_json(get) + ",\"put\":" + summary_json(put) +
                       ",\"ticks\":" + std::to_string(ph.ticks) + "}";
    res.report.push_back(format("  ops/s %.0f   setup %.4f s (median of %d)   %llu ticks",
                                ph.ops_per_s, median(setups), kSetupReps,
                                static_cast<unsigned long long>(ph.ticks)));
    std::string series = "  ops/s per 5 s window:";
    for (double v : ph.window_ops_per_s) {
      series += ' ';
      series += std::to_string(static_cast<long>(v));
    }
    res.report.push_back(series);
    res.report.push_back(latency_line("get", get));
    res.report.push_back(latency_line("put", put));
    return res;
  }

  // Traced run: untraced and traced slices alternate, so drift in the host's
  // speed lands on both sides alike. Spans and counter deltas come from the
  // traced slices only.
  Phase base, tr;
  SpanLog log(kLayerNames, kKeepSpans);
  Counters delta{};
  NrCounters nr;
  const int slices = std::max(1, static_cast<int>(opt.seconds / (2 * kSliceSeconds)));
  const double slice = opt.seconds / (2 * slices);
  for (int i = 0; i < slices; ++i) {
    loop.run(slice, nullptr, base);
    const Counters before = read_counters(c);
    const NrCounters nr_before = read_nr_counters();
    loop.run(slice, &log, tr);
    const Counters after = read_counters(c);
    nr.add_delta(nr_before, read_nr_counters());
    for (usize k = 0; k < kNumCtrs; ++k) {
      delta[k] += after[k] - before[k];
    }
  }
  account(base, res);
  account(tr, res);

  const double ops = static_cast<double>(tr.st.completed);
  const double puts = static_cast<double>(tr.st.puts);
  const double user_bytes = puts * static_cast<double>(p.value_bytes);
  auto d = [&](Ctr k) { return static_cast<double>(delta[k]); };
  auto per = [](double x, double n) { return n == 0 ? 0 : x / n; };
  values["app.serve_once.useful_frac"] =
      per(static_cast<double>(tr.useful_passes), static_cast<double>(tr.serve_passes));
  values["app.replicas_pushed_per_put"] = per(d(kReplicasPushed), puts);
  values["app.stale_ignored"] = d(kStaleIgnored);
  values["app.virtual_ticks_per_op_p50"] = ticks_p50(tr.st.ticks);
  values["net.vtp.retransmits"] = d(kVtpRetransmits);
  values["hw.nic.rx_dropped_full"] = d(kRxDroppedFull);
  values["hw.net.frames_lost"] = d(kFramesLost);
  values["kernel.ring.submitted_per_op"] = per(d(kRingSubmitted), ops);
  values["kernel.ring.sq_full"] = d(kRingSqFull);
  values["kernel.fs.fsyncs_per_put"] = per(d(kFsyncs), puts);
  values["kernel.fs.journal_bytes_per_user_byte"] = per(d(kJournalBytes), user_bytes);
  values["kernel.fs.checkpoints"] = d(kCheckpoints);
  values["hw.disk.writes_per_put"] = per(d(kDiskWrites), puts);
  values["hw.disk.flushes_per_put"] = per(d(kDiskFlushes), puts);
  values["hw.disk.bytes_written_per_user_byte"] =
      per(d(kDiskWrites) * static_cast<double>(vnros::kSectorSize), user_bytes);
  put_nr_metrics(nr, values);
  values["residual_ns_per_op"] =
      per(static_cast<double>(tr.wall_ns) - static_cast<double>(log.root_ns()), ops);
  values["obs.trace_overhead_frac"] = per(base.ops_per_s - tr.ops_per_s, base.ops_per_s);

  check_durability(c, p, opt.seed, keys, res, res.report);
  res.metrics = per_layer_metrics(values, res);

  res.report.push_back("  per-layer table (one OS thread; per completed client op)");
  for (auto& l : layer_table(log, tr.st.completed, tr.wall_ns)) {
    res.report.push_back(l);
  }
  const auto& t = log.totals();
  res.report.push_back(format("  app.serve_once.self_ns_per_op %.1f  app.pump.self_ns_per_op %.1f",
                           per(static_cast<double>(t[kServe].self_ns), ops),
                           per(static_cast<double>(t[kPump].self_ns), ops)));
  res.report.push_back(format("  net.vtp_tick.ns_per_op %.1f  kernel.client_sys.ns_per_op %.1f",
                           per(static_cast<double>(t[kVtpTick].busy_ns), ops),
                           per(static_cast<double>(t[kClientSys].busy_ns), ops)));
  res.report.push_back(format("  ops/s untraced %.0f  traced %.0f  obs.trace_overhead_frac %.4f",
                           base.ops_per_s, tr.ops_per_s, values["obs.trace_overhead_frac"]));
  res.samples_json = "{\"layers\":" + layers_json(log, tr.st.completed, tr.wall_ns) +
                     ",\"traced_get\":" + summary_json(tr.get.summary()) +
                     ",\"traced_put\":" + summary_json(tr.put.summary()) +
                     ",\"traced_ticks\":" + std::to_string(tr.ticks) + "}";
  if (!opt.out_dir.empty() &&
      !write_spans(opt.out_dir + "/" + opt.run_name + ".spans.jsonl", {&log})) {
    res.report.push_back("  (span dump could not be written)");
  }
  return res;
}

std::vector<std::string> kv_damage_probe(KvDamage damage, u64 seed) {
  const KvParams p{1, KvMix{64, 50, 0, 0}, 128};
  Cluster c;
  std::vector<KeyState> keys;
  preload(c, p, seed, keys);
  const std::string key = kv_key(0);
  if (damage == KvDamage::kLostAckedWrite) {
    keys[0] = KeyState{2, 2};  // the harness saw seq 2 acked; no node holds it
  } else if (damage == KvDamage::kDeletedCopy) {
    const BsNodeId owner = c.view.owners(key).back();
    VNROS_CHECK(c.hosts[owner]->sys.unlink(BlockStoreNode::key_path(key)).ok());
  }
  RunResult res;
  std::vector<std::string> report;
  check_durability(c, p, seed, keys, res, report);
  return res.errors;
}

}  // namespace perfbench
