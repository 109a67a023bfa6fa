// Closed-loop YCSB-style load generator against the sharded blockstore
// cluster: N virtual clients (each its own streams + seeded op stream, 50/50
// read/update over a hot-spotted key universe, YCSB-A shape) drive a 3-node
// ring-placed cluster, swept over client counts with the admission gate OFF
// and ON.
//
// The point of the experiment (DESIGN.md §9, EXPERIMENTS.md A7): past the
// cluster's service capacity, the UNGATED cluster's tail latency collapses —
// queues grow without bound, timeouts dominate — while the GATED cluster
// sheds the excess with typed kOverloaded replies, holding goodput near
// capacity and the tail near its uncontended value. Shedding is visible,
// bounded degradation; queue collapse is not.
//
// Time is virtual: one tick = one serve_once() per node (the cluster's fixed
// service capacity) + one VTP clock tick per host + one state-machine step
// per client. Latency is measured in ticks, so the whole sweep replays
// bit-identically — no wall clock anywhere.
//
// The client-facing RPC plane rides VTP streams: each virtual client keeps
// one connection per owner node and frames requests/replies as
// [u32 len][body]; nodes serve them from ring-parked stream recvs. The
// node-to-node plane (replication pushes) stays on datagrams.
// Emits BENCH_blockstore_ycsb.json. Honors VNROS_BENCH_QUICK.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/app/blockstore.h"
#include "src/base/contracts.h"
#include "src/base/rng.h"
#include "src/base/serde.h"
#include "src/hw/network.h"
#include "src/kernel/kernel.h"
#include "src/kernel/syscall.h"

namespace vnros {
namespace {

constexpr Port kPort = 9300;

struct Host {
  Kernel kernel;
  SyscallDispatcher disp;
  Pid pid;
  Sys sys;

  explicit Host(Network* net) : kernel(config_of(net)), disp(kernel), pid(spawn(disp)),
                                sys(disp, pid, 0) {}

  static KernelConfig config_of(Network* net) {
    KernelConfig c;
    c.network = net;
    return c;
  }

  static Pid spawn(SyscallDispatcher& disp) {
    Sys boot(disp, kInvalidPid, 0);
    auto p = boot.spawn();
    VNROS_CHECK(p.ok());
    return p.value();
  }
};

struct SweepConfig {
  usize nodes = 3;
  usize replication = 2;
  usize keys = 64;
  usize value_bytes = 128;
  usize ticks = 30'000;
  usize warmup_ticks = 2'000;
  bool del_heavy = false;  // 40/35/25 read/update/delete instead of 50/50
  u64 reply_timeout_ticks = 600;
  // Gated runs: tokens granted per node per tick, and bucket capacity.
  u64 admission_rate_ppm = 400'000;  // 0.4 ops/tick/node, below the 1/tick serve rate
  u64 admission_burst = 8;
};

// One closed-loop virtual client: send, await the reply, account it, repeat.
// kOverloaded replies trigger multiplicative backoff on the same owner —
// the same discipline BlockStoreClient implements — so a gated sweep models
// well-behaved tenants, not a retry stampede.
class VClient {
 public:
  VClient(Sys& sys, const ClusterView& view, const SweepConfig& cfg, u64 seed,
          Port sport_base)
      : sys_(sys), view_(view), cfg_(cfg), rng_(seed), sport_base_(sport_base) {
    value_.resize(cfg_.value_bytes);
    for (auto& b : value_) {
      b = static_cast<u8>(rng_.next_u64());
    }
  }

  void step(u64 tick) {
    switch (state_) {
      case State::kIdle:
        begin_op(tick);
        break;
      case State::kBackoff:
        if (tick >= resume_tick_) {
          send(tick);  // re-issue the shed op
        }
        break;
      case State::kWaiting:
        poll(tick);
        break;
    }
  }

  u64 completed = 0;   // acked ops (goodput numerator)
  u64 sheds = 0;       // kOverloaded replies absorbed
  u64 timeouts = 0;    // re-sends after a silent reply window
  u64 errors = 0;      // non-shed error replies (kNotFound on a cold key, ...)
  std::vector<u64> latencies;  // ticks from first send to the final ack

 private:
  enum class State { kIdle, kWaiting, kBackoff };

  void begin_op(u64 tick) {
    // YCSB-A: 50/50 read/update; the delete-heavy variant trades updates and
    // reads for 25% sequenced deletes (tombstone churn under load, DESIGN
    // §11). 80% of ops land on the hottest 20% of keys either way.
    u64 roll = rng_.next_below(100);
    if (cfg_.del_heavy) {
      op_ = roll < 40 ? BsOp::kGet : roll < 75 ? BsOp::kPut : BsOp::kDel;
    } else {
      op_ = roll < 50 ? BsOp::kGet : BsOp::kPut;
    }
    usize universe = rng_.chance(8, 10) ? std::max<usize>(cfg_.keys / 5, 1) : cfg_.keys;
    key_ = "ycsb" + std::to_string(rng_.next_below(universe));
    op_start_ = tick;
    backoff_ = 16;
    send(tick);
  }

  // One VTP stream per owner node, lazily connected; requests and replies
  // ride it framed as [u32 len][body]. A connection-level failure drops the
  // channel — the next send() reconnects and the reply-timeout resend covers
  // anything lost in between.
  struct Chan {
    Fd fd = kInvalidFd;
    std::vector<u8> inbuf;
    std::vector<u8> outbuf;
  };

  Chan* chan(BsNodeId owner) {
    auto it = chans_.find(owner);
    if (it != chans_.end()) {
      return &it->second;
    }
    const BsPeer& peer = view_.directory.at(owner);
    Port sport = static_cast<Port>(sport_base_ + (sport_off_++ & 7));
    auto fd = sys_.vtp_connect(peer.addr, peer.port, sport);
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
    if (it->second.fd != kInvalidFd) {
      (void)sys_.vtp_close(it->second.fd);
    }
    chans_.erase(it);
  }

  // Push queued bytes into the stream. kWouldBlock keeps the remainder queued
  // (never truncate mid-frame); a terminal error drops the channel.
  void flush(BsNodeId owner) {
    auto it = chans_.find(owner);
    if (it == chans_.end() || it->second.outbuf.empty()) {
      return;
    }
    Chan& ch = it->second;
    while (!ch.outbuf.empty()) {
      auto sent = sys_.vtp_send(ch.fd, std::span<const u8>(ch.outbuf));
      if (sent.ok() && sent.value() > 0) {
        ch.outbuf.erase(ch.outbuf.begin(),
                        ch.outbuf.begin() + static_cast<isize>(sent.value()));
        continue;
      }
      if (!sent.ok() && sent.error() != ErrorCode::kWouldBlock) {
        drop_chan(owner);
      }
      return;
    }
  }

  static std::optional<std::vector<u8>> pop_frame(Chan& ch) {
    if (ch.inbuf.size() < 4) {
      return std::nullopt;
    }
    Reader hdr(std::span<const u8>(ch.inbuf.data(), 4));
    auto len = hdr.get_u32();
    if (!len || ch.inbuf.size() < 4 + *len) {
      return std::nullopt;
    }
    std::vector<u8> body(ch.inbuf.begin() + 4, ch.inbuf.begin() + 4 + *len);
    ch.inbuf.erase(ch.inbuf.begin(), ch.inbuf.begin() + 4 + *len);
    return body;
  }

  void send(u64 tick) {
    req_id_ = next_req_id_++;
    Writer w;
    w.put_u8(static_cast<u8>(op_));
    w.put_u64(req_id_);
    w.put_string(key_);
    if (op_ != BsOp::kGet) {
      w.put_u64(++put_seq_);  // write-sequence stamp (see BlockStoreClient::rpc)
    }
    if (op_ == BsOp::kPut) {
      w.put_bytes(value_);
    }
    owner_ = view_.owners(key_).front();
    Chan* ch = chan(owner_);
    if (ch != nullptr) {
      Writer framed;
      framed.put_u32(static_cast<u32>(w.bytes().size()));
      ch->outbuf.insert(ch->outbuf.end(), framed.bytes().begin(), framed.bytes().end());
      ch->outbuf.insert(ch->outbuf.end(), w.bytes().begin(), w.bytes().end());
      flush(owner_);
    }
    // Connect failure: stay in kWaiting; the timeout resend retries the op.
    sent_tick_ = tick;
    state_ = State::kWaiting;
  }

  void poll(u64 tick) {
    flush(owner_);  // drain any backpressured frames first
    std::optional<std::vector<u8>> frame;
    auto it = chans_.find(owner_);
    if (it != chans_.end()) {
      Chan& ch = it->second;
      auto bytes = sys_.vtp_recv(ch.fd, 32 * 1024);
      if (bytes.ok()) {
        ch.inbuf.insert(ch.inbuf.end(), bytes.value().begin(), bytes.value().end());
      } else if (bytes.error() != ErrorCode::kWouldBlock) {
        drop_chan(owner_);
      }
      it = chans_.find(owner_);
      if (it != chans_.end()) {
        frame = pop_frame(it->second);
      }
    }
    if (!frame) {
      if (tick - sent_tick_ >= cfg_.reply_timeout_ticks) {
        ++timeouts;
        send(tick);  // resend with a fresh req id; ops are idempotent
      }
      return;
    }
    Reader r(*frame);
    auto rid = r.get_u64();
    auto err = r.get_u32();
    if (!rid || !err || *rid != req_id_) {
      return;  // malformed or stale: keep waiting
    }
    ErrorCode code = static_cast<ErrorCode>(*err);
    if (code == ErrorCode::kOverloaded) {
      ++sheds;
      resume_tick_ = tick + backoff_;
      backoff_ = std::min<u64>(backoff_ * 2, 256);
      state_ = State::kBackoff;
      return;
    }
    if (code != ErrorCode::kOk && code != ErrorCode::kNotFound) {
      ++errors;
    }
    ++completed;
    latencies.push_back(tick - op_start_);
    state_ = State::kIdle;
  }

  Sys& sys_;
  const ClusterView& view_;
  const SweepConfig& cfg_;
  Rng rng_;
  Port sport_base_ = 0;
  u16 sport_off_ = 0;
  std::map<BsNodeId, Chan> chans_;
  BsNodeId owner_ = 0;
  State state_ = State::kIdle;
  std::string key_;
  BsOp op_ = BsOp::kGet;
  std::vector<u8> value_;
  u64 next_req_id_ = 1;
  u64 put_seq_ = 0;
  u64 req_id_ = 0;
  u64 op_start_ = 0;
  u64 sent_tick_ = 0;
  u64 backoff_ = 16;
  u64 resume_tick_ = 0;
};

u64 percentile(std::vector<u64>& v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  usize idx = static_cast<usize>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

struct SweepPoint {
  double goodput_per_kilotick = 0;
  u64 p50 = 0;
  u64 p95 = 0;
  u64 p99 = 0;
  double shed_rate = 0;
  u64 timeouts = 0;
};

SweepPoint run_sweep(const SweepConfig& cfg, usize num_clients, bool gated) {
  Network net;
  std::vector<std::unique_ptr<Host>> hosts;
  std::vector<std::unique_ptr<BlockStoreNode>> nodes;
  ClusterView view;
  view.ring = PlacementRing(32);
  view.replication = cfg.replication;
  for (usize i = 0; i < cfg.nodes; ++i) {
    hosts.push_back(std::make_unique<Host>(&net));
  }
  for (usize i = 0; i < cfg.nodes; ++i) {
    nodes.push_back(std::make_unique<BlockStoreNode>(
        hosts[i]->sys, kPort, std::vector<BsPeer>{},
        [&nodes, i] {
          for (usize j = 0; j < nodes.size(); ++j) {
            if (j != i) {
              nodes[j]->serve_once();
            }
          }
        }));
    VNROS_CHECK(nodes[i]->init().ok());
    view.ring.add_node(static_cast<BsNodeId>(i));
    view.directory[static_cast<BsNodeId>(i)] =
        BsPeer{hosts[i]->kernel.net_addr(), kPort};
  }
  for (usize i = 0; i < cfg.nodes; ++i) {
    ClusterConfig cc;
    cc.self = static_cast<BsNodeId>(i);
    nodes[i]->configure_cluster(cc, view);
  }

  // Preload the key universe (ungated, local API) so reads hit.
  {
    Rng rng(0x9C5Bull);
    std::vector<u8> v(cfg.value_bytes);
    for (usize k = 0; k < cfg.keys; ++k) {
      for (auto& b : v) {
        b = static_cast<u8>(rng.next_u64());
      }
      std::string key = "ycsb" + std::to_string(k);
      BsNodeId owner = view.owners(key).front();
      VNROS_CHECK(nodes[owner]->put(key, v).ok());
    }
  }
  if (gated) {
    for (auto& node : nodes) {
      AdmissionConfig ac;
      ac.enabled = true;
      ac.burst_ops = cfg.admission_burst;
      node->set_admission(ac);
      node->grant_tokens(cfg.admission_burst * 1'000'000);
    }
  }

  // One shared client kernel; each virtual client gets a disjoint source-port
  // block (8 ports: up to cfg.nodes streams plus reconnect slack).
  Host client_host(&net);
  std::vector<std::unique_ptr<VClient>> clients;
  for (usize c = 0; c < num_clients; ++c) {
    clients.push_back(std::make_unique<VClient>(client_host.sys, view, cfg,
                                                0x5EEDull * (c + 1) + 17,
                                                static_cast<Port>(20'000 + c * 8)));
  }

  auto tick_once = [&](u64 tick) {
    for (auto& node : nodes) {
      if (gated) {
        node->grant_tokens(cfg.admission_rate_ppm);
      }
      node->serve_once();
    }
    for (auto& h : hosts) {
      h->kernel.vtp().tick();
    }
    client_host.kernel.vtp().tick();
    for (auto& c : clients) {
      c->step(tick);
    }
  };
  for (u64 t = 0; t < cfg.warmup_ticks; ++t) {
    tick_once(t);
  }
  for (auto& c : clients) {  // drop warmup accounting
    c->completed = 0;
    c->sheds = 0;
    c->timeouts = 0;
    c->errors = 0;
    c->latencies.clear();
  }
  for (u64 t = cfg.warmup_ticks; t < cfg.warmup_ticks + cfg.ticks; ++t) {
    tick_once(t);
  }

  SweepPoint pt;
  u64 completed = 0;
  u64 sheds = 0;
  std::vector<u64> all_latencies;
  for (auto& c : clients) {
    completed += c->completed;
    sheds += c->sheds;
    pt.timeouts += c->timeouts;
    all_latencies.insert(all_latencies.end(), c->latencies.begin(), c->latencies.end());
  }
  pt.goodput_per_kilotick =
      static_cast<double>(completed) * 1000.0 / static_cast<double>(cfg.ticks);
  pt.p50 = percentile(all_latencies, 0.50);
  pt.p95 = percentile(all_latencies, 0.95);
  pt.p99 = percentile(all_latencies, 0.99);
  pt.shed_rate = completed + sheds == 0
                     ? 0
                     : static_cast<double>(sheds) / static_cast<double>(completed + sheds);
  return pt;
}

}  // namespace
}  // namespace vnros

int main() {
  using namespace vnros;
  const bool quick = std::getenv("VNROS_BENCH_QUICK") != nullptr;
  SweepConfig cfg;
  std::vector<usize> client_counts;
  if (quick) {
    cfg.ticks = 6'000;
    cfg.warmup_ticks = 500;
    client_counts = {4, 16, 64};
  } else {
    client_counts = {8, 32, 128, 256, 1024};
  }

  BenchJson json("blockstore_ycsb");
  json.config("nodes", static_cast<unsigned long long>(cfg.nodes));
  json.config("replication", static_cast<unsigned long long>(cfg.replication));
  json.config("keys", static_cast<unsigned long long>(cfg.keys));
  json.config("value_bytes", static_cast<unsigned long long>(cfg.value_bytes));
  json.config("ticks", static_cast<unsigned long long>(cfg.ticks));
  json.config("admission_rate_ppm", static_cast<unsigned long long>(cfg.admission_rate_ppm));
  json.config("admission_burst", static_cast<unsigned long long>(cfg.admission_burst));
  json.config("transport", "vtp");
  json.config("quick", quick);

  std::printf("# blockstore_ycsb: closed-loop YCSB over the sharded cluster\n");
  std::printf("# %8s %8s %7s %12s %8s %8s %8s %10s %9s\n", "clients", "mix", "gate",
              "goodput/kt", "p50", "p95", "p99", "shed_rate", "timeouts");
  for (bool del_heavy : {false, true}) {
    cfg.del_heavy = del_heavy;
    for (bool gated : {false, true}) {
      for (usize n : client_counts) {
        SweepPoint pt = run_sweep(cfg, n, gated);
        const char* mix = del_heavy ? "del" : "a";
        const char* tag = gated ? "gated" : "open";
        std::printf("  %8zu %8s %7s %12.1f %8llu %8llu %8llu %10.3f %9llu\n", n, mix, tag,
                    pt.goodput_per_kilotick, static_cast<unsigned long long>(pt.p50),
                    static_cast<unsigned long long>(pt.p95),
                    static_cast<unsigned long long>(pt.p99), pt.shed_rate,
                    static_cast<unsigned long long>(pt.timeouts));
        std::string prefix =
            std::string(del_heavy ? "del_" : "") + (gated ? "gated_" : "open_");
        double x = static_cast<double>(n);
        json.row(prefix + "goodput_per_kilotick", x, pt.goodput_per_kilotick);
        json.row(prefix + "p50_ticks", x, static_cast<double>(pt.p50));
        json.row(prefix + "p95_ticks", x, static_cast<double>(pt.p95));
        json.row(prefix + "p99_ticks", x, static_cast<double>(pt.p99));
        json.row(prefix + "shed_rate", x, pt.shed_rate);
        json.row(prefix + "timeouts", x, static_cast<double>(pt.timeouts));
      }
    }
  }
  json.write();
  return 0;
}
