// Transport loss sweep for the blockstore RPC plane: the client rides VTP
// streams, so the TRANSPORT retransmits lost segments at its RTO, far below
// the rpc attempt timeout, and the rpc layer almost never notices the loss.
//
// One node, one closed-loop BlockStoreClient, fabric loss swept 0% / 1% /
// 5%. Time is virtual: one tick = one pump (serve_once + both VTP stacks'
// clock), so the sweep replays bit-identically — no wall clock anywhere.
// Goodput is completed ops per kilotick; latency is per-op pump ticks.
// Emits BENCH_ablate_transport.json. Honors VNROS_BENCH_QUICK.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/app/blockstore.h"
#include "src/base/contracts.h"
#include "src/hw/network.h"
#include "src/kernel/kernel.h"
#include "src/kernel/syscall.h"

namespace vnros {
namespace {

constexpr Port kPort = 9400;

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

struct ArmResult {
  double ops_per_kilotick = 0;
  double p50_ticks = 0;
  double p99_ticks = 0;
  u64 rpc_retries = 0;     // attempts the CLIENT had to repeat
  u64 retransmits = 0;     // segments the TRANSPORT repeated
};

double percentile(std::vector<u64>& samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  usize idx = static_cast<usize>(p * static_cast<double>(samples.size() - 1));
  return static_cast<double>(samples[idx]);
}

ArmResult run_arm(u64 loss_ppm, usize ops, usize value_bytes, u64 seed) {
  FabricConfig fabric;
  fabric.loss_ppm = loss_ppm;
  Network net(fabric, seed);
  Host server(&net);
  Host client_host(&net);
  BlockStoreNode node(server.sys, kPort);
  VNROS_CHECK(node.init().ok());
  u64 ticks = 0;
  auto pump = [&] {
    node.serve_once();
    server.kernel.vtp().tick();
    client_host.kernel.vtp().tick();
    ++ticks;
  };
  BlockStoreClient client(client_host.sys, server.kernel.net_addr(), kPort, pump);
  VNROS_CHECK(client.init().ok());

  std::vector<u8> value(value_bytes, 0xAB);
  std::vector<u64> op_ticks;
  op_ticks.reserve(ops);
  for (usize i = 0; i < ops; ++i) {
    // Put/get pairs over a 64-key universe: the odd op reads back the key
    // the even op just wrote, so every get hits.
    std::string key = "k" + std::to_string((i / 2) % 64);
    u64 start = ticks;
    if (i % 2 == 0) {
      VNROS_CHECK(client.put(key, value).ok());
    } else {
      VNROS_CHECK(client.get(key).ok());
    }
    op_ticks.push_back(ticks - start);
  }

  ArmResult res;
  res.ops_per_kilotick =
      ticks > 0 ? static_cast<double>(ops) * 1000.0 / static_cast<double>(ticks) : 0;
  res.p50_ticks = percentile(op_ticks, 0.50);
  res.p99_ticks = percentile(op_ticks, 0.99);
  res.rpc_retries = client.retries();
  res.retransmits =
      server.kernel.vtp().stats().retransmits + client_host.kernel.vtp().stats().retransmits;
  return res;
}

}  // namespace
}  // namespace vnros

int main() {
  using namespace vnros;
  const bool quick = std::getenv("VNROS_BENCH_QUICK") != nullptr;
  const usize ops = quick ? 400 : 2'000;
  const usize value_bytes = 1024;
  const std::vector<u64> loss_sweep = {0, 10'000, 50'000};  // 0%, 1%, 5%

  BenchJson json("ablate_transport");
  json.config("ops", static_cast<unsigned long long>(ops));
  json.config("value_bytes", static_cast<unsigned long long>(value_bytes));
  json.config("workload", "alternating put/get over 64 keys, closed loop");
  json.config("quick", quick);

  std::printf("# ablate_transport: VTP stream retransmit under fabric loss\n");
  std::printf("# %6s | %12s %9s %9s %8s %10s\n", "loss%", "vtp op/kt", "p50", "p99", "retries",
              "rexmits");
  for (u64 loss_ppm : loss_sweep) {
    ArmResult vtp = run_arm(loss_ppm, ops, value_bytes, /*seed=*/0xAB1A7E + loss_ppm);
    double loss_pct = static_cast<double>(loss_ppm) / 10'000.0;
    std::printf("  %6.1f | %12.1f %9.1f %9.1f %8llu %10llu\n", loss_pct, vtp.ops_per_kilotick,
                vtp.p50_ticks, vtp.p99_ticks, static_cast<unsigned long long>(vtp.rpc_retries),
                static_cast<unsigned long long>(vtp.retransmits));
    json.row("vtp_ops_per_kilotick", loss_pct, vtp.ops_per_kilotick);
    json.row("vtp_p99_ticks", loss_pct, vtp.p99_ticks);
    json.row("vtp_rpc_retries", loss_pct, static_cast<double>(vtp.rpc_retries));
    json.row("vtp_retransmits", loss_pct, static_cast<double>(vtp.retransmits));
  }
  json.write();
  return 0;
}
