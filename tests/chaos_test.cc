// Cluster chaos (ctest label: chaos): every preset of the one schedule in
// src/app/chaos.cc, each over the same eight fixed seeds. A preset is a row
// of per-event rates (crash, churn, overload, heal, ring); every run is a
// consistent-hash cluster with the linearizability checker, Merkle
// anti-entropy and the convergence checks on (see src/app/chaos.h).
//
// Deterministic: a seed replays the same schedule, so these either always
// pass or always fail. A failure prints the exact replay line, e.g.
//   VNROS_CHAOS_PRESET=heal VNROS_CHAOS_SEED=0xbeef ./chaos_test --gtest_filter=ChaosReplay.FromEnv
#include "src/app/chaos.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/app/blockstore.h"
#include "src/kernel/kernel.h"
#include "src/kernel/syscall.h"

namespace vnros {
namespace {

constexpr u64 kSeeds[] = {0x0001, 0x00C2,     0x0303,     0xBEEF,
                          0xD00D, 0xFEED5EED, 0xCAFE0007, 0xA11C0DE8};

std::string where(ChaosPreset preset, u64 seed) {
  std::ostringstream out;
  out << chaos_preset_name(preset) << " seed 0x" << std::hex << seed;
  return out.str();
}

// Parses a replay pair the way the replay hook reads its environment
// (preset by name, seed with strtoull base 0).
std::optional<std::pair<ChaosPreset, u64>> parse_replay(const char* preset, const char* seed) {
  if (preset == nullptr || seed == nullptr) {
    return std::nullopt;
  }
  auto p = chaos_preset_named(preset);
  if (!p) {
    return std::nullopt;
  }
  return std::pair{*p, static_cast<u64>(std::strtoull(seed, nullptr, 0))};
}

// The value of `VAR=` in a printed "VAR=value VAR2=value" replay line.
std::string env_value(const std::string& line, const std::string& var) {
  const usize at = line.find(var + "=");
  if (at == std::string::npos) {
    return {};
  }
  const usize begin = at + var.size() + 1;
  return line.substr(begin, line.find(' ', begin) - begin);
}

// Each (preset, seed) schedule runs once per process: a seed's own test and
// its preset's matrix test read the same report, so running the binary whole
// does not replay a seed it already ran.
const ChaosReport& report(ChaosPreset preset, u64 seed) {
  static std::map<std::pair<ChaosPreset, u64>, ChaosReport> runs;
  auto it = runs.find({preset, seed});
  if (it == runs.end()) {
    it = runs.emplace(std::pair{preset, seed}, run_chaos(preset, seed)).first;
  }
  return it->second;
}

// One seed must keep every invariant and do real work.
void expect_clean(ChaosPreset preset, u64 seed) {
  const ChaosReport& r = report(preset, seed);
  EXPECT_TRUE(r.ok) << where(preset, seed) << ": " << r.message;
  EXPECT_GT(r.checks, 0u) << where(preset, seed);
  EXPECT_GT(r.ops_ok, 0u) << where(preset, seed);
}

// The preset's eight-seed matrix: every seed clean, and, summed over the
// matrix, every counter in the preset's coverage row above zero (a schedule
// that exercises nothing proves nothing).
void expect_matrix(ChaosPreset preset) {
  const auto covers = chaos_coverage(preset);
  std::vector<u64> sums(covers.size());
  for (u64 seed : kSeeds) {
    expect_clean(preset, seed);
    for (usize i = 0; i < covers.size(); ++i) {
      sums[i] += report(preset, seed).*covers[i].field;
    }
  }
  for (usize i = 0; i < covers.size(); ++i) {
    EXPECT_GT(sums[i], 0u) << chaos_preset_name(preset) << ": no seed drove "
                           << covers[i].name;
  }
}

// Determinism is the contract that makes the printed replay line useful: a
// fresh run of a seed reproduces the earlier report field for field (the span
// trace rides the client kernel's virtual clock, so even the tracer's event
// count replays). The replay line itself must parse back to the preset and
// seed that produced it.
void expect_replays(ChaosPreset preset) {
  const ChaosReport& a = report(preset, 0xBEEF);
  ChaosReport b = run_chaos(preset, 0xBEEF);
  EXPECT_TRUE(a == b) << where(preset, 0xBEEF) << ": reports differ (" << a.message << " / "
                      << b.message << ")";
  const std::string preset_env = env_value(a.replay, "VNROS_CHAOS_PRESET");
  const std::string seed_env = env_value(a.replay, "VNROS_CHAOS_SEED");
  auto parsed = parse_replay(preset_env.c_str(), seed_env.c_str());
  ASSERT_TRUE(parsed.has_value()) << a.replay;
  EXPECT_EQ(parsed->first, preset) << a.replay;
  EXPECT_EQ(parsed->second, 0xBEEFu) << a.replay;
}

// crash: crashes, partitions and disk/syscall/OOM faults.
TEST(ChaosTest, Seed1) { expect_clean(ChaosPreset::kCrash, 0x0001); }
TEST(ChaosTest, Seed2) { expect_clean(ChaosPreset::kCrash, 0x00C2); }
TEST(ChaosTest, Seed3) { expect_clean(ChaosPreset::kCrash, 0x0303); }
TEST(ChaosTest, Seed4) { expect_clean(ChaosPreset::kCrash, 0xBEEF); }
TEST(ChaosTest, Seed5) { expect_clean(ChaosPreset::kCrash, 0xD00D); }
TEST(ChaosTest, Seed6) { expect_clean(ChaosPreset::kCrash, 0xFEED5EED); }
TEST(ChaosTest, Seed7) { expect_clean(ChaosPreset::kCrash, 0xCAFE0007); }
TEST(ChaosTest, Seed8) { expect_clean(ChaosPreset::kCrash, 0xA11C0DE8); }
TEST(ChaosTest, MatrixCoversAllAdversityClasses) { expect_matrix(ChaosPreset::kCrash); }
TEST(ChaosTest, SameSeedSameSchedule) { expect_replays(ChaosPreset::kCrash); }

// churn: join/leave rebalancing and serve stalls; overload: churn with
// admission rationed well below the offered load, so nodes must shed and
// shedding must stay a liveness event, never a safety one.
TEST(ChaosChurnTest, Seed0001) { expect_clean(ChaosPreset::kChurn, 0x0001); }
TEST(ChaosChurnTest, Seed00C2) { expect_clean(ChaosPreset::kChurn, 0x00C2); }
TEST(ChaosChurnTest, Seed0303) { expect_clean(ChaosPreset::kChurn, 0x0303); }
TEST(ChaosChurnTest, SeedBEEF) { expect_clean(ChaosPreset::kChurn, 0xBEEF); }
TEST(ChaosChurnTest, SeedD00D) { expect_clean(ChaosPreset::kChurn, 0xD00D); }
TEST(ChaosChurnTest, SeedFEED5EED) { expect_clean(ChaosPreset::kChurn, 0xFEED5EED); }
TEST(ChaosChurnTest, SeedCAFE0007) { expect_clean(ChaosPreset::kChurn, 0xCAFE0007); }
TEST(ChaosChurnTest, SeedA11C0DE8) { expect_clean(ChaosPreset::kChurn, 0xA11C0DE8); }
TEST(ChaosChurnTest, MatrixExercisesChurn) { expect_matrix(ChaosPreset::kChurn); }
TEST(ChaosChurnTest, SameSeedSameSchedule) { expect_replays(ChaosPreset::kChurn); }
TEST(ChaosChurnTest, AdmissionShedsWithoutDurabilityLoss) { expect_matrix(ChaosPreset::kOverload); }
TEST(ChaosChurnTest, OverloadSameSeedSameSchedule) { expect_replays(ChaosPreset::kOverload); }

// heal: a delete-heavy mix, bit-rot, flap storms and sustained slow peers.
TEST(ChaosHealTest, Seed0001) { expect_clean(ChaosPreset::kHeal, 0x0001); }
TEST(ChaosHealTest, Seed00C2) { expect_clean(ChaosPreset::kHeal, 0x00C2); }
TEST(ChaosHealTest, Seed0303) { expect_clean(ChaosPreset::kHeal, 0x0303); }
TEST(ChaosHealTest, SeedBEEF) { expect_clean(ChaosPreset::kHeal, 0xBEEF); }
TEST(ChaosHealTest, SeedD00D) { expect_clean(ChaosPreset::kHeal, 0xD00D); }
TEST(ChaosHealTest, SeedFEED5EED) { expect_clean(ChaosPreset::kHeal, 0xFEED5EED); }
TEST(ChaosHealTest, SeedCAFE0007) { expect_clean(ChaosPreset::kHeal, 0xCAFE0007); }
TEST(ChaosHealTest, SeedA11C0DE8) { expect_clean(ChaosPreset::kHeal, 0xA11C0DE8); }
TEST(ChaosHealTest, MatrixExercisesHealing) { expect_matrix(ChaosPreset::kHeal); }
TEST(ChaosHealTest, SameSeedSameSchedule) { expect_replays(ChaosPreset::kHeal); }

// ring: the SysRing fault sites (submit kill, completion deferral) armed often.
TEST(ChaosRingTest, Seed0001) { expect_clean(ChaosPreset::kRing, 0x0001); }
TEST(ChaosRingTest, Seed00C2) { expect_clean(ChaosPreset::kRing, 0x00C2); }
TEST(ChaosRingTest, Seed0303) { expect_clean(ChaosPreset::kRing, 0x0303); }
TEST(ChaosRingTest, SeedBEEF) { expect_clean(ChaosPreset::kRing, 0xBEEF); }
TEST(ChaosRingTest, SeedD00D) { expect_clean(ChaosPreset::kRing, 0xD00D); }
TEST(ChaosRingTest, SeedFEED5EED) { expect_clean(ChaosPreset::kRing, 0xFEED5EED); }
TEST(ChaosRingTest, SeedCAFE0007) { expect_clean(ChaosPreset::kRing, 0xCAFE0007); }
TEST(ChaosRingTest, SeedA11C0DE8) { expect_clean(ChaosPreset::kRing, 0xA11C0DE8); }
TEST(ChaosRingTest, MatrixArmsAndFiresRingFaults) { expect_matrix(ChaosPreset::kRing); }
TEST(ChaosRingTest, SameSeedSameSchedule) { expect_replays(ChaosPreset::kRing); }

// Replay hook: VNROS_CHAOS_PRESET=<name> VNROS_CHAOS_SEED=<decimal or 0x-hex>
// reruns exactly that schedule (the line a failing run prints). Without the
// env vars this test is a no-op, so it is safe in the fixed matrix.
TEST(ChaosReplay, FromEnv) {
  const char* preset = std::getenv("VNROS_CHAOS_PRESET");
  const char* seed = std::getenv("VNROS_CHAOS_SEED");
  if (preset == nullptr && seed == nullptr) {
    GTEST_SKIP() << "set VNROS_CHAOS_PRESET and VNROS_CHAOS_SEED to replay a schedule";
  }
  auto replay = parse_replay(preset, seed);
  ASSERT_TRUE(replay.has_value()) << "need both variables and a preset name from chaos.h";
  ChaosReport r = run_chaos(replay->first, replay->second);
  EXPECT_TRUE(r.ok) << r.message;
}

std::vector<u8> bytes(std::string_view s) { return std::vector<u8>(s.begin(), s.end()); }

// ---------------------------------------------------------------------------
// Targeted membership changes racing an in-flight put: the change runs from
// inside the client's pump callback, i.e. while the put's request is on
// the wire — the tightest interleaving the simulation can express.

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
    EXPECT_TRUE(p.ok());
    return p.value();
  }
};

struct ChurnCluster {
  Network net;
  Host client_host{&net};
  std::vector<std::unique_ptr<Host>> hosts;
  std::vector<std::unique_ptr<BlockStoreNode>> nodes;
  std::vector<bool> active;
  ClusterView view;
  std::function<void()> on_pump;  // churn hook: runs after each client pump

  explicit ChurnCluster(usize n, usize replication) {
    view.replication = replication;
    for (usize i = 0; i < n; ++i) {
      add_member();
    }
    for (usize i = 0; i < n; ++i) {
      nodes[i]->set_cluster_view(view);
    }
  }

  BsNodeId add_member() {
    BsNodeId id = static_cast<BsNodeId>(nodes.size());
    Port port = static_cast<Port>(9200 + id);
    usize slot = nodes.size();
    hosts.push_back(std::make_unique<Host>(&net));
    nodes.push_back(std::make_unique<BlockStoreNode>(
        hosts[slot]->sys, port, std::vector<BsPeer>{}, [this, slot] { pump_except(slot); }));
    active.push_back(true);
    EXPECT_TRUE(nodes[slot]->init().ok());
    view.ring.add_node(id);
    view.directory[id] = BsPeer{hosts[slot]->kernel.net_addr(), port};
    ClusterConfig cfg;
    cfg.self = id;
    nodes[slot]->configure_cluster(cfg, view);
    return id;
  }

  // Serves every active node but `skip`, then ticks every host's VTP stack
  // once (client rpcs ride streams, which retransmit only on ticks).
  void pump_except(usize skip) {
    for (usize i = 0; i < nodes.size(); ++i) {
      if (i != skip && active[i] && nodes[i]) {
        nodes[i]->serve_once();
      }
    }
    for (usize i = 0; i < hosts.size(); ++i) {
      if (active[i]) {
        hosts[i]->kernel.vtp().tick();
      }
    }
    client_host.kernel.vtp().tick();
  }
  void pump_all() { pump_except(nodes.size()); }

  void client_pump() {
    // The hook runs before the servers get a turn: a membership change fired
    // on the client's first poll lands after its request was sent but
    // before any node serves it — a genuinely in-flight op.
    if (on_pump) {
      on_pump();
    }
    pump_all();
  }

  void drain(usize polls = 96) {
    for (usize i = 0; i < polls; ++i) {
      pump_all();
    }
  }

  bool is_owner(const std::string& key, BsNodeId id) const {
    for (BsNodeId o : view.owners(key)) {
      if (o == id) {
        return true;
      }
    }
    return false;
  }
};

TEST(ChurnInFlightTest, JoinDuringInFlightPut) {
  ChurnCluster c(3, 2);
  BlockStoreClient client(c.client_host.sys, c.view.directory[0].addr, c.view.directory[0].port,
                          [&c] { c.client_pump(); });
  client.set_cluster(c.view);

  // Seed some shards so the join actually moves data.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(client.put("pre" + std::to_string(i), bytes("v" + std::to_string(i))).ok());
  }

  // Arm the churn hook: on the next put's first poll (request sent, not yet
  // served) a fourth node joins and every pre-existing member rebalances
  // into the grown view.
  bool joined = false;
  c.on_pump = [&] {
    if (joined) {
      return;
    }
    joined = true;
    BsNodeId id = c.add_member();
    for (usize j = 0; j + 1 < c.nodes.size(); ++j) {
      auto st = c.nodes[j]->rebalance(c.view);
      ASSERT_TRUE(st.ok());
    }
    (void)id;
  };
  ASSERT_TRUE(client.put("racer", bytes("mid-join")).ok());
  ASSERT_TRUE(joined);
  c.on_pump = {};

  // Converge: one more rebalance pass + hint delivery, then the new view's
  // owners must both hold the put, non-owners must not.
  client.set_cluster(c.view);
  for (usize j = 0; j < c.nodes.size(); ++j) {
    ASSERT_TRUE(c.nodes[j]->rebalance(c.view).ok());
    (void)c.nodes[j]->deliver_hints();
  }
  c.drain();
  EXPECT_EQ(client.get("racer").value(), bytes("mid-join"));
  for (usize j = 0; j < c.nodes.size(); ++j) {
    auto local = c.nodes[j]->get("racer");
    if (c.is_owner("racer", static_cast<BsNodeId>(j))) {
      EXPECT_EQ(local.value(), bytes("mid-join")) << "owner " << j << " missing the racing put";
    }
  }
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(client.get("pre" + std::to_string(i)).value(), bytes("v" + std::to_string(i)));
  }
}

TEST(ChurnInFlightTest, LeaveDuringInFlightPut) {
  ChurnCluster c(4, 2);
  BlockStoreClient client(c.client_host.sys, c.view.directory[0].addr, c.view.directory[0].port,
                          [&c] { c.client_pump(); });
  client.set_cluster(c.view);

  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client.put("pre" + std::to_string(i), bytes("v" + std::to_string(i))).ok());
  }

  // The leaver must not be an owner of the racing key (its process serves
  // that rpc's shard movement, not the rpc itself) — pick one.
  const std::string key = "racer";
  usize leaver = c.nodes.size();
  for (usize j = 0; j < c.nodes.size(); ++j) {
    if (!c.is_owner(key, static_cast<BsNodeId>(j))) {
      leaver = j;
      break;
    }
  }
  ASSERT_LT(leaver, c.nodes.size());

  bool left = false;
  c.on_pump = [&] {
    if (left) {
      return;
    }
    left = true;
    ClusterView candidate = c.view;
    candidate.ring.remove_node(static_cast<BsNodeId>(leaver));
    candidate.directory.erase(static_cast<BsNodeId>(leaver));
    auto st = c.nodes[leaver]->rebalance(candidate);
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st.value().failed, 0u) << "graceful leave stranded a shard";
    c.view = candidate;
    c.active[leaver] = false;
    c.nodes[leaver].reset();
    for (usize j = 0; j < c.nodes.size(); ++j) {
      if (c.active[j] && c.nodes[j]) {
        ASSERT_TRUE(c.nodes[j]->rebalance(c.view).ok());
      }
    }
  };
  ASSERT_TRUE(client.put(key, bytes("mid-leave")).ok());
  ASSERT_TRUE(left);
  c.on_pump = {};

  client.set_cluster(c.view);
  for (usize j = 0; j < c.nodes.size(); ++j) {
    if (c.active[j] && c.nodes[j]) {
      (void)c.nodes[j]->deliver_hints();
    }
  }
  c.drain();
  // The racing put and every pre-populated shard survive the leave.
  EXPECT_EQ(client.get(key).value(), bytes("mid-leave"));
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(client.get("pre" + std::to_string(i)).value(), bytes("v" + std::to_string(i)));
  }
}

}  // namespace
}  // namespace vnros
