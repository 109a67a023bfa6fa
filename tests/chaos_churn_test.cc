// Membership-churn chaos: the cluster-mode schedule (seeded join/leave
// interleaved with crashes, partitions, disk faults, latency stalls and
// admission-control overload) must preserve the belief-based durability
// invariant and the obs-coherence invariants, and must replay
// bit-identically from its seed.
//
// The fixed seed matrix below is the churn counterpart of chaos_test.cc's:
// eight arbitrary-but-frozen seeds, each a full adversarial schedule. A
// failure prints the seed; replay locally with
//   VNROS_CHURN_SEED=0x... ./chaos_churn_test --gtest_filter='*ReplayFromEnv*'
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "src/app/blockstore.h"
#include "src/app/chaos.h"
#include "src/base/fault.h"
#include "src/kernel/kernel.h"
#include "src/kernel/syscall.h"

namespace vnros {
namespace {

std::vector<u8> bytes(std::string_view s) { return std::vector<u8>(s.begin(), s.end()); }

ChaosConfig churn_config(u64 seed) {
  ChaosConfig c;
  c.seed = seed;
  c.nodes = 3;
  c.steps = 300;
  c.keys = 12;
  c.check_every = 60;
  c.cluster = true;
  c.replication = 2;
  c.vnodes = 32;
  c.max_nodes = 6;
  c.join_ppm = 35'000;
  c.leave_ppm = 35'000;
  c.delay_ppm = 30'000;
  c.delay_polls_max = 64;
  return c;
}

ChaosReport expect_churn_ok(u64 seed) {
  ChaosReport r = run_chaos(churn_config(seed));
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_GT(r.checks, 0u);
  EXPECT_GT(r.ops_ok, 0u);
  return r;
}

TEST(ChaosChurnTest, Seed0001) { expect_churn_ok(0x0001); }
TEST(ChaosChurnTest, Seed00C2) { expect_churn_ok(0x00C2); }
TEST(ChaosChurnTest, Seed0303) { expect_churn_ok(0x0303); }
TEST(ChaosChurnTest, SeedBEEF) { expect_churn_ok(0xBEEF); }
TEST(ChaosChurnTest, SeedD00D) { expect_churn_ok(0xD00D); }
TEST(ChaosChurnTest, SeedFEED5EED) { expect_churn_ok(0xFEED5EED); }
TEST(ChaosChurnTest, SeedCAFE0007) { expect_churn_ok(0xCAFE0007); }
TEST(ChaosChurnTest, SeedA11C0DE8) { expect_churn_ok(0xA11C0DE8); }

// Across the matrix, the schedules must actually exercise churn: joins and
// leaves happen (with at least some leaves completing), rebalancing moves
// shards, partitions force hinted handoff, and latency stalls are injected.
// (Per-seed counts vary — the aggregate is what the matrix guarantees.)
TEST(ChaosChurnTest, MatrixExercisesChurn) {
  const u64 seeds[] = {0x0001, 0x00C2, 0x0303,     0xBEEF,
                       0xD00D, 0xFEED5EED, 0xCAFE0007, 0xA11C0DE8};
  ChaosReport sum;
  for (u64 seed : seeds) {
    ChaosReport r = run_chaos(churn_config(seed));
    ASSERT_TRUE(r.ok) << r.message;
    sum.joins += r.joins;
    sum.leaves += r.leaves;
    sum.aborted_leaves += r.aborted_leaves;
    sum.rebalanced += r.rebalanced;
    sum.hints_written += r.hints_written;
    sum.hints_delivered += r.hints_delivered;
    sum.delays_armed += r.delays_armed;
    sum.crashes += r.crashes;
    sum.partitions += r.partitions;
  }
  EXPECT_GT(sum.joins, 0u);
  EXPECT_GT(sum.leaves, 0u);
  EXPECT_GT(sum.rebalanced, 0u);
  EXPECT_GT(sum.hints_written, 0u);
  EXPECT_GT(sum.delays_armed, 0u);
  EXPECT_GT(sum.crashes, 0u);
  EXPECT_GT(sum.partitions, 0u);
}

// With the admission gate rationed well below the offered load, nodes must
// shed (kOverloaded) — and shedding must stay a liveness event, never a
// safety one: the durability invariant holds and the run completes.
TEST(ChaosChurnTest, AdmissionShedsWithoutDurabilityLoss) {
  ChaosConfig c = churn_config(0x0AD5'10AD);
  c.admission_rate_ppm = 300'000;  // 0.3 op/step/node vs ~1 op + replicas offered
  c.admission_burst = 2;
  ChaosReport r = run_chaos(c);
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_GT(r.sheds, 0u);
}

// Bit-identical replay: the same seed must produce the same schedule, the
// same op outcomes, and the same churn accounting, field for field.
TEST(ChaosChurnTest, SameSeedSameSchedule) {
  ChaosConfig c = churn_config(0xBEEF);
  c.admission_rate_ppm = 2'000'000;
  ChaosReport a = run_chaos(c);
  ChaosReport b = run_chaos(c);
  ASSERT_TRUE(a.ok) << a.message;
  ASSERT_TRUE(b.ok) << b.message;
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.ops_ok, b.ops_ok);
  EXPECT_EQ(a.ops_failed, b.ops_failed);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.reimages, b.reimages);
  EXPECT_EQ(a.partitions, b.partitions);
  EXPECT_EQ(a.heals, b.heals);
  EXPECT_EQ(a.faults_armed, b.faults_armed);
  EXPECT_EQ(a.joins, b.joins);
  EXPECT_EQ(a.leaves, b.leaves);
  EXPECT_EQ(a.aborted_leaves, b.aborted_leaves);
  EXPECT_EQ(a.rebalanced, b.rebalanced);
  EXPECT_EQ(a.hints_written, b.hints_written);
  EXPECT_EQ(a.hints_delivered, b.hints_delivered);
  EXPECT_EQ(a.sheds, b.sheds);
  EXPECT_EQ(a.delays_armed, b.delays_armed);
  EXPECT_EQ(a.replicas_pushed, b.replicas_pushed);
  EXPECT_EQ(a.replicas_applied, b.replicas_applied);
  EXPECT_EQ(a.client_retries, b.client_retries);
  EXPECT_EQ(a.checks, b.checks);
}

// Replays one churn seed from the environment (failure triage):
//   VNROS_CHURN_SEED=0xBEEF ./chaos_churn_test --gtest_filter='*ReplayFromEnv*'
TEST(ChaosChurnTest, ReplayFromEnv) {
  const char* env = std::getenv("VNROS_CHURN_SEED");
  if (env == nullptr) {
    GTEST_SKIP() << "set VNROS_CHURN_SEED to replay a churn schedule";
  }
  u64 seed = std::strtoull(env, nullptr, 0);
  ChaosReport r = run_chaos(churn_config(seed));
  EXPECT_TRUE(r.ok) << r.message;
}

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
