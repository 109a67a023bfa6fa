#include "src/app/chaos.h"

#include <algorithm>
#include <charconv>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/app/anti_entropy.h"
#include "src/app/blockstore.h"
#include "src/base/contracts.h"
#include "src/base/fault.h"
#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/hw/block_device.h"
#include "src/hw/network.h"
#include "src/kernel/kernel.h"
#include "src/kernel/syscall.h"
#include "src/obs/registry.h"

namespace vnros {
namespace {

constexpr Port kPort = 9000;
constexpr u64 kDiskSectors = 16384;

// The cluster every preset runs.
constexpr usize kNodes = 3;        // initial members (>= 2 for repair paths)
constexpr usize kReplication = 2;  // ring owners per key
constexpr usize kVnodes = 32;      // virtual nodes per member
constexpr usize kMaxNodes = 6;     // join cap (slots are never reused)
constexpr usize kGcEvery = 2;      // tombstone GC at every Nth quiesce
constexpr u64 kMaxValueBytes = 400;
constexpr u64 kAdmissionBurst = 2;  // admission bucket capacity, in ops

// Per-step rates every preset shares, parts-per-million.
constexpr u64 kCrashPpm = 20'000;         // crash + reboot a random node
constexpr u64 kPartitionPpm = 25'000;     // cut a random (node|client, node) pair
constexpr u64 kHealCutPpm = 40'000;       // heal a random active cut
constexpr u64 kDiskFaultPpm = 30'000;     // one-shot disk read/write error on a random node
constexpr u64 kTornWritePpm = 10'000;     // one-shot torn write on a random node
constexpr u64 kSyscallFaultPpm = 15'000;  // one-shot syscall kIoError injection
constexpr u64 kOomPpm = 8'000;            // one-shot frame-allocator OOM + probe it
constexpr u64 kGetPpm = 300'000;          // share of client ops that are gets

// Event magnitudes.
constexpr u64 kDelayPollsMax = 64;      // one-shot stall drawn from [8, max] polls
constexpr u64 kBitRotBytesMax = 8;      // flipped bytes per fire, drawn from [1, max]
constexpr u64 kFlapTogglesMax = 8;      // storm length drawn from [2, max] toggles
constexpr u64 kSlowPeerPolls = 12;      // stall per serve during a slow spell
constexpr u64 kSlowSpellStepsMax = 40;  // spell length drawn from [8, max] steps
// Crash severity: chance each unflushed sector survives, and chance a
// surviving unflushed sector is torn to a prefix.
constexpr u64 kPersistPpm = 500'000;
constexpr u64 kTornCrashPpm = 150'000;

// One preset: the schedule length and the per-step rates (ppm) that differ
// between presets, plus the report counters its seed matrix must drive
// above zero. A zero rate never fires.
struct Preset {
  std::string_view name;
  usize steps;        // schedule steps (each is one client op + events)
  usize keys;         // key universe (small: forces overwrite churn)
  usize check_every;  // quiesce + invariant check cadence
  u64 del_ppm;        // share of client ops that are deletes (puts get the rest)
  u64 join_ppm = 0;   // boot a new member + rebalance all
  u64 leave_ppm = 0;  // graceful leave (aborts if it would strand a shard)
  u64 delay_ppm = 0;  // arm a one-shot serve_delay stall
  u64 admission_ppm = 0;  // tokens/step granted to every node (0 = gate off)
  u64 bit_rot_ppm = 0;    // arm one-shot silent disk corruption
  u64 flap_ppm = 0;       // start a partition flap storm (a pair toggles
                          // cut/healed every step for its length)
  u64 slow_peer_ppm = 0;  // start a sustained slow-peer spell (serve_delay
                          // re-arms on EVERY serve: latency asymmetry)
  u64 ring_submit_ppm = 0;    // arm one-shot syscall/ring_submit (an accepted
                              // SQE completes with the injected error)
  u64 ring_complete_ppm = 0;  // arm one-shot syscall/ring_complete (a pending
                              // op is deferred one reactor pass)
  std::vector<ChaosCounter> covers;
};

#define VNROS_COVER(field) ChaosCounter{#field, &ChaosReport::field}

// The preset table, in ChaosPreset order.
const Preset kPresets[] = {
    {.name = "crash", .steps = 250, .keys = 10, .check_every = 50, .del_ppm = 100'000,
     .covers = {VNROS_COVER(crashes), VNROS_COVER(partitions), VNROS_COVER(heals),
                VNROS_COVER(faults_armed), VNROS_COVER(fault_fires),
                VNROS_COVER(lin_reads_checked)}},
    {.name = "churn", .steps = 300, .keys = 12, .check_every = 60, .del_ppm = 100'000,
     .join_ppm = 35'000, .leave_ppm = 35'000, .delay_ppm = 30'000,
     .covers = {VNROS_COVER(joins), VNROS_COVER(leaves), VNROS_COVER(rebalanced),
                VNROS_COVER(hints_written), VNROS_COVER(delays_armed), VNROS_COVER(crashes),
                VNROS_COVER(partitions), VNROS_COVER(lin_reads_checked)}},
    // 0.3 op/step/node against ~1 op + replicas offered: nodes must shed, and
    // shedding must stay a liveness event, never a safety one.
    {.name = "overload", .steps = 300, .keys = 12, .check_every = 60, .del_ppm = 100'000,
     .join_ppm = 35'000, .leave_ppm = 35'000, .delay_ppm = 30'000, .admission_ppm = 300'000,
     .covers = {VNROS_COVER(sheds), VNROS_COVER(lin_reads_checked)}},
    {.name = "heal", .steps = 300, .keys = 12, .check_every = 60, .del_ppm = 200'000,
     .join_ppm = 25'000, .leave_ppm = 25'000, .delay_ppm = 20'000, .bit_rot_ppm = 30'000,
     .flap_ppm = 15'000, .slow_peer_ppm = 15'000,
     .covers = {VNROS_COVER(tombstones_written), VNROS_COVER(tombstones_gced),
                VNROS_COVER(bit_rot_reads), VNROS_COVER(flaps), VNROS_COVER(slow_spells),
                VNROS_COVER(ae_passes), VNROS_COVER(ae_clean_passes), VNROS_COVER(ae_pulled),
                VNROS_COVER(ae_pushed), VNROS_COVER(ae_bytes), VNROS_COVER(lin_reads_checked),
                VNROS_COVER(crashes), VNROS_COVER(partitions)}},
    // Ring faults often enough that most schedules hit several submit kills
    // and completion deferrals across the cluster's whole syscall data plane.
    {.name = "ring", .steps = 250, .keys = 12, .check_every = 50, .del_ppm = 200'000,
     .join_ppm = 20'000, .leave_ppm = 20'000, .bit_rot_ppm = 20'000, .flap_ppm = 10'000,
     .ring_submit_ppm = 80'000, .ring_complete_ppm = 80'000,
     .covers = {VNROS_COVER(faults_armed), VNROS_COVER(fault_fires),
                VNROS_COVER(ring_submit_fires), VNROS_COVER(ring_complete_fires),
                VNROS_COVER(lin_reads_checked)}},
};

#undef VNROS_COVER

const Preset& preset_row(ChaosPreset preset) {
  VNROS_CHECK(static_cast<usize>(preset) < std::size(kPresets));
  return kPresets[static_cast<usize>(preset)];
}

std::string hex(u64 v) {
  char buf[2 + 16];
  buf[0] = '0';
  buf[1] = 'x';
  auto end = std::to_chars(buf + 2, buf + sizeof(buf), v, 16).ptr;
  return std::string(buf, end);
}

FaultSpec one_shot() {
  FaultSpec spec;
  spec.probability_ppm = 1'000'000;
  spec.one_shot = true;
  return spec;
}

// One simulated machine with a ready-to-use process and Sys facade (the
// app_vcs Host pattern, extended with the reboot knobs).
struct ChaosHost {
  Kernel kernel;
  SyscallDispatcher disp;
  Pid pid;
  Sys sys;

  ChaosHost(Network* net, BlockDevice* disk, bool recover, std::optional<LinkAddr> addr)
      : kernel(make_config(net, disk, recover, addr)),
        disp(kernel),
        pid(boot_pid(disp)),
        sys(disp, pid, 0) {}

  static KernelConfig make_config(Network* net, BlockDevice* disk, bool recover,
                                  std::optional<LinkAddr> addr) {
    KernelConfig config;
    config.network = net;
    config.disk = disk;
    config.recover_fs = recover;
    config.link_addr = addr;
    config.format_on_recovery_failure = recover;
    return config;
  }

  static Pid boot_pid(SyscallDispatcher& disp) {
    Sys boot(disp, kInvalidPid, 0);
    auto pid = boot.spawn();
    VNROS_CHECK(pid.ok());
    return pid.value();
  }
};

// What the client knows about one key: every attempted write (acked or
// not) under its stamp — the values of its puts are the universe of
// non-garbage bytes — plus `certain`, the acked bytes, set only while the
// latest client op on the key was a successful put.
//
// The linearizability checker validates reads against the same history.
// The system under test is a replicated sequenced register — not strictly
// linearizable mid-partition (an acked write can leave a hinted-unreachable
// replica stale, so reads may serve old values) — so the sound checkable
// spec is:
//   - every read that returns (bytes, seq) must return EXACTLY the bytes of
//     an attempted write with that stamp (failed writes count: at-least-once
//     delivery means they may have landed);
//   - at quiesce (fabric healed, hints drained, anti-entropy converged) the
//     surviving state must carry a stamp >= every acknowledged write's, and
//     an acknowledged delete with no later attempted write must read as
//     absent on every node (no resurrection);
//   - re-image data loss may lower the acknowledged floor (and drop
//     `certain`), but only when no surviving copy reaches it.
struct KeyHistory {
  struct Write {
    u64 seq = 0;
    std::vector<u8> bytes;
    bool tombstone = false;
    bool acked = false;
  };
  std::vector<Write> writes;  // every attempted write, in invoke order
  u64 acked_floor = 0;        // highest acknowledged stamp (0 = none)
  bool acked_is_del = false;  // the op at acked_floor was a delete
  std::optional<std::vector<u8>> certain;

  bool wrote(const std::vector<u8>& v) const {
    for (const auto& w : writes) {
      if (!w.tombstone && w.bytes == v) {
        return true;
      }
    }
    return false;
  }
  const Write* find_seq(u64 seq) const {
    for (const auto& w : writes) {
      if (w.seq == seq) {
        return &w;
      }
    }
    return nullptr;
  }
  u64 max_attempted_seq() const {
    u64 m = 0;
    for (const auto& w : writes) {
      m = std::max(m, w.seq);
    }
    return m;
  }
};

class ChaosRunner {
 public:
  ChaosRunner(ChaosPreset preset, u64 seed)
      : row_(preset_row(preset)), seed_(seed), sched_rng_(seed) {
    report_.seed = seed;
    report_.replay = "VNROS_CHAOS_PRESET=" + std::string(row_.name) +
                     " VNROS_CHAOS_SEED=" + hex(seed);
    // Background Merkle repair: one tick per schedule step, so a peer gets a
    // repair pass every ~64-96 steps.
    ae_base_.interval_polls = 64;
    ae_base_.jitter_polls = 32;
  }

  ChaosReport run() {
    auto& reg = FaultRegistry::global();
    reg.disarm_all();
    reg.reset_stats();
    reg.reseed(seed_ ^ 0xFA17'FA17ull);

    boot_cluster();

    // Arm the span tracer on the client kernel's virtual clock for the whole
    // schedule: spans (blockstore RPCs, fs journal commits, VTP retransmits)
    // replay bit-identically from the seed like everything else.
    SpanTracer& tracer = ObsRegistry::global().tracer();
    const u64 spans_before = tracer.recorded();
    tracer.set_clock(&client_host_->kernel.clock());
    tracer.set_enabled(true);

    for (usize step = 0; step < row_.steps && report_.message.empty(); ++step) {
      schedule_events(step);
      client_op(step);
      if (report_.message.empty() && (step + 1) % row_.check_every == 0) {
        quiesce_and_check(step);
      }
    }
    if (report_.message.empty()) {
      quiesce_and_check(row_.steps);
    }

    finalize_report();
    report_.spans_recorded = tracer.recorded() - spans_before;
    tracer.set_enabled(false);
    tracer.set_clock(nullptr);
    reg.disarm_all();
    return report_;
  }

 private:
  struct NodeSlot {
    std::unique_ptr<BlockDevice> disk;
    std::unique_ptr<ChaosHost> host;
    std::unique_ptr<BlockStoreNode> node;
    std::unique_ptr<AntiEntropyScheduler> ae;  // background Merkle repair
    LinkAddr addr = 0;
    BsNodeId id = 0;
    bool active = true;  // false once the member gracefully left (slots are
                         // never reused, so id == slot index forever)
    std::string fault_prefix;
    std::string node_prefix;  // serve_delay latency-injection site prefix
  };

  // Boots slot i's machine (fresh disk) and adds it to the runner's view.
  void boot_member(usize i) {
    auto& slot = slots_[i];
    slot.id = static_cast<BsNodeId>(i);
    slot.active = true;
    slot.fault_prefix = "chaos/disk" + std::to_string(i);
    slot.node_prefix = "chaos/node" + std::to_string(i);
    slot.disk = std::make_unique<BlockDevice>(kDiskSectors, seed_ * 1000003ull + i,
                                              slot.fault_prefix);
    slot.host = std::make_unique<ChaosHost>(&net_, slot.disk.get(), /*recover=*/false,
                                            std::nullopt);
    slot.addr = slot.host->kernel.net_addr();
    view_.ring.add_node(slot.id);
    view_.directory[slot.id] = BsPeer{slot.addr, kPort};
  }

  void boot_cluster() {
    view_.ring = PlacementRing(kVnodes);
    view_.replication = kReplication;
    slots_.resize(kNodes);
    for (usize i = 0; i < kNodes; ++i) {
      boot_member(i);
    }
    for (usize i = 0; i < kNodes; ++i) {
      make_node(i);
    }
    client_host_ = std::make_unique<ChaosHost>(&net_, nullptr, /*recover=*/false, std::nullopt);
    client_addr_ = client_host_->kernel.net_addr();

    RetryPolicy policy;
    policy.max_attempts = 6;
    policy.polls_per_attempt = 48;
    policy.backoff_base_polls = 4;
    policy.backoff_max_polls = 64;
    policy.jitter_ppm = 250'000;
    policy.deadline_polls = 2'000;
    client_ = std::make_unique<BlockStoreClient>(client_host_->sys, slots_[0].addr, kPort,
                                                 [this] { pump_all(); }, policy);
    for (usize i = 1; i < kNodes; ++i) {
      client_->add_failover(slots_[i].addr, kPort);
    }
    client_->set_cluster(view_);
    VNROS_CHECK(client_->init().ok());
  }

  void make_node(usize i) {
    auto& slot = slots_[i];
    slot.node = std::make_unique<BlockStoreNode>(slot.host->sys, kPort, std::vector<BsPeer>{},
                                                 [this, i] { pump_except(i); }, slot.node_prefix);
    // A node booting mid-schedule can absorb a pending one-shot fault (e.g.
    // global syscall io_error) on its very first syscall. Boot is retried
    // like an operator would: one-shots are consumed by the failed attempt,
    // so a bounded number of retries either boots or proves the fault
    // persistent (which no schedule arms).
    Result<Unit> booted = ErrorCode::kIoError;
    for (int attempt = 0; attempt < 3 && !(booted = slot.node->init()).ok(); ++attempt) {
      VNROS_LOG_DEBUG("chaos", "node %zu init attempt failed: %s", i,
                      error_name(booted.error()));
    }
    VNROS_CHECK(booted.ok());
    ClusterConfig cc;
    cc.self = slot.id;
    slot.node->configure_cluster(cc, view_);
    set_admission(slot, true);
    slot.node->grant_tokens(kAdmissionBurst * 1'000'000);  // boot with a full bucket
    // The repair seed is a pure function of the run seed and the slot, so a
    // rebooted incarnation re-derives the same repair schedule and the whole
    // run stays seed-replayable.
    AntiEntropyConfig ae = ae_base_;
    ae.rng_seed = seed_ ^ (0xAE00'0000ull + static_cast<u64>(i) * 0x9E37ull);
    slot.ae = std::make_unique<AntiEntropyScheduler>(slot.host->sys, *slot.node,
                                                     [this, i] { pump_except(i); }, ae);
  }

  // Admission control is on for the schedule when the preset rations tokens,
  // and lifted for a quiesce: convergence is not an overload test, and
  // refilled buckets would still cap each member at kAdmissionBurst ops.
  void set_admission(NodeSlot& slot, bool on) {
    AdmissionConfig ac;
    ac.enabled = on && row_.admission_ppm > 0;
    ac.burst_ops = kAdmissionBurst;
    slot.node->set_admission(ac);
  }

  void set_admission_all(bool on) {
    for (auto& slot : slots_) {
      if (slot.active && slot.node) {
        set_admission(slot, on);
      }
    }
  }

  usize active_count() const {
    usize n = 0;
    for (const auto& slot : slots_) {
      if (slot.active) {
        ++n;
      }
    }
    return n;
  }

  // Picks a uniformly random active slot.
  usize pick_active() {
    std::vector<usize> idx;
    for (usize i = 0; i < slots_.size(); ++i) {
      if (slots_[i].active) {
        idx.push_back(i);
      }
    }
    return idx[sched_rng_.next_below(idx.size())];
  }

  // A uniformly random pair among {active nodes, client} (possibly equal).
  std::pair<LinkAddr, LinkAddr> pick_link() {
    std::vector<LinkAddr> ends;
    for (const auto& slot : slots_) {
      if (slot.active) {
        ends.push_back(slot.addr);
      }
    }
    ends.push_back(client_addr_);
    LinkAddr a = ends[sched_rng_.next_below(ends.size())];
    LinkAddr b = ends[sched_rng_.next_below(ends.size())];
    return {a, b};
  }

  void pump_all() {
    net_.release_held();
    for (auto& slot : slots_) {
      if (slot.node) {
        slot.node->serve_once();
      }
    }
    tick_streams();
  }

  void pump_except(usize skip) {
    net_.release_held();
    for (usize j = 0; j < slots_.size(); ++j) {
      if (j != skip && slots_[j].node) {
        slots_[j].node->serve_once();
      }
    }
    tick_streams();
  }

  void pump_n(int polls) {
    for (int i = 0; i < polls; ++i) {
      pump_all();
    }
  }

  // One VTP tick on every host: client rpcs ride streams, and a stream only
  // retransmits (across loss, partitions and reboots) when its stack ticks.
  void tick_streams() {
    for (auto& slot : slots_) {
      if (slot.host) {
        slot.host->kernel.vtp().tick();
      }
    }
    if (client_host_) {
      client_host_->kernel.vtp().tick();
    }
  }

  // --- Adversarial events ---------------------------------------------------

  void arm(const std::string& site, const FaultSpec& spec = one_shot()) {
    FaultRegistry::global().arm(site, spec);
    ++report_.faults_armed;
  }

  // Every event draws from the schedule Rng on every step, in a fixed order,
  // so a preset is nothing but its row of rates.
  void schedule_events(usize step) {
    // The admission clock: one tick of tokens per schedule step. Ops that
    // outrun the rate are shed with kOverloaded and absorbed by the client's
    // backpressure ladder (or fail, leaving the key uncertain).
    for (auto& slot : slots_) {
      if (slot.active && slot.node) {
        slot.node->grant_tokens(row_.admission_ppm);
      }
    }
    if (sched_rng_.chance_ppm(kCrashPpm)) {
      crash_node(pick_active(), step);
    }
    if (sched_rng_.chance_ppm(kPartitionPpm)) {
      auto [a, b] = pick_link();
      if (a != b && !net_.partitioned(a, b)) {
        net_.partition(a, b);
        cuts_.push_back({a, b});
        ++report_.partitions;
      }
    }
    if (sched_rng_.chance_ppm(kHealCutPpm) && !cuts_.empty()) {
      usize idx = sched_rng_.next_below(cuts_.size());
      net_.heal(cuts_[idx].first, cuts_[idx].second);
      cuts_.erase(cuts_.begin() + static_cast<isize>(idx));
      ++report_.heals;
    }
    if (sched_rng_.chance_ppm(kDiskFaultPpm)) {
      const auto& slot = slots_[pick_active()];
      arm(slot.fault_prefix + (sched_rng_.chance_ppm(500'000) ? "/write_error" : "/read_error"));
    }
    if (sched_rng_.chance_ppm(kTornWritePpm)) {
      arm(slots_[pick_active()].fault_prefix + "/torn_write");
    }
    if (sched_rng_.chance_ppm(kSyscallFaultPpm)) {
      arm("syscall/io_error");
    }
    if (sched_rng_.chance_ppm(row_.ring_submit_ppm)) {
      // Fires on the next accepted SQE anywhere in the cluster (serve pools,
      // repair RPCs, client reply awaits): it completes immediately with the
      // injected error instead of executing. Every ring user re-arms its
      // parked receives, so the op is absorbed like a dropped datagram.
      arm("syscall/ring_submit");
    }
    if (sched_rng_.chance_ppm(row_.ring_complete_ppm)) {
      // Fires on the next pending ring op: its execution is deferred one
      // reactor pass (completion jitter). Correctness must not depend on
      // completions landing on the earliest possible pass.
      arm("syscall/ring_complete");
    }
    if (sched_rng_.chance_ppm(kOomPpm)) {
      arm("frame_alloc/oom");
      // Steady-state block-store traffic allocates no frames, so probe the
      // site from the client host: a small mapping that either succeeds (and
      // is unmapped) or absorbs the injected kNoMemory.
      auto probe = client_host_->sys.mmap(4096, /*writable=*/true);
      if (probe.ok()) {
        (void)client_host_->sys.munmap(probe.value());
      }
    }
    if (sched_rng_.chance_ppm(row_.join_ppm) && slots_.size() < kMaxNodes) {
      join_node(step);
    }
    if (sched_rng_.chance_ppm(row_.leave_ppm) &&
        active_count() > std::max<usize>(2, view_.replication)) {
      leave_node(step);
    }
    if (sched_rng_.chance_ppm(row_.delay_ppm)) {
      const auto& slot = slots_[pick_active()];
      FaultSpec stall = one_shot();
      stall.delay = sched_rng_.next_range(8, kDelayPollsMax);
      arm(slot.node_prefix + "/serve_delay", stall);
      ++report_.delays_armed;
    }
    if (sched_rng_.chance_ppm(row_.bit_rot_ppm)) {
      // Silent media decay: the next read of some sector returns flipped
      // bytes with no I/O error. Only the block CRC stands between this and
      // serving garbage.
      const auto& slot = slots_[pick_active()];
      FaultSpec rot = one_shot();
      rot.corrupt_bytes = sched_rng_.next_range(1, kBitRotBytesMax);
      arm(slot.fault_prefix + "/bit_rot", rot);
    }
    if (sched_rng_.chance_ppm(row_.flap_ppm)) {
      start_flap();
    }
    advance_flaps();
    if (sched_rng_.chance_ppm(row_.slow_peer_ppm)) {
      start_slow_spell(step);
    }
    expire_slow_spells(step);
    for (auto& slot : slots_) {
      if (slot.active && slot.ae) {
        slot.ae->tick();
      }
    }
  }

  // A flap storm: one endpoint pair toggles cut/healed on every schedule step
  // until its toggle budget runs out — the pathological case for repair
  // protocols that assume a partition is either up or down for a while.
  void start_flap() {
    auto [a, b] = pick_link();
    usize toggles = sched_rng_.next_range(2, kFlapTogglesMax);
    if (a == b) {
      return;  // degenerate draw: the storm fizzles (rng already consumed)
    }
    flaps_.push_back(Flap{a, b, toggles, false});
    ++report_.flaps;
  }

  void advance_flaps() {
    for (auto it = flaps_.begin(); it != flaps_.end();) {
      if (it->cut) {
        net_.heal(it->a, it->b);
        it->cut = false;
      } else {
        net_.partition(it->a, it->b);
        it->cut = true;
      }
      if (--it->toggles_left == 0) {
        if (it->cut) {
          net_.heal(it->a, it->b);
        }
        it = flaps_.erase(it);
      } else {
        ++it;
      }
    }
  }

  // A sustained slow peer: serve_delay re-arms on EVERY serve for the spell's
  // length — latency asymmetry (one member consistently slower than the
  // others), not the one-shot hiccup of a delay event.
  void start_slow_spell(usize step) {
    usize i = pick_active();
    usize len = static_cast<usize>(sched_rng_.next_range(8, kSlowSpellStepsMax));
    FaultSpec spell;
    spell.probability_ppm = 1'000'000;
    spell.one_shot = false;
    spell.delay = kSlowPeerPolls;
    arm(slots_[i].node_prefix + "/serve_delay", spell);
    slow_until_[i] = step + len;
    ++report_.slow_spells;
  }

  void expire_slow_spells(usize step) {
    for (auto it = slow_until_.begin(); it != slow_until_.end();) {
      if (step >= it->second || !slots_[it->first].active) {
        FaultRegistry::global().disarm(slots_[it->first].node_prefix + "/serve_delay");
        it = slow_until_.erase(it);
      } else {
        ++it;
      }
    }
  }

  // Boots a brand-new member mid-schedule: the joiner starts with the grown
  // view; every pre-existing member rebalances against it, streaming the
  // shards whose owner set now includes the joiner (in-flight client ops keep
  // pumping underneath via the nodes' pump callbacks).
  void join_node(usize step) {
    usize i = slots_.size();
    slots_.emplace_back();
    boot_member(i);
    make_node(i);  // configures the joiner with the grown view
    for (usize j = 0; j < slots_.size(); ++j) {
      if (j != i && slots_[j].active && slots_[j].node) {
        rebalance_slot(j, step);
      }
    }
    client_->add_failover(slots_[i].addr, kPort);
    client_->set_cluster(view_);
    ++report_.joins;
    VNROS_LOG_DEBUG("chaos", "node %zu joined at step %zu", i, step);
  }

  // Graceful leave: the leaver rebalances into a view without itself, which
  // moves (acked) every shard it holds to the surviving owners. If any shard
  // could not be acked anywhere (partition, injected faults), the leave is
  // ABORTED — the member stays, keeping its data — rather than risking the
  // last intact copy.
  void leave_node(usize step) {
    usize i = pick_active();
    auto& slot = slots_[i];
    ClusterView candidate = view_;
    candidate.ring.remove_node(slot.id);
    candidate.directory.erase(slot.id);
    auto moved = slot.node->rebalance(candidate);
    if (!moved.ok() || moved.value().failed > 0) {
      slot.node->set_cluster_view(view_);  // restore membership belief
      ++report_.aborted_leaves;
      VNROS_LOG_DEBUG("chaos", "node %zu leave aborted at step %zu", i, step);
      return;
    }
    view_ = candidate;
    harvest_node_stats(slot);
    harvest_ae_stats(slot);
    auto& reg = FaultRegistry::global();
    reg.disarm_prefix(slot.fault_prefix);
    reg.disarm(slot.node_prefix + "/serve_delay");
    slot.ae.reset();
    slot.node.reset();
    slot.host.reset();
    slot.active = false;
    for (usize j = 0; j < slots_.size(); ++j) {
      if (slots_[j].active && slots_[j].node) {
        rebalance_slot(j, step);
      }
    }
    client_->set_cluster(view_);
    ++report_.leaves;
    VNROS_LOG_DEBUG("chaos", "node %zu left at step %zu", i, step);
  }

  // One member adopts the runner's current view and moves its shards.
  // Errors (an injected fault mid-rebalance) are survivable: the member has
  // adopted the view and keeps any block it failed to move, so the next
  // quiesce still finds every acked byte somewhere.
  void rebalance_slot(usize j, usize step) {
    auto st = slots_[j].node->rebalance(view_);
    if (!st.ok()) {
      VNROS_LOG_DEBUG("chaos", "node %zu rebalance error at step %zu: %s", j, step,
                      error_name(st.error()));
    }
  }

  void crash_node(usize i, usize step) {
    auto& reg = FaultRegistry::global();
    auto& slot = slots_[i];
    ++report_.crashes;

    // Global (per-process) sites are always quiesced across a reboot; the
    // node's own disk sites usually are too, but some crashes reboot with
    // them still armed — recovery must then either survive the fault or
    // fail loudly into the re-image + anti-entropy path.
    reg.disarm("syscall/io_error");
    reg.disarm("syscall/no_memory");
    reg.disarm("frame_alloc/oom");
    const bool dirty_reboot = sched_rng_.chance_ppm(300'000);
    if (!dirty_reboot) {
      reg.disarm_prefix(slot.fault_prefix);
    }
    // A crash kills the (possibly stalled) serving process; its armed
    // serve_delay dies with it.
    reg.disarm(slot.node_prefix + "/serve_delay");

    harvest_node_stats(slot);
    harvest_ae_stats(slot);
    slot.ae.reset();
    slot.node.reset();
    slot.host.reset();
    slot.disk->crash(kPersistPpm, kTornCrashPpm);

    // Probe recovery first so the runner knows whether the kernel's
    // format-on-failure fallback will engage (the probe is idempotent:
    // recover() re-checkpoints, so running it twice recovers the same state).
    const bool recoverable = [&] {
      auto probe = MemFs::recover(*slot.disk);
      return probe.ok();
    }();

    slot.host = std::make_unique<ChaosHost>(&net_, slot.disk.get(), /*recover=*/true, slot.addr);
    make_node(i);

    if (!recoverable) {
      ++report_.reimages;
      VNROS_LOG_DEBUG("chaos", "node %zu unrecoverable at step %zu: re-imaged", i, step);
      // Merkle passes against every live peer pull the surviving copies back
      // with their write stamps intact. Best-effort mid-schedule: a
      // partitioned or shedding peer just leaves divergence for the
      // background scheduler and the quiesce convergence loop to finish.
      if (!sync_with_peers(slot)) {
        (void)sync_with_peers(slot);
      }
      downgrade_lost_keys();
    }
  }

  // One Merkle pass from `slot` against every other live member. True when
  // every pass found matching roots.
  bool sync_with_peers(NodeSlot& slot) {
    bool all_clean = true;
    for (auto& peer : slots_) {
      if (&peer == &slot || !peer.active || !peer.node) {
        continue;
      }
      const u64 clean_before = slot.ae->stats().clean_passes;
      (void)slot.ae->sync_with(BsPeer{peer.addr, kPort});
      if (slot.ae->stats().clean_passes != clean_before + 1) {
        all_clean = false;
      }
    }
    return all_clean;
  }

  // A re-image destroys everything on one disk. A key whose acknowledged
  // state now survives on no replica was only ever held by the re-imaged
  // node (best-effort replication never reached a peer): that is legitimate
  // data loss under total-disk failure, not a correctness bug. Its certain
  // bytes become uncertain, and if no surviving inventory entry (live or
  // tombstone) reaches its acked floor the floor drops to zero — counted, so
  // the report shows how often the schedule forced it — instead of failing
  // the invariants on it later.
  void downgrade_lost_keys() {
    const auto views = node_views();
    std::map<std::string, u64> best;  // highest surviving stamp per key
    for (const auto& slot : slots_) {
      if (slot.node) {
        for (const auto& e : slot.node->list()) {
          best[e.key] = std::max(best[e.key], e.seq);
        }
      }
    }
    for (auto& [key, h] : histories_) {
      if (h.certain && !held(views, key, *h.certain)) {
        VNROS_LOG_DEBUG("chaos", "certain key %s lost with its only replica", key.c_str());
        h.certain.reset();
      }
      if (h.acked_floor != 0 && best[key] < h.acked_floor) {
        VNROS_LOG_DEBUG("chaos", "acked floor of %s lost with its only replica", key.c_str());
        h.acked_floor = 0;
        h.acked_is_del = false;
        ++report_.acked_floor_drops;
      }
    }
  }

  using NodeView = std::map<std::string, std::vector<u8>>;

  std::vector<NodeView> node_views() const {
    std::vector<NodeView> views;
    for (const auto& slot : slots_) {
      if (slot.node) {
        views.push_back(slot.node->view());
      }
    }
    return views;
  }

  static bool held(const std::vector<NodeView>& views, const std::string& key,
                   const std::vector<u8>& bytes) {
    for (const auto& view : views) {
      auto it = view.find(key);
      if (it != view.end() && it->second == bytes) {
        return true;
      }
    }
    return false;
  }

  // --- Client workload ------------------------------------------------------

  void client_op(usize step) {
    std::string key = "key" + std::to_string(sched_rng_.next_below(row_.keys));
    auto& h = histories_[key];
    ++report_.ops;
    const u64 kind = sched_rng_.next_below(1'000'000);
    if (kind < row_.del_ppm) {
      auto r = client_->del(key);
      record_write(h, {}, /*tombstone=*/true, r.ok());
      if (r.ok()) {
        ++report_.ops_ok;
      } else {
        ++report_.ops_failed;
      }
      // Acked or not, stale replicas may still hold (and later serve or
      // repair from) older values, so a delete only removes certainty.
      h.certain.reset();
    } else if (kind < row_.del_ppm + kGetPpm) {
      auto r = client_->get_with_seq(key);
      if (r.ok()) {
        ++report_.ops_ok;
        if (!h.wrote(r.value().first)) {
          fail(step, "get(" + key + ") returned bytes the client never wrote");
        } else {
          check_read(step, key, h, r.value().first, r.value().second);
        }
      } else {
        ++report_.ops_failed;  // kNotFound/corrupt/timeout: all acceptable
      }
    } else {
      std::vector<u8> value(sched_rng_.next_range(1, kMaxValueBytes));
      for (auto& b : value) {
        b = static_cast<u8>(sched_rng_.next_u64());
      }
      auto r = client_->put(key, value);
      record_write(h, value, /*tombstone=*/false, r.ok());
      if (r.ok()) {
        ++report_.ops_ok;
        h.certain = std::move(value);
      } else {
        // Unacked: the put may or may not have applied anywhere (it may even
        // have applied and destroyed the previous copy mid-overwrite), so
        // nothing about this key is certain any more.
        ++report_.ops_failed;
        h.certain.reset();
      }
    }
  }

  // Every attempted write lands in the key's history under the stamp the
  // client assigned it (retries reuse the stamp, so one op is one history
  // entry). Acked writes raise the key's acknowledged floor.
  void record_write(KeyHistory& h, std::vector<u8> value, bool tombstone, bool acked) {
    const u64 seq = client_->last_write_seq();
    h.writes.push_back(KeyHistory::Write{seq, std::move(value), tombstone, acked});
    if (acked && seq > h.acked_floor) {
      h.acked_floor = seq;
      h.acked_is_del = tombstone;
    }
  }

  // Checked at op time: a read that returns (bytes, stamp) must return
  // EXACTLY the bytes of the attempted write that owns the stamp — stamps
  // are globally unique, so a mismatch means a node spliced bytes across
  // writes (or served a tombstone as data).
  void check_read(usize step, const std::string& key, const KeyHistory& h,
                  const std::vector<u8>& bytes, u64 seq) {
    ++report_.lin_reads_checked;
    const KeyHistory::Write* w = h.find_seq(seq);
    if (w == nullptr) {
      fail(step, "lin: get(" + key + ") returned stamp " + std::to_string(seq) +
                     " that no write ever carried");
    } else if (w->tombstone) {
      fail(step, "lin: get(" + key + ") served bytes under delete stamp " + std::to_string(seq));
    } else if (w->bytes != bytes) {
      fail(step, "lin: get(" + key + ") bytes do not match the write at stamp " +
                     std::to_string(seq));
    }
  }

  // --- Invariant ------------------------------------------------------------

  void quiesce_and_check(usize step) {
    FaultRegistry::global().disarm_all();
    net_.heal_all();
    cuts_.clear();
    flaps_.clear();        // heal_all() flattened the storms
    slow_until_.clear();   // disarm_all() ended the spells
    set_admission_all(false);
    pump_n(256);  // drain every in-flight frame through the servers
    // Hinted-handoff convergence: with the fabric healed, a few delivery
    // passes must land every parked hint whose owner is still a member.
    for (int round = 0; round < 4; ++round) {
      for (auto& slot : slots_) {
        if (slot.active && slot.node) {
          (void)slot.node->deliver_hints();
        }
      }
      pump_n(32);
    }
    // Self-healing convergence: anti-entropy until every pair is clean, then
    // reclaim acknowledged tombstones (quiesce doubles as the gc_grace
    // barrier: the fabric is drained and every hint delivered, so no stale
    // datagram can race the reclaim), then converge again so a member that
    // missed a best-effort kTombstoneGc re-spreads its tombstone instead of
    // diverging.
    ++quiesces_;
    if (!ae_converge(step)) {
      return;
    }
    if (quiesces_ % kGcEvery == 0) {
      run_tombstone_gc();
      if (!ae_converge(step)) {
        return;
      }
    }
    set_admission_all(true);
    if (!check_heal_invariants(step)) {
      return;
    }

    const auto views = node_views();
    for (const auto& [key, h] : histories_) {
      for (usize j = 0; j < views.size(); ++j) {
        auto it = views[j].find(key);
        if (it != views[j].end() && !h.wrote(it->second)) {
          fail(step, "node " + std::to_string(j) + " stores garbage for " + key);
          return;
        }
      }
      if (h.certain && !held(views, key, *h.certain)) {
        for (usize j = 0; j < slots_.size(); ++j) {
          if (!slots_[j].node) {
            VNROS_LOG_DEBUG("chaos", "  slot %zu: departed", j);
            continue;
          }
          auto local = slots_[j].node->get(key);
          VNROS_LOG_DEBUG("chaos", "  slot %zu: get(%s) -> %s", j, key.c_str(),
                          local.ok() ? "stale bytes" : error_name(local.error()));
        }
        fail(step, "acked put of " + key + " readable on no node after quiesce");
        return;
      }
    }

    // Obs coherence across the cluster's whole history (incarnations are
    // accumulated at crash time). Every applied replica was pushed by some
    // peer — the runner's fabric never duplicates datagrams, so applications
    // can only lag, not lead — and every read repair was triggered by a
    // corrupt local read. Anti-entropy ships replicas through its own rpc
    // layer, not the node's push_acked, so its pushes are missing from
    // replicas_pushed: each repair rpc puts at most rpc_attempts datagrams on
    // the wire, bounding the replica applications it can have caused.
    BlockStoreStats total = cumulative_stats();
    u64 ae_rpcs = ae_rpcs_harvested_;
    for (const auto& slot : slots_) {
      if (slot.ae) {
        ae_rpcs += slot.ae->stats().rpcs;
      }
    }
    const u64 pushed_bound = total.replicas_pushed + ae_rpcs * ae_base_.rpc_attempts;
    if (total.replicas_applied > pushed_bound) {
      fail(step, "obs incoherence: " + std::to_string(total.replicas_applied) +
                     " replicas applied > " + std::to_string(pushed_bound) +
                     " pushed (incl. repair rpc bound)");
      return;
    }
    if (total.read_repairs > total.corrupt_reads) {
      fail(step, "obs incoherence: " + std::to_string(total.read_repairs) +
                     " read repairs > " + std::to_string(total.corrupt_reads) +
                     " corrupt reads");
      return;
    }
    // Membership belief agreement: after churn quiesces, every live member
    // holds the same ring (version + order-insensitive fingerprint) as the
    // runner's authoritative view.
    for (usize j = 0; j < slots_.size(); ++j) {
      if (!slots_[j].active || !slots_[j].node) {
        continue;
      }
      if (slots_[j].node->ring_version() != view_.ring.version() ||
          slots_[j].node->ring_fingerprint() != view_.ring.fingerprint()) {
        fail(step, "node " + std::to_string(j) + " ring belief diverged (version " +
                       std::to_string(slots_[j].node->ring_version()) + " vs " +
                       std::to_string(view_.ring.version()) + ")");
        return;
      }
    }
    // Hint coherence: a delivered hint was once written (across all
    // incarnations — the same park-then-drain shape as pushed/applied).
    if (total.hints_delivered > total.hints_written) {
      fail(step, "obs incoherence: " + std::to_string(total.hints_delivered) +
                     " hints delivered > " + std::to_string(total.hints_written) + " written");
      return;
    }
    ++report_.checks;
  }

  // Runs Merkle exchanges between every ordered pair of live members until a
  // full round comes back clean (every pass found matching roots). Bounded:
  // with the fabric healed this converges in a handful of rounds — each pass
  // strictly raises some key's seq somewhere or is clean — so a round limit
  // that trips means repair itself is broken.
  bool ae_converge(usize step) {
    for (int round = 0; round < 8; ++round) {
      bool all_clean = true;
      for (auto& slot : slots_) {
        if (slot.active && slot.ae && !sync_with_peers(slot)) {
          all_clean = false;
        }
      }
      pump_n(32);
      if (all_clean) {
        return true;
      }
    }
    fail(step, "anti-entropy failed to converge at quiesce");
    return false;
  }

  // Every live member reclaims its acknowledged tombstones. The first
  // member's pass usually clears the cluster (the ack round pushes the
  // tombstone to every peer and kTombstoneGc reclaims it there), leaving the
  // rest clean and cheap.
  void run_tombstone_gc() {
    for (auto& slot : slots_) {
      if (!slot.active || !slot.node) {
        continue;
      }
      (void)slot.node->gc_tombstones(64);
      pump_n(32);
    }
  }

  bool check_heal_invariants(usize step) {
    // Converged means CONVERGED: every live member's Merkle root must agree
    // (quiesce anti-entropy runs whole-inventory passes between all pairs, so
    // at this point the inventories are mirrors).
    std::vector<std::vector<BlockKeyInfo>> invs;
    std::vector<usize> inv_slot;
    for (usize j = 0; j < slots_.size(); ++j) {
      if (slots_[j].active && slots_[j].node) {
        invs.push_back(slots_[j].node->list());
        inv_slot.push_back(j);
      }
    }
    if (invs.empty()) {
      return true;
    }
    const u32 root0 = MerkleTree::build(invs[0]).root();
    for (usize k = 1; k < invs.size(); ++k) {
      if (MerkleTree::build(invs[k]).root() != root0) {
        fail(step, "merkle root of node " + std::to_string(inv_slot[k]) +
                       " diverges from node " + std::to_string(inv_slot[0]) +
                       " after anti-entropy");
        return false;
      }
    }
    // Roots agree, so invs[0] IS the converged cluster state. Check it
    // against every key's recorded history.
    std::map<std::string, const BlockKeyInfo*> converged;
    for (const auto& e : invs[0]) {
      converged[e.key] = &e;
    }
    for (const auto& [key, h] : histories_) {
      if (h.acked_floor == 0) {
        continue;  // nothing acknowledged (or the floor was lost to a re-image)
      }
      auto it = converged.find(key);
      if (it == converged.end()) {
        // Absent everywhere. Legal only if some attempted delete at or above
        // the floor may have landed and its tombstone has been reclaimed.
        bool del_covers = false;
        for (const auto& w : h.writes) {
          if (w.tombstone && w.seq >= h.acked_floor) {
            del_covers = true;
            break;
          }
        }
        if (!del_covers) {
          fail(step, "acked put of " + key + " vanished from the converged state");
          return false;
        }
        continue;
      }
      if (it->second->seq < h.acked_floor) {
        fail(step, "converged " + key + " at stamp " + std::to_string(it->second->seq) +
                       " older than acked floor " + std::to_string(h.acked_floor));
        return false;
      }
      if (h.acked_is_del && h.max_attempted_seq() <= h.acked_floor &&
          !it->second->tombstone) {
        fail(step, "resurrection: " + key + " live at stamp " +
                       std::to_string(it->second->seq) + " after acked delete at " +
                       std::to_string(h.acked_floor) + " with no later write");
        return false;
      }
    }
    return true;
  }

  void fail(usize step, const std::string& what) {
    report_.ok = false;
    report_.message = "chaos invariant violated at step " + std::to_string(step) + ": " + what +
                      " — replay with " + report_.replay +
                      " ./chaos_test --gtest_filter=ChaosReplay.FromEnv";
  }

  // Folds a node incarnation's obs counters into the run-cumulative totals.
  // Called right before a crash destroys the incarnation (its registry
  // counters stay put, but the rebooted node gets a fresh instance prefix)
  // and once per surviving node at finalize.
  void harvest_node_stats(const NodeSlot& slot) {
    if (slot.node) {
      BlockStoreStats s = slot.node->stats();
      report_.read_repairs += s.read_repairs;
      report_.replicas_pushed += s.replicas_pushed;
      report_.replicas_applied += s.replicas_applied;
      report_.corrupt_reads += s.corrupt_reads;
      report_.sheds += s.sheds;
      report_.stale_ignored += s.stale_ignored;
      report_.hints_written += s.hints_written;
      report_.hints_delivered += s.hints_delivered;
      report_.rebalanced += s.handoffs;
      report_.hints_dropped += s.hints_dropped;
      report_.tombstones_written += s.tombstones_written;
      report_.tombstones_gced += s.tombstones_gced;
    }
  }

  // Folds a repair scheduler's stats into the run totals (same lifecycle as
  // harvest_node_stats: at crash/leave before the incarnation dies, and once
  // per survivor at finalize).
  void harvest_ae_stats(const NodeSlot& slot) {
    if (slot.ae) {
      const RepairStats& s = slot.ae->stats();
      report_.ae_passes += s.passes;
      report_.ae_clean_passes += s.clean_passes;
      report_.ae_pulled += s.pulled;
      report_.ae_pushed += s.pushed;
      report_.ae_bytes += s.bytes_sent + s.bytes_received;
      ae_rpcs_harvested_ += s.rpcs;
    }
  }

  // Run-cumulative counter totals at this instant: everything harvested from
  // dead incarnations plus the live nodes' current values.
  BlockStoreStats cumulative_stats() const {
    BlockStoreStats total;
    total.replicas_pushed = report_.replicas_pushed;
    total.replicas_applied = report_.replicas_applied;
    total.corrupt_reads = report_.corrupt_reads;
    total.read_repairs = report_.read_repairs;
    total.sheds = report_.sheds;
    total.stale_ignored = report_.stale_ignored;
    total.hints_written = report_.hints_written;
    total.hints_delivered = report_.hints_delivered;
    for (const auto& slot : slots_) {
      if (slot.node) {
        BlockStoreStats s = slot.node->stats();
        total.replicas_pushed += s.replicas_pushed;
        total.replicas_applied += s.replicas_applied;
        total.corrupt_reads += s.corrupt_reads;
        total.read_repairs += s.read_repairs;
        total.sheds += s.sheds;
        total.stale_ignored += s.stale_ignored;
        total.hints_written += s.hints_written;
        total.hints_delivered += s.hints_delivered;
      }
    }
    return total;
  }

  void finalize_report() {
    for (const auto& slot : slots_) {
      harvest_node_stats(slot);
      harvest_ae_stats(slot);
      if (slot.disk) {
        // Devices outlive node incarnations, so bit-rot totals are read once
        // here instead of being harvested per reboot.
        report_.bit_rot_reads += slot.disk->stats().bit_rot_reads;
      }
    }
    auto& reg = FaultRegistry::global();
    report_.fault_fires = reg.total_fires();
    report_.ring_submit_fires = reg.site("syscall/ring_submit").stats().fires;
    report_.ring_complete_fires = reg.site("syscall/ring_complete").stats().fires;
    report_.client_failovers = client_->retry_stats().failovers;
    report_.client_retries = client_->retry_stats().retries;
    if (report_.message.empty()) {
      report_.ok = true;
      report_.message = "chaos schedule completed, invariant intact";
    }
  }

  // A running partition flap storm: `(a, b)` toggles cut/healed once per
  // schedule step until the toggle budget is spent.
  struct Flap {
    LinkAddr a = 0;
    LinkAddr b = 0;
    usize toggles_left = 0;
    bool cut = false;
  };

  const Preset& row_;
  const u64 seed_;
  Rng sched_rng_;
  AntiEntropyConfig ae_base_;  // every incarnation's repair config but its rng seed
  Network net_;
  std::vector<NodeSlot> slots_;
  std::unique_ptr<ChaosHost> client_host_;
  LinkAddr client_addr_ = 0;
  std::unique_ptr<BlockStoreClient> client_;
  std::vector<std::pair<LinkAddr, LinkAddr>> cuts_;
  ClusterView view_;  // the runner's authoritative membership
  std::vector<Flap> flaps_;              // running flap storms
  std::map<usize, usize> slow_until_;    // slot -> slow-spell expiry step
  std::map<std::string, KeyHistory> histories_;  // every key the client touched
  usize quiesces_ = 0;                   // GC cadence counter
  u64 ae_rpcs_harvested_ = 0;            // repair rpcs from dead incarnations
  ChaosReport report_;
};

}  // namespace

std::string_view chaos_preset_name(ChaosPreset preset) { return preset_row(preset).name; }

std::optional<ChaosPreset> chaos_preset_named(std::string_view name) {
  for (ChaosPreset p : kChaosPresets) {
    if (chaos_preset_name(p) == name) {
      return p;
    }
  }
  return std::nullopt;
}

std::span<const ChaosCounter> chaos_coverage(ChaosPreset preset) {
  return preset_row(preset).covers;
}

ChaosReport run_chaos(ChaosPreset preset, u64 seed) { return ChaosRunner(preset, seed).run(); }

}  // namespace vnros
