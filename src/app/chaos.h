// The chaos harness (robustness counterpart of the app VCs): a multi-node
// block-store cluster driven by a seed-replayable adversarial schedule.
//
// There is one schedule. A preset (ChaosPreset) is a named row of per-event
// rates for it in the table in chaos.cc; every event draws from the schedule
// Rng on every step, and a zero rate simply never fires. Every source of
// nondeterminism — client op mix, crash points, partition cuts, fault-site
// arming, torn-write lengths, crash-survival of cached sectors — derives from
// the (preset, seed) pair, so any failing run replays exactly from the
// `VNROS_CHAOS_PRESET=… VNROS_CHAOS_SEED=0x…` line printed in its message.
//
// Every run is a consistent-hash cluster (three initial members, two ring
// owners per key) whose client rides VTP streams. The schedule interleaves
// client put/get/delete operations with:
//   - node crashes (BlockDevice::crash with partial persistence and torn
//     sectors) followed by reboot + journal recovery at the same fabric
//     address (KernelConfig::link_addr); unrecoverable disks are re-imaged
//     (KernelConfig::format_on_recovery_failure) and repopulated by Merkle
//     anti-entropy from the surviving replicas, write stamps intact;
//   - network partitions (Network::partition/heal) that the client's
//     failover policy must route around, and partition flap storms;
//   - fault-site arming: per-node disk read/write errors, torn writes and
//     silent bit-rot, global syscall kIoError and frame-allocator OOM, the
//     two SysRing sites (submit kill, completion deferral), and one-shot or
//     sustained serve stalls (slow peers);
//   - membership churn (join/leave with rebalancing and hinted handoff) and
//     admission-control overload.
//
// After every `check_every` steps (and at the end) the runner quiesces —
// disarms every fault, heals every cut, drains the fabric, delivers hints,
// runs Merkle anti-entropy to convergence and acknowledgement-gated
// tombstone GC — and checks:
//   1. no garbage: every block any node stores, and every value any get
//      returned, is byte-identical to some value the client actually wrote
//      to that key;
//   2. acked durability: for every key whose last client op was a
//      *successful* put, the acked bytes are present on at least one node
//      (keys touched by failed/timed-out ops become "uncertain" — any
//      historical value or absence is acceptable, but never garbage);
//   3. linearizability against a "replicated sequenced register with
//      quiesce points": every read's (bytes, stamp) matches the write that
//      owns the stamp (checked at op time), the converged state carries at
//      least every acknowledged stamp, acknowledged deletes never resurrect,
//      and all live members' Merkle roots agree;
//   4. obs coherence: replicas applied never exceed replicas pushed (plus the
//      repair-rpc bound), read repairs never exceed corrupt reads, hints
//      delivered never exceed hints written, and every live member holds the
//      runner's ring.
//
// The global span tracer runs armed for the whole schedule, timestamped by
// the client kernel's virtual clock, so the span trace replays
// bit-identically from the seed along with everything else.
#ifndef VNROS_SRC_APP_CHAOS_H_
#define VNROS_SRC_APP_CHAOS_H_

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "src/base/types.h"

namespace vnros {

// The presets, in table order:
//   crash    — crashes, partitions and disk/syscall/OOM faults only;
//   churn    — plus join/leave rebalancing and one-shot serve stalls;
//   overload — churn with admission rationed well below the offered load;
//   heal     — churn plus a delete-heavy mix, bit-rot, flap storms and
//              sustained slow peers;
//   ring     — heal-style adversity with the SysRing fault sites armed often.
enum class ChaosPreset : u8 { kCrash, kChurn, kOverload, kHeal, kRing };

inline constexpr ChaosPreset kChaosPresets[] = {ChaosPreset::kCrash, ChaosPreset::kChurn,
                                                ChaosPreset::kOverload, ChaosPreset::kHeal,
                                                ChaosPreset::kRing};

struct ChaosReport {
  bool ok = false;
  std::string message;  // on failure: what broke, at which step, and the replay line
  std::string replay;   // env assignments that rerun exactly this schedule
  u64 seed = 0;

  // Schedule accounting (what the run actually exercised).
  u64 ops = 0;
  u64 ops_ok = 0;
  u64 ops_failed = 0;   // client-visible failures (timeouts, injected errors)
  u64 crashes = 0;
  u64 reimages = 0;     // recoveries that failed and fell back to re-format
  u64 partitions = 0;
  u64 heals = 0;
  u64 faults_armed = 0;
  u64 fault_fires = 0;  // FaultRegistry fires attributable to this run
  u64 ring_submit_fires = 0;    // fires of syscall/ring_submit (SQE killed)
  u64 ring_complete_fires = 0;  // fires of syscall/ring_complete (op deferred)
  u64 read_repairs = 0;
  // Cumulative across node reboots (obs counters are per-instance, so the
  // runner accumulates each incarnation's totals at crash/finalize time).
  u64 replicas_pushed = 0;
  u64 replicas_applied = 0;
  u64 corrupt_reads = 0;
  u64 spans_recorded = 0;  // span tracer events committed during the run
  u64 client_failovers = 0;
  u64 client_retries = 0;
  u64 checks = 0;       // invariant checkpoints passed

  // Membership and admission accounting.
  u64 joins = 0;
  u64 leaves = 0;
  u64 aborted_leaves = 0;  // graceful leaves that would have stranded a shard
  u64 rebalanced = 0;      // shards moved by join/leave rebalancing
  u64 hints_written = 0;
  u64 hints_delivered = 0;
  u64 sheds = 0;           // requests refused by admission control
  u64 stale_ignored = 0;   // replica writes refused as older than the local copy
  u64 delays_armed = 0;    // serve_delay stalls injected

  // Self-healing accounting.
  u64 tombstones_written = 0;  // sequenced deletes persisted (all incarnations)
  u64 tombstones_gced = 0;     // tombstones reclaimed after shard-wide acks
  u64 hints_dropped = 0;       // hints evicted by the per-peer cap
  u64 bit_rot_reads = 0;       // reads that silently returned flipped bytes
  u64 flaps = 0;               // partition flap storms started
  u64 slow_spells = 0;         // sustained slow-peer spells started
  u64 ae_passes = 0;           // Merkle exchanges run (background + quiesce)
  u64 ae_clean_passes = 0;     // exchanges where the roots already matched
  u64 ae_pulled = 0;           // blocks repaired by pulling from a peer
  u64 ae_pushed = 0;           // blocks repaired by pushing to a peer
  u64 ae_bytes = 0;            // repair wire bytes (requests + replies)
  u64 lin_reads_checked = 0;   // reads validated against the sequenced-register spec
  u64 acked_floor_drops = 0;   // keys downgraded after re-image data loss

  bool operator==(const ChaosReport&) const = default;
};

// Replay name lookup: "crash", "churn", "overload", "heal", "ring".
std::string_view chaos_preset_name(ChaosPreset preset);
std::optional<ChaosPreset> chaos_preset_named(std::string_view name);

// One entry of a preset's coverage row: a report counter that the preset's
// seed matrix, summed over its seeds, must drive above zero. A matrix that
// leaves one at zero has silently stopped testing what the preset claims.
struct ChaosCounter {
  std::string_view name;
  u64 ChaosReport::*field;
};
std::span<const ChaosCounter> chaos_coverage(ChaosPreset preset);

// Runs one seeded schedule of `preset` to completion (or first invariant
// violation). Uses the process-global FaultRegistry; do not run two chaos
// schedules concurrently in one process.
ChaosReport run_chaos(ChaosPreset preset, u64 seed);

}  // namespace vnros

#endif  // VNROS_SRC_APP_CHAOS_H_
