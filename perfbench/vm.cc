// vm_churn: the paper's Fig. 1b/1c path under real thread contention. One
// NR-replicated AddressSpace<PageTable> (Topology(4, 2): two replicas, TLB
// shootdown on unmap) is driven by four OS threads, each pinned to its own
// CPU where the host has one, each cycling over a private 1024-page window:
// map, four resolves, unmap. It is the only workload that does real NR
// combining, page-table walks and TLB IPIs; the resolves sit next to the
// writes so a write-path change that costs the read path shows.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "harness.h"
#include "src/hw/phys_mem.h"
#include "src/hw/tlb.h"
#include "src/hw/topology.h"
#include "src/kernel/frame_alloc.h"
#include "src/obs/registry.h"
#include "src/pt/address_space.h"
#include "src/pt/page_table.h"

namespace perfbench {
namespace {

using vnros::AddressSpace;
using vnros::ErrorCode;
using vnros::FrameAllocator;
using vnros::PAddr;
using vnros::PageTable;
using vnros::Perms;
using vnros::PhysMem;
using vnros::ThreadToken;
using vnros::TlbSystem;
using vnros::Topology;
using vnros::VAddr;

constexpr u32 kThreads = 4;
constexpr u32 kCores = 4;
constexpr u32 kCoresPerNode = 2;
constexpr u32 kWindowPages = 1024;
constexpr u32 kResolvesPerCycle = 4;
constexpr u64 kPhysFrames = u64{1} << 13;  // 32 MiB simulated memory
constexpr u64 kFrameRange = kPhysFrames - 1;
// Set-ups per run: half before the measured phase, half after it, so a slow
// moment of the host at one end moves setup_s less.
constexpr int kSetupReps = 24;
constexpr usize kKeepSpans = 5'000;  // per thread, in the span dump
constexpr double kWindowSeconds = 3;  // latency percentiles: median over windows
constexpr double kSliceSeconds = 0.5;  // traced run: alternating window length

VAddr va_of(u32 thread, u32 page) {
  return VAddr{(u64{thread} + 1) << 34 | (u64{page} * vnros::kPageSize)};
}

struct World {
  Topology topo{kCores, kCoresPerNode};
  PhysMem mem{kPhysFrames};
  FrameAllocator frames{mem, topo};
  TlbSystem tlbs{topo};
  AddressSpace<PageTable> as{mem, frames, topo, &tlbs};
  std::vector<ThreadToken> tokens;

  World() {
    for (u32 t = 0; t < kThreads; ++t) {
      tokens.push_back(as.register_thread(t % kCores));
    }
  }
};

enum Layer : u32 { kMap, kResolve, kUnmap };
const std::vector<std::string> kLayerNames = {"nr.map", "nr.resolve", "nr.unmap"};

struct ThreadStats {
  LatencyHistogram map, resolve, unmap, write;  // write = map + unmap of one cycle
  u64 calls = 0;
  u64 failed = 0;
  u64 wall_ns = 0;
  std::string first_error;
  std::unique_ptr<SpanLog> spans;
};

// One thread's loop: whole cycles until `stop`, so no page is left mapped
// and no op is left unfinished when the phase ends.
void churn(World& w, u32 t, VmOpStream& stream, const std::atomic<bool>& stop,
           ThreadStats& st) {
  pin_to_cpu(t);
  const ThreadToken& tok = w.tokens[t];
  SpanLog* log = st.spans.get();
  auto note = [&](const char* what, VAddr va) {
    ++st.failed;
    if (st.first_error.empty()) {
      st.first_error = format("thread %u: %s at va 0x%llx", t, what,
                              static_cast<unsigned long long>(va.value));
    }
  };
  u64 op_id = (u64{t} + 1) << 48;
  // Times one call into the address space; in a traced phase the same two
  // clock reads bound its span.
  auto timed = [&](Layer layer, auto&& call) {
    const u64 t0 = now_ns();
    if (log != nullptr) {
      log->open(layer, op_id, t0);
    }
    call();
    const u64 t1 = now_ns();
    if (log != nullptr) {
      log->close(t1);
    }
    return t1 - t0;
  };
  const u64 begin = now_ns();
  while (!stop.load(std::memory_order_relaxed)) {
    const VmOp op = stream.next();
    const VAddr va = va_of(t, op.page);
    const PAddr frame = PAddr::from_frame(op.frame);
    ++op_id;
    ErrorCode err = ErrorCode::kOk;
    const u64 map_ns =
        timed(kMap, [&] { err = w.as.map(tok, va, frame, vnros::kPageSize, Perms::rw()); });
    st.map.record(map_ns);
    if (err != ErrorCode::kOk) {
      note("map failed", va);
    }
    for (u32 r = 0; r < kResolvesPerCycle; ++r) {
      bool ok = false;
      st.resolve.record(timed(kResolve, [&] {
        auto got = w.as.resolve(tok, va);
        ok = got.ok() && got.value().paddr == frame;
      }));
      if (!ok) {
        note("resolve did not return the frame just mapped", va);
      }
    }
    const u64 unmap_ns = timed(kUnmap, [&] { err = w.as.unmap(tok, va); });
    st.unmap.record(unmap_ns);
    st.write.record(map_ns + unmap_ns);
    if (err != ErrorCode::kOk) {
      note("unmap failed", va);
    }
    st.calls += 2 + kResolvesPerCycle;
  }
  st.wall_ns += now_ns() - begin;
}

struct Phase {
  bool traced = false;  // windows of this phase record spans
  std::vector<ThreadStats> threads{kThreads};
  WindowedLatency map, resolve, unmap, write;
  u64 calls = 0;
  u64 failed = 0;
  u64 wall_ns = 0;
  u64 thread_wall_ns = 0;
  double ops_per_s = 0;
};

// One window: the threads churn for `seconds`, then their histograms are
// closed as one window of each kind. Successive windows into one Phase add up.
void run_window(World& w, std::vector<VmOpStream>& streams, double seconds, Phase& ph) {
  for (auto& st : ph.threads) {
    if (ph.traced && !st.spans) {
      st.spans = std::make_unique<SpanLog>(kLayerNames, kKeepSpans);
    }
  }
  std::atomic<bool> stop{false};
  const u64 start = now_ns();
  {
    std::vector<std::jthread> workers;
    for (u32 t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] { churn(w, t, streams[t], stop, ph.threads[t]); });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
  }
  ph.wall_ns += now_ns() - start;
  LatencyHistogram map, resolve, unmap, write;
  for (auto& st : ph.threads) {
    map.merge(st.map);
    resolve.merge(st.resolve);
    unmap.merge(st.unmap);
    write.merge(st.write);
    st.map.clear();
    st.resolve.clear();
    st.unmap.clear();
    st.write.clear();
    ph.calls += st.calls;
    ph.failed += st.failed;
    ph.thread_wall_ns += st.wall_ns;
    st.calls = st.failed = st.wall_ns = 0;
  }
  ph.map.close_window(map);
  ph.resolve.close_window(resolve);
  ph.unmap.close_window(unmap);
  ph.write.close_window(write);
  ph.ops_per_s = static_cast<double>(ph.calls) / (static_cast<double>(ph.wall_ns) / 1e9);
}

// A phase is a run of windows of kWindowSeconds; the last one takes the
// remainder, between half and one and a half window lengths.
void run_phase(World& w, std::vector<VmOpStream>& streams, double seconds, Phase& ph) {
  double left = seconds;
  while (left > 0) {
    const double len = left < 1.5 * kWindowSeconds ? left : kWindowSeconds;
    run_window(w, streams, len, ph);
    left -= len;
  }
}

// After the measured phases: every thread maps its whole window, the
// replicas are synced, and each replica's own table must resolve every page
// to the frame the harness mapped there.
void check_replicas_agree(World& w, u64 seed, RunResult& res) {
  std::vector<std::vector<PAddr>> want(kThreads);
  for (u32 t = 0; t < kThreads; ++t) {
    VmOpStream final_stream(seed ^ 0xF1A1ull, t, kWindowPages, kFrameRange);
    for (u32 p = 0; p < kWindowPages; ++p) {
      const PAddr frame = PAddr::from_frame(final_stream.next().frame);
      want[t].push_back(frame);
      if (w.as.map(w.tokens[t], va_of(t, p), frame, vnros::kPageSize, Perms::rw()) !=
          ErrorCode::kOk) {
        res.fail("final map failed");
      }
    }
  }
  for (const ThreadToken& tok : w.tokens) {
    w.as.sync(tok);
  }
  for (usize r = 0; r < w.as.num_replicas(); ++r) {
    const PageTable* table = w.as.peek(r).table();
    if (table == nullptr) {
      res.fail("replica " + std::to_string(r) + " has no table after sync");
      continue;
    }
    u64 mismatches = 0;
    for (u32 t = 0; t < kThreads; ++t) {
      for (u32 p = 0; p < kWindowPages; ++p) {
        auto got = table->resolve(va_of(t, p));
        if (!got.ok() || got.value().paddr != want[t][p]) {
          ++mismatches;
        }
      }
    }
    if (mismatches != 0) {
      res.fail("replica " + std::to_string(r) + " disagrees on " +
               std::to_string(mismatches) + " pages after sync");
    }
  }
  for (u32 t = 0; t < kThreads; ++t) {
    for (u32 p = 0; p < kWindowPages; ++p) {
      if (w.as.unmap(w.tokens[t], va_of(t, p)) != ErrorCode::kOk) {
        res.fail("final unmap failed");
      }
    }
  }
}

// The same op sequence as thread 0, on one thread, against a bare page table
// with no NR and no TLB: what map/resolve/unmap cost without replication.
struct BareTable {
  double map_ns = 0, resolve_ns = 0, unmap_ns = 0;
  u64 cycles = 0;
};

BareTable bare_page_table(u64 seed, double seconds, RunResult& res) {
  Topology topo(kCores, kCoresPerNode);
  PhysMem mem(kPhysFrames);
  FrameAllocator frames(mem, topo);
  auto created = PageTable::create(mem, frames);
  BareTable out;
  if (!created.ok()) {
    res.fail("PageTable::create failed");
    return out;
  }
  PageTable& pt = created.value();
  VmOpStream stream(seed, 0, kWindowPages, kFrameRange);
  LatencyHistogram map, resolve, unmap;
  const u64 deadline = now_ns() + static_cast<u64>(seconds * 1e9);
  while (now_ns() < deadline) {
    const VmOp op = stream.next();
    const VAddr va = va_of(0, op.page);
    const PAddr frame = PAddr::from_frame(op.frame);
    u64 t0 = now_ns();
    bool ok = pt.map_frame(va, frame, vnros::kPageSize, Perms::rw()).ok();
    u64 t1 = now_ns();
    map.record(t1 - t0);
    for (u32 r = 0; r < kResolvesPerCycle; ++r) {
      u64 r0 = now_ns();
      auto got = pt.resolve(va);
      u64 r1 = now_ns();
      resolve.record(r1 - r0);
      ok = ok && got.ok() && got.value().paddr == frame;
    }
    u64 u0 = now_ns();
    ok = pt.unmap(va).ok() && ok;
    unmap.record(now_ns() - u0);
    if (!ok) {
      res.fail("bare page table op failed");
      break;
    }
    ++out.cycles;
  }
  out.map_ns = map.quantile(0.5);
  out.resolve_ns = resolve.quantile(0.5);
  out.unmap_ns = unmap.quantile(0.5);
  return out;
}

std::string params_json() {
  return "{\"threads\":" + std::to_string(kThreads) + ",\"cores\":" + std::to_string(kCores) +
         ",\"cores_per_node\":" + std::to_string(kCoresPerNode) +
         ",\"window_pages\":" + std::to_string(kWindowPages) +
         ",\"resolves_per_cycle\":" + std::to_string(kResolvesPerCycle) +
         ",\"phys_frames\":" + std::to_string(kPhysFrames) +
         ",\"setup_reps\":" + std::to_string(kSetupReps) + "}";
}

void account(const Phase& ph, const char* name, RunResult& res) {
  res.attempted += ph.calls;
  res.failed += ph.failed;
  for (const auto& st : ph.threads) {
    if (!st.first_error.empty()) {
      res.fail(std::string(name) + ": " + st.first_error);
    }
  }
}

}  // namespace

RunResult run_vm(const Options& opt) {
  RunResult res;
  res.params_json = params_json();

  // Set-up: build the address space and register the threads. The last one
  // built is the one measured.
  std::vector<double> setups;
  std::unique_ptr<World> world;
  auto time_setups = [&](int reps) {
    for (int rep = 0; rep < reps; ++rep) {
      world.reset();
      const u64 t0 = now_ns();
      world = std::make_unique<World>();
      setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
  };
  time_setups(kSetupReps / 2);
  World& w = *world;
  std::vector<VmOpStream> streams;
  for (u32 t = 0; t < kThreads; ++t) {
    streams.emplace_back(opt.seed, t, kWindowPages, kFrameRange);
  }

  // Warm-up: first-touch faults, allocator and log warm paths.
  Phase warm;
  run_phase(w, streams, std::min(1.0, opt.seconds / 10), warm);
  account(warm, "warm-up", res);

  std::map<std::string, double> values;
  if (!opt.trace) {
    Phase ph;
    run_phase(w, streams, opt.seconds, ph);
    account(ph, "measured", res);
    const LatencySummary resolve = ph.resolve.summary();
    const LatencySummary write = ph.write.summary();
    values["ops_per_s"] = ph.ops_per_s;
    values["read_p50_us"] = resolve.p50_us;
    values["read_p99_us"] = resolve.p99_us;
    values["write_p50_us"] = write.p50_us;
    values["write_p99_us"] = write.p99_us;
    check_replicas_agree(w, opt.seed, res);
    values["peak_rss_mb"] = peak_rss_mb();
    // The other half of the set-ups replaces the measured address space.
    time_setups(kSetupReps - kSetupReps / 2);
    values["setup_s"] = median(setups);
    res.metrics = end_to_end_metrics(values, res);
    const LatencySummary map = ph.map.summary();
    const LatencySummary unmap = ph.unmap.summary();
    res.samples_json = "{\"map\":" + summary_json(map) + ",\"unmap\":" + summary_json(unmap) +
                       ",\"resolve\":" + summary_json(resolve) +
                       ",\"write\":" + summary_json(write) + "}";
    res.report.push_back(format("  ops/s %.0f   setup %.4f s (median of %d)", ph.ops_per_s,
                                median(setups), kSetupReps));
    res.report.push_back(latency_line("map", map));
    res.report.push_back(latency_line("unmap", unmap));
    res.report.push_back(latency_line("resolve", resolve));
    res.report.push_back(latency_line("map+unmap", write));
    return res;
  }

  // Traced run: untraced and traced windows alternate, so drift in the
  // host's speed lands on both sides alike. Spans and counter deltas come
  // from the traced windows only.
  Phase base, tr;
  tr.traced = true;
  NrCounters nr;
  u64 ipis = 0;
  const int slices = std::max(1, static_cast<int>(opt.seconds / (2 * kSliceSeconds)));
  const double slice = opt.seconds / (2 * slices);
  for (int i = 0; i < slices; ++i) {
    run_window(w, streams, slice, base);
    const NrCounters nr_before = read_nr_counters();
    const u64 ipis_before = w.tlbs.shootdown_stats().ipis;
    run_window(w, streams, slice, tr);
    nr.add_delta(nr_before, read_nr_counters());
    ipis += w.tlbs.shootdown_stats().ipis - ipis_before;
  }
  account(base, "untraced windows", res);
  account(tr, "traced windows", res);
  const BareTable bare = bare_page_table(opt.seed, std::min(2.0, opt.seconds / 5), res);
  check_replicas_agree(w, opt.seed, res);

  SpanLog merged(kLayerNames, 0);
  std::vector<const SpanLog*> logs;
  for (const auto& st : tr.threads) {
    merged.merge(*st.spans);
    logs.push_back(st.spans.get());
  }
  const double calls = static_cast<double>(tr.calls);
  const double unmaps = static_cast<double>(tr.unmap.pooled().count());
  put_nr_metrics(nr, values);
  values["hw.tlb.ipis_per_unmap"] = unmaps == 0 ? 0 : static_cast<double>(ipis) / unmaps;
  values["residual_ns_per_op"] =
      (static_cast<double>(tr.thread_wall_ns) - static_cast<double>(merged.root_ns())) / calls;
  values["obs.trace_overhead_frac"] = (base.ops_per_s - tr.ops_per_s) / base.ops_per_s;
  res.metrics = per_layer_metrics(values, res);

  const double map_p50_ns = tr.map.summary().p50_us * 1000.0;
  res.report.push_back("  per-layer table (4 threads; wall = summed thread time)");
  for (auto& l : layer_table(merged, tr.calls, tr.thread_wall_ns)) {
    res.report.push_back(l);
  }
  res.report.push_back(format("  pt.map_ns_p50 %.1f  pt.resolve_ns_p50 %.1f  pt.unmap_ns_p50 %.1f",
                            bare.map_ns, bare.resolve_ns, bare.unmap_ns));
  res.report.push_back(format("  nr.map_overhead_ns_p50 %.1f  (map p50 %.1f ns under NR)",
                            map_p50_ns - bare.map_ns, map_p50_ns));
  res.report.push_back(format("  ops/s untraced %.0f  traced %.0f  obs.trace_overhead_frac %.4f",
                            base.ops_per_s, tr.ops_per_s, values["obs.trace_overhead_frac"]));
  res.samples_json =
      "{\"layers\":" + layers_json(merged, tr.calls, tr.thread_wall_ns) +
      ",\"traced_map\":" + summary_json(tr.map.summary()) +
      ",\"traced_unmap\":" + summary_json(tr.unmap.summary()) +
      ",\"traced_resolve\":" + summary_json(tr.resolve.summary()) +
      ",\"pt_map_ns_p50\":" + fmt_num(bare.map_ns) +
      ",\"pt_resolve_ns_p50\":" + fmt_num(bare.resolve_ns) +
      ",\"pt_unmap_ns_p50\":" + fmt_num(bare.unmap_ns) +
      ",\"nr_map_overhead_ns_p50\":" + fmt_num(map_p50_ns - bare.map_ns) +
      ",\"pt_cycles\":" + std::to_string(bare.cycles) + "}";
  if (!opt.out_dir.empty() &&
      !write_spans(opt.out_dir + "/" + opt.run_name + ".spans.jsonl", logs)) {
    res.report.push_back("  (span dump could not be written)");
  }
  return res;
}

}  // namespace perfbench
