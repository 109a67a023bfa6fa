// Unit tests for the hardware substrate: physical memory, MMU walks, TLB
// caching and shootdown, block device, network fabric, interrupts, timer.
#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
#include <span>
#include <vector>

#include "src/base/rng.h"
#include "src/hw/block_device.h"
#include "src/hw/interrupts.h"
#include "src/hw/mmu.h"
#include "src/hw/network.h"
#include "src/hw/phys_mem.h"
#include "src/hw/timer.h"
#include "src/hw/tlb.h"
#include "src/hw/topology.h"

namespace vnros {
namespace {

// --- Topology ------------------------------------------------------------------

TEST(TopologyTest, SingleNode) {
  Topology t = Topology::single_node(8);
  EXPECT_EQ(t.num_nodes(), 1u);
  for (CoreId c = 0; c < 8; ++c) {
    EXPECT_EQ(t.node_of_core(c), 0u);
  }
}

TEST(TopologyTest, EvenSplit) {
  Topology t(8, 4);
  EXPECT_EQ(t.num_nodes(), 2u);
  EXPECT_EQ(t.node_of_core(0), 0u);
  EXPECT_EQ(t.node_of_core(3), 0u);
  EXPECT_EQ(t.node_of_core(4), 1u);
  EXPECT_EQ(t.cores_on_node(1), (std::vector<CoreId>{4, 5, 6, 7}));
}

TEST(TopologyTest, RaggedSplit) {
  Topology t(7, 3);
  EXPECT_EQ(t.num_nodes(), 3u);
  EXPECT_EQ(t.cores_on_node(2), (std::vector<CoreId>{6}));
}

// --- PhysMem ---------------------------------------------------------------------

TEST(PhysMemTest, ReadBackWrites) {
  PhysMem mem(4);
  mem.write_u64(PAddr{8}, 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(mem.read_u64(PAddr{8}), 0xDEADBEEFCAFEF00Dull);
  mem.write_u8(PAddr{100}, 0x42);
  EXPECT_EQ(mem.read_u8(PAddr{100}), 0x42);
}

TEST(PhysMemTest, SpanIo) {
  PhysMem mem(2);
  std::vector<u8> data{1, 2, 3, 4, 5};
  mem.write(PAddr{kPageSize - 2}, data);  // crosses frame boundary
  std::vector<u8> back(5);
  mem.read(PAddr{kPageSize - 2}, back);
  EXPECT_EQ(back, data);
}

TEST(PhysMemTest, ZeroFrame) {
  PhysMem mem(2);
  mem.write_u64(PAddr{kPageSize + 16}, ~u64{0});
  mem.zero_frame(PAddr::from_frame(1));
  EXPECT_EQ(mem.read_u64(PAddr{kPageSize + 16}), 0u);
}

TEST(PhysMemTest, Contains) {
  PhysMem mem(1);
  EXPECT_TRUE(mem.contains(PAddr{0}, kPageSize));
  EXPECT_FALSE(mem.contains(PAddr{0}, kPageSize + 1));
  EXPECT_FALSE(mem.contains(PAddr{kPageSize}));
  // Overflow-safe.
  EXPECT_FALSE(mem.contains(PAddr{~u64{0}}, 2));
}

// Resident set size of this process, from /proc/self/statm (pages).
u64 resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  u64 size_pages = 0;
  u64 resident_pages = 0;
  statm >> size_pages >> resident_pages;
  EXPECT_TRUE(statm) << "cannot read /proc/self/statm";
  return resident_pages * static_cast<u64>(sysconf(_SC_PAGESIZE));
}

TEST(PhysMemTest, FreshMemoryReadsZero) {
  constexpr u64 kFrames = 2048;  // 8 MiB
  PhysMem mem(kFrames);
  for (u64 f = 0; f < kFrames; f += 97) {
    EXPECT_EQ(mem.read_u8(PAddr::from_frame(f)), 0) << f;
    EXPECT_EQ(mem.read_u8(PAddr{PAddr::from_frame(f).value + kPageSize - 1}), 0) << f;
  }
  EXPECT_EQ(mem.read_u64(PAddr::from_frame(kFrames - 1)), 0u);
  EXPECT_EQ(mem.read_u8(PAddr{kFrames * kPageSize - 1}), 0);
}

TEST(PhysMemTest, WriteThenZeroFrameReadsZero) {
  PhysMem mem(4);
  std::vector<u8> ones(kPageSize, 0xFF);
  mem.write(PAddr::from_frame(2), ones);
  mem.zero_frame(PAddr::from_frame(2));
  std::vector<u8> back(kPageSize, 0xAA);
  mem.read(PAddr::from_frame(2), back);
  EXPECT_EQ(back, std::vector<u8>(kPageSize, 0));
}

TEST(PhysMemTest, FrameSpanStaysInBounds) {
  PhysMem mem(8);
  std::span<u8> first = mem.frame_span(PAddr::from_frame(0));
  std::span<u8> last = mem.frame_span(PAddr::from_frame(7));
  EXPECT_EQ(last.size(), kPageSize);
  EXPECT_EQ(last.data(), first.data() + 7 * kPageSize);
  last[kPageSize - 1] = 0x5C;  // the very last byte of the machine
  EXPECT_EQ(mem.read_u8(PAddr{8 * kPageSize - 1}), 0x5C);
  const PhysMem& cmem = mem;
  EXPECT_EQ(cmem.frame_span(PAddr::from_frame(7)).data(), last.data());
}

TEST(PhysMemTest, UntouchedMemoryCostsNoResidentPages) {
  const u64 before = resident_bytes();
  PhysMem mem(kHugePageSize / kPageSize);  // a 1 GiB machine
  mem.write_u64(PAddr{kHugePageSize - 8}, 1);
  const u64 after = resident_bytes();
  EXPECT_LT(after, before + (u64{16} << 20)) << "before=" << before << " after=" << after;
  EXPECT_EQ(mem.read_u64(PAddr{0}), 0u);
}

TEST(PhysMemDeathTest, OutOfRangeAborts) {
  PhysMem mem(1);
  EXPECT_DEATH(mem.read_u64(PAddr{kPageSize}), "check clause");
  EXPECT_DEATH(mem.read_u64(PAddr{4}), "check clause");  // misaligned
  EXPECT_DEATH(mem.frame_span(PAddr::from_frame(1)), "check clause");
}

// --- MMU: hand-built page tables ----------------------------------------------------

class MmuFixture : public ::testing::Test {
 protected:
  MmuFixture() : mem(512), mmu(mem) {}

  // Builds a 4 KiB mapping va -> pa by hand, with the given leaf flags.
  void map_by_hand(PAddr cr3, VAddr va, PAddr pa, u64 leaf_flags) {
    PAddr pml4e = cr3.offset(pml4_index(va) * 8);
    PAddr pdpt = ensure_table(pml4e);
    PAddr pdpte = pdpt.offset(pdpt_index(va) * 8);
    PAddr pd = ensure_table(pdpte);
    PAddr pde = pd.offset(pd_index(va) * 8);
    PAddr pt = ensure_table(pde);
    mem.write_u64(pt.offset(pt_index(va) * 8), pa.value | leaf_flags);
  }

  PAddr ensure_table(PAddr entry_addr) {
    u64 entry = mem.read_u64(entry_addr);
    if ((entry & kPtePresent) != 0) {
      return PAddr{entry & kPteAddrMask};
    }
    PAddr table = PAddr::from_frame(next_frame_++);
    mem.zero_frame(table);
    mem.write_u64(entry_addr, table.value | kPtePresent | kPteWritable | kPteUser);
    return table;
  }

  PAddr fresh_root() {
    PAddr root = PAddr::from_frame(next_frame_++);
    mem.zero_frame(root);
    return root;
  }

  PhysMem mem;
  Mmu mmu;
  u64 next_frame_ = 1;
};

TEST_F(MmuFixture, TranslatesHandBuiltMapping) {
  PAddr cr3 = fresh_root();
  VAddr va{0x7000'1234'5000};
  PAddr pa = PAddr::from_frame(300);
  map_by_hand(cr3, va, pa, kPtePresent | kPteWritable | kPteUser);

  auto t = mmu.translate(cr3, va.offset(0x123), Access::kRead, Ring::kUser);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value().paddr, pa.offset(0x123));
  EXPECT_EQ(t.value().page_size, kPageSize);
  EXPECT_TRUE(t.value().writable);
}

TEST_F(MmuFixture, NotPresentFaults) {
  PAddr cr3 = fresh_root();
  auto t = mmu.translate(cr3, VAddr{0x1000}, Access::kRead, Ring::kSupervisor);
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.error(), ErrorCode::kNotMapped);
  auto f = mmu.probe_fault(cr3, VAddr{0x1000}, Access::kRead, Ring::kSupervisor);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, FaultKind::kNotPresent);
}

TEST_F(MmuFixture, WriteToReadOnlyFaults) {
  PAddr cr3 = fresh_root();
  VAddr va{0x4000'0000};
  map_by_hand(cr3, va, PAddr::from_frame(301), kPtePresent | kPteUser);
  EXPECT_TRUE(mmu.translate(cr3, va, Access::kRead, Ring::kUser).ok());
  auto w = mmu.translate(cr3, va, Access::kWrite, Ring::kUser);
  EXPECT_EQ(w.error(), ErrorCode::kNotPermitted);
}

TEST_F(MmuFixture, NxBlocksExecute) {
  PAddr cr3 = fresh_root();
  VAddr va{0x5000'0000};
  map_by_hand(cr3, va, PAddr::from_frame(302),
              kPtePresent | kPteWritable | kPteUser | kPteNoExecute);
  EXPECT_TRUE(mmu.translate(cr3, va, Access::kRead, Ring::kUser).ok());
  EXPECT_EQ(mmu.translate(cr3, va, Access::kExecute, Ring::kUser).error(),
            ErrorCode::kNotPermitted);
}

TEST_F(MmuFixture, SupervisorOnlyBlocksUser) {
  PAddr cr3 = fresh_root();
  VAddr va{0x6000'0000};
  // Leaf without the user bit.
  map_by_hand(cr3, va, PAddr::from_frame(303), kPtePresent | kPteWritable);
  EXPECT_EQ(mmu.translate(cr3, va, Access::kRead, Ring::kUser).error(),
            ErrorCode::kNotPermitted);
  EXPECT_TRUE(mmu.translate(cr3, va, Access::kRead, Ring::kSupervisor).ok());
}

TEST_F(MmuFixture, NonCanonicalRejected) {
  PAddr cr3 = fresh_root();
  EXPECT_EQ(mmu.translate(cr3, VAddr{kMaxVaddrExclusive}, Access::kRead, Ring::kUser).error(),
            ErrorCode::kInvalidArgument);
}

TEST_F(MmuFixture, LargePageLeaf) {
  PAddr cr3 = fresh_root();
  VAddr va{kLargePageSize * 5};
  PAddr big = PAddr{0};  // 2 MiB-aligned region at 0
  PAddr pml4e = cr3.offset(pml4_index(va) * 8);
  PAddr pdpt = ensure_table(pml4e);
  PAddr pdpte = pdpt.offset(pdpt_index(va) * 8);
  PAddr pd = ensure_table(pdpte);
  mem.write_u64(pd.offset(pd_index(va) * 8),
                big.value | kPtePresent | kPteWritable | kPteUser | kPtePageSize);
  auto t = mmu.translate(cr3, va.offset(0x12345), Access::kRead, Ring::kUser);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value().page_size, kLargePageSize);
  EXPECT_EQ(t.value().paddr, big.offset(0x12345));
}

TEST_F(MmuFixture, LoadStoreThroughTranslation) {
  PAddr cr3 = fresh_root();
  VAddr va{0x8000'0000};
  map_by_hand(cr3, va, PAddr::from_frame(304), kPtePresent | kPteWritable | kPteUser);
  ASSERT_TRUE(mmu.store_u64(cr3, va.offset(8), 0x1122334455667788ull, Ring::kUser).ok());
  auto v = mmu.load_u64(cr3, va.offset(8), Ring::kUser);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 0x1122334455667788ull);
  // The bytes physically live in frame 304.
  EXPECT_EQ(mem.read_u64(PAddr::from_frame(304).offset(8)), 0x1122334455667788ull);
}

TEST_F(MmuFixture, WalkStatsCount) {
  PAddr cr3 = fresh_root();
  VAddr va{0x9000'0000};
  map_by_hand(cr3, va, PAddr::from_frame(305), kPtePresent | kPteUser);
  mmu.reset_stats();
  (void)mmu.translate(cr3, va, Access::kRead, Ring::kUser);
  EXPECT_EQ(mmu.stats().walks, 1u);
  EXPECT_EQ(mmu.stats().walk_loads, 4u);  // 4-level walk
}

// --- TLB -------------------------------------------------------------------------------

TEST(TlbTest, CachesAndInvalidates) {
  PhysMem mem(512);
  Mmu mmu(mem);
  Topology topo(2, 1);
  TlbSystem tlbs(topo);

  // Hand-build one mapping.
  PAddr cr3 = PAddr::from_frame(1);
  mem.zero_frame(cr3);
  PAddr pdpt = PAddr::from_frame(2), pd = PAddr::from_frame(3), pt = PAddr::from_frame(4);
  for (PAddr t : {pdpt, pd, pt}) {
    mem.zero_frame(t);
  }
  VAddr va{0x1234000};
  constexpr u64 kDir = kPtePresent | kPteWritable | kPteUser;
  mem.write_u64(cr3.offset(pml4_index(va) * 8), pdpt.value | kDir);
  mem.write_u64(pdpt.offset(pdpt_index(va) * 8), pd.value | kDir);
  mem.write_u64(pd.offset(pd_index(va) * 8), pt.value | kDir);
  mem.write_u64(pt.offset(pt_index(va) * 8), PAddr::from_frame(10).value | kDir);

  ASSERT_TRUE(tlbs.translate(mmu, cr3, 0, va, Access::kRead, Ring::kUser).ok());
  EXPECT_EQ(tlbs.core(0).stats().misses, 1u);
  ASSERT_TRUE(tlbs.translate(mmu, cr3, 0, va.offset(8), Access::kRead, Ring::kUser).ok());
  EXPECT_EQ(tlbs.core(0).stats().hits, 1u);

  // Unmapping in memory alone leaves the cached translation visible.
  mem.write_u64(pt.offset(pt_index(va) * 8), 0);
  EXPECT_TRUE(tlbs.translate(mmu, cr3, 0, va, Access::kRead, Ring::kUser).ok());
  // Shootdown removes it everywhere.
  tlbs.shootdown(0, va);
  EXPECT_FALSE(tlbs.translate(mmu, cr3, 0, va, Access::kRead, Ring::kUser).ok());
  EXPECT_EQ(tlbs.shootdown_stats().shootdowns, 1u);
  EXPECT_EQ(tlbs.shootdown_stats().ipis, 1u);  // one remote core
}

TEST(TlbTest, PermissionFaultFromCache) {
  PhysMem mem(64);
  Mmu mmu(mem);
  Topology topo(1, 1);
  TlbSystem tlbs(topo);
  CoreTlb& tlb = tlbs.core(0);
  // Insert a read-only translation directly (as if walked).
  Translation t{PAddr::from_frame(9), PAddr::from_frame(9), kPageSize, false, true, false};
  tlb.insert(VAddr{0x5000}, t);
  auto r = tlbs.translate(mmu, PAddr::from_frame(1), 0, VAddr{0x5000}, Access::kWrite,
                          Ring::kUser);
  EXPECT_EQ(r.error(), ErrorCode::kNotPermitted);
}

TEST(TlbTest, CapacityEviction) {
  CoreTlb tlb(2);
  Translation t{PAddr{0}, PAddr{0}, kPageSize, true, true, false};
  tlb.insert(VAddr{1 * kPageSize}, t);
  tlb.insert(VAddr{2 * kPageSize}, t);
  tlb.insert(VAddr{3 * kPageSize}, t);  // evicts something
  int present = 0;
  for (u64 p = 1; p <= 3; ++p) {
    if (tlb.lookup(VAddr{p * kPageSize}).has_value()) {
      ++present;
    }
  }
  EXPECT_EQ(present, 2);
}

// --- Block device ------------------------------------------------------------------------

TEST(BlockDeviceTest, WriteReadFlushCycle) {
  BlockDevice dev(16);
  std::vector<u8> data(kSectorSize, 0x77);
  ASSERT_TRUE(dev.write(3, data).ok());
  std::vector<u8> back(kSectorSize);
  ASSERT_TRUE(dev.read(3, back).ok());
  EXPECT_EQ(back, data);
  EXPECT_EQ(dev.dirty_sectors(), 1u);
  dev.flush();
  EXPECT_EQ(dev.dirty_sectors(), 0u);
  ASSERT_TRUE(dev.read(3, back).ok());
  EXPECT_EQ(back, data);
}

TEST(BlockDeviceTest, CrashAllPersist) {
  BlockDevice dev(16);
  std::vector<u8> data(kSectorSize, 0x31);
  (void)dev.write(1, data);
  dev.crash(1'000'000);  // 100% persistence = behaves like flush
  std::vector<u8> back(kSectorSize);
  (void)dev.read(1, back);
  EXPECT_EQ(back, data);
}

TEST(BlockDeviceTest, SnapshotMatchesStableOnly) {
  BlockDevice dev(4);
  std::vector<u8> data(kSectorSize, 0xEE);
  (void)dev.write(0, data);
  auto snap = dev.snapshot_stable();
  EXPECT_EQ(snap[0], 0);  // unflushed write not in stable media
  dev.flush();
  snap = dev.snapshot_stable();
  EXPECT_EQ(snap[0], 0xEE);
}

TEST(BlockDeviceTest, FreshDeviceReadsZeroEverywhere) {
  BlockDevice dev(16384);  // 8 MiB of media
  std::vector<u8> back(kSectorSize);
  const std::vector<u8> zeros(kSectorSize, 0);
  for (u64 s = 0; s < dev.num_sectors(); ++s) {
    ASSERT_TRUE(dev.read(s, back).ok());
    ASSERT_EQ(back, zeros) << "sector " << s;
  }
  EXPECT_EQ(dev.snapshot_stable(), std::vector<u8>(dev.num_sectors() * kSectorSize, 0));
}

TEST(BlockDeviceTest, OutOfRangeIsTypedErrorNeverClamps) {
  BlockDevice dev(16);
  std::vector<u8> buf(kSectorSize, 0xAB);
  auto r = dev.read(16, buf);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), ErrorCode::kOutOfRange);
  auto w = dev.write(u64{1} << 40, buf);
  ASSERT_FALSE(w.ok());
  EXPECT_EQ(w.error(), ErrorCode::kOutOfRange);
  // The failed calls touched nothing: the last valid sector is intact.
  std::vector<u8> back(kSectorSize, 0xFF);
  ASSERT_TRUE(dev.read(15, back).ok());
  EXPECT_EQ(back, std::vector<u8>(kSectorSize, 0));
}

TEST(BlockDeviceTest, WrongSizeSpanIsInvalidArgument) {
  BlockDevice dev(16);
  std::vector<u8> small(kSectorSize - 1, 0);
  std::vector<u8> big(kSectorSize + 1, 0);
  EXPECT_EQ(dev.read(0, small).error(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(dev.write(0, small).error(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(dev.read(0, big).error(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(dev.write(0, big).error(), ErrorCode::kInvalidArgument);
}

TEST(BlockDeviceTest, InjectedReadAndWriteErrors) {
  BlockDevice dev(16, 0x5EC70Full, "hwtest/dev");
  auto& reg = FaultRegistry::global();
  std::vector<u8> data(kSectorSize, 0x11);
  ASSERT_TRUE(dev.write(2, data).ok());

  FaultSpec spec;
  spec.probability_ppm = 1'000'000;
  spec.one_shot = true;
  reg.arm("hwtest/dev/read_error", spec);
  std::vector<u8> back(kSectorSize);
  auto r = dev.read(2, back);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), ErrorCode::kIoError);
  ASSERT_TRUE(dev.read(2, back).ok());  // one-shot: next read succeeds
  EXPECT_EQ(back, data);

  reg.arm("hwtest/dev/write_error", spec);
  auto w = dev.write(3, data);
  ASSERT_FALSE(w.ok());
  EXPECT_EQ(w.error(), ErrorCode::kIoError);
  // A plain injected write error drops the write entirely.
  ASSERT_TRUE(dev.read(3, back).ok());
  EXPECT_EQ(back, std::vector<u8>(kSectorSize, 0));

  EXPECT_EQ(dev.stats().injected_read_errors, 1u);
  EXPECT_EQ(dev.stats().injected_write_errors, 1u);
  reg.disarm_prefix("hwtest/dev/");
}

TEST(BlockDeviceTest, TornWriteAppliesStrictPrefixThenFails) {
  BlockDevice dev(16, 0x7EA4ull, "hwtest/torndev");
  auto& reg = FaultRegistry::global();
  std::vector<u8> old_data(kSectorSize, 0x22);
  ASSERT_TRUE(dev.write(5, old_data).ok());

  FaultSpec spec;
  spec.probability_ppm = 1'000'000;
  spec.one_shot = true;
  reg.arm("hwtest/torndev/torn_write", spec);
  std::vector<u8> new_data(kSectorSize, 0x33);
  auto w = dev.write(5, new_data);
  ASSERT_FALSE(w.ok());
  EXPECT_EQ(w.error(), ErrorCode::kIoError);

  // The sector now holds a nonempty strict prefix of the new data over the
  // old content: first byte is new, last byte is still old.
  std::vector<u8> back(kSectorSize);
  ASSERT_TRUE(dev.read(5, back).ok());
  EXPECT_EQ(back[0], 0x33);
  EXPECT_EQ(back[kSectorSize - 1], 0x22);
  EXPECT_EQ(dev.stats().torn_writes, 1u);

  // A torn write to a sector never written tears over the media's zeros.
  reg.arm("hwtest/torndev/torn_write", spec);
  ASSERT_FALSE(dev.write(9, new_data).ok());
  ASSERT_TRUE(dev.read(9, back).ok());
  EXPECT_EQ(back[0], 0x33);
  EXPECT_EQ(back[kSectorSize - 1], 0);
  reg.disarm_prefix("hwtest/torndev/");
}

// --- Network fabric -------------------------------------------------------------------------

TEST(NetworkTest, PointToPoint) {
  Network net;
  NetDevice& a = net.attach();
  NetDevice& b = net.attach();
  ASSERT_TRUE(a.send(b.addr(), {1, 2, 3}).ok());
  auto f = b.poll_rx();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->src, a.addr());
  EXPECT_EQ(f->payload, (std::vector<u8>{1, 2, 3}));
  EXPECT_FALSE(a.poll_rx().has_value());
}

TEST(NetworkTest, LossDropsFrames) {
  FabricConfig config;
  config.loss_ppm = 1'000'000;  // everything lost
  Network net(config);
  NetDevice& a = net.attach();
  NetDevice& b = net.attach();
  for (int i = 0; i < 10; ++i) {
    (void)a.send(b.addr(), {0});
  }
  EXPECT_EQ(b.rx_pending(), 0u);
  EXPECT_EQ(net.frames_lost(), 10u);
}

TEST(NetworkTest, DuplicationDelivers2x) {
  FabricConfig config;
  config.dup_ppm = 1'000'000;
  Network net(config);
  NetDevice& a = net.attach();
  NetDevice& b = net.attach();
  (void)a.send(b.addr(), {9});
  EXPECT_EQ(b.rx_pending(), 2u);
}

TEST(NetworkTest, ReorderHoldsAndReleases) {
  FabricConfig config;
  config.reorder_ppm = 1'000'000;
  Network net(config);
  NetDevice& a = net.attach();
  NetDevice& b = net.attach();
  (void)a.send(b.addr(), {1});
  // Frame 1 is held; with 100% reorder, frame 2 is held as well, but
  // sending it first releases frame 1 behind it.
  (void)a.send(b.addr(), {2});
  net.release_held();
  std::vector<u8> order;
  while (auto f = b.poll_rx()) {
    order.push_back(f->payload[0]);
  }
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);  // released behind the second send
  EXPECT_EQ(order[1], 2);
}

// --- Interrupts / timer -----------------------------------------------------------------------

TEST(InterruptTest, PerCoreMasks) {
  InterruptController irq(3);
  irq.raise(1, 7);
  EXPECT_EQ(irq.next_pending(0), kNumIrqVectors);
  EXPECT_EQ(irq.next_pending(1), 7u);
  EXPECT_TRUE(irq.ack(1, 7));
  EXPECT_EQ(irq.next_pending(1), kNumIrqVectors);
}

TEST(TimerTest, MonotoneAdvance) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.advance(5);
  clock.advance(3);
  EXPECT_EQ(clock.now(), 8u);
}

}  // namespace
}  // namespace vnros
