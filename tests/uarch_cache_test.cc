#include <gtest/gtest.h>

#include <vector>

#include "src/cpu/cpu_model.h"
#include "src/uarch/cache.h"

namespace specbench {
namespace {

CacheGeometry SmallGeometry() {
  // 4 sets x 2 ways x 64B lines.
  return CacheGeometry{512, 2, 64, 4};
}

TEST(Cache, MissThenHit) {
  Cache c(SmallGeometry());
  EXPECT_FALSE(c.Access(0x1000));
  EXPECT_TRUE(c.Access(0x1000));
  EXPECT_TRUE(c.Access(0x1038));  // same 64B line
  EXPECT_FALSE(c.Access(0x1040)); // next line
}

TEST(Cache, LruEviction) {
  Cache c(SmallGeometry());
  // Three lines mapping to the same set (stride = sets * line = 256B).
  c.Access(0x0000);
  c.Access(0x0100);
  c.Access(0x0000);   // touch line A so B is LRU
  c.Access(0x0200);   // evicts B
  EXPECT_TRUE(c.Contains(0x0000));
  EXPECT_FALSE(c.Contains(0x0100));
  EXPECT_TRUE(c.Contains(0x0200));
}

TEST(Cache, EvictLine) {
  Cache c(SmallGeometry());
  c.Access(0x1000);
  c.EvictLine(0x1000);
  EXPECT_FALSE(c.Contains(0x1000));
}

TEST(Cache, FlushAll) {
  Cache c(SmallGeometry());
  c.Access(0x1000);
  c.Access(0x2000);
  c.FlushAll();
  EXPECT_FALSE(c.Contains(0x1000));
  EXPECT_FALSE(c.Contains(0x2000));
}

TEST(Cache, ContainsDoesNotInstall) {
  Cache c(SmallGeometry());
  EXPECT_FALSE(c.Contains(0x1000));
  EXPECT_FALSE(c.Contains(0x1000));
  EXPECT_FALSE(c.Access(0x1000));  // still a miss: Contains did not install
}

TEST(Hierarchy, LatencyLadder) {
  const CpuModel& cpu = GetCpuModel(Uarch::kBroadwell);
  CacheHierarchy h(cpu);
  const uint32_t first = h.Access(0x4000);
  EXPECT_EQ(first, cpu.latency.mem_latency);
  const uint32_t second = h.Access(0x4000);
  EXPECT_EQ(second, cpu.l1d.latency_cycles);
  EXPECT_EQ(h.LevelOf(0x4000), 1);
}

TEST(Hierarchy, ClflushRemovesFromAllLevels) {
  CacheHierarchy h(GetCpuModel(Uarch::kBroadwell));
  h.Access(0x4000);
  h.Clflush(0x4000);
  EXPECT_EQ(h.LevelOf(0x4000), 0);
  EXPECT_EQ(h.Access(0x4000), GetCpuModel(Uarch::kBroadwell).latency.mem_latency);
}

TEST(Hierarchy, FlushL1KeepsL2) {
  const CpuModel& cpu = GetCpuModel(Uarch::kBroadwell);
  CacheHierarchy h(cpu);
  h.Access(0x4000);
  h.FlushL1();
  EXPECT_EQ(h.LevelOf(0x4000), 2);
  EXPECT_EQ(h.Access(0x4000), cpu.l2.latency_cycles);
}

TEST(Hierarchy, InclusiveInstall) {
  CacheHierarchy h(GetCpuModel(Uarch::kZen2));
  h.Access(0x9000);
  EXPECT_TRUE(h.l1().Contains(0x9000));
  EXPECT_TRUE(h.l2().Contains(0x9000));
  EXPECT_TRUE(h.l3().Contains(0x9000));
}

TEST(Tlb, HitAfterMiss) {
  Tlb tlb(64, 4);
  EXPECT_FALSE(tlb.Access(5, 1));
  EXPECT_TRUE(tlb.Access(5, 1));
}

TEST(Tlb, AsidTagging) {
  Tlb tlb(64, 4);
  tlb.Access(5, 1);
  EXPECT_FALSE(tlb.Access(5, 2));  // same page, different space: miss (PCID)
  EXPECT_TRUE(tlb.Access(5, 1));
}

TEST(Tlb, FlushAsidSelective) {
  Tlb tlb(64, 4);
  tlb.Access(5, 1);
  tlb.Access(6, 2);
  tlb.FlushAsid(1);
  EXPECT_FALSE(tlb.Contains(5, 1));
  EXPECT_TRUE(tlb.Contains(6, 2));
}

TEST(Tlb, FlushAllClearsEverything) {
  Tlb tlb(64, 4);
  tlb.Access(5, 1);
  tlb.Access(6, 2);
  tlb.FlushAll();
  EXPECT_FALSE(tlb.Contains(5, 1));
  EXPECT_FALSE(tlb.Contains(6, 2));
}

TEST(Tlb, SetAssocEviction) {
  Tlb tlb(16, 4);  // 4 sets x 4 ways
  // Pages mapping to set 0: multiples of 4. Fill 5 of them.
  for (uint64_t p = 0; p < 5; p++) {
    tlb.Access(p * 4, 1);
  }
  EXPECT_FALSE(tlb.Contains(0, 1));  // LRU evicted
  EXPECT_TRUE(tlb.Contains(16, 1));
}

TEST(FillBuffers, RecordAndClear) {
  FillBuffers fb(4);
  EXPECT_TRUE(fb.empty());
  fb.RecordFill(0x1000, 0xAA);
  fb.RecordFill(0x2000, 0xBB);
  EXPECT_EQ(fb.occupancy(), 2u);
  EXPECT_FALSE(fb.empty());
  fb.Clear();
  EXPECT_TRUE(fb.empty());
  EXPECT_EQ(fb.Sample(3), 0u);  // post-verw: nothing to leak
}

TEST(FillBuffers, SampleReturnsResidentValue) {
  FillBuffers fb(4);
  fb.RecordFill(0x1000, 0xAA);
  EXPECT_EQ(fb.Sample(0), 0xAAu);
}

TEST(FillBuffers, RingOverwrite) {
  FillBuffers fb(2);
  fb.RecordFill(1, 1);
  fb.RecordFill(2, 2);
  fb.RecordFill(3, 3);  // overwrites the oldest
  EXPECT_EQ(fb.occupancy(), 2u);
}

// Records the entries a store-buffer drain retires, in retirement order.
struct Retired {
  std::vector<StoreBuffer::Entry> entries;
  void operator()(const StoreBuffer::Entry& entry) { entries.push_back(entry); }
};

TEST(StoreBuffer, ForwardNewest) {
  StoreBuffer sb;
  Retired retired;
  sb.Push(0x100, 1, 10, 10, retired);
  sb.Push(0x100, 2, 20, 20, retired);
  const StoreBuffer::Entry* e = sb.FindNewest(0x100);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->value, 2u);
  EXPECT_TRUE(retired.entries.empty());
}

TEST(StoreBuffer, DrainResolvedKeepsOrder) {
  StoreBuffer sb;
  Retired pushed;
  sb.Push(0x100, 1, 10, 10, pushed);
  sb.Push(0x200, 2, 30, 30, pushed);
  Retired drained;
  sb.DrainResolved(15, drained);
  ASSERT_EQ(drained.entries.size(), 1u);
  EXPECT_EQ(drained.entries[0].value, 1u);
  EXPECT_EQ(sb.size(), 1u);
}

TEST(StoreBuffer, DrainResolvedStopsAtOldestUnresolved) {
  // A resolved store behind an unresolved one stays buffered.
  StoreBuffer sb;
  Retired retired;
  sb.Push(0x100, 1, 50, 50, retired);
  sb.Push(0x200, 2, 10, 10, retired);
  sb.DrainResolved(20, retired);
  EXPECT_TRUE(retired.entries.empty());
  EXPECT_EQ(sb.size(), 2u);
}

TEST(StoreBuffer, UnresolvedTracking) {
  StoreBuffer sb;
  Retired retired;
  EXPECT_FALSE(sb.HasUnresolved(0));
  sb.Push(0x100, 1, 50, 50, retired);
  EXPECT_TRUE(sb.HasUnresolved(10));
  EXPECT_FALSE(sb.HasUnresolved(50));
  EXPECT_EQ(sb.LatestResolveAt(10), 50u);
}

TEST(StoreBuffer, CapacityForcesDrain) {
  StoreBuffer sb(2);
  Retired retired;
  sb.Push(1, 1, 100, 100, retired);
  EXPECT_TRUE(retired.entries.empty());
  sb.Push(2, 2, 100, 100, retired);
  EXPECT_TRUE(retired.entries.empty());
  sb.Push(3, 3, 100, 100, retired);
  ASSERT_EQ(retired.entries.size(), 1u);
  EXPECT_EQ(retired.entries[0].paddr, 1u);
}

TEST(StoreBuffer, DrainAllRetiresInOrderAndEmpties) {
  StoreBuffer sb;
  Retired retired;
  sb.Push(0x100, 1, 100, 100, retired);
  sb.Push(0x200, 2, 10, 10, retired);
  EXPECT_EQ(sb.DrainAll(retired), 2u);
  ASSERT_EQ(retired.entries.size(), 2u);
  EXPECT_EQ(retired.entries[0].value, 1u);
  EXPECT_EQ(retired.entries[1].value, 2u);
  EXPECT_TRUE(sb.empty());
  EXPECT_EQ(sb.DrainAll(retired), 0u);
}

TEST(StoreBuffer, WordAliasing) {
  StoreBuffer sb;
  Retired retired;
  sb.Push(0x100, 7, 10, 10, retired);
  // Same 8-byte word, different byte offset: must alias.
  EXPECT_NE(sb.FindNewest(0x104), nullptr);
  EXPECT_EQ(sb.FindNewest(0x108), nullptr);
}

}  // namespace
}  // namespace specbench
