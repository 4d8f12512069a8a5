#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/cpu/cpu_model.h"
#include "src/uarch/cache.h"
#include "src/util/rng.h"

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

TEST(Cache, NeverTouchedSetIsEmptyAndProbesInstallNothing) {
  Cache c(SmallGeometry());
  EXPECT_FALSE(c.Contains(0x1000));
  c.EvictLine(0x1000);
  EXPECT_FALSE(c.Contains(0x1000));
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses(), 0u);
  // Touching one set leaves its neighbours unclaimed and empty.
  EXPECT_FALSE(c.Access(0x1000));
  EXPECT_FALSE(c.Contains(0x1040));
  c.EvictLine(0x1040);
  EXPECT_FALSE(c.Access(0x1040));  // the probes above installed nothing
  EXPECT_TRUE(c.Contains(0x1000));
  // FlushAll and Reset leave every set unclaimed again.
  c.FlushAll();
  EXPECT_FALSE(c.Contains(0x1000));
  c.EvictLine(0x1000);
  EXPECT_EQ(c.misses(), 2u);
  c.Reset();
  EXPECT_FALSE(c.Contains(0x1040));
  EXPECT_EQ(c.misses(), 0u);
}

// Reference cache: every way zero-initialised at construction, FlushAll
// invalidating every way one by one, Reset bumping the generation. Cache,
// which writes a set's ways only when it first touches the set, must agree
// with it on every return value and counter.
class EagerCache {
 public:
  explicit EagerCache(const CacheGeometry& geometry)
      : geometry_(geometry),
        num_sets_(geometry.size_bytes / geometry.line_bytes / geometry.ways),
        ways_(static_cast<size_t>(num_sets_) * geometry.ways) {}

  bool Access(uint64_t paddr) {
    const uint64_t line = paddr / geometry_.line_bytes;
    Way* base = SetBase(line);
    tick_++;
    for (uint32_t w = 0; w < geometry_.ways; w++) {
      if (base[w].gen == gen_ && base[w].tag == line) {
        base[w].lru = tick_;
        hits_++;
        return true;
      }
    }
    Way* victim = base;
    for (uint32_t w = 0; w < geometry_.ways; w++) {
      if (base[w].gen != gen_) {
        victim = &base[w];
        break;
      }
      if (base[w].lru < victim->lru) {
        victim = &base[w];
      }
    }
    misses_++;
    *victim = Way{line, tick_, gen_};
    return false;
  }
  bool Contains(uint64_t paddr) {
    const uint64_t line = paddr / geometry_.line_bytes;
    const Way* base = SetBase(line);
    for (uint32_t w = 0; w < geometry_.ways; w++) {
      if (base[w].gen == gen_ && base[w].tag == line) {
        return true;
      }
    }
    return false;
  }
  void EvictLine(uint64_t paddr) {
    const uint64_t line = paddr / geometry_.line_bytes;
    Way* base = SetBase(line);
    for (uint32_t w = 0; w < geometry_.ways; w++) {
      if (base[w].gen == gen_ && base[w].tag == line) {
        base[w].gen = 0;
      }
    }
  }
  void FlushAll() {
    for (Way& way : ways_) {
      way.gen = 0;
    }
  }
  void Reset() {
    gen_++;
    tick_ = 0;
    hits_ = 0;
    misses_ = 0;
  }
  uint32_t num_sets() const { return num_sets_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  struct Way {
    uint64_t tag = 0;
    uint64_t lru = 0;
    uint64_t gen = 0;
  };
  Way* SetBase(uint64_t line) {
    return &ways_[static_cast<size_t>(line & (num_sets_ - 1)) * geometry_.ways];
  }

  CacheGeometry geometry_;
  uint32_t num_sets_;
  std::vector<Way> ways_;
  uint64_t gen_ = 1;
  uint64_t tick_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

// Runs a seeded stream of `ops` calls on Cache and EagerCache side by side.
// Addresses concentrate on a few hot sets with more tags than ways (so LRU
// eviction and re-install run constantly) and spill onto random sets (so
// first touches, and probes of never-touched sets, happen throughout).
void ExpectMatchesEagerCache(const CacheGeometry& geometry, uint64_t seed, int ops) {
  Cache lazy(geometry);
  EagerCache eager(geometry);
  Rng rng(seed);
  const uint64_t sets = eager.num_sets();
  std::vector<uint64_t> hot_sets(8);
  for (uint64_t& set : hot_sets) {
    set = rng.NextBelow(sets);
  }
  const uint64_t tags = 2 * geometry.ways;
  for (int i = 0; i < ops; i++) {
    const uint64_t set =
        rng.NextBelow(4) == 0 ? rng.NextBelow(sets) : hot_sets[rng.NextBelow(hot_sets.size())];
    const uint64_t line = rng.NextBelow(tags) * sets + set;
    const uint64_t paddr = line * geometry.line_bytes + rng.NextBelow(geometry.line_bytes);
    const uint64_t op = rng.NextBelow(1000);
    if (op < 700) {
      ASSERT_EQ(lazy.Access(paddr), eager.Access(paddr)) << "op " << i << " Access " << paddr;
    } else if (op < 880) {
      ASSERT_EQ(lazy.Contains(paddr), eager.Contains(paddr)) << "op " << i << " Contains " << paddr;
    } else if (op < 990) {
      lazy.EvictLine(paddr);
      eager.EvictLine(paddr);
    } else if (op < 996) {
      lazy.FlushAll();
      eager.FlushAll();
    } else {
      lazy.Reset();
      eager.Reset();
    }
    ASSERT_EQ(lazy.hits(), eager.hits()) << "op " << i;
    ASSERT_EQ(lazy.misses(), eager.misses()) << "op " << i;
  }
}

TEST(Cache, MatchesEagerReferenceOnEveryCatalogGeometry) {
  // Each distinct L1D, L2 and L3 geometry of the CPU catalog.
  std::vector<CacheGeometry> geometries;
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    for (const CacheGeometry& g : {cpu.l1d, cpu.l2, cpu.l3}) {
      if (std::find(geometries.begin(), geometries.end(), g) == geometries.end()) {
        geometries.push_back(g);
      }
    }
  }
  ASSERT_GE(geometries.size(), 3u);
  const int ops_per_geometry = 120'000 / static_cast<int>(geometries.size()) + 1;
  for (size_t i = 0; i < geometries.size(); i++) {
    SCOPED_TRACE("geometry " + std::to_string(geometries[i].size_bytes) + "B/" +
                 std::to_string(geometries[i].ways) + "-way");
    ExpectMatchesEagerCache(geometries[i], 1000 + i, ops_per_geometry);
  }
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
