#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/os/paging.h"
#include "src/util/rng.h"

namespace specbench {
namespace {

TEST(PhysAllocator, PageAlignedBump) {
  PhysAllocator alloc(0x1000);
  const uint64_t a = alloc.Alloc(100);
  const uint64_t b = alloc.Alloc(kPageBytes + 1);
  const uint64_t c = alloc.Alloc(8);
  EXPECT_EQ(a, 0x1000u);
  EXPECT_EQ(b, 0x2000u);
  EXPECT_EQ(c, 0x4000u);
}

TEST(PageMapper, BasicTranslation) {
  PageMapper m;
  m.AddRegion(1, 0x10000, 0x2000, 0x90000, /*user=*/true);
  const Translation t = m.Translate(0x10808, 1, Mode::kUser);
  EXPECT_TRUE(t.valid);
  EXPECT_EQ(t.paddr, 0x90808u);
}

TEST(PageMapper, UnmappedIsInvalid) {
  PageMapper m;
  const Translation t = m.Translate(0x10000, 1, Mode::kKernel);
  EXPECT_FALSE(t.valid);
  EXPECT_FALSE(t.mapped);
}

TEST(PageMapper, AsidIsolation) {
  PageMapper m;
  m.AddRegion(1, 0x10000, 0x1000, 0x90000, true);
  EXPECT_TRUE(m.Translate(0x10000, 1, Mode::kUser).valid);
  EXPECT_FALSE(m.Translate(0x10000, 2, Mode::kUser).mapped);
}

TEST(PageMapper, SupervisorOnlyBlocksUserButNotKernel) {
  PageMapper m;
  m.AddRegion(1, 0x80000000, 0x1000, 0xA0000, /*user=*/false);
  const Translation user = m.Translate(0x80000000, 1, Mode::kUser);
  EXPECT_FALSE(user.valid);
  EXPECT_TRUE(user.mapped);            // the Meltdown surface
  EXPECT_FALSE(user.user_accessible);
  EXPECT_TRUE(m.Translate(0x80000000, 1, Mode::kKernel).valid);
}

TEST(PageMapper, GuestUserIsUserLike) {
  PageMapper m;
  m.AddRegion(1, 0x80000000, 0x1000, 0xA0000, /*user=*/false);
  EXPECT_FALSE(m.Translate(0x80000000, 1, Mode::kGuestUser).valid);
  EXPECT_TRUE(m.Translate(0x80000000, 1, Mode::kGuestKernel).valid);
}

TEST(PageMapper, NonPresentKeepsPaddr) {
  // The L1TF ingredient: a non-present PTE with a stale physical address.
  PageMapper m;
  m.AddRegion(1, 0x10000, 0x1000, 0x90000, true, /*present=*/false);
  const Translation t = m.Translate(0x10000, 1, Mode::kKernel);
  EXPECT_FALSE(t.valid);
  EXPECT_TRUE(t.mapped);
  EXPECT_FALSE(t.present);
  EXPECT_EQ(t.paddr, 0x90000u);
}

TEST(PageMapper, RemoveRegion) {
  PageMapper m;
  m.AddRegion(1, 0x10000, 0x1000, 0x90000, true);
  EXPECT_TRUE(m.RemoveRegion(1, 0x10000));
  EXPECT_FALSE(m.Translate(0x10000, 1, Mode::kKernel).mapped);
  EXPECT_FALSE(m.RemoveRegion(1, 0x10000));
}

TEST(PageMapper, AdjacentRegionsResolveCorrectly) {
  PageMapper m;
  m.AddRegion(1, 0x10000, 0x1000, 0x90000, true);
  m.AddRegion(1, 0x11000, 0x1000, 0xB0000, true);
  EXPECT_EQ(m.Translate(0x10FF8, 1, Mode::kUser).paddr, 0x90FF8u);
  EXPECT_EQ(m.Translate(0x11000, 1, Mode::kUser).paddr, 0xB0000u);
}

TEST(PageMapper, RegionCount) {
  PageMapper m;
  EXPECT_EQ(m.RegionCount(1), 0u);
  m.AddRegion(1, 0x10000, 0x1000, 0x90000, true);
  m.AddRegion(1, 0x20000, 0x1000, 0x91000, true);
  EXPECT_EQ(m.RegionCount(1), 2u);
}

// FindRegion remembers, per address space, the region it returned last. The
// memo is an index into the sorted regions, so removing the memoised region
// leaves it pointing at whichever region moved into that slot, or past the
// end. Neither may be mistaken for a hit.
TEST(PageMapper, TranslateAfterMemoisedRegionIsRemoved) {
  PageMapper m;
  m.AddRegion(1, 0x10000, 0x1000, 0x90000, true);
  m.AddRegion(1, 0x20000, 0x1000, 0xB0000, false);
  EXPECT_EQ(m.Translate(0x10010, 1, Mode::kUser).paddr, 0x90010u);  // memo: slot 0
  EXPECT_TRUE(m.RemoveRegion(1, 0x10000));
  // Slot 0 now holds the second region.
  EXPECT_FALSE(m.Translate(0x10010, 1, Mode::kUser).mapped);
  const Translation second = m.Translate(0x20010, 1, Mode::kUser);
  EXPECT_TRUE(second.mapped);
  EXPECT_FALSE(second.valid);
  EXPECT_EQ(second.paddr, 0xB0010u);
  // The memoised region is removed and the memo is past the end.
  EXPECT_TRUE(m.RemoveRegion(1, 0x20000));
  EXPECT_FALSE(m.Translate(0x20010, 1, Mode::kKernel).mapped);
  // A region inserted before the memoised one shifts it to another slot.
  m.AddRegion(1, 0x30000, 0x1000, 0xC0000, true);
  EXPECT_EQ(m.Translate(0x30008, 1, Mode::kUser).paddr, 0xC0008u);  // memo: slot 0
  m.AddRegion(1, 0x08000, 0x1000, 0xD0000, true);
  EXPECT_EQ(m.Translate(0x30008, 1, Mode::kUser).paddr, 0xC0008u);
  EXPECT_EQ(m.Translate(0x08008, 1, Mode::kUser).paddr, 0xD0008u);
}

// A copy carries the original's memo but owns its regions: changing one
// mapper never changes what the other translates.
TEST(PageMapper, TranslateThroughCopiedPageMapper) {
  PageMapper original;
  original.AddRegion(1, 0x10000, 0x1000, 0x90000, true);
  original.AddRegion(1, 0x20000, 0x1000, 0xB0000, true);
  EXPECT_EQ(original.Translate(0x20000, 1, Mode::kUser).paddr, 0xB0000u);  // memo: slot 1
  const PageMapper copy = original;
  EXPECT_TRUE(original.RemoveRegion(1, 0x20000));
  EXPECT_FALSE(original.Translate(0x20000, 1, Mode::kUser).mapped);
  EXPECT_EQ(copy.Translate(0x20000, 1, Mode::kUser).paddr, 0xB0000u);
  original.AddRegion(1, 0x20000, 0x1000, 0xE0000, false);
  EXPECT_EQ(original.Translate(0x20000, 1, Mode::kKernel).paddr, 0xE0000u);
  EXPECT_TRUE(copy.Translate(0x20000, 1, Mode::kUser).valid);
  EXPECT_EQ(copy.Translate(0x20000, 1, Mode::kUser).paddr, 0xB0000u);
  EXPECT_EQ(copy.Translate(0x10000, 1, Mode::kUser).paddr, 0x90000u);
}

// A linear-scan page table: the semantics FindRegion's binary search and
// memo must reproduce.
struct ReferenceRegion {
  uint64_t asid;
  uint64_t start;
  uint64_t end;
  uint64_t paddr;
  bool user_accessible;
  bool present;
};

struct ReferenceMapper {
  std::vector<ReferenceRegion> regions;

  bool Overlaps(uint64_t asid, uint64_t start, uint64_t end) const {
    for (const ReferenceRegion& r : regions) {
      if (r.asid == asid && start < r.end && r.start < end) {
        return true;
      }
    }
    return false;
  }
  bool Remove(uint64_t asid, uint64_t vaddr) {
    for (auto it = regions.begin(); it != regions.end(); ++it) {
      if (it->asid == asid && it->start == vaddr) {
        regions.erase(it);
        return true;
      }
    }
    return false;
  }
  Translation Translate(uint64_t vaddr, uint64_t asid, Mode mode) const {
    Translation t;
    for (const ReferenceRegion& r : regions) {
      if (r.asid == asid && r.start <= vaddr && vaddr < r.end) {
        t.mapped = true;
        t.present = r.present;
        t.user_accessible = r.user_accessible;
        t.paddr = r.paddr + (vaddr - r.start);
        const bool user_mode = mode == Mode::kUser || mode == Mode::kGuestUser;
        t.valid = r.present && (!user_mode || r.user_accessible);
        break;
      }
    }
    return t;
  }
  size_t Count(uint64_t asid) const {
    size_t n = 0;
    for (const ReferenceRegion& r : regions) {
      n += r.asid == asid ? 1 : 0;
    }
    return n;
  }
};

// A seeded stream of adds, removes and translations over several address
// spaces and every mode, each result compared field by field with the linear
// scan. Translations come in runs near one region (the memo's hits) mixed
// with boundary and random addresses (its misses), and the mapper is
// periodically replaced by a copy of itself.
TEST(PageMapper, MatchesLinearScanReferenceOnASeededStream) {
  constexpr uint64_t kAsids[] = {1, 2, 3, 0x40};
  constexpr Mode kModes[] = {Mode::kUser, Mode::kKernel, Mode::kGuestUser, Mode::kGuestKernel,
                             Mode::kHost};
  constexpr uint64_t kSlots = 48;  // page-sized slots per address space
  constexpr uint64_t kBase = 0x400000;
  constexpr int kOps = 40000;
  Rng rng(29);
  PageMapper mapper;
  ReferenceMapper ref;
  uint64_t near = kBase;  // the address the current translation run stays near
  int translations = 0;
  int mapped = 0;
  for (int op = 0; op < kOps; op++) {
    const uint64_t asid = kAsids[rng.NextBelow(4)];
    const uint64_t kind = rng.NextBelow(100);
    const std::string where = "op " + std::to_string(op);
    if (kind < 12) {
      const uint64_t start = kBase + kPageBytes * rng.NextBelow(kSlots);
      const uint64_t bytes = kPageBytes * rng.NextInRange(1, 4) - 8 * rng.NextBelow(2);
      if (ref.Overlaps(asid, start, start + bytes)) {
        continue;
      }
      const uint64_t paddr = 0x10000000 + kPageBytes * rng.NextBelow(1 << 16);
      const bool user = rng.NextBelow(2) == 0;
      const bool present = rng.NextBelow(5) != 0;
      mapper.AddRegion(asid, start, bytes, paddr, user, present);
      ref.regions.push_back({asid, start, start + bytes, paddr, user, present});
    } else if (kind < 20) {
      // Usually an existing region's start, sometimes an arbitrary slot.
      uint64_t space = asid;
      uint64_t vaddr = kBase + kPageBytes * rng.NextBelow(kSlots);
      if (!ref.regions.empty() && rng.NextBelow(4) != 0) {
        const ReferenceRegion r = ref.regions[rng.NextBelow(ref.regions.size())];
        space = r.asid;
        vaddr = r.start;
      }
      const bool removed = ref.Remove(space, vaddr);
      ASSERT_EQ(mapper.RemoveRegion(space, vaddr), removed) << where;
    } else if (kind < 21) {
      const PageMapper copy = mapper;
      mapper = copy;
    } else {
      const uint64_t pick = rng.NextBelow(8);
      if (pick == 0 && !ref.regions.empty()) {
        // Jump to a region's edge: its first byte, its last word, one past
        // its end or the word before it.
        const ReferenceRegion& r = ref.regions[rng.NextBelow(ref.regions.size())];
        const uint64_t edges[] = {r.start, r.end - 8, r.end, r.start - 8};
        near = edges[rng.NextBelow(4)];
      } else if (pick == 1) {
        near = kBase - kPageBytes + 8 * rng.NextBelow((kSlots + 6) * kPageBytes / 8);
      } else {
        near += 8 * rng.NextBelow(16);  // the run continues in the same place
      }
      const Mode mode = kModes[rng.NextBelow(5)];
      const Translation got = mapper.Translate(near, asid, mode);
      const Translation want = ref.Translate(near, asid, mode);
      ASSERT_EQ(got.mapped, want.mapped) << where;
      ASSERT_EQ(got.valid, want.valid) << where;
      ASSERT_EQ(got.present, want.present) << where;
      ASSERT_EQ(got.user_accessible, want.user_accessible) << where;
      ASSERT_EQ(got.paddr, want.paddr) << where;
      translations++;
      mapped += want.mapped ? 1 : 0;
    }
    ASSERT_EQ(mapper.RegionCount(asid), ref.Count(asid)) << where;
  }
  // The stream exercised both outcomes at volume.
  EXPECT_GT(translations, 30000);
  EXPECT_GT(mapped, translations / 4);
  EXPECT_GT(translations - mapped, translations / 10);
}

TEST(PageMapperDeathTest, OverlapAborts) {
  PageMapper m;
  m.AddRegion(1, 0x10000, 0x2000, 0x90000, true);
  EXPECT_DEATH(m.AddRegion(1, 0x11000, 0x1000, 0xC0000, true), "overlap");
}

}  // namespace
}  // namespace specbench
