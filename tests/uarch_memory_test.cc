// SparseMemory: the engine's paged physical memory. Covers word addressing
// at page boundaries, the no-allocation contract of reads from untouched
// pages, page recycling across Clear(), and the canonical snapshot the
// difftest oracle digests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "src/uarch/memory.h"

// Counts every heap allocation in this test binary, so a test can assert
// that a block of code allocates nothing.
namespace {
std::atomic<size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
// GCC pairs the free() below with the operator new it sees inlined at the
// call site and warns; this replacement pair is matched by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace specbench {
namespace {

// Heap allocations made while running `body`.
template <typename Body>
size_t AllocationsDuring(Body&& body) {
  const size_t before = g_allocations.load(std::memory_order_relaxed);
  body();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(SparseMemory, WordsOnBothSidesOfAPageBoundary) {
  SparseMemory m;
  const uint64_t boundary = 5 * kPageBytes;
  m.Write(boundary - 8, 11);  // last word of page 4
  m.Write(boundary, 22);      // first word of page 5
  EXPECT_EQ(m.Read(boundary - 8), 11u);
  EXPECT_EQ(m.Read(boundary), 22u);
  EXPECT_EQ(m.Read(boundary - 16), 0u);
  EXPECT_EQ(m.Read(boundary + 8), 0u);
  m.Write(boundary, 33);
  EXPECT_EQ(m.Read(boundary - 8), 11u);
  EXPECT_EQ(m.Read(boundary), 33u);
}

TEST(SparseMemory, UnalignedAddressesAliasOneWord) {
  SparseMemory m;
  m.Write(0x1003, 7);
  for (uint64_t addr = 0x1000; addr < 0x1008; addr++) {
    EXPECT_EQ(m.Read(addr), 7u) << std::hex << addr;
  }
  EXPECT_EQ(m.Read(0x0fff), 0u);
  EXPECT_EQ(m.Read(0x1008), 0u);
  m.Write(0x1006, 9);  // same word: overwrites
  EXPECT_EQ(m.Read(0x1000), 9u);
  const std::vector<std::pair<uint64_t, uint64_t>> want = {{0x1000, 9}};
  EXPECT_EQ(m.SortedNonZeroWords(), want);
}

TEST(SparseMemory, ReadOfAnUntouchedPageAllocatesNothing) {
  SparseMemory m;
  m.Write(0x1000, 1);
  uint64_t sum = 0;
  const size_t allocations = AllocationsDuring([&] {
    for (uint64_t page = 2; page < 64; page++) {
      sum += m.Read(page * kPageBytes + 0x18);
    }
    sum += m.Read(UINT64_MAX);
    sum += m.Read(0x1008);  // touched page, unwritten word
  });
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(sum, 0u);
  EXPECT_EQ(m.Read(0x1000), 1u);
}

TEST(SparseMemory, ClearedPagesReadZeroAndAreRecycled) {
  SparseMemory m;
  constexpr uint64_t kPages = 8;
  for (uint64_t addr = 0; addr < kPages * kPageBytes; addr += 8) {
    m.Write(addr, addr + 1);
  }
  m.Clear();
  for (uint64_t addr = 0; addr < kPages * kPageBytes; addr += 8) {
    ASSERT_EQ(m.Read(addr), 0u) << std::hex << addr;
  }
  EXPECT_TRUE(m.SortedNonZeroWords().empty());

  // Touching as many pages again, at other page numbers, reuses the cleared
  // pages: no allocation, and every word not written since reads 0.
  const uint64_t base = 100 * kPageBytes;
  const size_t allocations = AllocationsDuring([&] {
    for (uint64_t page = 0; page < kPages; page++) {
      m.Write(base + page * kPageBytes + 0x40, page + 1);
    }
  });
  EXPECT_EQ(allocations, 0u);
  for (uint64_t addr = base; addr < base + kPages * kPageBytes; addr += 8) {
    const uint64_t offset = addr - base;
    const uint64_t want = offset % kPageBytes == 0x40 ? offset / kPageBytes + 1 : 0;
    ASSERT_EQ(m.Read(addr), want) << std::hex << addr;
  }
  // Past the high-water footprint, a new page is allocated.
  EXPECT_GT(AllocationsDuring([&] { m.Write(base + kPages * kPageBytes, 1); }), 0u);
}

// The last-page cache must not outlive Clear(): a write to the page it
// held lands in a mapped page, not in the free list.
TEST(SparseMemory, WriteAfterClearToTheCachedPage) {
  SparseMemory m;
  m.Write(0x3008, 1);
  m.Clear();
  m.Write(0x3010, 2);
  const std::vector<std::pair<uint64_t, uint64_t>> want = {{0x3010, 2}};
  EXPECT_EQ(m.SortedNonZeroWords(), want);
  EXPECT_EQ(m.Read(0x3008), 0u);
}

TEST(SparseMemory, SortedNonZeroWordsAcrossPages) {
  SparseMemory m;
  m.Write(9 * kPageBytes + 0x10, 5);
  m.Write(0x2000, 3);
  m.Write(0x2ff8, 4);
  m.Write(3 * kPageBytes, 0);  // written zero: same as untouched
  m.Write(0x1008, 2);
  m.Write(0x1000, 1);
  m.Write(7 * kPageBytes, 6);
  m.Write(7 * kPageBytes, 0);  // overwritten to zero: dropped
  const std::vector<std::pair<uint64_t, uint64_t>> want = {
      {0x1000, 1}, {0x1008, 2}, {0x2000, 3}, {0x2ff8, 4}, {9 * kPageBytes + 0x10, 5}};
  EXPECT_EQ(m.SortedNonZeroWords(), want);
}

}  // namespace
}  // namespace specbench
