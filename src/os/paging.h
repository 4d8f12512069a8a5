// Page tables for the simulated kernel.
//
// A PageMapper holds, per address-space id (the value loaded into cr3), a
// sorted list of virtual regions with their backing physical range and
// permission bits. Under page table isolation each process owns *two*
// address spaces: the user one maps only user memory plus the kernel
// trampoline (per-cpu data, syscall table, stacks), the kernel one maps
// everything. Without PTI there is a single space where kernel data is
// mapped but supervisor-only — the Meltdown exposure.
#ifndef SPECTREBENCH_SRC_OS_PAGING_H_
#define SPECTREBENCH_SRC_OS_PAGING_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/uarch/memory.h"

namespace specbench {

// Simple bump allocator for simulated physical memory.
class PhysAllocator {
 public:
  explicit PhysAllocator(uint64_t base = 0x1000000) : next_(base) {}
  uint64_t Alloc(uint64_t bytes);

 private:
  uint64_t next_;
};

class PageMapper : public MemoryMap {
 public:
  struct Region {
    uint64_t start = 0;  // inclusive
    uint64_t end = 0;    // exclusive
    uint64_t paddr = 0;
    bool user_accessible = false;
    bool present = true;
  };

  // Adds a mapping [vaddr, vaddr+bytes) -> [paddr, ...) to space `asid`.
  // Regions must not overlap existing ones in the same space. Adding and
  // removing move the map's generation.
  void AddRegion(uint64_t asid, uint64_t vaddr, uint64_t bytes, uint64_t paddr,
                 bool user_accessible, bool present = true);
  // Removes any region starting exactly at `vaddr`; returns true if found.
  bool RemoveRegion(uint64_t asid, uint64_t vaddr);

  // A mapped translation's span is its region.
  Translation Translate(uint64_t vaddr, uint64_t asid, Mode mode) const override;

  size_t RegionCount(uint64_t asid) const;

 private:
  const Region* FindRegion(uint64_t asid, uint64_t vaddr) const;

  // asid -> its regions, sorted by start.
  std::map<uint64_t, std::vector<Region>> spaces_;
};

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_OS_PAGING_H_
