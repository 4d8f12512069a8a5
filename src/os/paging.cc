#include "src/os/paging.h"

#include <algorithm>

#include "src/util/check.h"

namespace specbench {

uint64_t PhysAllocator::Alloc(uint64_t bytes) {
  const uint64_t aligned = (bytes + kPageBytes - 1) & ~(kPageBytes - 1);
  const uint64_t result = next_;
  next_ += aligned;
  return result;
}

void PageMapper::AddRegion(uint64_t asid, uint64_t vaddr, uint64_t bytes, uint64_t paddr,
                           bool user_accessible, bool present) {
  SPECBENCH_CHECK(bytes > 0);
  std::vector<Region>& regions = spaces_[asid];
  Region region{vaddr, vaddr + bytes, paddr, user_accessible, present};
  auto it = std::lower_bound(
      regions.begin(), regions.end(), region,
      [](const Region& a, const Region& b) { return a.start < b.start; });
  if (it != regions.end()) {
    SPECBENCH_CHECK_MSG(region.end <= it->start, "overlapping page mapping");
  }
  if (it != regions.begin()) {
    SPECBENCH_CHECK_MSG(std::prev(it)->end <= region.start, "overlapping page mapping");
  }
  regions.insert(it, region);
  BumpGeneration();
}

bool PageMapper::RemoveRegion(uint64_t asid, uint64_t vaddr) {
  auto space = spaces_.find(asid);
  if (space == spaces_.end()) {
    return false;
  }
  auto& regions = space->second;
  for (auto it = regions.begin(); it != regions.end(); ++it) {
    if (it->start == vaddr) {
      regions.erase(it);
      BumpGeneration();
      return true;
    }
  }
  return false;
}

const PageMapper::Region* PageMapper::FindRegion(uint64_t asid, uint64_t vaddr) const {
  auto space = spaces_.find(asid);
  if (space == spaces_.end()) {
    return nullptr;
  }
  const std::vector<Region>& regions = space->second;
  // First region with start > vaddr; candidate is its predecessor.
  auto it = std::upper_bound(
      regions.begin(), regions.end(), vaddr,
      [](uint64_t value, const Region& r) { return value < r.start; });
  if (it == regions.begin()) {
    return nullptr;
  }
  --it;
  if (vaddr >= it->end) {
    return nullptr;
  }
  return &*it;
}

Translation PageMapper::Translate(uint64_t vaddr, uint64_t asid, Mode mode) const {
  Translation t;
  const Region* region = FindRegion(asid, vaddr);
  if (region == nullptr) {
    return t;  // unmapped
  }
  t.mapped = true;
  t.present = region->present;
  t.user_accessible = region->user_accessible;
  t.paddr = region->paddr + (vaddr - region->start);
  t.valid = AccessValid(region->present, region->user_accessible, mode);
  t.span_start = region->start;
  t.span_end = region->end;
  return t;
}

size_t PageMapper::RegionCount(uint64_t asid) const {
  auto space = spaces_.find(asid);
  return space == spaces_.end() ? 0 : space->second.size();
}

}  // namespace specbench
