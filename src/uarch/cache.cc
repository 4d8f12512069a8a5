#include "src/uarch/cache.h"

#include <algorithm>

#include "src/util/check.h"

namespace specbench {

namespace {

// Returns true if n is a power of two.
bool IsPow2(uint32_t n) { return n != 0 && (n & (n - 1)) == 0; }

}  // namespace

Cache::Cache(const CacheGeometry& geometry) : geometry_(geometry) {
  SPECBENCH_CHECK(geometry_.ways > 0);
  SPECBENCH_CHECK(geometry_.line_bytes > 0);
  const uint32_t lines = geometry_.size_bytes / geometry_.line_bytes;
  SPECBENCH_CHECK(lines >= geometry_.ways);
  num_sets_ = lines / geometry_.ways;
  SPECBENCH_CHECK(IsPow2(num_sets_));
  ways_.reset(new Way[static_cast<size_t>(num_sets_) * geometry_.ways]);
  set_gen_.resize(num_sets_);
}

bool Cache::Contains(uint64_t paddr) const {
  const uint64_t line = LineOf(paddr);
  const uint32_t set = SetOf(line);
  if (!Claimed(set)) {
    return false;
  }
  const Way* base = SetBase(set);
  for (uint32_t w = 0; w < geometry_.ways; w++) {
    if (base[w].gen == gen_ && base[w].tag == line) {
      return true;
    }
  }
  return false;
}

void Cache::EvictLine(uint64_t paddr) {
  const uint64_t line = LineOf(paddr);
  const uint32_t set = SetOf(line);
  if (!Claimed(set)) {
    return;
  }
  Way* base = SetBase(set);
  for (uint32_t w = 0; w < geometry_.ways; w++) {
    if (base[w].gen == gen_ && base[w].tag == line) {
      base[w].gen = 0;
    }
  }
}

void Cache::FlushAll() { gen_++; }

void Cache::Reset() {
  gen_++;
  tick_ = 0;
  hits_ = 0;
  misses_ = 0;
}

CacheHierarchy::CacheHierarchy(const CpuModel& cpu)
    : l1_(cpu.l1d), l2_(cpu.l2), l3_(cpu.l3), mem_latency_(cpu.latency.mem_latency) {}

int CacheHierarchy::LevelOf(uint64_t paddr) const {
  if (l1_.Contains(paddr)) {
    return 1;
  }
  if (l2_.Contains(paddr)) {
    return 2;
  }
  if (l3_.Contains(paddr)) {
    return 3;
  }
  return 0;
}

void CacheHierarchy::Clflush(uint64_t paddr) {
  l1_.EvictLine(paddr);
  l2_.EvictLine(paddr);
  l3_.EvictLine(paddr);
}

void CacheHierarchy::FlushL1() { l1_.FlushAll(); }

void CacheHierarchy::Reset() {
  l1_.Reset();
  l2_.Reset();
  l3_.Reset();
}

Tlb::Tlb(uint32_t entries, uint32_t ways) : ways_(ways) {
  SPECBENCH_CHECK(ways > 0 && entries >= ways);
  num_sets_ = entries / ways;
  SPECBENCH_CHECK(IsPow2(num_sets_));
  entries_.resize(static_cast<size_t>(num_sets_) * ways_);
}

bool Tlb::Contains(uint64_t page, uint64_t asid) const {
  const uint32_t set = static_cast<uint32_t>(page & (num_sets_ - 1));
  const Entry* base = &entries_[static_cast<size_t>(set) * ways_];
  for (uint32_t w = 0; w < ways_; w++) {
    if (base[w].gen == gen_ && base[w].page == page && base[w].asid == asid) {
      return true;
    }
  }
  return false;
}

void Tlb::FlushAll() {
  for (Entry& e : entries_) {
    e.gen = 0;
  }
}

void Tlb::FlushAsid(uint64_t asid) {
  for (Entry& e : entries_) {
    if (e.gen == gen_ && e.asid == asid) {
      e.gen = 0;
    }
  }
}

void Tlb::Reset() {
  gen_++;
  tick_ = 0;
  hits_ = 0;
  misses_ = 0;
}

FillBuffers::FillBuffers(uint32_t entries) : ring_(entries) {
  SPECBENCH_CHECK(entries > 0);
}

void FillBuffers::RecordFill(uint64_t paddr, uint64_t value) {
  ring_[next_] = Fill{paddr, value, true};
  next_ = (next_ + 1) % ring_.size();
}

void FillBuffers::Clear() {
  for (Fill& f : ring_) {
    f.valid = false;
  }
}

void FillBuffers::Reset() {
  Clear();
  next_ = 0;
}

bool FillBuffers::empty() const {
  for (const Fill& f : ring_) {
    if (f.valid) {
      return false;
    }
  }
  return true;
}

uint64_t FillBuffers::Sample(uint64_t salt) const {
  // Gather valid entries and pick one pseudo-randomly by the (hashed) salt.
  // Returns 0 when drained — the post-verw world where MDS yields nothing.
  uint64_t values[64];
  size_t count = 0;
  for (const Fill& f : ring_) {
    if (f.valid && count < 64) {
      values[count++] = f.value;
    }
  }
  if (count == 0) {
    return 0;
  }
  salt ^= salt >> 33;
  salt *= 0xff51afd7ed558ccdULL;
  salt ^= salt >> 33;
  return values[salt % count];
}

bool FillBuffers::ContainsValue(uint64_t value) const {
  for (const Fill& f : ring_) {
    if (f.valid && f.value == value) {
      return true;
    }
  }
  return false;
}

size_t FillBuffers::occupancy() const {
  size_t count = 0;
  for (const Fill& f : ring_) {
    if (f.valid) {
      count++;
    }
  }
  return count;
}

StoreBuffer::StoreBuffer(size_t capacity) : capacity_(capacity) {
  SPECBENCH_CHECK(capacity > 0);
  entries_.reserve(capacity);
}

void StoreBuffer::Clear() { entries_.clear(); }

bool StoreBuffer::HasUnresolved(uint64_t now) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [now](const Entry& e) { return e.resolve_at > now; });
}

uint64_t StoreBuffer::LatestAddrResolveAt(uint64_t now) const {
  uint64_t latest = 0;
  for (const Entry& e : entries_) {
    if (e.addr_resolve_at > now) {
      latest = std::max(latest, e.addr_resolve_at);
    }
  }
  return latest;
}

}  // namespace specbench
