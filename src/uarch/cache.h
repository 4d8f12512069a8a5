// Cache hierarchy, TLB and the leaky microarchitectural buffers.
//
// The caches are the covert channel every attack in the paper ultimately
// uses (flush+reload works natively here: load latency depends on cache
// state, and rdtsc exposes it). The TLB models the PTI cost structure
// (PCID-tagged entries avoid flushes on cr3 writes). Fill buffers are the
// MDS leak source; the store buffer is the Speculative Store Bypass leak
// source and the thing SSBD slows down.
#ifndef SPECTREBENCH_SRC_UARCH_CACHE_H_
#define SPECTREBENCH_SRC_UARCH_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/cpu/cpu_model.h"
#include "src/uarch/memory.h"

namespace specbench {

// One set-associative cache level with LRU replacement.
//
// Construction is O(sets): the way array is allocated uninitialised and a
// set's ways are written only when Access first touches the set (it
// "claims" the set), so a machine pays for the sets it touches, not for a
// multi-megabyte L3.
class Cache {
 public:
  explicit Cache(const CacheGeometry& geometry);

  // Returns true on hit; on miss the line is installed (possibly evicting
  // the LRU way).
  bool Access(uint64_t paddr);
  // Probe without installing or touching LRU state.
  bool Contains(uint64_t paddr) const;
  void EvictLine(uint64_t paddr);
  // Invalidates every line in O(1) by bumping the generation; keeps the LRU
  // clock and the stats.
  void FlushAll();
  // As-new state (empty cache, zeroed stats) in O(1): bumps the generation
  // like FlushAll, then zeroes the LRU clock and the stats.
  void Reset();

  uint32_t latency() const { return geometry_.latency_cycles; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  // Invariant: no way is read before its set is claimed in the current
  // generation (set_gen_[set] == gen_). Claiming writes every way of the
  // set invalid (gen = 0), so the array needs no initialisation and stays
  // trivially default-constructible. Within a claimed set a way is valid
  // iff gen == Cache::gen_; 0 never equals gen_ (gen_ starts at 1 and only
  // increments), so EvictLine can invalidate a single way by zeroing its
  // gen.
  struct Way {
    uint64_t tag;
    uint64_t lru;
    uint64_t gen;
  };
  static_assert(std::is_trivially_default_constructible_v<Way>);

  uint64_t LineOf(uint64_t paddr) const { return paddr / geometry_.line_bytes; }
  uint32_t SetOf(uint64_t line) const { return static_cast<uint32_t>(line & (num_sets_ - 1)); }
  Way* SetBase(uint32_t set) const { return &ways_[static_cast<size_t>(set) * geometry_.ways]; }
  bool Claimed(uint32_t set) const { return set_gen_[set] == gen_; }
  // The set's ways, claimed for the current generation.
  Way* ClaimSet(uint32_t set);

  CacheGeometry geometry_;
  uint32_t num_sets_;
  std::unique_ptr<Way[]> ways_;    // num_sets_ * geometry_.ways, uninitialised
  std::vector<uint64_t> set_gen_;  // per set: generation that claimed it, 0 = never
  uint64_t gen_ = 1;
  uint64_t tick_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

// Three-level hierarchy. Returns the load-to-use latency for an access and
// installs the line in all levels (inclusive).
class CacheHierarchy {
 public:
  explicit CacheHierarchy(const CpuModel& cpu);

  // Performs an access and returns its latency in cycles.
  uint32_t Access(uint64_t paddr);
  // Deepest level that holds the line: 1/2/3, or 0 if uncached.
  int LevelOf(uint64_t paddr) const;
  void Clflush(uint64_t paddr);
  void FlushL1();
  // As-new hierarchy (all levels empty, stats zeroed) in O(1).
  void Reset();

  const Cache& l1() const { return l1_; }
  const Cache& l2() const { return l2_; }
  const Cache& l3() const { return l3_; }

 private:
  Cache l1_;
  Cache l2_;
  Cache l3_;
  uint32_t mem_latency_;
};

// PCID-tagged set-associative TLB.
class Tlb {
 public:
  Tlb(uint32_t entries, uint32_t ways);

  // Returns true on hit for (asid, page); installs on miss.
  bool Access(uint64_t page, uint64_t asid);
  bool Contains(uint64_t page, uint64_t asid) const;
  // Full flush (cr3 write without PCID).
  void FlushAll();
  // Flush entries of one address space (INVPCID-style).
  void FlushAsid(uint64_t asid);
  // As-new state (empty TLB, zeroed stats) in O(1), like Cache::Reset.
  void Reset();

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  struct Entry {
    uint64_t page = 0;
    uint64_t asid = 0;
    uint64_t lru = 0;
    // Valid iff gen == Tlb::gen_ (same generation scheme as Cache::Way).
    uint64_t gen = 0;
  };

  uint32_t num_sets_;
  uint32_t ways_;
  std::vector<Entry> entries_;
  uint64_t gen_ = 1;
  uint64_t tick_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

// Line-fill buffers: a small ring of recently transferred lines. Their stale
// contents are what MDS-class attacks sample. verw (with the MDS microcode
// update) clears them.
class FillBuffers {
 public:
  explicit FillBuffers(uint32_t entries);

  void RecordFill(uint64_t paddr, uint64_t value);
  void Clear();
  // As-new state: Clear() plus ring cursor back to slot 0, so a reused
  // machine fills entries in the same order as a fresh one.
  void Reset();
  bool empty() const;
  // Stale value selection for an MDS-style sampling load; `salt` picks the
  // entry (attacks cannot target addresses, per the paper §3.3).
  uint64_t Sample(uint64_t salt) const;
  size_t occupancy() const;
  // Test/diagnostic helper: whether any resident entry holds `value`.
  bool ContainsValue(uint64_t value) const;

 private:
  struct Fill {
    uint64_t paddr = 0;
    uint64_t value = 0;
    bool valid = false;
  };

  std::vector<Fill> ring_;
  size_t next_ = 0;
};

// Store buffer with store-to-load forwarding. Stores sit here with their
// data until `resolve_at`; committed loads forward from matching entries.
// Speculative loads may *bypass* unresolved entries and observe stale memory
// (Speculative Store Bypass) unless SSBD is active.
class StoreBuffer {
 public:
  explicit StoreBuffer(size_t capacity = 48);

  struct Entry {
    uint64_t paddr = 0;
    uint64_t value = 0;
    uint64_t resolve_at = 0;       // absolute cycle the data resolves
    uint64_t addr_resolve_at = 0;  // the (earlier) cycle the address is known
  };

  // Push and the drains retire entries to memory by calling
  // `retire(entry)` (the machine's ApplyStore), oldest first. They never
  // allocate: the buffer reserves its capacity once and keeps it.

  // Appends a store, first force-draining the oldest entry if the buffer is
  // full.
  template <typename Retire>
  void Push(uint64_t paddr, uint64_t value, uint64_t resolve_at, uint64_t addr_resolve_at,
            Retire&& retire) {
    if (entries_.size() >= capacity_) {
      retire(entries_.front());
      entries_.erase(entries_.begin());
    }
    entries_.push_back(Entry{paddr, value, resolve_at, addr_resolve_at});
  }
  // Retires the longest prefix of entries with resolve_at <= now. Prefix,
  // not all matches: stores retire to memory in program order, so a
  // resolved store stays buffered behind an older unresolved one (or
  // memory ends up with the older value and loads forward from the wrong
  // entry).
  template <typename Retire>
  void DrainResolved(uint64_t now, Retire&& retire) {
    size_t prefix = 0;
    while (prefix < entries_.size() && entries_[prefix].resolve_at <= now) {
      retire(entries_[prefix]);
      prefix++;
    }
    entries_.erase(entries_.begin(), entries_.begin() + static_cast<std::ptrdiff_t>(prefix));
  }
  // Retires everything (fences, context switches). Returns the count.
  template <typename Retire>
  size_t DrainAll(Retire&& retire) {
    for (const Entry& entry : entries_) {
      retire(entry);
    }
    const size_t drained = entries_.size();
    entries_.clear();
    return drained;
  }
  // Discards all entries without retiring them (machine reset; the caller
  // is abandoning the run, so nothing reaches memory).
  void Clear();

  // Newest entry matching `paddr`, or nullptr.
  const Entry* FindNewest(uint64_t paddr) const;
  // True if any entry is still unresolved at `now`.
  bool HasUnresolved(uint64_t now) const;
  // Latest addr_resolve_at among entries whose address is unknown at `now`.
  // This is what an SSBD-disciplined load waits for when no entry matches.
  uint64_t LatestAddrResolveAt(uint64_t now) const;

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

 private:
  size_t capacity_;
  std::vector<Entry> entries_;  // program order: oldest first
};

// The per-access paths below are defined here, not in cache.cc, so that the
// machine's step loop (src/uarch/machine.cc) compiles them inline: every
// memory step calls CacheHierarchy::Access, Tlb::Access and
// StoreBuffer::FindNewest.

inline Cache::Way* Cache::ClaimSet(uint32_t set) {
  Way* base = SetBase(set);
  if (!Claimed(set)) {
    for (uint32_t w = 0; w < geometry_.ways; w++) {
      base[w] = Way{};
    }
    set_gen_[set] = gen_;
  }
  return base;
}

inline bool Cache::Access(uint64_t paddr) {
  const uint64_t line = LineOf(paddr);
  Way* base = ClaimSet(SetOf(line));
  tick_++;

  for (uint32_t w = 0; w < geometry_.ways; w++) {
    Way& way = base[w];
    if (way.gen == gen_ && way.tag == line) {
      way.lru = tick_;
      hits_++;
      return true;
    }
  }

  // Miss: install into an invalid way if one exists, else evict the LRU way.
  Way* victim = base;
  for (uint32_t w = 0; w < geometry_.ways; w++) {
    Way& way = base[w];
    if (way.gen != gen_) {
      victim = &way;
      break;
    }
    if (way.lru < victim->lru) {
      victim = &way;
    }
  }
  misses_++;
  victim->gen = gen_;
  victim->tag = line;
  victim->lru = tick_;
  return false;
}

inline uint32_t CacheHierarchy::Access(uint64_t paddr) {
  if (l1_.Access(paddr)) {
    return l1_.latency();
  }
  if (l2_.Access(paddr)) {
    return l2_.latency();
  }
  if (l3_.Access(paddr)) {
    return l3_.latency();
  }
  return mem_latency_;
}

inline bool Tlb::Access(uint64_t page, uint64_t asid) {
  const uint32_t set = static_cast<uint32_t>(page & (num_sets_ - 1));
  Entry* base = &entries_[static_cast<size_t>(set) * ways_];
  tick_++;
  for (uint32_t w = 0; w < ways_; w++) {
    Entry& e = base[w];
    if (e.gen == gen_ && e.page == page && e.asid == asid) {
      e.lru = tick_;
      hits_++;
      return true;
    }
  }
  Entry* victim = base;
  for (uint32_t w = 0; w < ways_; w++) {
    Entry& e = base[w];
    if (e.gen != gen_) {
      victim = &e;
      break;
    }
    if (e.lru < victim->lru) {
      victim = &e;
    }
  }
  misses_++;
  victim->gen = gen_;
  victim->page = page;
  victim->asid = asid;
  victim->lru = tick_;
  return false;
}

inline const StoreBuffer::Entry* StoreBuffer::FindNewest(uint64_t paddr) const {
  const uint64_t word = AlignWord(paddr);
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (AlignWord(it->paddr) == word) {
      return &*it;
    }
  }
  return nullptr;
}

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_UARCH_CACHE_H_
