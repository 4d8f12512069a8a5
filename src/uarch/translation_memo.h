// The machine's translation memo: the last few spans a MemoryMap returned,
// so a run of accesses inside one mapping costs a compare instead of a
// virtual call into the map.
//
// An entry holds what a translation's span shares: the address space (cr3)
// it was asked in, the span, the paddr at the span's start and the present
// and user bits. It is keyed on cr3 only, not on the mode: `valid` is
// derived on a hit from the requesting mode by AccessValid, which is how
// every MemoryMap computes it, so a syscall, sysret or vmenter needs no
// invalidation. Unmapped translations are never kept: every access to an
// unmapped address asks the map, so a fault reaches the page-fault hook. The
// memo holds while the map's generation is the one it was filled at; the
// machine also clears it when the map is replaced (SetMemoryMap) and on
// Reset.
#ifndef SPECTREBENCH_SRC_UARCH_TRANSLATION_MEMO_H_
#define SPECTREBENCH_SRC_UARCH_TRANSLATION_MEMO_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "src/isa/isa.h"
#include "src/uarch/memory.h"

namespace specbench {

class TranslationMemo {
 public:
  // The translation of `vaddr` in address space `asid` for an access in
  // `mode`, equal in every field to what the map returned for its span, if
  // an entry filled at map generation `generation` holds it. A different
  // generation empties the memo first.
  bool Lookup(uint64_t vaddr, uint64_t asid, Mode mode, uint64_t generation, Translation* out) {
    if (generation != generation_) {
      Clear();
      generation_ = generation;
      return false;
    }
    for (size_t i = 0; i < kEntries; i++) {
      const Entry& e = entries_[i];
      if (e.asid == asid && vaddr >= e.span_start && vaddr < e.span_end) {
        out->mapped = true;
        out->present = e.present;
        out->user_accessible = e.user_accessible;
        out->valid = AccessValid(e.present, e.user_accessible, mode);
        out->paddr = e.paddr + (vaddr - e.span_start);
        out->span_start = e.span_start;
        out->span_end = e.span_end;
        if (i != 0) {
          // Most recently hit first.
          std::rotate(entries_.begin(), entries_.begin() + i, entries_.begin() + i + 1);
        }
        return true;
      }
    }
    return false;
  }

  // Keeps `t`, the map's translation of `vaddr` in `asid` at the current
  // generation, in front, dropping the least recently hit entry. An
  // unmapped translation, or one whose span does not hold `vaddr` (a map
  // that gives no span), is not kept.
  void Insert(uint64_t vaddr, uint64_t asid, const Translation& t) {
    if (!t.mapped || vaddr < t.span_start || vaddr >= t.span_end) {
      return;
    }
    std::rotate(entries_.begin(), entries_.end() - 1, entries_.end());
    entries_[0] = Entry{asid,
                        t.span_start,
                        t.span_end,
                        t.paddr - (vaddr - t.span_start),
                        t.present,
                        t.user_accessible};
  }

  void Clear() { entries_.fill(Entry{}); }

 private:
  // A constant, not a knob. In counting builds four entries hit 99.2% of
  // pareto's translations and 99.9% of fig2's; two hit 98.8% and 99.8%, one
  // 98.5% and 11.9% (docs/perf.md §11).
  static constexpr size_t kEntries = 4;

  // An empty entry's span holds nothing.
  struct Entry {
    uint64_t asid = 0;
    uint64_t span_start = 0;
    uint64_t span_end = 0;
    uint64_t paddr = 0;  // the paddr of span_start
    bool present = false;
    bool user_accessible = false;
  };
  std::array<Entry, kEntries> entries_{};
  uint64_t generation_ = 0;
};

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_UARCH_TRANSLATION_MEMO_H_
