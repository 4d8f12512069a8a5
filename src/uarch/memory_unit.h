// Memory subsystem of the decomposed machine: physical memory, the cache
// hierarchy, the TLB, the fill buffers and the store buffer — i.e. every
// structure transient-execution attacks leak through — plus the host-side
// translation memo in front of the memory map. Like the frontend, this is
// the core-shared resource pool: SMT siblings run against the same
// MemoryUnit.
#ifndef SPECTREBENCH_SRC_UARCH_MEMORY_UNIT_H_
#define SPECTREBENCH_SRC_UARCH_MEMORY_UNIT_H_

#include "src/cpu/cpu_model.h"
#include "src/uarch/cache.h"
#include "src/uarch/memory.h"
#include "src/uarch/translation_memo.h"

namespace specbench {

struct MemoryUnit {
  explicit MemoryUnit(const CpuModel& cpu)
      : caches(cpu), tlb(cpu.tlb_entries, 4), fill_buffers(cpu.fill_buffer_entries) {}

  SparseMemory memory;
  CacheHierarchy caches;
  Tlb tlb;
  FillBuffers fill_buffers;
  StoreBuffer store_buffer;
  // Keyed on cr3, so SMT siblings in different address spaces share it.
  // Not simulated state: it never changes a cycle or a value.
  TranslationMemo translations;

  // As-new memory subsystem for machine reuse: contents, cached lines, TLB
  // entries, fill-buffer residue, buffered stores and memoized translations
  // all discarded.
  void Reset() {
    memory.Clear();
    caches.Reset();
    tlb.Reset();
    fill_buffers.Reset();
    store_buffer.Clear();
    translations.Clear();
  }
};

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_UARCH_MEMORY_UNIT_H_
