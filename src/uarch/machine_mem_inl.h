// Memory subsystem execution paths: the committed load pipeline (TLB, store
// forwarding, SSBD discipline, cache access) and the memory-class step
// handler (load / store / clflush).
//
// Private to machine.cc, the step's translation unit: only it includes this
// header, so Step and RunPartial's loop inline the handler.
#ifndef SPECTREBENCH_SRC_UARCH_MACHINE_MEM_INL_H_
#define SPECTREBENCH_SRC_UARCH_MACHINE_MEM_INL_H_

#include <algorithm>

#include "src/uarch/machine.h"
#include "src/uarch/machine_internal.h"
#include "src/util/check.h"

namespace specbench {

inline uint64_t Machine::CommittedLoad(uint64_t vaddr, uint64_t issue_at, uint64_t* ready_at) {
  Translation t = Translate(vaddr, mode_);
  if (!t.valid) {
    // Architectural fault: defer to the OS hook; retried once if handled.
    const bool handled = page_fault_hook_ && page_fault_hook_(*this, vaddr);
    SPECBENCH_CHECK_MSG(handled, "unhandled page fault on committed load");
    t = Translate(vaddr, mode_);
    SPECBENCH_CHECK_MSG(t.valid, "page fault hook did not map the page");
    issue_at = std::max(issue_at, cycles());
  }
  uint64_t exec_at = issue_at;
  if (!mem_.tlb.Access(PageOf(vaddr), cr3_)) {
    exec_at += minternal::kTlbWalkCycles;
  }

  DrainResolvedStores(exec_at);
  const uint64_t paddr = t.paddr;
  if (const StoreBuffer::Entry* entry = mem_.store_buffer.FindNewest(paddr)) {
    // The matching store is still unresolved at exec time.
    if (effects_.ssbd_discipline) {
      // SSBD forbids speculatively bypassing the store: the load waits for
      // the store's address to be known, then forwards, paying an extra
      // per-CPU scheduling tax (the measurable cost of the mitigation).
      // The wait occupies the load scheduler, so issue stalls by the same
      // amount.
      const uint64_t pre = exec_at;
      exec_at = std::max(exec_at, entry->addr_resolve_at) + effects_.ssbd_forward_stall;
      ChargeStall(exec_at - pre, CauseTag::kSsbd);
    }
    *ready_at = exec_at + minternal::kForwardLatency;
    return entry->value;
  }
  if (effects_.ssbd_discipline) {
    // Without forwarding speculation, a load cannot proceed past stores
    // whose *addresses* are still unknown (data may resolve later).
    const uint64_t addr_known = mem_.store_buffer.LatestAddrResolveAt(exec_at);
    if (addr_known > exec_at) {
      ChargeStall(addr_known - exec_at, CauseTag::kSsbd);
      exec_at = addr_known;
    }
  }

  const uint32_t latency = mem_.caches.Access(paddr);
  if (latency > mem_.caches.l1().latency()) {
    mem_.fill_buffers.RecordFill(paddr, mem_.memory.Read(paddr));
    if (attribution_ != nullptr) {
      attribution_->OnCacheFill();
    }
  }
  *ready_at = exec_at + latency;
  return mem_.memory.Read(paddr);
}

inline int32_t Machine::StepMemory(const Instruction& in, uint64_t srcs_ready) {
  const int32_t next = rip_ + 1;
  switch (in.op) {
    case Op::kLoad: {
      const uint64_t issue_at = std::max(now_, srcs_ready);
      uint64_t ready_at = issue_at;
      const uint64_t vaddr = minternal::EffectiveAddress(in, regs_);
      const uint64_t value = CommittedLoad(vaddr, issue_at, &ready_at);
      WriteReg(in.dst, value, ready_at);
      now_++;
      break;
    }
    case Op::kStore: {
      // A store's address resolves as soon as its address registers are
      // ready; the data may arrive much later. SSBD-disciplined loads only
      // need the *address* (to rule out aliasing), so the two are tracked
      // separately.
      uint64_t addr_ready = now_;
      if (in.mem.base != kNoReg) {
        addr_ready = std::max(addr_ready, ready_at_[in.mem.base]);
      }
      if (in.mem.index != kNoReg) {
        addr_ready = std::max(addr_ready, ready_at_[in.mem.index]);
      }
      const uint64_t issue_at = std::max(now_, srcs_ready);
      const uint64_t vaddr = minternal::EffectiveAddress(in, regs_);
      Translation t = Translate(vaddr, mode_);
      if (!t.valid) {
        const bool handled = page_fault_hook_ && page_fault_hook_(*this, vaddr);
        SPECBENCH_CHECK_MSG(handled, "unhandled page fault on committed store");
        t = Translate(vaddr, mode_);
        SPECBENCH_CHECK_MSG(t.valid, "page fault hook did not map the page");
      }
      if (!mem_.tlb.Access(PageOf(vaddr), cr3_)) {
        now_ += minternal::kTlbWalkCycles;
      }
      const uint64_t paddr = t.paddr;
      mem_.caches.Access(paddr);
      DrainResolvedStores(issue_at);
      BufferStore(paddr, regs_[in.src1], issue_at + cpu_.latency.store_resolve_delay,
                  addr_ready + minternal::kAddrResolveDelay);
      now_++;
      break;
    }
    case Op::kClflush: {
      const uint64_t vaddr = minternal::EffectiveAddress(in, regs_);
      const Translation t = Translate(vaddr, mode_);
      if (t.mapped) {
        DrainStoreBuffer();
        mem_.caches.Clflush(t.paddr);
      }
      now_ += cpu_.latency.clflush;
      break;
    }
    default:
      SPECBENCH_CHECK_MSG(false, "non-memory opcode in StepMemory");
  }
  return next;
}

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_UARCH_MACHINE_MEM_INL_H_
