// Machine core: construction, architectural-state access, mitigation-policy
// recompilation, timing primitives, and the step loop. This is the step's
// translation unit: it includes the pipeline components' step handlers
// (machine_*_inl.h, private to it), so RunPartial's loop compiles Step, the
// handlers and the per-access helpers of the caches, TLB, store buffer and
// predictors into one unit (see machine.h for the map).
#include "src/uarch/machine.h"

#include <algorithm>

#include "src/uarch/machine_branch_inl.h"
#include "src/uarch/machine_exec_inl.h"
#include "src/uarch/machine_internal.h"
#include "src/uarch/machine_mem_inl.h"
#include "src/uarch/machine_system_inl.h"
#include "src/util/check.h"

namespace specbench {

Machine::Machine(const CpuModel& cpu)
    : cpu_(cpu),
      frontend_(cpu.predictor),
      mem_(cpu),
      pcid_enabled_(cpu.pcid_supported) {
  memory_map_ = &identity_map_;
  RecompileEffects();
}

void Machine::RecompileEffects() {
  effects_ = MitigationEffects::Compile(cpu_, msr_spec_ctrl_, stibp_active_,
                                        smt_thread_id_, pcid_enabled_);
}

void Machine::RefreshCodeView() {
  if (program_ == nullptr) {
    code_ = nullptr;
    code_ops_ = nullptr;
    code_size_ = 0;
    code_base_ = 0;
    return;
  }
  code_ = program_->data();
  code_ops_ = program_->ops().data();
  code_size_ = program_->size();
  code_base_ = program_->base_vaddr();
}

void Machine::LoadProgram(const Program* program) {
  SPECBENCH_CHECK(program != nullptr);
  program_ = program;
  RefreshCodeView();
}

void Machine::Reset() {
  program_ = nullptr;
  RefreshCodeView();
  memory_map_ = &identity_map_;

  regs_.fill(0);
  ready_at_.fill(0);
  fpregs_.fill(0);
  rip_ = 0;
  mode_ = Mode::kUser;
  cr3_ = 0;
  fpu_enabled_ = true;
  msr_spec_ctrl_ = 0;
  msr_other_.clear();
  saved_user_rip_ = 0;
  saved_host_rip_ = 0;
  guest_resume_rip_ = 0;
  vm_exit_handler_ = 0;
  syscall_entry_ = 0;

  now_ = 0;
  retire_frontier_ = 0;
  instructions_ = 0;
  halted_ = false;

  frontend_.Reset();
  mem_.Reset();
  pcid_enabled_ = cpu_.pcid_supported;
  smt_thread_id_ = 0;
  stibp_active_ = false;
  alu_fault_countdown_ = 0;
  // RunCoResident starts both contexts as new and sets the program of each
  // one it runs, so a context without a program is still as new.
  for (auto& hw : hw_) {
    if (hw.program != nullptr) {
      hw = HardwareContext{};
    }
  }
  active_hw_ = -1;

  attribution_ = nullptr;
  step_stall_cycles_ = 0;
  step_tagged_cycles_ = 0;
  pmcs_.fill(0);

  page_fault_hook_ = nullptr;
  fp_trap_hook_ = nullptr;
  kcall_hooks_.clear();
  trace_hook_ = nullptr;
  has_trace_hook_ = false;

  RecompileEffects();
}

void Machine::SetMemoryMap(const MemoryMap* map) {
  memory_map_ = map != nullptr ? map : &identity_map_;
  mem_.translations.Clear();
}

Translation Machine::TranslateMiss(uint64_t vaddr, Mode mode) {
  const Translation t = memory_map_->Translate(vaddr, cr3_, mode);
  mem_.translations.Insert(vaddr, cr3_, t);
  return t;
}

void Machine::RegisterKcall(int64_t id, KcallHook hook) {
  kcall_hooks_[id] = std::move(hook);
}

uint64_t Machine::reg(uint8_t index) const {
  SPECBENCH_CHECK(index < kNumRegs);
  return regs_[index];
}

void Machine::SetReg(uint8_t index, uint64_t value) {
  SPECBENCH_CHECK(index < kNumRegs);
  regs_[index] = value;
  ready_at_[index] = 0;
}

uint64_t Machine::fpreg(uint8_t index) const {
  SPECBENCH_CHECK(index < kNumFpRegs);
  return fpregs_[index];
}

void Machine::SetFpReg(uint8_t index, uint64_t value) {
  SPECBENCH_CHECK(index < kNumFpRegs);
  fpregs_[index] = value;
}

void Machine::SetSsbd(bool active) {
  if (!MitigationEffects::SsbdAvailable(cpu_)) {
    // SSB_NO silicon: the bypass does not exist, so neither does SSBD.
    active = false;
  }
  if (active) {
    msr_spec_ctrl_ |= kSpecCtrlSsbd;
  } else {
    msr_spec_ctrl_ &= ~kSpecCtrlSsbd;
  }
  RecompileEffects();
}

void Machine::SetIbrs(bool active) {
  if (active && MitigationEffects::IbrsAvailable(cpu_)) {
    msr_spec_ctrl_ |= kSpecCtrlIbrs;
  } else {
    msr_spec_ctrl_ &= ~kSpecCtrlIbrs;
  }
  RecompileEffects();
}

uint64_t Machine::PeekData(uint64_t vaddr) {
  DrainStoreBuffer();
  const Translation t = Translate(vaddr, Mode::kKernel);
  SPECBENCH_CHECK_MSG(t.mapped, "PeekData of unmapped address");
  return mem_.memory.Read(t.paddr);
}

void Machine::PokeData(uint64_t vaddr, uint64_t value) {
  DrainStoreBuffer();
  const Translation t = Translate(vaddr, Mode::kKernel);
  SPECBENCH_CHECK_MSG(t.mapped, "PokeData of unmapped address");
  mem_.memory.Write(t.paddr, value);
}

uint64_t Machine::cycles() const { return std::max(now_, retire_frontier_); }

uint64_t Machine::PmcValue(Pmc counter) const {
  if (counter == Pmc::kCycles) {
    return cycles();
  }
  if (counter == Pmc::kInstructions) {
    return instructions_;
  }
  return pmcs_[static_cast<size_t>(counter)];
}

void Machine::AddCycles(uint64_t cycles, CauseTag cause) {
  Serialize();
  now_ += cycles;
  if (attribution_ != nullptr && cycles > 0) {
    step_tagged_cycles_ += cycles;
    attribution_->OnExternalCharge(cause, cycles);
  }
}

void Machine::DrainPipeline() {
  Serialize();
  DrainStoreBuffer();
}

void Machine::DrainStoreBuffer() {
  const size_t drained =
      mem_.store_buffer.DrainAll([this](const StoreBuffer::Entry& entry) { ApplyStore(entry); });
  if (attribution_ != nullptr && drained != 0) {
    attribution_->OnStoreBufferDrain(drained);
  }
}

void Machine::Serialize() {
  if (retire_frontier_ > now_) {
    if (attribution_ != nullptr) {
      step_stall_cycles_ += retire_frontier_ - now_;
    }
    now_ = retire_frontier_;
  }
}

void Machine::ChargeStall(uint64_t cycles, CauseTag cause) {
  now_ += cycles;
  if (attribution_ != nullptr && cycles > 0) {
    step_tagged_cycles_ += cycles;
    attribution_->OnStall(cause, cycles);
  }
}

void Machine::ApplyStore(const StoreBuffer::Entry& entry) {
  mem_.memory.Write(entry.paddr, entry.value);
}

void Machine::DrainResolvedStores(uint64_t now) {
  mem_.store_buffer.DrainResolved(
      now, [this](const StoreBuffer::Entry& entry) { ApplyStore(entry); });
}

void Machine::BufferStore(uint64_t paddr, uint64_t value, uint64_t resolve_at,
                          uint64_t addr_resolve_at) {
  mem_.store_buffer.Push(paddr, value, resolve_at, addr_resolve_at,
                         [this](const StoreBuffer::Entry& entry) { ApplyStore(entry); });
}

Machine::RunResult Machine::Run(uint64_t entry_vaddr, uint64_t max_instructions) {
  const RunResult result = RunPartial(entry_vaddr, max_instructions);
  SPECBENCH_CHECK_MSG(result.halted, "instruction budget exhausted before kHalt");
  return result;
}

// Flattened: Step, its handlers and the per-access helpers they call are
// all defined in this translation unit or its headers, and compile into
// this one loop. It starts on a cache line, so its speed does not move with
// the size of unrelated code linked before it: in a -O2 build on an Intel
// Xeon, the same loop starting 16 bytes into a line rather than 48 ran
// pareto 7% slower.
[[gnu::flatten, gnu::aligned(64)]] Machine::RunResult Machine::RunPartial(
    uint64_t entry_vaddr, uint64_t max_instructions) {
  SPECBENCH_CHECK(program_ != nullptr);
  const int32_t entry = program_->IndexOf(entry_vaddr);
  SPECBENCH_CHECK_MSG(entry >= 0, "Run entry point not inside the loaded program");
  rip_ = entry;
  halted_ = false;

  const uint64_t cycles_before = cycles();
  const uint64_t instructions_before = instructions_;
  uint64_t executed = 0;
  while (!halted_ && executed < max_instructions) {
    Step();
    executed++;
  }

  RunResult result;
  result.cycles = cycles() - cycles_before;
  result.instructions = instructions_ - instructions_before;
  result.halted = halted_;
  result.resume_rip = halted_ ? 0 : program_->VaddrOf(rip_);
  return result;
}

Machine::ThreadContext Machine::SaveContext() const {
  ThreadContext context;
  context.regs = regs_;
  context.ready_at = ready_at_;
  context.fpregs = fpregs_;
  context.mode = mode_;
  context.cr3 = cr3_;
  context.fpu_enabled = fpu_enabled_;
  context.msr_spec_ctrl = msr_spec_ctrl_;
  context.saved_user_rip = saved_user_rip_;
  context.resume_rip =
      rip_ >= 0 && rip_ < program_->size() ? program_->VaddrOf(rip_) : 0;
  return context;
}

void Machine::RestoreContext(const ThreadContext& context) {
  regs_ = context.regs;
  ready_at_ = context.ready_at;
  fpregs_ = context.fpregs;
  mode_ = context.mode;
  cr3_ = context.cr3;
  fpu_enabled_ = context.fpu_enabled;
  msr_spec_ctrl_ = context.msr_spec_ctrl;
  saved_user_rip_ = context.saved_user_rip;
  RecompileEffects();
}

void Machine::Step() {
  SPECBENCH_CHECK(rip_ >= 0 && rip_ < code_size_);
  const Instruction& in = code_[rip_];
  const DecodedOp& decoded = code_ops_[rip_];
  const uint64_t pc = code_base_ + static_cast<uint64_t>(rip_) * kInstructionBytes;
  instructions_++;
  if (has_trace_hook_) {
    trace_hook_(TraceRecord{rip_, pc, in.op, mode_, cycles()});
  }

  // Cycle accounting is armed only while an accountant is attached; without
  // one the whole block is one predictable branch.
  CycleAttribution* const accounting = attribution_;
  uint64_t step_start_now = 0;
  if (accounting != nullptr) {
    step_start_now = now_;
    step_stall_cycles_ = 0;
    step_tagged_cycles_ = 0;
    if (in.op == Op::kRdtsc) {
      accounting->OnRdtsc();
    }
  }

  // ROB backpressure: issue may run at most one speculation window ahead of
  // completion.
  if (retire_frontier_ > now_ + cpu_.speculation_window) {
    const uint64_t target = retire_frontier_ - cpu_.speculation_window;
    if (accounting != nullptr) {
      step_stall_cycles_ += target - now_;
    }
    now_ = target;
  }

  uint64_t srcs_ready = 0;
  for (uint8_t s = 0; s < decoded.num_srcs; s++) {
    srcs_ready = std::max(srcs_ready, ready_at_[decoded.srcs[s]]);
  }
  int32_t next = rip_ + 1;
  switch (decoded.cls) {
    case StepClass::kCompute:
      next = StepCompute(in, srcs_ready);
      break;
    case StepClass::kMemory:
      next = StepMemory(in, srcs_ready);
      break;
    case StepClass::kBranch:
      next = StepBranch(in, pc, srcs_ready);
      break;
    case StepClass::kSystem:
      next = StepSystem(in, srcs_ready);
      break;
  }
  rip_ = next;

  if (accounting != nullptr) {
    // Invariant: every issue-clock advance of this step is either slack
    // (ROB backpressure / fence catch-up, reported untagged), an explicit
    // tagged charge (SSBD discipline, eIBRS scrub, AddCycles), or the
    // instruction's own direct cost — which its static cause tag owns.
    const uint64_t advance = now_ - step_start_now;
    const uint64_t direct = advance - step_stall_cycles_ - step_tagged_cycles_;
    if (step_stall_cycles_ > 0) {
      accounting->OnStall(CauseTag::kNone, step_stall_cycles_);
    }
    accounting->OnRetire(in.cause, direct);
  }
}

}  // namespace specbench
