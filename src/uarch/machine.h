// The simulated processor: a timing-approximate, speculating machine.
//
// Execution model (a scoreboarded out-of-order approximation):
//   * Instructions issue in order, one per cycle (`now_` is the issue clock).
//   * Every register carries a `ready_at` cycle; consumers wait for their
//     sources, so dependency chains serialize while independent work
//     overlaps. `retire_frontier_` tracks the latest completion; reported
//     cycles are max(issue clock, frontier), and issue may run at most one
//     reorder-window ahead of the frontier (ROB backpressure).
//   * Serializing instructions (lfence, syscall, wrmsr, cpuid, mov cr3 ...)
//     synchronize the issue clock with the frontier.
//
// Structure (docs/uarch.md): the Machine coordinates four pipeline
// components — the frontend/prediction unit (src/uarch/frontend.h,
// machine_branch_inl.h), the execute/scoreboard unit (machine_exec_inl.h),
// the memory subsystem (src/uarch/memory_unit.h, machine_mem_inl.h) and the
// speculative-episode engine (speculation.cc) — charging cause-tagged
// cycles to one optional cycle accountant (src/uarch/cycle_attribution.h).
// The step path is one translation unit: machine.cc defines Step and
// RunPartial and is the only file that includes the machine_*_inl.h step
// handlers, so RunPartial's flattened loop compiles the step, its handlers
// and the per-access helpers defined in cache.h, memory.h and predictors.h
// into one unit. Step fetches from resolved views of the loaded program
// (raw instruction and decode arrays, their size, the base vaddr) that
// LoadProgram, Reset and ActivateHardwareContext refresh. Mitigation
// behaviour is never branched on inline; it is compiled once into a
// MitigationEffects policy (src/uarch/mitigation_effects.h) whenever the
// mitigation state changes.
//
// Speculation: a mispredicted branch triggers a *speculative episode* that
// interprets the wrong path for as many cycles as the branch takes to
// resolve (bounded by the CPU's speculation window). Episodes have no
// architectural effects but real microarchitectural ones: cache fills, fill
// buffer updates, and divider activity — which is exactly what transient
// execution attacks observe, and what the paper's Figure 6 probe measures.
//
// Vulnerability modelling inside episodes (gated by MitigationEffects):
//   * Meltdown: user-mode loads of kernel-only mappings return real data.
//   * L1TF: loads through non-present PTEs return data if the line is in L1.
//   * MDS: loads that fault with no mapping forward stale fill-buffer data.
//   * LazyFP: FP reads with the FPU disabled return the stale registers.
//   * Spec. Store Bypass: loads may bypass unresolved older stores and read
//     stale memory; SSBD instead makes them wait (the measurable cost).
#ifndef SPECTREBENCH_SRC_UARCH_MACHINE_H_
#define SPECTREBENCH_SRC_UARCH_MACHINE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "src/cpu/cpu_model.h"
#include "src/isa/isa.h"
#include "src/isa/program.h"
#include "src/uarch/cache.h"
#include "src/uarch/cycle_attribution.h"
#include "src/uarch/frontend.h"
#include "src/uarch/memory.h"
#include "src/uarch/memory_unit.h"
#include "src/uarch/mitigation_effects.h"
#include "src/uarch/predictors.h"

namespace specbench {

class Machine {
 public:
  explicit Machine(const CpuModel& cpu);

  // --- Setup -------------------------------------------------------------
  void LoadProgram(const Program* program);
  const Program* program() const { return program_; }

  // Returns the machine to its freshly-constructed state (same CpuModel):
  // architectural registers, MSRs, privilege/paging state, the issue clock
  // and retirement frontier, PMCs, every predictor, the cache hierarchy, the
  // TLB, fill buffers, the store buffer, physical memory contents, all hooks
  // and event-bus sinks, and the loaded program. O(1) in the cache sizes
  // (generation-counter invalidation), so pooled machine reuse across sweep
  // cells is cheap. The regression contract — run-after-Reset is bit- and
  // cycle-identical to a fresh machine — is enforced by
  // tests/uarch_reset_test.cc over the difftest corpus.
  void Reset();
  // Translation provider; defaults to the identity map. Not owned. Every
  // translation goes through the machine's memo (src/uarch/
  // translation_memo.h), which this empties.
  void SetMemoryMap(const MemoryMap* map);

  // Entry point jumped to by the kSyscall instruction.
  void SetSyscallEntry(uint64_t vaddr) { syscall_entry_ = vaddr; }
  // Where kVmEnter transfers to initially (updated by kVmExit to resume).
  void SetGuestResumePoint(uint64_t vaddr) { guest_resume_rip_ = vaddr; }
  // Handler the host runs after kVmExit.
  void SetVmExitHandler(uint64_t vaddr) { vm_exit_handler_ = vaddr; }

  // Page-fault hook: return true if handled (instruction is retried).
  using PageFaultHook = std::function<bool(Machine&, uint64_t vaddr)>;
  void SetPageFaultHook(PageFaultHook hook) { page_fault_hook_ = std::move(hook); }
  // FPU device-not-available hook (lazy FPU switching); must leave the FPU
  // enabled or the machine aborts.
  using FpTrapHook = std::function<void(Machine&)>;
  void SetFpTrapHook(FpTrapHook hook) { fp_trap_hook_ = std::move(hook); }
  // Simulator call-outs executed by kKcall. Hooks run architecturally only
  // (speculation stops at kKcall) and may charge cycles via AddCycles.
  using KcallHook = std::function<void(Machine&)>;
  void RegisterKcall(int64_t id, KcallHook hook);

  // Execution tracing: when set, invoked once per *committed* instruction
  // (before execution) with its program index, pc and the current cycle.
  // Speculative episodes are not traced — they never commit. A set hook
  // costs a std::function call per step, so keep its body small: the
  // difftest oracle's only appends record.index to a reused buffer and
  // hashes the stream after the run, if at all (src/difftest/difftest.h).
  // Dispatch is guarded by a cached bool, so an unset hook costs one
  // predictable branch per step (never a std::function call).
  struct TraceRecord {
    int32_t index = 0;
    uint64_t pc = 0;
    Op op = Op::kNop;
    Mode mode = Mode::kUser;
    uint64_t cycle = 0;
  };
  using TraceHook = std::function<void(const TraceRecord&)>;
  void SetTraceHook(TraceHook hook) {
    trace_hook_ = std::move(hook);
    has_trace_hook_ = static_cast<bool>(trace_hook_);
  }

  // --- Cycle accountant ---------------------------------------------------
  // The pipeline components charge cause-tagged cycles and count fills, TLB
  // flushes, drains and episodes into the attached accountant (src/uarch/
  // cycle_attribution.h). It observes only: attaching one never changes
  // timing or architectural results. Null (the default, and after Reset())
  // means nobody is counting, and every accounting site is one branch.
  void SetCycleAttribution(CycleAttribution* attribution) { attribution_ = attribution; }
  CycleAttribution* cycle_attribution() const { return attribution_; }
  // The compiled mitigation policy currently in force (tests, tools).
  const MitigationEffects& effects() const { return effects_; }

  // --- Architectural state -----------------------------------------------
  uint64_t reg(uint8_t index) const;
  void SetReg(uint8_t index, uint64_t value);
  uint64_t fpreg(uint8_t index) const;
  void SetFpReg(uint8_t index, uint64_t value);
  Mode mode() const { return mode_; }
  void SetMode(Mode mode) { mode_ = mode; }
  uint64_t cr3() const { return cr3_; }
  void SetCr3(uint64_t value) { cr3_ = value; }
  bool fpu_enabled() const { return fpu_enabled_; }
  void SetFpuEnabled(bool enabled) { fpu_enabled_ = enabled; }
  uint64_t saved_user_rip() const { return saved_user_rip_; }
  void SetSavedUserRip(uint64_t vaddr) { saved_user_rip_ = vaddr; }
  uint64_t saved_host_rip() const { return saved_host_rip_; }

  // Direct data access through the current memory map (kernel privilege).
  // Drains the store buffer first so reads observe all prior stores.
  uint64_t PeekData(uint64_t vaddr);
  void PokeData(uint64_t vaddr, uint64_t value);

  // Translates `vaddr` in the current address space (cr3) for an access in
  // `mode`, as every data access, stack push and Peek/PokeData does: from
  // the translation memo (src/uarch/translation_memo.h), or on a miss from
  // the memory map, whose answer the memo then keeps. Equal in every field
  // to the map's own Translate.
  Translation Translate(uint64_t vaddr, Mode mode) {
    Translation t;
    if (!mem_.translations.Lookup(vaddr, cr3_, mode, memory_map_->generation(), &t)) {
      t = TranslateMiss(vaddr, mode);
    }
    return t;
  }

  bool ibrs_active() const { return (msr_spec_ctrl_ & kSpecCtrlIbrs) != 0; }
  bool ssbd_active() const { return (msr_spec_ctrl_ & kSpecCtrlSsbd) != 0; }
  // OS-level per-process SSBD without executing a wrmsr (context switch).
  void SetSsbd(bool active);
  void SetIbrs(bool active);

  // When false, cr3 writes flush the TLB (kernel booted with nopcid).
  void SetPcidEnabled(bool enabled) {
    pcid_enabled_ = enabled;
    RecompileEffects();
  }

  // SMT sibling identity and STIBP. When STIBP is active, indirect branch
  // predictor entries are partitioned per hyperthread, blocking cross-SMT
  // Spectre V2 training. The interleaving harness sets the thread id as it
  // switches siblings.
  void SetSmtThreadId(uint64_t id) {
    smt_thread_id_ = id;
    RecompileEffects();
  }
  uint64_t smt_thread_id() const { return smt_thread_id_; }
  void SetStibp(bool active) {
    stibp_active_ = active;
    RecompileEffects();
  }
  bool stibp_active() const { return stibp_active_; }

  // --- Execution -----------------------------------------------------------
  struct RunResult {
    uint64_t cycles = 0;        // cycles consumed by this Run call
    uint64_t instructions = 0;  // instructions retired by this Run call
    bool halted = false;        // ended at kHalt (vs. instruction budget)
    uint64_t resume_rip = 0;    // where to continue when !halted
  };
  RunResult Run(uint64_t entry_vaddr, uint64_t max_instructions = 100'000'000);
  // Like Run, but exhausting the instruction budget is a normal outcome
  // (halted=false, resume_rip set). Used to interleave SMT sibling threads.
  RunResult RunPartial(uint64_t entry_vaddr, uint64_t max_instructions);

  // Architectural thread context for SMT-style interleaving: registers and
  // control state only — caches, predictors, fill buffers and the store
  // buffer are the *shared* core resources siblings contend on (and leak
  // through).
  struct ThreadContext {
    std::array<uint64_t, kNumRegs> regs{};
    std::array<uint64_t, kNumRegs> ready_at{};
    std::array<uint64_t, kNumFpRegs> fpregs{};
    Mode mode = Mode::kUser;
    uint64_t cr3 = 0;
    bool fpu_enabled = true;
    uint64_t msr_spec_ctrl = 0;
    uint64_t saved_user_rip = 0;
    uint64_t resume_rip = 0;
  };
  ThreadContext SaveContext() const;
  void RestoreContext(const ThreadContext& context);

  // --- SMT co-residence (machine_smt.cc) -----------------------------------
  // One explicit hardware thread on the core: the architectural context plus
  // the statically-partitioned frontend state (RSB, call-site history) and
  // the per-thread predictor identity (SMT thread id, STIBP). Everything
  // else — caches, TLB, fill buffers, store buffer, the BTB (partitioned per
  // thread only under STIBP), the conditional predictor, the issue clock and
  // the retirement frontier — stays in the Machine and is competitively
  // shared, which is exactly the contention cross-thread attacks exploit.
  struct HardwareContext {
    ThreadContext arch;
    const Program* program = nullptr;
    std::vector<uint64_t> rsb;         // parked RSB partition
    std::vector<uint64_t> call_sites;  // parked call-site history
    uint64_t smt_thread_id = 0;
    bool stibp = false;
    uint64_t instructions = 0;  // retired by this context in the co-run
    uint64_t budget = 0;        // instruction budget for the co-run
    uint64_t finish_cycles = 0; // machine cycles() when it stopped issuing
    bool halted = false;
    bool runnable() const {
      return program != nullptr && !halted && instructions < budget;
    }
  };

  // One hardware thread's program for RunCoResident. `initial_regs` are
  // written into the context before it first fetches (stack pointer, data
  // pointers); everything else is inherited from the machine's state when
  // the co-run starts.
  struct CoResidentSpec {
    const Program* program = nullptr;
    uint64_t entry_vaddr = 0;
    uint64_t max_instructions = 1'000'000;
    uint64_t smt_thread_id = 1;
    bool stibp = false;
    std::vector<std::pair<uint8_t, uint64_t>> initial_regs;
  };
  struct CoResidentThread {
    uint64_t instructions = 0;
    bool halted = false;
    uint64_t resume_rip = 0;      // vaddr to continue from when !halted
    // The shared-core cycle count when this thread stopped issuing: the
    // self-timing a co-resident attacker can observe (SMoTherSpectre).
    uint64_t finish_cycles = 0;
  };
  struct CoResidentResult {
    uint64_t cycles = 0;  // shared-core cycles consumed by the whole co-run
    std::array<CoResidentThread, 2> thread{};
  };
  // Runs two programs in lockstep on the shared pipeline: the fetch arbiter
  // round-robins `fetch_granule`-instruction slots between the runnable
  // contexts; each context issues onto the shared clock (port contention)
  // against the shared retirement frontier (scoreboard/ROB contention).
  // Arbitration is deterministic, so co-resident runs are byte-identical
  // across hosts and job counts. `b.program == nullptr` degenerates to
  // single-context execution, bit-identical to RunPartial (the smt-off
  // case; enforced by tests/uarch_smt_test.cc). Requires a loaded program
  // (LoadProgram) so thread contexts can inherit the machine state.
  CoResidentResult RunCoResident(const CoResidentSpec& a,
                                 const CoResidentSpec& b,
                                 uint64_t fetch_granule = 8);
  // Post-co-run inspection (tests): the parked per-thread contexts.
  const HardwareContext& hardware_context(int i) const { return hw_[i]; }
  const FetchArbiter& fetch_arbiter() const { return frontend_.arbiter; }

  // Total cycle count: issue clock / completion frontier, whichever is later.
  uint64_t cycles() const;
  uint64_t PmcValue(Pmc counter) const;
  // Adds cycles directly (used by OS hooks to charge handler work). The
  // cause tags who pays for them in the cycle accountant
  // (OnExternalCharge); timing is identical regardless of the tag.
  void AddCycles(uint64_t cycles, CauseTag cause = CauseTag::kNone);
  // Makes all in-flight work complete (used at measurement boundaries).
  void DrainPipeline();
  void DrainStoreBuffer();

  // --- Microarchitectural state (tests, attacks, mitigation code) ---------
  CacheHierarchy& caches() { return mem_.caches; }
  const CacheHierarchy& caches() const { return mem_.caches; }
  Tlb& tlb() { return mem_.tlb; }
  Btb& btb() { return frontend_.btb; }
  Rsb& rsb() { return frontend_.rsb; }
  CondPredictor& cond_predictor() { return frontend_.cond; }
  FillBuffers& fill_buffers() { return mem_.fill_buffers; }
  StoreBuffer& store_buffer() { return mem_.store_buffer; }
  SparseMemory& physical_memory() { return mem_.memory; }
  const CpuModel& cpu() const { return cpu_; }

  // Caller-context hash feeding BHB-indexed BTBs (Zen 3 policy).
  uint64_t caller_context() const { return frontend_.CallerContext(); }

  // Test-only fault injection: the `nth` committed kAlu result (1-based) has
  // its low bit flipped, a one-off silent state corruption. Used by the
  // differential-execution oracle's self-check to prove it detects simulator
  // bugs; 0 (the default) disables the fault entirely.
  void InjectAluFaultForTesting(uint64_t nth) { alu_fault_countdown_ = nth; }

 private:
  struct SpecRegs {
    std::array<uint64_t, kNumRegs> value;
    std::array<uint64_t, kNumRegs> ready_at;
  };

  // Recompiles the MitigationEffects policy from the CpuModel and the
  // current mitigation state. Called on every state change (setters, wrmsr
  // to SPEC_CTRL, context restore) — never on the hot path.
  void RecompileEffects();

  // Fetches, decodes and executes the instruction at rip_ from the resolved
  // code views. Defined in machine.cc, where RunPartial's loop inlines it;
  // RunCoResident (machine_smt.cc) calls it out of line.
  void Step();
  // Step handlers, one private header per pipeline component
  // (machine_exec_inl.h, machine_mem_inl.h, machine_branch_inl.h,
  // machine_system_inl.h), included only by machine.cc. Each executes `in`
  // (already fetched at pc == program_->VaddrOf(rip_)) and returns the next rip.
  int32_t StepCompute(const Instruction& in, uint64_t srcs_ready);
  int32_t StepMemory(const Instruction& in, uint64_t srcs_ready);
  int32_t StepBranch(const Instruction& in, uint64_t pc, uint64_t srcs_ready);
  int32_t StepSystem(const Instruction& in, uint64_t srcs_ready);

  // Points the resolved code views at program_ and its decode (null after
  // Reset). LoadProgram, Reset and ActivateHardwareContext call it whenever
  // program_ changes.
  void RefreshCodeView();

  // Executes the wrong path starting at instruction `index` for at most
  // `budget` cycles beginning at absolute cycle `t0` (speculation.cc).
  void RunSpeculativeEpisode(int32_t index, uint64_t t0, uint64_t budget);
  void SpeculativeEpisodeBody(int32_t index, uint64_t t0, uint64_t budget);

  void WriteReg(uint8_t index, uint64_t value, uint64_t ready_at);
  // Serialize issue with the completion frontier.
  void Serialize();
  void ApplyStore(const StoreBuffer::Entry& entry);
  void DrainResolvedStores(uint64_t now);
  // Buffers a committed store; a full buffer first retires its oldest
  // entry through ApplyStore.
  void BufferStore(uint64_t paddr, uint64_t value, uint64_t resolve_at,
                   uint64_t addr_resolve_at);
  // Advances the issue clock by `cycles` of mitigation-owned stall and
  // reports them (tagged with `cause`) on the bus.
  void ChargeStall(uint64_t cycles, CauseTag cause);
  // The memo's miss path (Translate), out of the step loop; the only caller
  // of the memory map's Translate.
  [[gnu::noinline]] Translation TranslateMiss(uint64_t vaddr, Mode mode);
  // Committed load path; returns value, sets *ready_at.
  uint64_t CommittedLoad(uint64_t vaddr, uint64_t issue_at, uint64_t* ready_at);
  bool PredictionAllowed(Mode mode) const { return effects_.PredictionAllowed(mode); }
  // Episode-side load semantics incl. all vulnerability paths.
  uint64_t SpeculativeLoad(uint64_t vaddr, uint64_t at,
                           const std::map<uint64_t, uint64_t>& spec_stores, bool* completed);

  // SMT co-residence internals (machine_smt.cc): park the active context's
  // architectural + partitioned-frontend state into hw_[i], or make hw_[i]
  // the fetching context (swap the program and its code views, arch state,
  // RSB partition, thread identity; recompile the mitigation policy).
  void ParkHardwareContext(int i);
  void ActivateHardwareContext(int i);

  const CpuModel cpu_;
  const Program* program_ = nullptr;
  // Resolved views of program_ (RefreshCodeView): Step fetches its
  // Instruction and the program's own decode of it (Program::ops()) by index
  // from these two arrays of code_size_ entries, and computes pc from
  // code_base_.
  const Instruction* code_ = nullptr;
  const DecodedOp* code_ops_ = nullptr;
  int32_t code_size_ = 0;
  uint64_t code_base_ = 0;
  IdentityMemoryMap identity_map_;
  const MemoryMap* memory_map_ = nullptr;

  // Architectural state.
  std::array<uint64_t, kNumRegs> regs_{};
  std::array<uint64_t, kNumRegs> ready_at_{};
  std::array<uint64_t, kNumFpRegs> fpregs_{};
  int32_t rip_ = 0;
  Mode mode_ = Mode::kUser;
  uint64_t cr3_ = 0;
  bool fpu_enabled_ = true;
  uint64_t msr_spec_ctrl_ = 0;
  std::map<uint32_t, uint64_t> msr_other_;
  uint64_t saved_user_rip_ = 0;
  uint64_t saved_host_rip_ = 0;
  uint64_t guest_resume_rip_ = 0;
  uint64_t vm_exit_handler_ = 0;
  uint64_t syscall_entry_ = 0;

  // Timing state.
  uint64_t now_ = 0;
  uint64_t retire_frontier_ = 0;
  uint64_t instructions_ = 0;
  bool halted_ = false;

  // Pipeline components (shared core resources under SMT interleaving).
  FrontendUnit frontend_;
  MemoryUnit mem_;
  bool pcid_enabled_;
  uint64_t smt_thread_id_ = 0;
  bool stibp_active_ = false;
  uint64_t alu_fault_countdown_ = 0;

  // SMT hardware contexts (machine_smt.cc). Only populated during / after a
  // RunCoResident call; single-context execution never touches them.
  std::array<HardwareContext, 2> hw_{};
  int active_hw_ = -1;

  // Compiled mitigation policy; the only place mitigation state is branched
  // on during execution.
  MitigationEffects effects_;

  // Cycle accountant + per-step cycle accounting (valid only while one is
  // attached; see Step()). `step_stall_cycles_` collects serialization /
  // backpressure slack, `step_tagged_cycles_` collects cause-tagged charges
  // already reported, so the residual issue-clock advance can be charged to
  // the retiring instruction's own cause tag.
  CycleAttribution* attribution_ = nullptr;
  uint64_t step_stall_cycles_ = 0;
  uint64_t step_tagged_cycles_ = 0;

  std::array<uint64_t, static_cast<size_t>(Pmc::kCount)> pmcs_{};

  PageFaultHook page_fault_hook_;
  FpTrapHook fp_trap_hook_;
  std::map<int64_t, KcallHook> kcall_hooks_;
  TraceHook trace_hook_;
  bool has_trace_hook_ = false;
};

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_UARCH_MACHINE_H_
