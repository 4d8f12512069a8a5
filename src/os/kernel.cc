#include "src/os/kernel.h"

#include <algorithm>

#include "src/util/check.h"

namespace specbench {

namespace {

// Register ABI shorthands (see header).
constexpr uint8_t kArg0 = 0;
constexpr uint8_t kArg1 = 1;
constexpr uint8_t kScr8 = 8;
constexpr uint8_t kScr9 = 9;
constexpr uint8_t kSysNr = 10;
constexpr uint8_t kTarget = 11;  // dispatch target / retpoline input
constexpr uint8_t kScr12 = 12;
constexpr uint8_t kScr13 = 13;

// Built-in kcall hook ids.
constexpr int64_t kKcallSwitch = 1;
constexpr int64_t kKcallMmap = 2;
constexpr int64_t kKcallMunmap = 3;
constexpr int64_t kKcallFork = 4;
constexpr int64_t kKcallThreadCreate = 5;

// Extra per-cpu slot: current pid.
constexpr uint64_t kPercpuCurrentPid = 32;

// Offset into the kernel heap used as the scratch "page table" area the mmap
// handler writes, and as the IPC queue buffer.
constexpr uint64_t kHeapPtScratch = 0x8000;
constexpr uint64_t kHeapIpcQueue = 0x10000;

}  // namespace

Kernel::Kernel(const CpuModel& cpu, const MitigationConfig& config)
    : cpu_(cpu), config_(config), machine_(cpu) {
  // Boot process.
  CreateProcess();
}

Process& Kernel::CreateProcess() {
  auto proc = std::make_unique<Process>();
  proc->pid = static_cast<int>(processes_.size());
  SetupAddressSpaces(*proc);
  processes_.push_back(std::move(proc));
  return *processes_.back();
}

Process& Kernel::process(int pid) {
  SPECBENCH_CHECK(pid >= 0 && pid < static_cast<int>(processes_.size()));
  return *processes_[static_cast<size_t>(pid)];
}

void Kernel::SetupAddressSpaces(Process& proc) {
  // Shared kernel physical structures, allocated once.
  static_assert(kPageBytes == 4096);
  if (processes_.empty()) {
    // First call: allocate the shared kernel backing store.
    kernel_phys_.percpu = phys_.Alloc(kPageBytes);
    kernel_phys_.table = phys_.Alloc(kPageBytes);
    kernel_phys_.secret = phys_.Alloc(kPageBytes);
    kernel_phys_.heap = phys_.Alloc(kKernelHeapBytes);
    kernel_phys_.shared_user_data = phys_.Alloc(kUserDataBytes);
    kernel_phys_.host_data = phys_.Alloc(kHostDataBytes);
  }

  proc.user_cr3 = next_asid_++;
  proc.kernel_cr3 = config_.pti ? next_asid_++ : proc.user_cr3;

  const uint64_t stack_phys = phys_.Alloc(kUserStackBytes);
  const uint64_t stack_base = kUserStackTop - kUserStackBytes;

  auto map_common = [&](uint64_t asid) {
    // User-visible memory.
    mapper_.AddRegion(asid, stack_base, kUserStackBytes, stack_phys, /*user=*/true);
    mapper_.AddRegion(asid, kUserDataVaddr, kUserDataBytes, kernel_phys_.shared_user_data,
                      /*user=*/true);
    // Trampoline data needed on every kernel entry, supervisor-only.
    mapper_.AddRegion(asid, kPercpuVaddr, kPageBytes, kernel_phys_.percpu, /*user=*/false);
    mapper_.AddRegion(asid, kSyscallTableVaddr, kPageBytes, kernel_phys_.table,
                      /*user=*/false);
    // VMM-owned data: reachable from host mode under any cr3.
    mapper_.AddRegion(asid, kHostDataVaddr, kHostDataBytes, kernel_phys_.host_data,
                      /*user=*/false);
  };
  map_common(proc.user_cr3);
  if (config_.pti) {
    map_common(proc.kernel_cr3);
  }
  // Kernel-private data: only reachable through the kernel view under PTI;
  // in the shared view (no PTI) it is mapped but supervisor-only — the
  // classic Meltdown exposure.
  mapper_.AddRegion(proc.kernel_cr3, kKernelSecretVaddr, kPageBytes, kernel_phys_.secret,
                    /*user=*/false);
  mapper_.AddRegion(proc.kernel_cr3, kKernelHeapVaddr, kKernelHeapBytes, kernel_phys_.heap,
                    /*user=*/false);
}

void Kernel::DefineSyscall(int nr, std::function<void(ProgramBuilder&)> emit_body) {
  SPECBENCH_CHECK(!finalized_);
  SPECBENCH_CHECK(nr >= 0 && nr < kMaxSyscalls);
  syscall_emitters_[static_cast<size_t>(nr)] = std::move(emit_body);
}

void Kernel::EmitSyscall(ProgramBuilder& b, Sys nr) {
  b.MovImm(kSysNr, static_cast<int64_t>(nr));
  b.Syscall();
}

void Kernel::RegisterKcall(int64_t id, Machine::KcallHook hook) {
  SPECBENCH_CHECK_MSG(id >= kKcallCustomBase, "custom kcall ids start at kKcallCustomBase");
  machine_->RegisterKcall(id, std::move(hook));
}

void Kernel::EmitProtectedIndirectCall(uint8_t target_reg) {
  SPECBENCH_CHECK(target_reg == kTarget);
  switch (config_.retpoline) {
    case RetpolineMode::kNone:
      // Either unprotected or covered by IBRS/eIBRS.
      builder_.IndirectCall(target_reg);
      break;
    case RetpolineMode::kAmd:
      // Paper Figure 4: lfence; call *%r11. The fence is the mitigation;
      // the dispatch itself is baseline work.
      {
        CauseScope tag(builder_, CauseTag::kSpectreV2);
        builder_.Lfence();
      }
      builder_.IndirectCall(target_reg);
      break;
    case RetpolineMode::kGeneric:
      builder_.Call(retpoline_thunk_label_);
      break;
  }
}

void Kernel::EmitRetpolineThunk() {
  // Paper Figure 4, transcribed: the ret speculates to the pause/lfence spin
  // via the RSB while architecturally jumping to the target in kTarget.
  // The whole thunk is Spectre V2 mitigation code; the call site that enters
  // it stays baseline (it replaces the plain indirect call).
  CauseScope tag(builder_, CauseTag::kSpectreV2);
  retpoline_thunk_label_ = builder_.NewLabel();
  Label setup = builder_.NewLabel();
  Label spin = builder_.NewLabel();
  Label done = builder_.NewLabel();
  builder_.Jmp(done);  // thunk body is emitted out of line; skip over it
  builder_.Bind(retpoline_thunk_label_);
  builder_.Call(setup);
  builder_.Bind(spin);
  builder_.Pause();
  builder_.Lfence();
  builder_.Jmp(spin);
  builder_.Bind(setup);
  builder_.Store(MemRef{.base = kRegSp}, kTarget);  // overwrite return address
  builder_.Ret();
  builder_.Bind(done);
}

void Kernel::EmitKernelWorkLoop(int iterations) {
  // Generic in-kernel work (bookkeeping, accounting, VFS-style layers):
  // a dependent load/modify/store loop over kernel heap data. Keeps the
  // baseline cost of each operation at realistic Linux-like magnitudes so
  // mitigation costs show up at the paper's relative scale.
  Label loop = builder_.NewLabel();
  builder_.MovImm(kScr8, iterations);
  builder_.Bind(loop);
  builder_.Load(kScr9, MemRef{.disp = static_cast<int64_t>(kKernelHeapVaddr + 0x30000)});
  builder_.AluImm(AluOp::kAdd, kScr9, kScr9, 1);
  builder_.Store(MemRef{.disp = static_cast<int64_t>(kKernelHeapVaddr + 0x30000)}, kScr9);
  builder_.AluImm(AluOp::kXor, kScr12, kScr9, 13);
  builder_.AluImm(AluOp::kSub, kScr8, kScr8, 1);
  builder_.BranchNz(kScr8, loop);
}

void Kernel::EmitEntryPath() {
  builder_.BindSymbol("syscall_entry");
  builder_.Swapgs();
  if (config_.lfence_after_swapgs) {
    CauseScope tag(builder_, CauseTag::kSpectreV1);
    builder_.Lfence();
  }
  if (config_.pti) {
    CauseScope tag(builder_, CauseTag::kPti);
    builder_.Load(kScr9, MemRef{.disp = static_cast<int64_t>(kPercpuVaddr + kPercpuKernelCr3)});
    builder_.MovCr3(kScr9);
  }
  if (config_.ibrs == IbrsMode::kLegacyIbrs) {
    CauseScope tag(builder_, CauseTag::kSpectreV2);
    builder_.Load(kScr9,
                  MemRef{.disp = static_cast<int64_t>(kPercpuVaddr + kPercpuSpecCtrlEntry)});
    builder_.Wrmsr(kMsrSpecCtrl, kScr9);
  }
  // Save the user register frame (pt_regs).
  for (uint8_t r = 0; r < 6; r++) {
    builder_.Store(MemRef{.base = kRegSp, .disp = -8 * (r + 1)}, r);
  }
  // Dispatch. Spectre V1 hardening clamps the table index with a cmov
  // barrier (the "array index masking" pattern).
  if (config_.kernel_index_masking) {
    CauseScope tag(builder_, CauseTag::kSpectreV1);
    builder_.MovImm(kScr8, 0);
    builder_.AluImm(AluOp::kCmpGe, kScr9, kSysNr, kMaxSyscalls);
    builder_.Cmov(kSysNr, kScr8, kScr9);
  }
  builder_.Lea(kScr9, MemRef{.index = kSysNr,
                             .scale = 8,
                             .disp = static_cast<int64_t>(kSyscallTableVaddr)});
  builder_.Load(kTarget, MemRef{.base = kScr9});
  EmitProtectedIndirectCall(kTarget);
  // Handlers return here; fall through into the exit path.
}

void Kernel::EmitExitPath() {
  builder_.BindSymbol("syscall_exit");
  // Restore the user register frame (r0 carries the return value).
  for (uint8_t r = 1; r < 6; r++) {
    builder_.Load(r, MemRef{.base = kRegSp, .disp = -8 * (r + 1)});
  }
  if (config_.ibrs == IbrsMode::kLegacyIbrs) {
    CauseScope tag(builder_, CauseTag::kSpectreV2);
    builder_.Load(kScr9,
                  MemRef{.disp = static_cast<int64_t>(kPercpuVaddr + kPercpuSpecCtrlExit)});
    builder_.Wrmsr(kMsrSpecCtrl, kScr9);
  }
  if (config_.mds_clear_buffers) {
    CauseScope tag(builder_, CauseTag::kMds);
    builder_.Verw();
  }
  if (config_.pti) {
    CauseScope tag(builder_, CauseTag::kPti);
    builder_.Load(kScr9, MemRef{.disp = static_cast<int64_t>(kPercpuVaddr + kPercpuUserCr3)});
    builder_.MovCr3(kScr9);
  }
  builder_.Swapgs();
  builder_.Sysret();
}

void Kernel::EmitCopyLoop(bool to_user) {
  // r0 = user pointer, r1 = byte count. Copies between the user buffer and
  // the kernel heap (read: kernel->user; write: user->kernel).
  Label loop = builder_.NewLabel();
  Label done = builder_.NewLabel();
  builder_.AluImm(AluOp::kShr, kScr8, kArg1, 3);  // words
  builder_.BranchZ(kScr8, done);
  builder_.Mov(kScr9, kArg0);
  builder_.MovImm(kScr12, static_cast<int64_t>(kKernelHeapVaddr));
  builder_.Bind(loop);
  if (to_user) {
    builder_.Load(kScr13, MemRef{.base = kScr12});
    builder_.Store(MemRef{.base = kScr9}, kScr13);
  } else {
    builder_.Load(kScr13, MemRef{.base = kScr9});
    builder_.Store(MemRef{.base = kScr12}, kScr13);
  }
  builder_.AluImm(AluOp::kAdd, kScr9, kScr9, 8);
  builder_.AluImm(AluOp::kAdd, kScr12, kScr12, 8);
  builder_.AluImm(AluOp::kSub, kScr8, kScr8, 1);
  builder_.BranchNz(kScr8, loop);
  builder_.Bind(done);
  builder_.Ret();
}

void Kernel::EmitStandardHandlers() {
  auto record = [&](Sys nr) {
    syscall_handler_vaddr_[static_cast<size_t>(nr)] =
        kDefaultCodeBase + static_cast<uint64_t>(builder_.NextIndex()) * kInstructionBytes;
  };

  // getpid: the minimal syscall (LEBench's "null" operation).
  record(Sys::kGetpid);
  builder_.BindSymbol("sys_getpid");
  EmitKernelWorkLoop(220);  // task-struct walks, audit, rcu bookkeeping
  builder_.Load(kScr8, MemRef{.disp = static_cast<int64_t>(kPercpuVaddr + kPercpuCurrentPid)});
  builder_.Mov(kArg0, kScr8);
  builder_.Ret();

  // yield: the context-switch path with its mitigation work.
  record(Sys::kYield);
  builder_.BindSymbol("sys_yield");
  EmitKernelWorkLoop(60);  // scheduler pick_next / runqueue work
  builder_.Kcall(kKcallSwitch);
  if (config_.eager_fpu) {
    // Eager FPU state switching (the LazyFP mitigation); the lazy path pays
    // an equivalent trap cost on first use, charged untagged in the hook.
    CauseScope tag(builder_, CauseTag::kOther);
    builder_.Xsave();
    builder_.Xrstor();
  }
  // Note: IBPB on context switch is *conditional* in Linux (applied when the
  // incoming process opted into protection, e.g. via seccomp); it happens in
  // the switch hook, not unconditionally here.
  if (config_.rsb_stuff_on_context_switch) {
    CauseScope tag(builder_, CauseTag::kSpectreV2);
    builder_.RsbStuff();
  }
  builder_.Load(kScr9, MemRef{.disp = static_cast<int64_t>(kPercpuVaddr + kPercpuKernelCr3)});
  builder_.MovCr3(kScr9);
  builder_.Ret();

  record(Sys::kRead);
  builder_.BindSymbol("sys_read");
  EmitKernelWorkLoop(60);  // fdtable lookup + VFS layers
  EmitCopyLoop(/*to_user=*/true);

  record(Sys::kWrite);
  builder_.BindSymbol("sys_write");
  EmitKernelWorkLoop(60);
  EmitCopyLoop(/*to_user=*/false);

  // mmap: write a page-table entry per page, then register the VMA.
  record(Sys::kMmap);
  builder_.BindSymbol("sys_mmap");
  EmitKernelWorkLoop(40);  // vma allocation and rbtree insertion
  {
    Label loop = builder_.NewLabel();
    Label done = builder_.NewLabel();
    builder_.AluImm(AluOp::kShr, kScr8, kArg0, 12);
    builder_.AluImm(AluOp::kAdd, kScr8, kScr8, 1);
    builder_.MovImm(kScr9, static_cast<int64_t>(kKernelHeapVaddr + kHeapPtScratch));
    builder_.Bind(loop);
    builder_.Store(MemRef{.base = kScr9}, kScr8);
    builder_.AluImm(AluOp::kAdd, kScr9, kScr9, 8);
    builder_.AluImm(AluOp::kSub, kScr8, kScr8, 1);
    builder_.BranchNz(kScr8, loop);
    builder_.Bind(done);
    builder_.Kcall(kKcallMmap);
    builder_.Ret();
  }

  record(Sys::kMunmap);
  builder_.BindSymbol("sys_munmap");
  EmitKernelWorkLoop(40);
  builder_.Kcall(kKcallMunmap);
  builder_.Ret();

  // send/recv: copies through a kernel IPC queue buffer.
  record(Sys::kSend);
  builder_.BindSymbol("sys_send");
  EmitKernelWorkLoop(50);  // socket lookup and skb setup
  {
    Label loop = builder_.NewLabel();
    Label done = builder_.NewLabel();
    builder_.AluImm(AluOp::kShr, kScr8, kArg1, 3);
    builder_.BranchZ(kScr8, done);
    builder_.Mov(kScr9, kArg0);
    builder_.MovImm(kScr12, static_cast<int64_t>(kKernelHeapVaddr + kHeapIpcQueue));
    builder_.Bind(loop);
    builder_.Load(kScr13, MemRef{.base = kScr9});
    builder_.Store(MemRef{.base = kScr12}, kScr13);
    builder_.AluImm(AluOp::kAdd, kScr9, kScr9, 8);
    builder_.AluImm(AluOp::kAdd, kScr12, kScr12, 8);
    builder_.AluImm(AluOp::kSub, kScr8, kScr8, 1);
    builder_.BranchNz(kScr8, loop);
    builder_.Bind(done);
    builder_.Ret();
  }

  record(Sys::kRecv);
  builder_.BindSymbol("sys_recv");
  EmitKernelWorkLoop(50);
  {
    Label loop = builder_.NewLabel();
    Label done = builder_.NewLabel();
    builder_.AluImm(AluOp::kShr, kScr8, kArg1, 3);
    builder_.BranchZ(kScr8, done);
    builder_.Mov(kScr9, kArg0);
    builder_.MovImm(kScr12, static_cast<int64_t>(kKernelHeapVaddr + kHeapIpcQueue));
    builder_.Bind(loop);
    builder_.Load(kScr13, MemRef{.base = kScr12});
    builder_.Store(MemRef{.base = kScr9}, kScr13);
    builder_.AluImm(AluOp::kAdd, kScr9, kScr9, 8);
    builder_.AluImm(AluOp::kAdd, kScr12, kScr12, 8);
    builder_.AluImm(AluOp::kSub, kScr8, kScr8, 1);
    builder_.BranchNz(kScr8, loop);
    builder_.Bind(done);
    builder_.Ret();
  }

  // select: scan the fd table checking readiness bits (r0 = nfds).
  record(Sys::kSelect);
  builder_.BindSymbol("sys_select");
  EmitKernelWorkLoop(30);  // poll setup, locking
  {
    Label loop = builder_.NewLabel();
    Label not_ready = builder_.NewLabel();
    Label done = builder_.NewLabel();
    builder_.Mov(kScr8, kArg0);
    builder_.BranchZ(kScr8, done);
    builder_.MovImm(kScr9, static_cast<int64_t>(kKernelHeapVaddr + 0x28000));
    builder_.MovImm(kScr12, 0);  // ready count
    builder_.Bind(loop);
    builder_.Load(kScr13, MemRef{.base = kScr9});       // fd state word
    builder_.AluImm(AluOp::kAnd, kScr13, kScr13, 1);    // readiness bit
    builder_.BranchZ(kScr13, not_ready);
    builder_.AluImm(AluOp::kAdd, kScr12, kScr12, 1);
    builder_.Bind(not_ready);
    builder_.AluImm(AluOp::kAdd, kScr9, kScr9, 8);
    builder_.AluImm(AluOp::kSub, kScr8, kScr8, 1);
    builder_.BranchNz(kScr8, loop);
    builder_.Bind(done);
    builder_.Mov(kArg0, kScr12);
    builder_.Ret();
  }

  record(Sys::kFork);
  builder_.BindSymbol("sys_fork");
  EmitKernelWorkLoop(60);
  builder_.Kcall(kKcallFork);
  builder_.Ret();

  record(Sys::kThreadCreate);
  builder_.BindSymbol("sys_thread_create");
  EmitKernelWorkLoop(40);
  builder_.Kcall(kKcallThreadCreate);
  builder_.Ret();

  // Custom syscalls registered by workloads.
  for (int nr = 0; nr < kMaxSyscalls; nr++) {
    if (syscall_emitters_[static_cast<size_t>(nr)]) {
      syscall_handler_vaddr_[static_cast<size_t>(nr)] =
          kDefaultCodeBase + static_cast<uint64_t>(builder_.NextIndex()) * kInstructionBytes;
      syscall_emitters_[static_cast<size_t>(nr)](builder_);
    }
  }
}

void Kernel::EmitKernelText() {
  if (config_.retpoline == RetpolineMode::kGeneric) {
    EmitRetpolineThunk();
  }
  EmitEntryPath();
  EmitExitPath();
  EmitStandardHandlers();
  for (auto& emitter : extra_text_emitters_) {
    emitter(builder_);
  }
}

void Kernel::AddTextEmitter(std::function<void(ProgramBuilder&)> emitter) {
  SPECBENCH_CHECK(!finalized_);
  extra_text_emitters_.push_back(std::move(emitter));
}

void Kernel::AddPostFinalizeHook(std::function<void()> hook) {
  SPECBENCH_CHECK(!finalized_);
  post_finalize_hooks_.push_back(std::move(hook));
}

void Kernel::WriteSyscallTable() {
  const uint64_t saved_cr3 = machine_->cr3();
  machine_->SetCr3(processes_[0]->kernel_cr3);
  const uint64_t fallback = syscall_handler_vaddr_[static_cast<size_t>(Sys::kGetpid)];
  for (int nr = 0; nr < kMaxSyscalls; nr++) {
    const uint64_t handler = syscall_handler_vaddr_[static_cast<size_t>(nr)];
    machine_->PokeData(kSyscallTableVaddr + static_cast<uint64_t>(nr) * 8,
                       handler != 0 ? handler : fallback);
  }
  machine_->SetCr3(saved_cr3);
}

void Kernel::LoadPercpuFor(const Process& proc) {
  const uint64_t saved_cr3 = machine_->cr3();
  machine_->SetCr3(proc.kernel_cr3);
  machine_->PokeData(kPercpuVaddr + kPercpuKernelCr3, proc.kernel_cr3);
  machine_->PokeData(kPercpuVaddr + kPercpuUserCr3, proc.user_cr3);
  const uint64_t ssbd_bit = SsbdActiveFor(proc) ? kSpecCtrlSsbd : 0;
  machine_->PokeData(kPercpuVaddr + kPercpuSpecCtrlEntry, kSpecCtrlIbrs | ssbd_bit);
  machine_->PokeData(kPercpuVaddr + kPercpuSpecCtrlExit, ssbd_bit);
  machine_->PokeData(kPercpuVaddr + kPercpuCurrentPid, static_cast<uint64_t>(proc.pid));
  machine_->SetCr3(saved_cr3);
}

bool Kernel::SsbdActiveFor(const Process& proc) const {
  switch (config_.ssbd) {
    case SsbdMode::kOff: return false;
    case SsbdMode::kPrctl: return proc.ssbd_prctl;
    case SsbdMode::kSeccomp: return proc.ssbd_prctl || proc.uses_seccomp;
    case SsbdMode::kAlways: return true;
  }
  return false;
}

void Kernel::ContextSwitchTo(Process& next) {
  Process& cur = current_process();
  cur.resume_rip = machine_->saved_user_rip();
  machine_->SetSavedUserRip(next.resume_rip);
  // Switch kernel stacks: the remainder of the switch path returns through
  // the *next* process's stack frame (its own suspended yield, or the
  // fabricated initial frame pointing at the syscall exit path).
  cur.saved_rsp = machine_->reg(kRegSp);
  machine_->SetReg(kRegSp, next.saved_rsp);
  LoadPercpuFor(next);
  machine_->SetSsbd(SsbdActiveFor(next));
  if (config_.eager_fpu) {
    // The xsave/xrstor pair in the IR path accounts for the time; here we
    // move the values so no stale registers remain in the FPU.
    for (uint8_t i = 0; i < kNumFpRegs; i++) {
      cur.fp_state[i] = machine_->fpreg(i);
      machine_->SetFpReg(i, next.fp_state[i]);
    }
    fpu_owner_pid_ = next.pid;
    machine_->SetFpuEnabled(true);
  } else {
    // Lazy FPU: leave the previous owner's registers in place and trap on
    // first use — the LazyFP attack surface.
    machine_->SetFpuEnabled(fpu_owner_pid_ == next.pid);
  }
  // Conditional IBPB (Linux default): flush the indirect predictor only for
  // processes that asked for protection (seccomp/prctl) — which is why
  // ordinary benchmark processes do not pay the Table 6 cost on switches.
  if (config_.ibpb_on_context_switch && (next.uses_seccomp || next.ssbd_prctl)) {
    machine_->AddCycles(cpu_.latency.ibpb, CauseTag::kSpectreV2);
    machine_->btb().FlushAll();
  }
  // STIBP: the scheduler rewrites SPEC_CTRL on the switch path to keep the
  // per-thread predictor partition in force — one wrmsr per switch, far
  // cheaper than an IBPB flush and the reason the v2-SMT cell has a cheaper
  // sufficient defense than nosmt.
  if (config_.stibp && cpu_.smt) {
    machine_->AddCycles(cpu_.latency.wrmsr_spec_ctrl, CauseTag::kSpectreV2);
  }
  // Core scheduling: cookie comparison and sibling selection in pick_next.
  // Pure scheduler arithmetic — no MSR traffic, no predictor flush — charged
  // to the MDS family it exists to contain (cross-thread sampling).
  if (config_.core_scheduling && cpu_.smt) {
    machine_->AddCycles(kCoreSchedPickCycles, CauseTag::kMds);
  }
  current_pid_ = next.pid;
  context_switches_++;
  machine_->AddCycles(2500);  // mm switch, runqueue accounting, timers
}

bool Kernel::HandlePageFault(uint64_t vaddr) {
  Process& proc = current_process();
  const uint64_t page_start = vaddr & ~(kPageBytes - 1);
  // Find a VMA covering the fault.
  for (const auto& [start, length] : proc.vmas) {
    if (vaddr >= start && vaddr < start + length) {
      const uint64_t phys = phys_.Alloc(kPageBytes);
      mapper_.AddRegion(proc.user_cr3, page_start, kPageBytes, phys, /*user=*/true);
      if (config_.pti) {
        mapper_.AddRegion(proc.kernel_cr3, page_start, kPageBytes, phys, /*user=*/true);
      }
      page_faults_++;
      // A fault is a full boundary crossing plus handler work; the boundary
      // part mirrors the syscall entry/exit mitigation sequence and is
      // charged per-cause so attribution sees faults like real crossings.
      ChargeBoundaryCrossing();
      machine_->AddCycles(1500);
      return true;
    }
  }
  return false;
}

void Kernel::InstallHooks() {
  machine_->SetPageFaultHook(
      [this](Machine&, uint64_t vaddr) { return HandlePageFault(vaddr); });

  machine_->SetFpTrapHook([this](Machine& m) {
    Process& owner = process(fpu_owner_pid_);
    Process& cur = current_process();
    for (uint8_t i = 0; i < kNumFpRegs; i++) {
      owner.fp_state[i] = m.fpreg(i);
      m.SetFpReg(i, cur.fp_state[i]);
    }
    fpu_owner_pid_ = cur.pid;
    m.SetFpuEnabled(true);
    m.AddCycles(cpu_.latency.xsave + cpu_.latency.xrstor);
  });

  machine_->RegisterKcall(kKcallSwitch, [this](Machine&) {
    const int next_pid = (current_pid_ + 1) % static_cast<int>(processes_.size());
    ContextSwitchTo(process(next_pid));
  });

  machine_->RegisterKcall(kKcallMmap, [this](Machine& m) {
    Process& proc = current_process();
    const uint64_t bytes = std::max<uint64_t>(m.reg(kArg0), kPageBytes);
    const uint64_t vaddr = proc.next_mmap_vaddr;
    proc.next_mmap_vaddr += (bytes + kPageBytes - 1) & ~(kPageBytes - 1);
    proc.vmas[vaddr] = bytes;
    m.SetReg(kArg0, vaddr);
    m.AddCycles(2000);
  });

  machine_->RegisterKcall(kKcallMunmap, [this](Machine& m) {
    Process& proc = current_process();
    const uint64_t vaddr = m.reg(kArg0);
    auto it = proc.vmas.find(vaddr);
    if (it == proc.vmas.end()) {
      m.SetReg(kArg0, static_cast<uint64_t>(-1));
      return;
    }
    const uint64_t pages = (it->second + kPageBytes - 1) / kPageBytes;
    for (uint64_t p = 0; p < pages; p++) {
      mapper_.RemoveRegion(proc.user_cr3, vaddr + p * kPageBytes);
      if (config_.pti) {
        mapper_.RemoveRegion(proc.kernel_cr3, vaddr + p * kPageBytes);
      }
    }
    machine_->tlb().FlushAsid(proc.user_cr3);
    if (config_.pti) {
      machine_->tlb().FlushAsid(proc.kernel_cr3);
    }
    proc.vmas.erase(it);
    m.SetReg(kArg0, 0);
    m.AddCycles(100 + pages * 25);
  });

  machine_->RegisterKcall(kKcallFork, [this](Machine& m) {
    // Model fork+exit: create the child (address space setup + per-page copy
    // cost), return its pid, then reap it so scheduling is unaffected.
    Process& child = CreateProcess();
    const uint64_t regions = mapper_.RegionCount(current_process().user_cr3);
    m.AddCycles(9000 + regions * 300);
    m.SetReg(kArg0, static_cast<uint64_t>(child.pid));
    processes_.pop_back();
  });

  machine_->RegisterKcall(kKcallThreadCreate, [this](Machine& m) {
    // Threads share the address space: allocate only a stack.
    phys_.Alloc(kUserStackBytes);
    m.AddCycles(2500);
    m.SetReg(kArg0, 1);
  });
}

void Kernel::Finalize() {
  SPECBENCH_CHECK(!finalized_);
  finalized_ = true;

  EmitKernelText();
  program_ = builder_.Build();
  machine_->LoadProgram(&program_);
  machine_->SetMemoryMap(&mapper_);
  machine_->SetSyscallEntry(program_.SymbolVaddr("syscall_entry"));

  machine_->SetPcidEnabled(config_.pcid && cpu_.pcid_supported);

  Process& boot = *processes_[0];
  machine_->SetMode(Mode::kUser);
  machine_->SetCr3(boot.user_cr3);
  machine_->SetReg(kRegSp, kUserStackTop - 64);
  machine_->SetFpuEnabled(true);
  fpu_owner_pid_ = 0;
  current_pid_ = 0;

  WriteSyscallTable();
  LoadPercpuFor(boot);
  // Fabricate an initial kernel-stack frame for every non-boot process so
  // the first switch into it "returns" through the syscall exit path and
  // sysrets to its entry point.
  const uint64_t exit_vaddr = program_.SymbolVaddr("syscall_exit");
  for (auto& proc : processes_) {
    if (proc->pid == 0) {
      proc->saved_rsp = kUserStackTop - 64;
      continue;
    }
    const uint64_t frame = kUserStackTop - 64 - 8;
    const uint64_t saved = machine_->cr3();
    machine_->SetCr3(proc->user_cr3);
    machine_->PokeData(frame, exit_vaddr);
    machine_->SetCr3(saved);
    proc->saved_rsp = frame;
  }
  machine_->SetSsbd(SsbdActiveFor(boot));
  if (config_.ibrs == IbrsMode::kEibrs) {
    machine_->SetIbrs(true);  // set once at boot; stays on (eIBRS semantics)
  }
  if (config_.stibp && cpu_.smt) {
    machine_->SetStibp(true);  // partition predictor state between siblings
  }
  InstallHooks();

  // Fill the kernel heap copy-source area with data so read() moves real
  // bytes (and so cache behaviour is consistent).
  const uint64_t saved_cr3 = machine_->cr3();
  machine_->SetCr3(boot.kernel_cr3);
  for (uint64_t off = 0; off < 0x4000; off += 8) {
    machine_->PokeData(kKernelHeapVaddr + off, 0x1234567800ULL + off);
  }
  for (uint64_t off = 0; off < 0x800; off += 8) {
    machine_->PokeData(kKernelHeapVaddr + 0x28000 + off, (off * 2654435761ULL) >> 7);
  }
  machine_->PokeData(kKernelSecretVaddr, 0x5ec7e7ULL);  // the Meltdown target
  machine_->SetCr3(saved_cr3);

  for (auto& hook : post_finalize_hooks_) {
    hook();
  }
}

void Kernel::SetProcessEntry(int pid, const std::string& symbol) {
  process(pid).resume_rip = program_.SymbolVaddr(symbol);
}

Machine::RunResult Kernel::Run(const std::string& symbol, uint64_t max_instructions) {
  SPECBENCH_CHECK_MSG(finalized_, "Kernel::Run before Finalize");
  return machine_->Run(program_.SymbolVaddr(symbol), max_instructions);
}

uint64_t Kernel::BoundaryCrossingCost() const {
  const LatencyTable& lat = cpu_.latency;
  uint64_t cost = lat.syscall + lat.sysret + 2 * lat.swapgs;
  if (config_.lfence_after_swapgs) {
    cost += lat.lfence;
  }
  if (config_.pti) {
    cost += 2 * lat.swap_cr3;
  }
  if (config_.mds_clear_buffers) {
    cost += cpu_.vuln.mds ? lat.verw_clear : lat.verw_legacy;
  }
  if (config_.ibrs == IbrsMode::kLegacyIbrs) {
    cost += 2 * lat.wrmsr_spec_ctrl;
  }
  // Dispatch through the protected indirect branch.
  switch (config_.retpoline) {
    case RetpolineMode::kNone:
      cost += lat.indirect_predicted;
      break;
    case RetpolineMode::kAmd:
      cost += lat.lfence + lat.indirect_predicted;
      break;
    case RetpolineMode::kGeneric:
      cost += 7 + lat.mispredict_penalty;
      break;
  }
  if (config_.kernel_index_masking) {
    cost += 3;
  }
  return cost;
}

void Kernel::ChargeBoundaryCrossing() {
  // The same cost model as BoundaryCrossingCost(), split by the mitigation
  // that owns each term so CycleAttribution sees page faults the way it sees
  // real syscall crossings. The per-cause charges sum exactly to
  // BoundaryCrossingCost() (os_kernel_test cross-checks this).
  const LatencyTable& lat = cpu_.latency;
  uint64_t baseline = lat.syscall + lat.sysret + 2 * lat.swapgs;
  uint64_t v1 = 0, v2 = 0, pti = 0, mds = 0;
  if (config_.lfence_after_swapgs) {
    v1 += lat.lfence;
  }
  if (config_.pti) {
    pti += 2 * lat.swap_cr3;
  }
  if (config_.mds_clear_buffers) {
    mds += cpu_.vuln.mds ? lat.verw_clear : lat.verw_legacy;
  }
  if (config_.ibrs == IbrsMode::kLegacyIbrs) {
    v2 += 2 * lat.wrmsr_spec_ctrl;
  }
  switch (config_.retpoline) {
    case RetpolineMode::kNone:
      baseline += lat.indirect_predicted;
      break;
    case RetpolineMode::kAmd:
      v2 += lat.lfence;
      baseline += lat.indirect_predicted;
      break;
    case RetpolineMode::kGeneric: {
      // The thunk replaces a plain predicted dispatch: charge what the
      // unmitigated dispatch would have cost to baseline and the rest to V2.
      const uint64_t total = 7 + lat.mispredict_penalty;
      const uint64_t base = std::min<uint64_t>(lat.indirect_predicted, total);
      baseline += base;
      v2 += total - base;
      break;
    }
  }
  if (config_.kernel_index_masking) {
    v1 += 3;
  }
  machine_->AddCycles(baseline, CauseTag::kNone);
  machine_->AddCycles(v1, CauseTag::kSpectreV1);
  machine_->AddCycles(v2, CauseTag::kSpectreV2);
  machine_->AddCycles(pti, CauseTag::kPti);
  machine_->AddCycles(mds, CauseTag::kMds);
}

}  // namespace specbench
