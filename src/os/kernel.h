// The simulated operating system kernel.
//
// The Kernel composes one machine program containing the workload's user
// code plus the kernel text it generates: the syscall entry/exit paths with
// every configured mitigation in its real place (the structure Linux uses),
// syscall handler bodies dispatched through an indirect branch protected per
// the Spectre V2 mode (plain / generic retpoline transcribed from the
// paper's Figure 4 / AMD lfence retpoline / IBRS), and the context-switch
// path (eager-FPU save, IBPB, RSB stuffing, cr3 switch).
//
// Register ABI:
//   r0..r2   syscall arguments / return value (r0)
//   r3..r7   user code locals (preserved: the kernel does not touch them)
//   r8..r14  kernel scratch (clobbered by any syscall)
//   r10      syscall number on entry
//   r15      stack pointer (shared user/kernel stack, like pre-PTI Linux)
#ifndef SPECTREBENCH_SRC_OS_KERNEL_H_
#define SPECTREBENCH_SRC_OS_KERNEL_H_

#include <array>
#include <cstdint>
#include <map>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/cpu/cpu_model.h"
#include "src/isa/program.h"
#include "src/os/mitigation_config.h"
#include "src/os/paging.h"
#include "src/uarch/machine.h"
#include "src/uarch/machine_pool.h"

namespace specbench {

// --- Kernel virtual memory layout -----------------------------------------
// Kernel-only data mapped in *every* address space (the PTI trampoline).
inline constexpr uint64_t kSyscallTableVaddr = 0x80000000;
inline constexpr uint64_t kPercpuVaddr = 0x80001000;
// Kernel-only data mapped only in the kernel view under PTI.
inline constexpr uint64_t kKernelSecretVaddr = 0x80002000;
inline constexpr uint64_t kKernelHeapVaddr = 0x80100000;
inline constexpr uint64_t kKernelHeapBytes = 1 << 20;
// User regions.
inline constexpr uint64_t kUserStackTop = 0x7fff0000;
inline constexpr uint64_t kUserStackBytes = 64 * 1024;
inline constexpr uint64_t kUserDataVaddr = 0x10000000;
inline constexpr uint64_t kUserDataBytes = 16 << 20;
inline constexpr uint64_t kUserMmapBase = 0x20000000;
// Host/VMM data (emulated device buffers), mapped supervisor-only in every
// address space so the vmexit handler can run regardless of the guest cr3.
inline constexpr uint64_t kHostDataVaddr = 0x90000000;
inline constexpr uint64_t kHostDataBytes = 64 * 1024;

// Core-scheduling cookie comparison in pick_next_task, charged per context
// switch when core_scheduling is on (SMT parts only).
inline constexpr uint64_t kCoreSchedPickCycles = 120;

// Per-cpu slots (offsets from kPercpuVaddr).
inline constexpr uint64_t kPercpuKernelCr3 = 0;
inline constexpr uint64_t kPercpuUserCr3 = 8;
inline constexpr uint64_t kPercpuSpecCtrlEntry = 16;
inline constexpr uint64_t kPercpuSpecCtrlExit = 24;

// --- Syscalls ---------------------------------------------------------------
enum class Sys : int {
  kGetpid = 0,
  kYield = 1,
  kRead = 2,    // r0 = user buffer, r1 = bytes
  kWrite = 3,   // r0 = user buffer, r1 = bytes
  kMmap = 4,    // r0 = bytes; returns r0 = vaddr (demand paged)
  kMunmap = 5,  // r0 = vaddr
  kSend = 6,    // r0 = user buffer, r1 = bytes (copy into kernel queue)
  kRecv = 7,    // r0 = user buffer, r1 = bytes (copy out of kernel queue)
  kFork = 8,    // duplicate current process (model: clone address space)
  kThreadCreate = 9,
  kSelect = 10, // scan the fd table for readiness (r0 = nfds)
  kCustomBase = 16,
};
inline constexpr int kMaxSyscalls = 64;

struct Process {
  int pid = 0;
  uint64_t user_cr3 = 0;
  uint64_t kernel_cr3 = 0;
  uint64_t resume_rip = 0;
  // Saved stack pointer while the process is switched out. Fresh processes
  // get a fabricated frame whose return address is the syscall exit path.
  uint64_t saved_rsp = 0;
  bool uses_seccomp = false;   // SSBD applies under SsbdMode::kSeccomp
  bool ssbd_prctl = false;     // explicit prctl opt-in
  std::array<uint64_t, kNumFpRegs> fp_state{};
  uint64_t next_mmap_vaddr = kUserMmapBase;
  // Demand-paged VMAs created by mmap: start -> length.
  std::map<uint64_t, uint64_t> vmas;
};

class Kernel {
 public:
  Kernel(const CpuModel& cpu, const MitigationConfig& config);

  // --- Build phase ---------------------------------------------------------
  // The shared builder: workloads emit user code here before Finalize().
  ProgramBuilder& builder() { return builder_; }
  // Creates a process (the first one is the boot process, created
  // automatically). All build-phase only.
  Process& CreateProcess();
  // Registers a custom syscall handler body. The emitter must end its body
  // with Ret. Handlers run with kernel privileges after the full entry path.
  void DefineSyscall(int nr, std::function<void(ProgramBuilder&)> emit_body);
  // Emits "syscall nr" invocation into user code (sets r10, executes kSyscall).
  void EmitSyscall(ProgramBuilder& b, Sys nr);
  // Registers an extra kcall hook (ids >= kKcallCustomBase).
  void RegisterKcall(int64_t id, Machine::KcallHook hook);
  static constexpr int64_t kKcallCustomBase = 100;
  // Registers extra text emitted during Finalize after the standard kernel
  // text (used by the hypervisor substrate for its vmexit handler).
  void AddTextEmitter(std::function<void(ProgramBuilder&)> emitter);
  // Runs after Finalize completes (machine configured, symbols resolved).
  void AddPostFinalizeHook(std::function<void()> hook);

  // Emits kernel text, builds the program, configures the machine and
  // initial process state. After this the build phase is over.
  void Finalize();

  // --- Run phase -----------------------------------------------------------
  // Sets where process `pid` starts/resumes in user mode (symbol from the
  // build phase). The boot process resumes wherever Run() enters.
  void SetProcessEntry(int pid, const std::string& symbol);
  // Runs user code at `symbol` in the boot process until kHalt.
  Machine::RunResult Run(const std::string& symbol,
                         uint64_t max_instructions = 200'000'000);

  Machine& machine() { return *machine_; }
  const Program& program() const { return program_; }
  const MitigationConfig& config() const { return config_; }
  const CpuModel& cpu() const { return cpu_; }
  Process& process(int pid);
  Process& current_process() { return process(current_pid_); }
  int process_count() const { return static_cast<int>(processes_.size()); }
  PageMapper& mapper() { return mapper_; }

  // Whether SSBD is in force for `proc` under the configured policy.
  bool SsbdActiveFor(const Process& proc) const;

  // Cost model of one user->kernel->user crossing outside the syscall path
  // (page faults). Mirrors the mitigation work the IR entry/exit paths do;
  // cross-checked against the measured null syscall in tests.
  uint64_t BoundaryCrossingCost() const;
  // Charges BoundaryCrossingCost() to the machine, decomposed per CauseTag
  // (the per-cause charges sum exactly to BoundaryCrossingCost()).
  void ChargeBoundaryCrossing();

  // Number of faults serviced (page-fault benchmark instrumentation).
  uint64_t page_faults() const { return page_faults_; }
  uint64_t context_switches() const { return context_switches_; }

 private:
  void EmitKernelText();
  void EmitEntryPath();
  void EmitExitPath();
  void EmitProtectedIndirectCall(uint8_t target_reg);
  void EmitRetpolineThunk();
  void EmitStandardHandlers();
  void EmitCopyLoop(bool to_user);
  void EmitKernelWorkLoop(int iterations);
  void SetupAddressSpaces(Process& proc);
  void InstallHooks();
  void WriteSyscallTable();
  void LoadPercpuFor(const Process& proc);
  void ContextSwitchTo(Process& next);
  bool HandlePageFault(uint64_t vaddr);

  const CpuModel cpu_;
  MitigationConfig config_;
  ProgramBuilder builder_;
  Program program_;
  MachineLease machine_;
  PageMapper mapper_;
  PhysAllocator phys_;

  std::vector<std::unique_ptr<Process>> processes_;
  int current_pid_ = 0;
  int fpu_owner_pid_ = 0;
  uint64_t next_asid_ = 1;
  bool finalized_ = false;

  std::array<std::function<void(ProgramBuilder&)>, kMaxSyscalls> syscall_emitters_{};
  std::array<uint64_t, kMaxSyscalls> syscall_handler_vaddr_{};
  Label retpoline_thunk_label_{};

  // Shared kernel physical backing (one kernel, many address spaces).
  struct KernelPhys {
    uint64_t percpu = 0;
    uint64_t table = 0;
    uint64_t secret = 0;
    uint64_t heap = 0;
    uint64_t shared_user_data = 0;
    uint64_t host_data = 0;
  };
  KernelPhys kernel_phys_;

  std::vector<std::function<void(ProgramBuilder&)>> extra_text_emitters_;
  std::vector<std::function<void()>> post_finalize_hooks_;

  uint64_t page_faults_ = 0;
  uint64_t context_switches_ = 0;
  // Simple FIFO byte count for send/recv semantics.
  uint64_t ipc_queued_bytes_ = 0;
};

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_OS_KERNEL_H_
