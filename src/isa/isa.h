// Micro-operation instruction set of the simulated machine.
//
// The simulator executes a small RISC-flavoured IR with the x86 system
// instructions that matter for transient-execution mitigations: syscall /
// sysret, swapgs, cr3 writes (page-table switch), verw (MDS buffer clear),
// wrmsr/rdmsr (IBRS / IBPB / SSBD control), lfence, clflush, xsave/xrstor,
// rdtsc/rdpmc and VM entry/exit. Mitigation code sequences from the paper
// (e.g. the two retpoline variants of Figure 4) are transcribed literally
// into this IR by the OS substrate.
#ifndef SPECTREBENCH_SRC_ISA_ISA_H_
#define SPECTREBENCH_SRC_ISA_ISA_H_

#include <cstdint>

namespace specbench {

// General-purpose registers. kRegSp doubles as the stack pointer used by
// call/ret (return addresses live in simulated memory, which is what makes a
// literal retpoline sequence possible).
inline constexpr uint8_t kNumRegs = 16;
inline constexpr uint8_t kRegSp = 15;
inline constexpr uint8_t kNoReg = 0xff;

// Floating point registers (enough to demonstrate LazyFP).
inline constexpr uint8_t kNumFpRegs = 8;

enum class Op : uint8_t {
  kNop,
  kMovImm,        // dst = imm
  kMov,           // dst = src1
  kAlu,           // dst = alu_op(src1, src2 or imm)
  kMul,           // dst = src1 * (src2 or imm)
  kDiv,           // dst = src1 / (src2 or imm); observable via the divider PMC
  kCmov,          // if reg[src2] != 0 then dst = src1 (dependency barrier!)
  kLoad,          // dst = mem[ea]
  kStore,         // mem[ea] = src1
  kLea,           // dst = ea (no memory access)
  kJmp,           // rip = target
  kBranchNz,      // if reg[src1] != 0 then rip = target
  kBranchZ,       // if reg[src1] == 0 then rip = target
  kCall,          // push return vaddr; rip = target
  kRet,           // rip = pop()
  kIndirectJmp,   // rip = reg[src1]
  kIndirectCall,  // push return vaddr; rip = reg[src1]
  kLfence,        // serialize: wait for all prior loads; ends speculation
  kMfence,        // full fence
  kPause,         // spin-loop hint (cheap, non-serializing)
  kSyscall,       // user -> kernel transition to the configured entry point
  kSysret,        // kernel -> user transition back to saved rip
  kSwapgs,        // kernel gs swap (Spectre V1 lfence attach point)
  kMovCr3,        // switch address space to reg[src1]; serializing
  kVerw,          // legacy segmentation check; with the MDS microcode patch,
                  // also clears CPU buffers (fill buffers, store buffer data)
  kWrmsr,         // msr[imm] = reg[src1]; SPEC_CTRL / PRED_CMD have effects
  kRdmsr,         // dst = msr[imm]
  kRdtsc,         // dst = current cycle
  kRdpmc,         // dst = performance counter imm
  kClflush,       // evict the line containing ea from all cache levels
  kFlushL1d,      // IA32_FLUSH_CMD-style full L1D flush (L1TF mitigation)
  kRsbStuff,      // fill the return stack buffer with harmless entries
  kXsave,         // save FPU state; latency depends on the CPU generation
  kXrstor,        // restore FPU state
  kFpOp,          // floating point compute touching fpreg[imm]; traps if the
                  // FPU is disabled (lazy FPU switching)
  kFpToGp,        // dst = fpreg[imm]; the LazyFP leak primitive
  kGpToFp,        // fpreg[imm] = reg[src1]
  kCpuid,         // serializing no-op
  kVmEnter,       // host -> guest transition
  kVmExit,        // guest -> host transition (hypercall / device access)
  kKcall,         // simulator call-out: runs a registered C++ hook (imm = id).
                  // Used by the OS substrate for semantic side effects (mmap,
                  // scheduling bookkeeping); never executed speculatively.
  kHalt,          // stop the machine
  kBranchEqImm,   // if reg[src1] == imm then rip = target. Rewrite helper for
                  // the Switchpoline-style pass (indirect branch -> compare
                  // chain of direct branches). Appended after kHalt: opcode
                  // values are folded into trace hashes, so new opcodes must
                  // never renumber existing ones.
};

enum class AluOp : uint8_t {
  kAdd,
  kSub,
  kAnd,
  kOr,
  kXor,
  kShl,
  kShr,
  kCmpLt,   // dst = (a < b) ? 1 : 0, unsigned
  kCmpGe,   // dst = (a >= b) ? 1 : 0, unsigned
  kCmpEq,
  kCmpNe,
};

// Memory operand: effective address = reg[base] + reg[index] * scale + disp.
// base/index may be kNoReg (treated as zero).
struct MemRef {
  uint8_t base = kNoReg;
  uint8_t index = kNoReg;
  uint8_t scale = 1;
  int64_t disp = 0;
};

// Model-specific registers with architectural effects in the simulator.
inline constexpr uint32_t kMsrSpecCtrl = 0x48;   // bit0 IBRS, bit2 SSBD
inline constexpr uint32_t kMsrPredCmd = 0x49;    // bit0 IBPB (write-only)
inline constexpr uint32_t kMsrFlushCmd = 0x10b;  // bit0 L1D flush (write-only)
inline constexpr uint64_t kSpecCtrlIbrs = 1u << 0;
inline constexpr uint64_t kSpecCtrlSsbd = 1u << 2;
inline constexpr uint64_t kPredCmdIbpb = 1u << 0;

// Performance counter identifiers readable via kRdpmc (paper §6.1 relies on
// the divider-active counter to detect speculative execution).
enum class Pmc : uint8_t {
  kCycles = 0,
  kInstructions = 1,
  kArithDividerActive = 2,  // cycles the divide unit was busy, incl. transient
  kMispIndirect = 3,        // mispredicted indirect branches
  kBtbHits = 4,
  kRsbUnderflows = 5,
  kSpeculativeLoads = 6,
  kSquashedUops = 7,
  kKernelEntries = 8,
  kCount,
};

// Attribution cause tag: which mitigation (or hazard class) an instruction —
// and the cycles it charges — belongs to. Mitigation code emitters (the OS
// substrate's entry/exit paths, the JIT's hardening sequences) stamp their
// instructions with the owning mitigation; everything else is kNone
// (baseline work). The machine charges every cycle to one of these tags, so
// its CycleAttribution accountant can decompose a run's cycles per
// mitigation without difference-of-runs. The OS-side values mirror the knob ids of the
// §4.1 successive-disable sweep (src/core/attribution.cc).
enum class CauseTag : uint8_t {
  kNone = 0,        // baseline (unmitigated) work
  kPti,             // page-table isolation: cr3 swaps + TLB refill costs
  kMds,             // verw buffer clearing
  kSpectreV2,       // retpolines / IBRS wrmsr / IBPB / RSB stuffing / scrubs
  kSpectreV1,       // lfence-after-swapgs + kernel index masking
  kSsbd,            // speculative-store-bypass discipline stalls
  kOther,           // remaining OS mitigation work (eager FPU, L1TF, ...)
  kJsIndexMasking,  // JIT array bounds masking
  kJsObjectGuards,  // JIT object shape guards
  kJsOther,         // JIT pointer poisoning / speculative load hardening
  kCount,
};

const char* CauseTagName(CauseTag tag);

struct Instruction {
  Op op = Op::kNop;
  AluOp alu = AluOp::kAdd;
  uint8_t dst = kNoReg;
  uint8_t src1 = kNoReg;
  uint8_t src2 = kNoReg;
  bool use_imm = false;  // for kAlu/kMul/kDiv: second operand is imm
  int64_t imm = 0;       // immediate / MSR number / PMC id / fp reg index
  MemRef mem;
  int32_t target = -1;   // branch target: instruction index (resolved label)
  CauseTag cause = CauseTag::kNone;  // attribution tag (see above)
};

// Execution privilege of the simulated machine.
enum class Mode : uint8_t {
  kUser = 0,
  kKernel = 1,
  kGuestUser = 2,
  kGuestKernel = 3,
  kHost = 4,  // hypervisor context
};

inline bool IsKernelMode(Mode mode) {
  return mode == Mode::kKernel || mode == Mode::kGuestKernel || mode == Mode::kHost;
}

const char* OpName(Op op);
const char* AluOpName(AluOp op);
const char* ModeName(Mode mode);

// Inverse lookups over the names above (corpus/reproducer parsing). Return
// false on unknown names.
bool ParseOpName(const char* name, Op* out);
bool ParseAluOpName(const char* name, AluOp* out);

// --- Static instruction metadata -----------------------------------------
//
// Opcode classification used by the static analyzer (src/analysis/). These
// mirror Machine's execution semantics: IsSerializing matches the set of
// opcodes that call Serialize() (and therefore also end speculative
// episodes), and the register accessors mirror the operand readiness rules
// of the decoder (src/uarch/decoded_trace.cc).

// Conditional branches (two successors).
bool IsConditionalBranch(Op op);
// kJmp/kCall (statically known target).
bool IsDirectJump(Op op);
// kIndirectJmp/kIndirectCall (target from a register, BTB-predicted).
bool IsIndirectBranch(Op op);
// Any opcode that redirects control flow (branches, calls, returns, and the
// privilege transitions whose targets are machine state, plus kHalt).
bool IsControlFlow(Op op);
// Opcodes that synchronize issue with the completion frontier; speculation
// cannot proceed past them.
bool IsSerializing(Op op);
// Reads from / writes to data memory through the mem operand.
bool ReadsMemory(Op op);
bool WritesMemory(Op op);

// General-purpose source registers of `instr`, including mem base/index;
// writes at most 5 entries to `out`, returns the count.
int SourceRegs(const Instruction& instr, uint8_t out[5]);
// Registers feeding only the memory *address* (base/index of the mem
// operand, or src1 for indirect branches); at most 2, returns the count.
int AddressRegs(const Instruction& instr, uint8_t out[2]);
// The written GPR, or kNoReg. (kCmov both reads and writes dst.)
uint8_t DestReg(const Instruction& instr);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_ISA_ISA_H_
