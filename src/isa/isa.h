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
#include <span>

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
  // A new opcode is appended here and gets its row in OpTable()
  // (src/isa/isa.cc), whose bound names the last opcode.
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
// Everything about an opcode other than what it computes is one row of the
// opcode table (OpTable(), src/isa/isa.cc): its name, the pipeline
// component that executes it, its flags (control flow, no fall-through,
// serializing, memory read/write, writes dst), its branch kind and its
// operand roles. The decoder (src/isa/decode.cc), the speculative episode's
// stop test, the static analyzer (its CFG, taint transfer and predicates)
// and the corpus validator (src/difftest/corpus.cc) all read it. What an
// opcode computes stays with its executors: Machine's step handlers, the
// speculative episode switch and the reference interpreter.

// Which pipeline component executes an opcode (Machine::Step dispatch).
enum class StepClass : uint8_t { kCompute, kMemory, kBranch, kSystem };

enum class BranchKind : uint8_t {
  kNone,
  kConditional,  // two successors: target and fall-through
  kDirect,       // kJmp/kCall: statically known target
  kIndirect,     // target from reg[src1], BTB-predicted
};

// The registers whose ready_at cycles gate issue, in this order; an absent
// register (kNoReg) is skipped.
enum class SourceShape : uint8_t {
  kSrc1Src2,     // src1, then src2 unless use_imm
  kMem,          // mem.base, mem.index
  kMemSrc1,      // mem.base, mem.index, src1 (the stored value)
  kDstSrc1Src2,  // dst (kept when a cmov's condition is false), src1, src2
};

// OpInfo::flags bits.
inline constexpr uint8_t kOpControlFlow = 1 << 0;  // redirects rip: branches, calls,
                                                   // returns, privilege transitions, kHalt
// Speculation cannot pass it: a wrong path ends here (Machine's episode
// stops before it) and so does the analyzer's speculative window. The one
// stop set: the opcodes that call Serialize() when committed, plus
// kRsbStuff, kKcall (a host hook) and kHalt. kSwapgs is not in it: it does
// not serialize, which is why the kernel puts an lfence after it.
inline constexpr uint8_t kOpSerializing = 1 << 1;
inline constexpr uint8_t kOpReadsMem = 1 << 2;     // reads data memory
inline constexpr uint8_t kOpWritesMem = 1 << 3;    // writes data memory
inline constexpr uint8_t kOpWritesDst = 1 << 4;    // writes reg[dst]
// The engine and the reference interpreter index the registers with src1
// (with src2 where the shape reads it), so a corpus line must give it.
inline constexpr uint8_t kOpNeedsSrc1 = 1 << 5;
inline constexpr uint8_t kOpNeedsSrc2 = 1 << 6;
// The next instruction is not a successor: kJmp, kRet, kIndirectJmp, kHalt.
// Every other opcode falls through (a call to its return site, a privilege
// transition to the instruction the committed path resumes at).
inline constexpr uint8_t kOpNoFallThrough = 1 << 7;

struct OpInfo {
  Op op;
  const char* name;
  StepClass step;
  BranchKind branch;
  SourceShape srcs;
  uint8_t flags;

  bool Has(uint8_t flag) const { return (flags & flag) != 0; }
};

// The opcode table: one row per Op, in enum order.
std::span<const OpInfo> OpTable();
const OpInfo& InfoOf(Op op);

inline bool IsConditionalBranch(Op op) { return InfoOf(op).branch == BranchKind::kConditional; }
inline bool IsDirectJump(Op op) { return InfoOf(op).branch == BranchKind::kDirect; }
inline bool IsIndirectBranch(Op op) { return InfoOf(op).branch == BranchKind::kIndirect; }
inline bool IsControlFlow(Op op) { return InfoOf(op).Has(kOpControlFlow); }
inline bool IsSerializing(Op op) { return InfoOf(op).Has(kOpSerializing); }
inline bool ReadsMemory(Op op) { return InfoOf(op).Has(kOpReadsMem); }
inline bool WritesMemory(Op op) { return InfoOf(op).Has(kOpWritesMem); }

// General-purpose source registers of `instr` (its SourceShape), without
// repeats; writes at most 3 entries to `out`, returns the count.
int SourceRegs(const Instruction& instr, uint8_t out[3]);
// Registers feeding only the memory *address* (base/index of the mem
// operand, or src1 for indirect branches); at most 2, returns the count.
int AddressRegs(const Instruction& instr, uint8_t out[2]);
// The written GPR, or kNoReg. (kCmov both reads and writes dst.)
inline uint8_t DestReg(const Instruction& instr) {
  return InfoOf(instr.op).Has(kOpWritesDst) ? instr.dst : kNoReg;
}

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_ISA_ISA_H_
