#include "src/isa/isa.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "src/isa/decode.h"

namespace specbench {

namespace {

using enum StepClass;
using enum BranchKind;
using enum SourceShape;

// Short names for the flag bits, so that each row fits on one line.
constexpr uint8_t kCtl = kOpControlFlow;
constexpr uint8_t kSer = kOpSerializing;
constexpr uint8_t kRdMem = kOpReadsMem;
constexpr uint8_t kWrMem = kOpWritesMem;
constexpr uint8_t kDst = kOpWritesDst;
constexpr uint8_t kS1 = kOpNeedsSrc1;
constexpr uint8_t kS2 = kOpNeedsSrc2;
constexpr uint8_t kNoFall = kOpNoFallThrough;

// The opcode table (see isa.h). Opcode values index it, so rows keep enum
// order; the static_asserts below check the order and the bound.
constexpr OpInfo kOpTable[] = {
    {Op::kNop, "nop", kCompute, kNone, kSrc1Src2, 0},
    {Op::kMovImm, "mov_imm", kCompute, kNone, kSrc1Src2, kDst},
    {Op::kMov, "mov", kCompute, kNone, kSrc1Src2, kDst | kS1},
    {Op::kAlu, "alu", kCompute, kNone, kSrc1Src2, kDst | kS1 | kS2},
    {Op::kMul, "mul", kCompute, kNone, kSrc1Src2, kDst | kS1 | kS2},
    {Op::kDiv, "div", kCompute, kNone, kSrc1Src2, kDst | kS1 | kS2},
    {Op::kCmov, "cmov", kCompute, kNone, kDstSrc1Src2, kDst | kS1 | kS2},
    {Op::kLoad, "load", kMemory, kNone, kMem, kRdMem | kDst},
    {Op::kStore, "store", kMemory, kNone, kMemSrc1, kWrMem | kS1},
    {Op::kLea, "lea", kCompute, kNone, kMem, kDst},
    {Op::kJmp, "jmp", kBranch, kDirect, kSrc1Src2, kCtl | kNoFall},
    {Op::kBranchNz, "branch_nz", kBranch, kConditional, kSrc1Src2, kCtl | kS1},
    {Op::kBranchZ, "branch_z", kBranch, kConditional, kSrc1Src2, kCtl | kS1},
    {Op::kCall, "call", kBranch, kDirect, kSrc1Src2, kCtl | kWrMem},
    {Op::kRet, "ret", kBranch, kNone, kSrc1Src2, kCtl | kNoFall | kRdMem},
    {Op::kIndirectJmp, "indirect_jmp", kBranch, kIndirect, kSrc1Src2, kCtl | kNoFall | kS1},
    {Op::kIndirectCall, "indirect_call", kBranch, kIndirect, kSrc1Src2, kCtl | kWrMem | kS1},
    {Op::kLfence, "lfence", kSystem, kNone, kSrc1Src2, kSer},
    {Op::kMfence, "mfence", kSystem, kNone, kSrc1Src2, kSer},
    {Op::kPause, "pause", kCompute, kNone, kSrc1Src2, 0},
    {Op::kSyscall, "syscall", kSystem, kNone, kSrc1Src2, kCtl | kSer},
    {Op::kSysret, "sysret", kSystem, kNone, kSrc1Src2, kCtl | kSer},
    {Op::kSwapgs, "swapgs", kSystem, kNone, kSrc1Src2, 0},
    {Op::kMovCr3, "mov_cr3", kSystem, kNone, kSrc1Src2, kSer},
    {Op::kVerw, "verw", kSystem, kNone, kSrc1Src2, kSer},
    {Op::kWrmsr, "wrmsr", kSystem, kNone, kSrc1Src2, kSer},
    {Op::kRdmsr, "rdmsr", kSystem, kNone, kSrc1Src2, kSer | kDst},
    {Op::kRdtsc, "rdtsc", kCompute, kNone, kSrc1Src2, kDst},
    {Op::kRdpmc, "rdpmc", kCompute, kNone, kSrc1Src2, kDst},
    {Op::kClflush, "clflush", kMemory, kNone, kMem, 0},
    {Op::kFlushL1d, "flush_l1d", kSystem, kNone, kSrc1Src2, kSer},
    {Op::kRsbStuff, "rsb_stuff", kSystem, kNone, kSrc1Src2, kSer},
    {Op::kXsave, "xsave", kSystem, kNone, kSrc1Src2, kSer},
    {Op::kXrstor, "xrstor", kSystem, kNone, kSrc1Src2, kSer},
    {Op::kFpOp, "fp_op", kCompute, kNone, kSrc1Src2, 0},
    {Op::kFpToGp, "fp_to_gp", kCompute, kNone, kSrc1Src2, kDst},
    {Op::kGpToFp, "gp_to_fp", kCompute, kNone, kSrc1Src2, kS1},
    {Op::kCpuid, "cpuid", kSystem, kNone, kSrc1Src2, kSer},
    {Op::kVmEnter, "vm_enter", kSystem, kNone, kSrc1Src2, kCtl | kSer},
    {Op::kVmExit, "vm_exit", kSystem, kNone, kSrc1Src2, kCtl | kSer},
    {Op::kKcall, "kcall", kSystem, kNone, kSrc1Src2, kSer},
    {Op::kHalt, "halt", kSystem, kNone, kSrc1Src2, kCtl | kNoFall | kSer},
    {Op::kBranchEqImm, "branch_eq_imm", kBranch, kConditional, kSrc1Src2, kCtl | kS1},
};

static_assert(std::size(kOpTable) == static_cast<size_t>(Op::kBranchEqImm) + 1,
              "one row per Op: a new opcode is appended to Op, gets a row and moves this bound");
static_assert(
    [] {
      for (size_t i = 0; i < std::size(kOpTable); i++) {
        if (kOpTable[i].op != static_cast<Op>(i)) {
          return false;
        }
      }
      return true;
    }(),
    "kOpTable rows are in enum order");

// Indexed by AluOp.
constexpr const char* kAluNames[] = {"add", "sub", "and", "or", "xor", "shl",
                                     "shr", "cmp_lt", "cmp_ge", "cmp_eq", "cmp_ne"};
static_assert(std::size(kAluNames) == static_cast<size_t>(AluOp::kCmpNe) + 1);

}  // namespace

std::span<const OpInfo> OpTable() { return kOpTable; }

const OpInfo& InfoOf(Op op) { return kOpTable[static_cast<size_t>(op)]; }

const char* OpName(Op op) { return InfoOf(op).name; }

const char* AluOpName(AluOp op) { return kAluNames[static_cast<size_t>(op)]; }

bool ParseOpName(const char* name, Op* out) {
  for (const OpInfo& row : OpTable()) {
    if (std::strcmp(row.name, name) == 0) {
      *out = row.op;
      return true;
    }
  }
  return false;
}

bool ParseAluOpName(const char* name, AluOp* out) {
  for (size_t i = 0; i < std::size(kAluNames); i++) {
    if (std::strcmp(kAluNames[i], name) == 0) {
      *out = static_cast<AluOp>(i);
      return true;
    }
  }
  return false;
}

int SourceRegs(const Instruction& instr, uint8_t out[3]) {
  const DecodedOp decoded = DecodeOne(instr);
  int n = 0;
  for (uint8_t i = 0; i < decoded.num_srcs; i++) {
    if (std::find(out, out + n, decoded.srcs[i]) == out + n) {
      out[n++] = decoded.srcs[i];
    }
  }
  return n;
}

int AddressRegs(const Instruction& instr, uint8_t out[2]) {
  int n = 0;
  auto add = [&](uint8_t r) {
    if (r != kNoReg && (n == 0 || out[0] != r)) {
      out[n++] = r;
    }
  };
  const OpInfo& info = InfoOf(instr.op);
  if (info.srcs == kMem || info.srcs == kMemSrc1) {
    add(instr.mem.base);
    add(instr.mem.index);
  } else if (info.branch == kIndirect) {
    add(instr.src1);
  }
  return n;
}

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kUser: return "user";
    case Mode::kKernel: return "kernel";
    case Mode::kGuestUser: return "guest-user";
    case Mode::kGuestKernel: return "guest-kernel";
    case Mode::kHost: return "host";
  }
  return "?";
}

const char* CauseTagName(CauseTag tag) {
  switch (tag) {
    case CauseTag::kNone: return "baseline";
    case CauseTag::kPti: return "pti";
    case CauseTag::kMds: return "mds";
    case CauseTag::kSpectreV2: return "spectre_v2";
    case CauseTag::kSpectreV1: return "spectre_v1";
    case CauseTag::kSsbd: return "ssbd";
    case CauseTag::kOther: return "other";
    case CauseTag::kJsIndexMasking: return "js_index_masking";
    case CauseTag::kJsObjectGuards: return "js_object_guards";
    case CauseTag::kJsOther: return "js_other";
    case CauseTag::kCount: break;
  }
  return "?";
}

}  // namespace specbench
