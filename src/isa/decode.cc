#include "src/isa/decode.h"

namespace specbench {

StepClass ClassOf(Op op) {
  switch (op) {
    case Op::kNop:
    case Op::kMovImm:
    case Op::kMov:
    case Op::kAlu:
    case Op::kMul:
    case Op::kDiv:
    case Op::kCmov:
    case Op::kLea:
    case Op::kPause:
    case Op::kRdtsc:
    case Op::kRdpmc:
    case Op::kFpOp:
    case Op::kFpToGp:
    case Op::kGpToFp:
      return StepClass::kCompute;
    case Op::kLoad:
    case Op::kStore:
    case Op::kClflush:
      return StepClass::kMemory;
    case Op::kJmp:
    case Op::kBranchNz:
    case Op::kBranchZ:
    case Op::kBranchEqImm:
    case Op::kCall:
    case Op::kRet:
    case Op::kIndirectJmp:
    case Op::kIndirectCall:
      return StepClass::kBranch;
    case Op::kLfence:
    case Op::kMfence:
    case Op::kSyscall:
    case Op::kSysret:
    case Op::kSwapgs:
    case Op::kMovCr3:
    case Op::kVerw:
    case Op::kWrmsr:
    case Op::kRdmsr:
    case Op::kFlushL1d:
    case Op::kRsbStuff:
    case Op::kXsave:
    case Op::kXrstor:
    case Op::kCpuid:
    case Op::kVmEnter:
    case Op::kVmExit:
    case Op::kKcall:
    case Op::kHalt:
      return StepClass::kSystem;
  }
  return StepClass::kSystem;
}

DecodedOp DecodeOne(const Instruction& instr) {
  DecodedOp decoded;
  decoded.cls = ClassOf(instr.op);
  const auto consider = [&decoded](uint8_t r) {
    if (r != kNoReg) {
      decoded.srcs[decoded.num_srcs++] = r;
    }
  };
  switch (instr.op) {
    case Op::kLoad:
    case Op::kLea:
    case Op::kClflush:
      consider(instr.mem.base);
      consider(instr.mem.index);
      break;
    case Op::kStore:
      consider(instr.mem.base);
      consider(instr.mem.index);
      consider(instr.src1);
      break;
    case Op::kCmov:
      consider(instr.dst);
      consider(instr.src1);
      consider(instr.src2);
      break;
    default:
      consider(instr.src1);
      if (!instr.use_imm) {
        consider(instr.src2);
      }
      break;
  }
  return decoded;
}

}  // namespace specbench
