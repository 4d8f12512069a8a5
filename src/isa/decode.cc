#include "src/isa/decode.h"

namespace specbench {

DecodedOp DecodeOne(const Instruction& instr) {
  const OpInfo& info = InfoOf(instr.op);
  DecodedOp decoded;
  decoded.cls = info.step;
  const auto consider = [&decoded](uint8_t r) {
    if (r != kNoReg) {
      decoded.srcs[decoded.num_srcs++] = r;
    }
  };
  switch (info.srcs) {
    case SourceShape::kSrc1Src2:
      consider(instr.src1);
      if (!instr.use_imm) {
        consider(instr.src2);
      }
      break;
    case SourceShape::kMem:
      consider(instr.mem.base);
      consider(instr.mem.index);
      break;
    case SourceShape::kMemSrc1:
      consider(instr.mem.base);
      consider(instr.mem.index);
      consider(instr.src1);
      break;
    case SourceShape::kDstSrc1Src2:
      consider(instr.dst);
      consider(instr.src1);
      consider(instr.src2);
      break;
  }
  return decoded;
}

}  // namespace specbench
