// Instruction decode: the per-instruction facts the machine dispatches on.
//
// Decode reads only the Instruction — no CpuModel, no mitigation state — so
// a Program decodes each of its instructions once, when it is built
// (Program::ops()), and every machine that runs it, on any CPU and config,
// reads that one decode.
#ifndef SPECTREBENCH_SRC_ISA_DECODE_H_
#define SPECTREBENCH_SRC_ISA_DECODE_H_

#include <cstdint>

#include "src/isa/isa.h"

namespace specbench {

// One instruction's decode facts: its dispatch class and the registers whose
// `ready_at` cycles it waits for, both in Machine::Step and in speculative
// episodes.
struct DecodedOp {
  StepClass cls = StepClass::kSystem;
  uint8_t num_srcs = 0;
  uint8_t srcs[3] = {0, 0, 0};
};

// The opcode table's StepClass and SourceShape (src/isa/isa.h) applied to
// one instruction: the single definition of "which ready_at cycles gate
// issue". Registers keep their shape order, repeats included; absent ones
// (kNoReg) are left out. The Machine consumes the decoded form.
DecodedOp DecodeOne(const Instruction& instr);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_ISA_DECODE_H_
