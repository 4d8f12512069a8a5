// Execute / scoreboard unit: register writeback and the compute-class step
// handler (arithmetic, moves, cmov, timestamp/PMC reads and the FPU group
// with its lazy-FPU trap path). ALU semantics live in machine_internal.h,
// shared with the speculative engine; operand-readiness source selection
// lives in the decoder (src/isa/decode.cc).
//
// Private to machine.cc, the step's translation unit: only it includes this
// header, so Step and RunPartial's loop inline the handler.
#ifndef SPECTREBENCH_SRC_UARCH_MACHINE_EXEC_INL_H_
#define SPECTREBENCH_SRC_UARCH_MACHINE_EXEC_INL_H_

#include <algorithm>

#include "src/uarch/machine.h"
#include "src/uarch/machine_internal.h"
#include "src/util/check.h"

namespace specbench {

inline void Machine::WriteReg(uint8_t index, uint64_t value, uint64_t ready_at) {
  SPECBENCH_CHECK(index < kNumRegs);
  regs_[index] = value;
  ready_at_[index] = ready_at;
  retire_frontier_ = std::max(retire_frontier_, ready_at);
}

inline int32_t Machine::StepCompute(const Instruction& in, uint64_t srcs_ready) {
  int32_t next = rip_ + 1;
  switch (in.op) {
    case Op::kNop:
      now_++;
      break;
    case Op::kMovImm:
      WriteReg(in.dst, static_cast<uint64_t>(in.imm), now_ + 1);
      now_++;
      break;
    case Op::kMov: {
      const uint64_t start = std::max(now_, srcs_ready);
      WriteReg(in.dst, regs_[in.src1], start + 1);
      now_++;
      break;
    }
    case Op::kAlu: {
      const uint64_t start = std::max(now_, srcs_ready);
      const uint64_t b = in.use_imm ? static_cast<uint64_t>(in.imm) : regs_[in.src2];
      uint64_t value = minternal::AluCompute(in.alu, regs_[in.src1], b);
      if (alu_fault_countdown_ > 0 && --alu_fault_countdown_ == 0) {
        value ^= 1;  // injected fault (InjectAluFaultForTesting)
      }
      WriteReg(in.dst, value, start + cpu_.latency.alu);
      now_++;
      break;
    }
    case Op::kMul: {
      const uint64_t start = std::max(now_, srcs_ready);
      const uint64_t b = in.use_imm ? static_cast<uint64_t>(in.imm) : regs_[in.src2];
      WriteReg(in.dst, regs_[in.src1] * b, start + cpu_.latency.mul);
      now_++;
      break;
    }
    case Op::kDiv: {
      const uint64_t start = std::max(now_, srcs_ready);
      const uint64_t b = in.use_imm ? static_cast<uint64_t>(in.imm) : regs_[in.src2];
      WriteReg(in.dst, b == 0 ? 0 : regs_[in.src1] / b, start + cpu_.latency.div);
      pmcs_[static_cast<size_t>(Pmc::kArithDividerActive)] += cpu_.latency.div;
      now_++;
      break;
    }
    case Op::kCmov: {
      // With cmov+load fusion (§7's hardware proposal) the masking pattern
      // stops serializing on the guard condition: hardware resolves the safe
      // value without stalling dependents. Architectural semantics are
      // unchanged.
      const uint64_t value = regs_[in.src2] != 0 ? regs_[in.src1] : regs_[in.dst];
      if (effects_.cmov_load_fusion) {
        // Fused with the downstream load: no issue slot, no wait on the
        // guard condition (hardware applies the mask inside the load).
        const uint64_t start = std::max({now_, ready_at_[in.src1], ready_at_[in.dst]});
        WriteReg(in.dst, value, start);
      } else {
        const uint64_t start = std::max(now_, srcs_ready);
        WriteReg(in.dst, value, start + 1);
        now_++;
      }
      break;
    }
    case Op::kLea: {
      const uint64_t start = std::max(now_, srcs_ready);
      WriteReg(in.dst, minternal::EffectiveAddress(in, regs_), start + 1);
      now_++;
      break;
    }
    case Op::kPause:
      now_ += cpu_.latency.pause;
      break;
    case Op::kRdtsc:
      WriteReg(in.dst, now_, now_ + cpu_.latency.rdtsc);
      now_ += cpu_.latency.rdtsc;
      break;
    case Op::kRdpmc: {
      const Pmc counter = static_cast<Pmc>(in.imm);
      WriteReg(in.dst, PmcValue(counter), now_ + cpu_.latency.rdpmc);
      now_ += cpu_.latency.rdpmc;
      break;
    }
    case Op::kFpOp:
    case Op::kFpToGp:
    case Op::kGpToFp: {
      if (!fpu_enabled_) {
        // Device-not-available trap: the lazy-FPU path. The OS hook saves
        // the old owner's registers and re-enables the FPU; then retry.
        Serialize();
        now_ += cpu_.latency.fp_trap;
        SPECBENCH_CHECK_MSG(fp_trap_hook_ != nullptr, "FP use with FPU disabled and no hook");
        fp_trap_hook_(*this);
        SPECBENCH_CHECK_MSG(fpu_enabled_, "FP trap hook did not enable the FPU");
        next = rip_;  // retry this instruction
        break;
      }
      const uint8_t fp_index = static_cast<uint8_t>(in.imm) & (kNumFpRegs - 1);
      if (in.op == Op::kFpOp) {
        fpregs_[fp_index] = fpregs_[fp_index] * 3 + 1;
      } else if (in.op == Op::kFpToGp) {
        WriteReg(in.dst, fpregs_[fp_index], std::max(now_, srcs_ready) + cpu_.latency.fp_op);
      } else {
        fpregs_[fp_index] = regs_[in.src1];
      }
      now_ += 1;
      break;
    }
    default:
      SPECBENCH_CHECK_MSG(false, "non-compute opcode in StepCompute");
  }
  return next;
}

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_UARCH_MACHINE_EXEC_INL_H_
