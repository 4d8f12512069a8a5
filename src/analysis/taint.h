// Forward taint / speculative-window dataflow over the CFG.
//
// The abstract state at each instruction tracks, per general-purpose
// register:
//   * kTaintAttacker — the value is (derived from) attacker-controlled input.
//     Taint enters through the registers live at an analysis entry point
//     (function arguments: every register but the stack pointer) and
//     propagates through moves and arithmetic.
//   * kTaintSecret — the value was produced by a *speculative* load whose
//     address the attacker controls, i.e. it may be any byte of the address
//     space. A later memory access whose address depends on such a value is
//     the second half of a Spectre V1 gadget.
//   * kTaintSpecBlocked — the value passed through a kCmov. The simulator's
//     cmov is a dependency barrier: dependent loads cannot issue until the
//     guard condition resolves, so cmov-masked indices cannot be
//     dereferenced transiently (the JIT index-masking mitigation). The bit
//     suppresses V1 findings on masked addresses.
//
// Speculative windows: every conditional branch can be mistrained, so both
// successors of a conditional branch are analyzed under an open speculative
// window of as many instructions as the CpuModel's cycle window (at least
// 16). The opcodes in the opcode table's stop set (kOpSerializing, see
// IsSerializing) close the window; Machine's speculative episodes end at the
// same bit.
//
// The join is a plain union (may-analysis): everything the pass reports is
// possible on *some* path, which makes the downstream detectors
// over-approximate — the price of soundness, quantified by the
// cross-validation harness.
#ifndef SPECTREBENCH_SRC_ANALYSIS_TAINT_H_
#define SPECTREBENCH_SRC_ANALYSIS_TAINT_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/analysis/cfg.h"
#include "src/cpu/cpu_model.h"

namespace specbench {

inline constexpr uint8_t kTaintAttacker = 1u << 0;
inline constexpr uint8_t kTaintSecret = 1u << 1;
inline constexpr uint8_t kTaintSpecBlocked = 1u << 2;

struct RegTaint {
  uint8_t bits = 0;
  // Instruction index of the speculative load that made this kTaintSecret
  // (the site a targeted lfence must dominate); -1 if not secret.
  int32_t secret_origin = -1;
};

// Abstract state *on entry to* an instruction.
struct TaintState {
  std::array<RegTaint, kNumRegs> regs{};
  uint32_t spec_remaining = 0;  // >0: this instruction may execute transiently
  int32_t spec_branch = -1;     // newest branch that opened the window
  bool reachable = false;
};

class TaintAnalysis {
 public:
  // Runs the dataflow to fixpoint over `cfg`.
  static TaintAnalysis Run(const Cfg& cfg, const CpuModel& cpu);

  // State on entry to instruction `index`.
  const TaintState& at(int32_t index) const {
    return states_[static_cast<size_t>(index)];
  }

  // Applies one instruction's transfer function in place (exposed for
  // tests). `index` is the instruction's own index.
  static void Transfer(TaintState* state, const Instruction& instr, int32_t index,
                       uint32_t window);

 private:
  std::vector<TaintState> states_;
};

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_ANALYSIS_TAINT_H_
