#include "src/analysis/taint.h"

#include <algorithm>
#include <deque>

#include "src/isa/isa.h"

namespace specbench {

namespace {

RegTaint Join(const RegTaint& a, const RegTaint& b) {
  RegTaint out;
  out.bits = a.bits | b.bits;
  if ((out.bits & kTaintSecret) != 0) {
    if (a.secret_origin >= 0 && b.secret_origin >= 0) {
      out.secret_origin = std::min(a.secret_origin, b.secret_origin);
    } else {
      out.secret_origin = std::max(a.secret_origin, b.secret_origin);
    }
  }
  return out;
}

// Returns true if `into` changed.
bool JoinInto(TaintState* into, const TaintState& from) {
  if (!from.reachable) {
    return false;
  }
  bool changed = false;
  if (!into->reachable) {
    *into = from;
    return true;
  }
  for (size_t r = 0; r < kNumRegs; r++) {
    const RegTaint joined = Join(into->regs[r], from.regs[r]);
    if (joined.bits != into->regs[r].bits ||
        joined.secret_origin != into->regs[r].secret_origin) {
      into->regs[r] = joined;
      changed = true;
    }
  }
  if (from.spec_remaining > into->spec_remaining) {
    into->spec_remaining = from.spec_remaining;
    into->spec_branch = from.spec_branch;
    changed = true;
  }
  return changed;
}

RegTaint UnionSources(const TaintState& state, const Instruction& instr) {
  uint8_t srcs[3];
  const int n = SourceRegs(instr, srcs);
  RegTaint out;
  for (int i = 0; i < n; i++) {
    out = Join(out, state.regs[srcs[i]]);
  }
  return out;
}

}  // namespace

void TaintAnalysis::Transfer(TaintState* state, const Instruction& instr, int32_t index,
                             uint32_t window) {
  // Age the speculative window across this instruction.
  const bool speculative = state->spec_remaining > 0;
  if (speculative) {
    state->spec_remaining--;
    if (state->spec_remaining == 0) {
      state->spec_branch = -1;
    }
  }

  const OpInfo& info = InfoOf(instr.op);
  if (info.Has(kOpReadsMem) && info.Has(kOpWritesDst)) {
    // A load. Per-register check: an attacker-steered address register that
    // did not pass through a cmov barrier makes the transient load wild.
    uint8_t addr_regs[2];
    const int n_addr = AddressRegs(instr, addr_regs);
    bool wild = false;
    for (int k = 0; k < n_addr; k++) {
      const uint8_t bits = state->regs[addr_regs[k]].bits;
      if ((bits & kTaintAttacker) != 0 && (bits & kTaintSpecBlocked) == 0) {
        wild = true;
      }
    }
    RegTaint loaded;
    if (speculative && wild) {
      // Transient load at an attacker-chosen address: the value may be any
      // byte of memory, i.e. a secret.
      loaded.bits = kTaintSecret;
      loaded.secret_origin = index;
    }
    state->regs[instr.dst] = loaded;
  } else if (info.Has(kOpWritesDst)) {
    // The result carries its sources' taint. Opcodes with no source
    // registers (mov_imm, rdmsr, rdtsc, rdpmc, fp_to_gp) produce a clean value.
    state->regs[instr.dst] = UnionSources(*state, instr);
    if (instr.op == Op::kCmov) {
      // Dependency barrier: the result cannot feed a transient dereference.
      state->regs[instr.dst].bits |= kTaintSpecBlocked;
    }
  }

  if (IsSerializing(instr.op)) {
    state->spec_remaining = 0;
    state->spec_branch = -1;
  }
  if (IsConditionalBranch(instr.op)) {
    // Either direction can be mispredicted; both successors inherit an open
    // window rooted at this branch.
    if (window > state->spec_remaining) {
      state->spec_remaining = window;
      state->spec_branch = index;
    }
  }
}

TaintAnalysis TaintAnalysis::Run(const Cfg& cfg, const CpuModel& cpu) {
  const Program& program = cfg.program();
  // Open-window length in instructions (issue rate is 1/cycle).
  const uint32_t window = std::max(16u, cpu.speculation_window);

  TaintAnalysis analysis;
  analysis.states_.assign(static_cast<size_t>(program.size()), TaintState{});

  // Block-entry states (instruction states are recomputed on each visit).
  std::vector<TaintState> block_in(static_cast<size_t>(cfg.num_blocks()));
  TaintState entry_state;
  entry_state.reachable = true;
  // Arguments arrive in registers: every GPR but the stack pointer is
  // attacker-controlled at an analysis entry.
  for (uint8_t r = 0; r < kNumRegs; r++) {
    if (r != kRegSp) {
      entry_state.regs[r].bits = kTaintAttacker;
    }
  }

  std::deque<int32_t> worklist;
  std::vector<bool> queued(static_cast<size_t>(cfg.num_blocks()), false);
  for (int32_t id : cfg.entries()) {
    JoinInto(&block_in[static_cast<size_t>(id)], entry_state);
    worklist.push_back(id);
    queued[static_cast<size_t>(id)] = true;
  }

  while (!worklist.empty()) {
    const int32_t id = worklist.front();
    worklist.pop_front();
    queued[static_cast<size_t>(id)] = false;
    const BasicBlock& bb = cfg.block(id);

    TaintState state = block_in[static_cast<size_t>(id)];
    for (int32_t i = bb.first; i <= bb.last; i++) {
      analysis.states_[static_cast<size_t>(i)] = state;
      Transfer(&state, program.at(i), i, window);
    }
    for (int32_t succ : bb.successors) {
      if (JoinInto(&block_in[static_cast<size_t>(succ)], state) &&
          !queued[static_cast<size_t>(succ)]) {
        worklist.push_back(succ);
        queued[static_cast<size_t>(succ)] = true;
      }
    }
  }
  // Final pass so per-instruction states reflect the fixpoint block inputs.
  for (const BasicBlock& bb : cfg.blocks()) {
    TaintState state = block_in[static_cast<size_t>(bb.id)];
    for (int32_t i = bb.first; i <= bb.last; i++) {
      analysis.states_[static_cast<size_t>(i)] = state;
      Transfer(&state, program.at(i), i, window);
    }
  }
  return analysis;
}

}  // namespace specbench
