// Architectural-equivalence oracle for mitigation rewrites.
//
// A mitigation pass (src/analysis/passes.h) inserts or replaces
// instructions, which shifts every later instruction's virtual address. The
// rewrite engine remaps branch targets, symbols and code-address immediates,
// so a correct rewrite changes architectural state in exactly one describable
// way: any register or memory word that held the address of original
// instruction `t` now holds the hardened program's address of `t` (via
// RewriteResult::index_map). CheckRewriteEquivalence proves a rewrite correct
// by running both programs on the reference interpreter and comparing final
// states modulo that relocation, plus a dead-stack carve-out:
//
//   * Balanced call/ret sequences leave popped return addresses below the
//     final stack pointer. Those words are architecturally dead (nothing can
//     read them without another pop), but a rewrite that re-routes a call
//     through a stub (switchpoline) legitimately leaves a *different* dead
//     value behind. When both runs end with the stack pointer back at
//     kGenStackTop, words in the 4 KiB below it are excluded.
//
// Optionally the hardened program is also run on uarch::Machine across a
// CPU x config panel and required to match its own reference state exactly —
// proving the rewritten opcode mix (e.g. kBranchEqImm chains) is simulated
// faithfully under speculation, not just interpreted correctly.
#ifndef SPECTREBENCH_SRC_DIFFTEST_EQUIVALENCE_H_
#define SPECTREBENCH_SRC_DIFFTEST_EQUIVALENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cpu/cpu_model.h"
#include "src/difftest/difftest.h"
#include "src/difftest/generator.h"
#include "src/isa/program.h"

namespace specbench {

struct EquivalenceOptions {
  // Machine-side oracle panel: run the hardened program on uarch::Machine
  // for each cpu x config and require exact agreement with its reference
  // state. Empty `cpus` skips the machine runs; empty `configs` means
  // DefaultDiffConfigs().
  std::vector<Uarch> cpus;
  std::vector<DiffConfig> configs;
};

struct EquivalenceReport {
  // False when the original program is outside the reference subset
  // (privileged opcodes): there is nothing to compare, not a failure.
  bool checked = false;
  bool equivalent = false;
  std::string divergence;  // first difference; empty when equivalent
};

EquivalenceReport CheckRewriteEquivalence(const Program& original, const Program& hardened,
                                          const std::vector<int32_t>& index_map,
                                          const EquivalenceOptions& options = {});

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_DIFFTEST_EQUIVALENCE_H_
