// Mitigation rewriting over a Program.
//
// The core is RewritePlan, a batch editor used by every mitigation pass
// (src/analysis/passes.h): passes queue insert-before and replace operations
// against *original* instruction indices, then Apply() rebuilds the
// instruction stream once, remapping
//   * branch targets of surviving original instructions,
//   * exported symbols,
//   * code-address immediates: a kMovImm whose immediate is the virtual
//     address of an original instruction is rewritten to that instruction's
//     new address, so function pointers materialized in registers (and later
//     stored / indirect-branched through) stay valid after insertion shifts
//     the layout.
//
// A branch or symbol that pointed at instruction `i` lands on the first
// instruction of the sequence inserted before `i`, so jumping into a
// protected site still executes the protection first.
//
// On top of the plan sit the two lfence policies the `harden` sweep grid
// compares (src/core/harden_grid.cc):
//   * Blanket — the compiler-style conservative mitigation the paper prices
//     in Table 8: an lfence on both outcomes of *every* conditional branch,
//     so no load ever issues under an unresolved bounds check.
//   * Targeted — an lfence only in front of the secret-producing load of
//     each Spectre-V1 finding from the analyzer, leaving every other branch
//     free to speculate.
#ifndef SPECTREBENCH_SRC_ANALYSIS_REWRITER_H_
#define SPECTREBENCH_SRC_ANALYSIS_REWRITER_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/analysis/detectors.h"
#include "src/isa/program.h"

namespace specbench {

// One instruction emitted by a pass, with fixup semantics applied by
// RewritePlan::Apply.
struct RewriteInstr {
  Instruction instr;
  enum class Target : uint8_t {
    kNone,      // instr.target is unused
    kOriginal,  // instr.target is an original-program index; remapped like a
                // surviving branch (lands on code inserted before it, if any)
    kRelative,  // instr.target is an offset from the start of this sequence
  };
  Target target_kind = Target::kNone;
  // instr.imm is the virtual address of an original instruction; rewrite it
  // to that instruction's post-rewrite address.
  bool remap_imm_vaddr = false;
};

struct RewriteResult {
  Program program;
  // Original-program instruction indices the plan touched (sorted, unique).
  std::vector<int32_t> sites;
  // Net instruction-count growth (new size - original size).
  int inserted = 0;
  // index_map[i] = new index of original instruction i (or, where code was
  // inserted before i, of the first inserted instruction — i.e. where an
  // incoming edge to i now lands). index_map[original size] = new size, so
  // one-past-the-end references (a symbol bound after the last instruction)
  // stay mappable. Consumers: equivalence checking modulo relocation
  // (src/difftest/equivalence.h).
  std::vector<int32_t> index_map;
};

// Batch editor over one Program. Queue operations, then Apply() once.
class RewritePlan {
 public:
  explicit RewritePlan(const Program& program) : program_(program) {}

  bool empty() const { return inserts_.empty() && replacements_.empty(); }

  // Inserts `seq` immediately before original instruction `index`. Multiple
  // insertions at the same index are emitted in call order. Branches and
  // symbols that pointed at `index` land on the first inserted instruction.
  void InsertBefore(int32_t index, std::vector<RewriteInstr> seq);

  // Replaces original instruction `index` with `seq`. At most one
  // replacement per index (aborts on a second).
  void Replace(int32_t index, std::vector<RewriteInstr> seq);

  RewriteResult Apply() const;

 private:
  const Program& program_;
  std::map<int32_t, std::vector<std::vector<RewriteInstr>>> inserts_;
  std::map<int32_t, std::vector<RewriteInstr>> replacements_;
};

// Inserts an lfence before each listed original-instruction index
// (duplicates ignored), remapping all targets and symbols. Indices whose
// instruction already is an lfence are skipped, so re-running any
// fence-inserting policy on its own output is the identity.
RewriteResult InsertLfences(const Program& program, std::vector<int32_t> before_indices);

// Lfence in front of every Spectre-V1 finding's secret-producing load.
RewriteResult HardenTargeted(const Program& program, const AnalysisResult& analysis);

// Lfence on both successors of every conditional branch.
RewriteResult HardenBlanket(const Program& program);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_ANALYSIS_REWRITER_H_
