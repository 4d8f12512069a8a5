// Mitigation-pass framework: a registry of software mitigations, each an
// analyzer-finding-driven rewrite over a Program (built on RewritePlan).
//
// Every registered pass is verified two ways by the harden tooling
// (`spectrebench harden`, tests/passes_test.cc):
//   * fixpoint — re-analyzing the pass's output shows its target finding
//     kinds eliminated, and re-running the pass inserts nothing;
//   * equivalence — the differential oracle proves the rewritten program
//     architecturally equivalent to the original modulo code relocation
//     (src/difftest/equivalence.h).
//
// Registered passes (docs/analysis.md has one section per pass):
//   targeted-lfence     lfence before each V1 finding's secret-producing load
//   blanket-lfence      lfence on both successors of every conditional branch
//   v1-index-mask       SLH-style masking: a cmov dependency on the bounds
//                       condition delays the flagged load past resolution
//   switchpoline        indirect branch -> compare chain of direct branches
//                       (Switchpoline), lfence-protected fallback
//   ssb-fence           lfence between a bypassable store and its load
//   rsb-fill            kRsbStuff refill at underflowing rets / deep calls
//   transition-hygiene  verw / cr3-switch / L1D-flush ahead of kSysret and
//                       kVmEnter transitions that miss them
#ifndef SPECTREBENCH_SRC_ANALYSIS_PASSES_H_
#define SPECTREBENCH_SRC_ANALYSIS_PASSES_H_

#include <string>
#include <vector>

#include "src/analysis/detectors.h"
#include "src/analysis/rewriter.h"
#include "src/cpu/cpu_model.h"
#include "src/isa/program.h"

namespace specbench {

class MitigationPass {
 public:
  virtual ~MitigationPass() = default;

  virtual std::string name() const = 0;
  // One-line description for reports.
  virtual std::string summary() const = 0;
  // Finding kinds this pass eliminates (the fixpoint check re-analyzes the
  // output and requires zero findings of these kinds).
  virtual std::vector<FindingKind> target_kinds() const = 0;

  // Rewrites `program` guided by `analysis` (the analyzer's output for this
  // program on `cpu`). A pass with nothing to do returns an unchanged copy
  // (inserted == 0).
  virtual RewriteResult Run(const Program& program, const AnalysisResult& analysis,
                            const CpuModel& cpu) const = 0;
};

// All registered passes, in a fixed order. Pointers are to function-local
// statics and live for the whole process.
const std::vector<const MitigationPass*>& MitigationPasses();

// Lookup by name; nullptr when unknown.
const MitigationPass* FindMitigationPassByName(const std::string& name);

// Number of findings in `analysis` whose kind is in `kinds`.
int CountFindingsOfKinds(const AnalysisResult& analysis,
                         const std::vector<FindingKind>& kinds);

// Result of iterating analyze -> harden until the loop closes. One round is
// usually enough, but a rewrite can legitimately surface new findings — a
// switchpoline chain adds direct CFG edges into code the analyzer previously
// saw only behind an indirect branch (hence unreachable), exposing indirect
// sites it could not flag before — so the driver re-analyzes and re-runs the
// pass until a round rewrites nothing.
struct PassRunReport {
  Program hardened;                // final program
  std::vector<int32_t> index_map;  // original index -> final index (composed
                                   // across rounds; see RewriteResult)
  std::vector<int32_t> sites;      // original indices rewritten in round 1
  int inserted = 0;                // total instruction-count growth
  int iterations = 0;              // rounds that rewrote something
  // A round rewrote nothing within the iteration budget (idempotence).
  bool converged = false;
  int findings_before = 0;  // target-kind findings in the original
  int findings_after = 0;   // target-kind findings in the final program
  // The verified fixpoint: iteration closed and the target kinds are gone.
  bool fixpoint_ok() const { return converged && findings_after == 0; }
};

// Iterates `pass` over `program` (re-analyzing between rounds) until a round
// rewrites nothing or `max_iterations` rounds ran. `max_iterations <= 0`
// means one round per original instruction plus one — every round must
// mitigate at least one previously-unhandled original site, so that budget
// always suffices for a convergent pass.
PassRunReport RunPassToFixpoint(const MitigationPass& pass, const Program& program,
                                const CpuModel& cpu, int max_iterations = 0);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_ANALYSIS_PASSES_H_
