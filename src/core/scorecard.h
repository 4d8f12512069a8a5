// The reproduction scorecard: one row per paper claim, checked by machine.
//
// Paper values and bands come from src/cpu/paper_expectations.h; the
// measurements from the Run*/Measure* code behind the CLI's table, figure
// and section commands, and from the ablations. The predicates come from
// the paper's text, so a claim that misses stays a miss.
//
// Each kind of claim is one family in scorecard.cc's ClaimFamilies() table:
// the CPUs it covers, a one-CPU measurement and a join that formats its
// rows. Every family's cells run on one Sweep::Run; the fig2, fig3 and sec45
// families register the fig2/fig3/sec45 commands' own grids.
#ifndef SPECTREBENCH_SRC_CORE_SCORECARD_H_
#define SPECTREBENCH_SRC_CORE_SCORECARD_H_

#include <string>
#include <vector>

#include "src/runner/sweep.h"

namespace specbench {

enum class ClaimKind {
  kCalibrated,  // the paper's number was a model input (src/cpu)
  kEmergent,    // the number comes out of the simulation
};

struct ScorecardRow {
  std::string id;        // e.g. "table3.Broadwell.syscall"
  std::string section;   // e.g. "Table 3", "Section 5.1"
  ClaimKind kind = ClaimKind::kEmergent;
  std::string paper;     // the paper's value or band
  std::string measured;
  bool match = false;
};

// Runs every claim family's cells on the parallel runner with `runner`; the
// rows are identical for any `runner.jobs`.
std::vector<ScorecardRow> BuildScorecard(const RunnerOptions& runner = RunnerOptions());

// Byte-stable text table of the rows plus a match/miss summary line.
std::string RenderScorecard(const std::vector<ScorecardRow>& rows);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_CORE_SCORECARD_H_
