// The reproduction scorecard: one row per paper claim, checked by machine.
//
// Paper values and bands come from src/cpu/paper_expectations.h; the
// measurements from the Run*/Measure* code behind the CLI's table, figure
// and section commands, plus the ablation loops. The predicates come from
// the paper's text, so a claim that misses stays a miss.
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

// The Figure 2/3 and §4.5 grids run on the parallel runner with `runner`;
// the rows are identical for any `runner.jobs`.
std::vector<ScorecardRow> BuildScorecard(const RunnerOptions& runner = RunnerOptions());

// Byte-stable text table of the rows plus a match/miss summary line.
std::string RenderScorecard(const std::vector<ScorecardRow>& rows);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_CORE_SCORECARD_H_
