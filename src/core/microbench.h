// Instruction-level microbenchmarks for the paper's Tables 3-8 (§5).
//
// Each function measures one mitigation-relevant instruction sequence on a
// power-on machine using the architectural timestamp counter, averaging over
// many iterations as the paper does ("we rely on the timestamp counter ...
// and average over one million runs"). Costs are reported net of the
// measurement-loop overhead. NaN-like absences (mitigation not applicable
// to the CPU, e.g. cr3 swap on Meltdown-immune parts) are reported by the
// experiment drivers as "N/A", mirroring the paper's tables.
#ifndef SPECTREBENCH_SRC_CORE_MICROBENCH_H_
#define SPECTREBENCH_SRC_CORE_MICROBENCH_H_

#include "src/cpu/cpu_model.h"

namespace specbench {

// Table 3: cycles for syscall, sysret and (on vulnerable parts) mov cr3.
struct EntryExitCosts {
  double syscall = 0;
  double sysret = 0;
  double swap_cr3 = 0;
};
EntryExitCosts MeasureEntryExit(const CpuModel& cpu);

// Table 4: cycles for one verw (buffer-clearing on MDS-vulnerable parts).
double MeasureVerw(const CpuModel& cpu);

// Table 5: cycles for an indirect branch under each Spectre V2 regime.
struct IndirectBranchCosts {
  double baseline = 0;           // BTB-predicted indirect call
  double ibrs = 0;               // with SPEC_CTRL.IBRS set
  double generic_retpoline = 0;  // Figure 4's call/ret sequence
  double amd_retpoline = 0;      // lfence + indirect call
};
IndirectBranchCosts MeasureIndirectBranch(const CpuModel& cpu);

// Table 6: cycles for one IBPB (wrmsr to IA32_PRED_CMD).
double MeasureIbpb(const CpuModel& cpu);

// Table 7: cycles to stuff the RSB with benign entries.
double MeasureRsbStuff(const CpuModel& cpu);

// Table 8: cycles for one lfence in a loop.
double MeasureLfence(const CpuModel& cpu);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_CORE_MICROBENCH_H_
