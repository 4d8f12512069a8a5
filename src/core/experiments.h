// Experiment drivers: one entry point per table/figure of the paper.
//
// Each Run* function produces structured results; each Render* function
// turns them into the terminal tables / ASCII bar charts `spectrebench
// <command>` prints. See DESIGN.md's experiment index for the mapping.
#ifndef SPECTREBENCH_SRC_CORE_EXPERIMENTS_H_
#define SPECTREBENCH_SRC_CORE_EXPERIMENTS_H_

#include <string>
#include <vector>

#include "src/core/attribution.h"
#include "src/core/microbench.h"
#include "src/hv/hypervisor.h"
#include "src/runner/sweep.h"
#include "src/stats/sampler.h"

namespace specbench {

// --- Tables 1 and 2: configuration ------------------------------------------
std::string RenderTable1MitigationMatrix();
std::string RenderTable2CpuInfo();

// --- Figure 2: LEBench overhead attribution ---------------------------------
// Cells (one per CPU) execute on the deterministic parallel runner; see
// src/core/sweep_grids.h for the grid registration. Results are identical
// for any `runner.jobs`.
std::vector<AttributionReport> RunFigure2LeBench(const SamplerOptions& options,
                                                 const std::vector<Uarch>& cpus = AllUarches(),
                                                 const RunnerOptions& runner = RunnerOptions());
std::string RenderFigure2(const std::vector<AttributionReport>& reports);
// CSV form of any attribution-report set (Figures 2 and 3): one row per
// (cpu, segment) plus a TOTAL row per CPU.
std::string RenderAttributionCsv(const std::vector<AttributionReport>& reports);

// --- Figure 3: Octane 2 overhead attribution --------------------------------
std::vector<AttributionReport> RunFigure3Octane(const SamplerOptions& options,
                                                const std::vector<Uarch>& cpus = AllUarches(),
                                                const RunnerOptions& runner = RunnerOptions());
std::string RenderFigure3(const std::vector<AttributionReport>& reports);

// --- Section 4.4: virtual machine workloads ---------------------------------
struct VmWorkloadResult {
  std::string cpu;
  std::string workload;           // "lebench-in-vm", "lfs-smallfile", ...
  Estimate overhead_pct;          // host mitigations on vs off
  uint64_t vm_exits_protected = 0;
};
std::vector<VmWorkloadResult> RunSection44Vm(const SamplerOptions& options,
                                             const std::vector<Uarch>& cpus = AllUarches());
std::string RenderSection44(const std::vector<VmWorkloadResult>& results);

// --- Section 4.5: PARSEC under default mitigations --------------------------
struct ParsecDefaultResult {
  std::string cpu;
  std::string kernel;
  Estimate overhead_pct;
};
std::vector<ParsecDefaultResult> RunSection45Parsec(
    const SamplerOptions& options, const std::vector<Uarch>& cpus = AllUarches(),
    const RunnerOptions& runner = RunnerOptions());
std::string RenderSection45(const std::vector<ParsecDefaultResult>& results);

// --- Tables 3-8: per-mitigation microbenchmarks -----------------------------
// Each renderer runs the measurement across all CPUs and prints measured vs
// paper values.
std::string RenderTable3EntryExit();
std::string RenderTable4Verw();
std::string RenderTable5IndirectBranch();
std::string RenderTable6Ibpb();
std::string RenderTable7RsbStuff();
std::string RenderTable8Lfence();

// --- Figure 5: SSBD on PARSEC ------------------------------------------------
struct Fig5Row {
  std::string cpu;
  double swaptions_pct = 0;
  double facesim_pct = 0;
  double bodytrack_pct = 0;
};
std::vector<Fig5Row> RunFigure5Ssbd(const std::vector<Uarch>& cpus = AllUarches());
std::string RenderFigure5(const std::vector<Fig5Row>& rows);

// --- Tables 9 and 10: the speculation probe ---------------------------------
std::string RenderTables9And10();

// --- Section 6.2.2: eIBRS bimodal kernel-entry latency (extension) ----------
// 200 back-to-back kernel entries on each eIBRS part, split into fast and
// slow (predictor-scrubbing) entries.
struct EibrsBimodalRow {
  std::string cpu;
  uint64_t fast = 0;
  uint64_t slow = 0;
  double fast_avg = 0;  // cycles per entry
  double slow_avg = 0;
  // Every Nth entry is slow (0 when none is).
  uint64_t SlowEntryPeriod() const { return slow != 0 ? (fast + slow) / slow : 0; }
};
std::vector<EibrsBimodalRow> MeasureEibrsBimodal();
std::string RenderEibrsBimodal();

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_CORE_EXPERIMENTS_H_
