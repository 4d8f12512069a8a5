// The security x overhead Pareto frontier (ROADMAP item 4).
//
// Joins the attack-suite verdict matrix (src/attack/suite.h) with overhead
// measurements over a fixed workload basket — LEBench getpid and
// context-switch, Octane richards (all three with the PR-5 CycleAttribution
// sink attached for cause-level breakdowns), plus PARSEC swaptions and
// facesim (which price SSBD and nosmt, the knobs invisible to the syscall
// benchmarks). For every CPU the report ranks the Table-1 configuration
// axis, marks the non-dominated frontier, names the *cheapest fully
// protecting* config versus the *most protected* one, and prices the gap
// between them — the "Beyond Over-Protection" argument (PAPERS.md) as a
// number. A per-attack attribution says which knob of the chosen config is
// load-bearing ("which knob saved you") and which are redundant.
//
// Everything is deterministic and byte-stable for any job count: attack
// cells and one basket cell per (cpu, config) run in one Sweep::Run (one
// barrier, then a pure join), all randomness derives from (base_seed, cell
// identity), and the renderers emit fixed key order with fixed-precision
// numbers (no timestamps, durations, or host facts).
// tests/pareto_golden_test.cc pins the exact bytes.
#ifndef SPECTREBENCH_SRC_CORE_PARETO_H_
#define SPECTREBENCH_SRC_CORE_PARETO_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/attack/suite.h"
#include "src/cpu/cpu_model.h"
#include "src/uarch/cycle_attribution.h"

namespace specbench {

struct ParetoOptions {
  std::vector<Uarch> cpus = AllUarches();
  int trials = 5;    // attack-suite repeats per cell (leak rate resolution)
  int jobs = 0;      // <= 0 = all cores (ThreadCountForJobs)
  uint64_t base_seed = 1;
};

// One configuration's security and cost on one CPU.
struct ConfigEvaluation {
  std::string config;
  // Security: over the attacks this CPU is actually vulnerable to.
  int attempted = 0;        // hardware-vulnerable attacks tried
  int protected_count = 0;  // of those, zero leaks across all trials
  bool fully_protected = false;
  // Defense depth: defended() claims over all registered specs, including
  // knobs the hardware does not need — what "most protected" maximizes.
  int claims = 0;
  // Cost: geomean overhead across the workload basket vs the "off" config.
  double overhead_pct = 0.0;
  // Cause-level breakdown summed over the counters basket (in-window).
  std::array<uint64_t, kNumCauseTags> cause_cycles{};
  // Non-dominated: no other config has >= protection and <= overhead with
  // one strict.
  bool on_frontier = false;
};

// Which knobs of a config actually block one attack.
struct AttackAttribution {
  std::string attack;
  // Knobs whose individual removal re-opens the leak (per defended()).
  std::vector<std::string> critical_knobs;
  // Active candidate knobs that are individually removable — redundant
  // cover for this attack.
  std::vector<std::string> redundant_knobs;
};

struct CpuPareto {
  std::string cpu;
  std::vector<ConfigEvaluation> configs;  // matrix registration order
  // Cheapest fully-protecting config ("" when nothing on the axis fully
  // protects this CPU); ties break toward earlier registration.
  std::string cheapest_sufficient;
  // Max defended() claims; ties break toward earlier registration.
  std::string most_protected;
  // overhead(most_protected) - overhead(cheapest_sufficient); the price of
  // over-protection. 0 when they coincide or no config suffices.
  double over_protection_gap_pct = 0.0;
  // Per-attack knob attribution for the cheapest sufficient config.
  std::vector<AttackAttribution> attributions;
};

struct ParetoReport {
  SuiteResult suite;          // the full verdict matrix
  std::vector<CpuPareto> cpus;
};

// The measurement basket (suite:kernel names, fixed order).
const std::vector<std::string>& ParetoWorkloads();

// Runs the attack suite and the overhead basket as one grid and joins them
// into the per-CPU frontier.
ParetoReport BuildParetoReport(const ParetoOptions& options);

// Byte-stable renderers (fixed key order / column order, fixed-precision
// numbers, no environment facts).
std::string RenderParetoText(const ParetoReport& report);
std::string RenderParetoJson(const ParetoReport& report);
std::string RenderParetoCsv(const ParetoReport& report);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_CORE_PARETO_H_
