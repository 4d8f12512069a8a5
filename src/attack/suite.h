// The attack-suite conformance registry.
//
// Each of the eleven attacks is one `AttackSpec` (src/attack/attacks.cc):
// name, hardware-vulnerability predicate, the MitigationConfig knobs that
// defend it, and its scenario, run on a (CpuModel, MitigationConfig). The
// registry executes every spec against every (CpuModel x MitigationConfig)
// cell of a Table-1 style configuration axis as cells of the sweep runner
// (src/runner/sweep.h), one per attempted (cpu, config, attack). Output is
// byte-identical for any job count: each cell derives its secrets from
// (base_seed, cell identity) alone and the verdicts are folded back in
// registration order.
//
// Each cell runs `trials` times with varied secrets (and, for the
// fill-buffer attacks, varied victim noise and sampling salts), so
// probabilistic recovery surfaces as a leak *rate* instead of a coin flip.
// Trial 0 is always the spec's canonical trial, which keeps the ground
// truth sharp: an unmitigated vulnerable cell has leak_rate > 0, a
// mitigated one has leak_rate == 0.
//
// The registry's defended() claims are *predictions* cross-checked against
// the empirical verdicts by tests/attack_suite_test.cc; `spectrebench
// pareto` (src/core/pareto.h) joins the verdict matrix with overhead
// numbers into the security x overhead frontier.
#ifndef SPECTREBENCH_SRC_ATTACK_SUITE_H_
#define SPECTREBENCH_SRC_ATTACK_SUITE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/attack/kit.h"
#include "src/cpu/cpu_model.h"
#include "src/os/mitigation_config.h"
#include "src/runner/sweep.h"

namespace specbench {

// The MitigationConfig knobs the suite reasons about. Granularity follows
// the attacks: one knob per independently-toggleable defense, so the
// "which knob saved you" attribution can flip them one at a time. Each knob
// is a row of the mitigation table (src/os/mitigation_config.h) that has a
// knob name, in field order; the three functions below read that row.
enum class SuiteKnob {
  kPti = 0,
  kMdsClearBuffers,
  kSmtOff,
  kRetpoline,
  kIbrs,
  kIbpb,
  kRsbStuff,
  kStibp,
  kCoreSched,
  kLfenceAfterSwapgs,
  kKernelIndexMasking,
  kEagerFpu,
  kL1tfPteInversion,
  kSsbd,
  kCount,
};
inline constexpr size_t kNumSuiteKnobs = static_cast<size_t>(SuiteKnob::kCount);

const char* SuiteKnobName(SuiteKnob knob);

// Whether `config` has the knob in its secure setting.
bool KnobActive(const MitigationConfig& config, SuiteKnob knob);

// Copy of `config` with `knob` forced to its insecure setting (the
// attribution probe: if defended() flips, the knob was load-bearing).
MitigationConfig WithKnobDisabled(const MitigationConfig& config, SuiteKnob knob);

// One attack, whole: everything the suite knows about it.
struct AttackSpec {
  std::string name;   // stable id, e.g. "spectre-v1" (JSON/CSV key)
  std::string label;  // human-readable description
  uint64_t canonical_secret = 0;  // the secret of trial 0
  // Knobs that can defend this attack (candidates for attribution).
  std::vector<SuiteKnob> knobs;
  // Hardware susceptibility: false => the cell is reported attempted=false
  // (the mitigation "isn't required", paper Table 1 empty cell).
  std::function<bool(const CpuModel& cpu)> vulnerable;
  // The registry's claim that `config` blocks the attack on `cpu`.
  std::function<bool(const CpuModel& cpu, const MitigationConfig& config)> defended;
  // The scenario: one trial on a fresh machine of `cpu`, defended as
  // `config` says. trial_salt 0 is the canonical attack; others vary the
  // victim's noise where the attack samples shared buffers.
  std::function<AttackResult(const CpuModel& cpu, const MitigationConfig& config,
                             uint64_t secret, uint64_t trial_salt)>
      run;
};

// The eleven registered attacks, in fixed registration order (spectre-v1,
// spectre-v2, spectre-rsb, spectre-v2-smt, meltdown, mds, mds-smt, ssb,
// lazyfp, l1tf, smother-spectre). To add a new attack class (e.g.
// Retbleed/BHI), append its spec in src/attack/attacks.cc and extend the
// ground-truth matrix in attack_suite_test.cc — docs/attacks.md walks
// through it.
const std::vector<AttackSpec>& AttackSuite();
const AttackSpec* FindAttackSpec(const std::string& name);

struct NamedConfig {
  std::string name;
  MitigationConfig config;
};

// The Table-1 style configuration axis, in fixed registration order:
//   off, v1-only, no-v2, defaults, defaults+ssbd, defaults+stibp,
//   defaults+coresched, defaults+nosmt, defaults+nosmt+ssbd, paranoid.
// "defaults" is MitigationConfig::Defaults(cpu); "defaults+stibp" and
// "defaults+coresched" are the two cheaper-than-nosmt cross-thread
// defenses the pareto report prices against each other; "paranoid" forces
// every knob on whether or not the hardware needs it (the over-protection
// straw man).
std::vector<NamedConfig> MitigationConfigMatrix(const CpuModel& cpu);

// The matrix's "paranoid" config on `cpu`, with each of spec.knobs disabled
// unless `mitigated`: the two configs `spectrebench attacks` and
// examples/attack_lab run per (CPU, attack).
MitigationConfig ParanoidConfig(const AttackSpec& spec, const CpuModel& cpu, bool mitigated);

// The canonical trial of `spec` (spec.canonical_secret, salt 0) on `cpu`
// under `config`.
AttackResult RunCanonicalTrial(const AttackSpec& spec, const CpuModel& cpu,
                               const MitigationConfig& config);

// One (cpu, config, attack) verdict.
struct SuiteCell {
  std::string cpu;
  std::string config;
  std::string attack;
  bool attempted = true;   // false: hardware not vulnerable (or no sibling)
  bool defended = false;   // the registry's knob-level claim
  int trials = 0;          // 0 when not attempted
  int leaks = 0;           // trials whose recovered value was the secret
  double leak_rate = 0.0;  // leaks / trials

  bool leaked() const { return leaks > 0; }
};

struct SuiteOptions {
  std::vector<Uarch> cpus = AllUarches();
  int trials = 5;
  int jobs = 0;  // <= 0 = all cores (ThreadCountForJobs)
  uint64_t base_seed = 1;
};

struct SuiteResult {
  SuiteOptions options;
  // cpu-major, then config, then attack — registration order, independent
  // of job count.
  std::vector<SuiteCell> cells;

  const SuiteCell* Find(const std::string& cpu, const std::string& config,
                        const std::string& attack) const;
};

// Adds one runner cell per attempted (cpu, config, attack) to `grid`, keyed
// {cpu, config, "attack:" + name}, and returns every verdict in registration
// order with Table 1's empty cells already final (attempted=false).
SuiteResult AddSuiteCells(const SuiteOptions& options, Sweep* grid);

// Copies the leak counts of `result`'s attack cells into the attempted
// entries of `suite`, in order; cells of other grids are skipped.
void FoldSuiteCells(const SweepResult& result, SuiteResult* suite);

// AddSuiteCells, Sweep::Run, FoldSuiteCells. Byte-identical for any
// options.jobs (see tests/attack_suite_test.cc).
SuiteResult RunSuite(const SuiteOptions& options);

// Deterministic per-trial inputs, exposed for tests. Trial 0 reproduces
// the canonical attack; later trials draw secrets from [1, 15] — never 0,
// because a drained channel (post-verw fill buffers, masked V1 index,
// inverted L1TF PTE) encodes 0, and a 0 secret would count that benign
// recovery as a leak.
uint64_t TrialSecret(const AttackSpec& spec, uint64_t cell_seed, int trial);
uint64_t TrialSalt(uint64_t cell_seed, int trial);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_ATTACK_SUITE_H_
