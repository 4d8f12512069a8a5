// Cross-validation of the static analyzer against the simulator.
//
// For each corpus entry the harness (1) replays the attacker scenario on a
// power-on Machine and records whether the transient effect was actually
// observable, (2) grades every static finding against that ground truth and
// the entry's expected kinds, and (3) for Spectre-V1 findings, replays the
// targeted-lfence rewrite to confirm the leak is gone.
#ifndef SPECTREBENCH_SRC_ANALYSIS_CROSSVAL_H_
#define SPECTREBENCH_SRC_ANALYSIS_CROSSVAL_H_

#include <string>
#include <vector>

#include "src/analysis/corpus.h"
#include "src/analysis/detectors.h"
#include "src/cpu/cpu_model.h"

namespace specbench {

enum class Verdict : uint8_t {
  kTruePositive,   // flagged, expected for this program, and the replay leaked
  kFalsePositive,  // flagged but not expected, or the replay showed no effect
};

const char* VerdictName(Verdict verdict);

struct ValidatedFinding {
  Finding finding;
  Verdict verdict = Verdict::kFalsePositive;
};

struct CrossValidationResult {
  std::string entry;
  // The replay on the unmodified program observed the transient effect.
  bool leak_observed = false;
  // A targeted (V1) rewrite was produced and replayed.
  bool validated_rewrite = false;
  bool leak_after_targeted = false;
  std::vector<ValidatedFinding> findings;
  int true_positives = 0;
  int false_positives = 0;
  // Expected finding kinds that apply to this CPU but were not reported,
  // while the replay did observe the effect.
  int false_negatives = 0;
};

// Whether the analyzer can report `kind` at all on `cpu` — the same
// vulnerability/predictor gates the detectors use. Expected kinds outside
// this set are not counted as false negatives (e.g. no
// kUnprotectedIndirectBranch findings on eIBRS silicon, even though
// same-mode training can still leak there; see docs/analysis.md).
bool FindingKindApplies(FindingKind kind, const CpuModel& cpu);

// Replays `entry` on `cpu` and grades `analysis` (the analyzer's output for
// entry.program on the same cpu).
CrossValidationResult CrossValidate(const CorpusEntry& entry, const CpuModel& cpu,
                                    const AnalysisResult& analysis);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_ANALYSIS_CROSSVAL_H_
