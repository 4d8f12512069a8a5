// Gadget corpus: small programs with known ground truth, used to validate
// the static analyzer against the simulator.
//
// Every entry pairs a Program with (a) the finding kinds the analyzer is
// expected to report and (b) a *replay*: an executable attacker scenario
// that runs the program on a power-on Machine (training predictors, planting a
// secret, flushing the probe) and reports whether a transient leak was
// actually observable — through the flush+reload side channel for the
// cache-encoding gadgets, or through the RSB-underflow performance counter
// for the call/ret-balance entries. Replays take the program as a
// parameter so the same scenario can re-run a rewriter-hardened copy and
// confirm the leak is gone.
#ifndef SPECTREBENCH_SRC_ANALYSIS_CORPUS_H_
#define SPECTREBENCH_SRC_ANALYSIS_CORPUS_H_

#include <functional>
#include <string>
#include <vector>

#include "src/analysis/detectors.h"
#include "src/cpu/cpu_model.h"
#include "src/isa/program.h"

namespace specbench {

struct CorpusEntry {
  std::string name;
  std::string description;
  Program program;
  // Finding kinds the analyzer must report for this program on a CPU
  // vulnerable to the corresponding attack class.
  std::vector<FindingKind> expected;
  // Runs the attacker scenario against `program` on a power-on machine
  // for `cpu`; returns true if the transient effect was observed.
  std::function<bool(const CpuModel& cpu, const Program& program)> replay;
};

// The full corpus. Positive entries cover: classic Spectre V1, a naked
// indirect call, a bare ret (RSB underflow), a call chain deeper than the
// RSB, a speculative-store-bypass gadget, and an unprotected sysret
// (missing verw + missing cr3 switch). Negative entries cover: cmov index
// masking, lfence-protected V1, lfence-protected indirect call, an
// mfence-resolved store/load pair, a verw+cr3-protected sysret, and a
// bounds-check-free loop. `rsb_depth` sizes the deep-call-chain entry
// (pass the target CpuModel's predictor.rsb_depth).
std::vector<CorpusEntry> BuildGadgetCorpus(uint32_t rsb_depth);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_ANALYSIS_CORPUS_H_
