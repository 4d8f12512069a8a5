// Spectre-gadget detectors over the CFG + taint dataflow.
//
// Each detector encodes one rule from the mitigation literature, gated by
// the target CpuModel's vulnerability/predictor flags the same way Linux
// gates the corresponding mitigation (docs/analysis.md maps each rule to
// the paper's Table 1 row):
//   * kSpectreV1Gadget — a load at an attacker-tainted address inside an
//     open speculative window produced a secret-tainted value, and a later
//     load/store dereferences it (bounds check bypass + cache encode).
//   * kUnprotectedIndirectBranch — kIndirectJmp/kIndirectCall with no
//     serializing lfence directly ahead of it, on hardware whose predictor
//     honours cross-context training (suppressed when the CpuModel has
//     eIBRS-class isolation).
//   * kRsbImbalance — a path on which rets outnumber calls (RSB underflow,
//     falling back to the attacker-trainable BTB) or call depth exceeds the
//     RSB so the outermost returns will underflow on the way back.
//   * kSsbGadget — a load that may bypass an older, not-yet-resolved store
//     to the same address and whose stale value feeds a later memory
//     access address (Speculative Store Bypass leak).
//   * kMissingBufferClear — a kernel->user (kSysret) or host->guest
//     (kVmEnter) transition with no verw / L1D flush on the incoming path,
//     on MDS/L1TF-vulnerable silicon.
//   * kMissingKptiCr3Switch — a kSysret with no address-space switch
//     (kMovCr3) on the incoming kernel path, on Meltdown-vulnerable
//     silicon (the PTI rule).
#ifndef SPECTREBENCH_SRC_ANALYSIS_DETECTORS_H_
#define SPECTREBENCH_SRC_ANALYSIS_DETECTORS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/analysis/cfg.h"
#include "src/analysis/taint.h"
#include "src/cpu/cpu_model.h"
#include "src/isa/program.h"

namespace specbench {

enum class FindingKind : uint8_t {
  kSpectreV1Gadget = 0,
  kUnprotectedIndirectBranch,
  kRsbImbalance,
  kSsbGadget,
  kMissingBufferClear,
  kMissingKptiCr3Switch,
  kCount,
};

const char* FindingKindName(FindingKind kind);

struct Finding {
  FindingKind kind = FindingKind::kSpectreV1Gadget;
  int32_t index = -1;      // flagged instruction (the leaking access / branch / ret)
  uint64_t vaddr = 0;      // its virtual address
  // Kind-specific companion site: the secret-producing load (V1), the
  // bypassed store (SSB), the window-opening branch, or -1.
  int32_t aux_index = -1;
  // V1 only: the conditional branch that opened the speculative window the
  // secret-producing load sits in (-1 when unknown). The index-masking pass
  // reads the branch's condition register from here.
  int32_t branch_index = -1;
  std::string detail;      // one-line human-readable explanation
};

struct AnalysisResult {
  std::vector<Finding> findings;
  int32_t num_blocks = 0;      // CFG size, for reporting
  int32_t num_instructions = 0;

  std::vector<Finding> OfKind(FindingKind kind) const;
  bool Has(FindingKind kind) const { return !OfKind(kind).empty(); }
};

// Runs CFG construction, the taint pass and every detector against
// `program` as compiled for `cpu`.
AnalysisResult Analyze(const Program& program, const CpuModel& cpu);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_ANALYSIS_DETECTORS_H_
