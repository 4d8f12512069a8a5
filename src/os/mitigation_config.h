// Kernel mitigation configuration (the knobs of the whole study).
//
// Mirrors the Linux controls the paper drives via boot parameters (§4.1):
// page table isolation, MDS buffer clearing, the Spectre V2 family
// (retpolines, IBRS/eIBRS, IBPB, RSB stuffing), Spectre V1 kernel hardening,
// SSBD policy, eager FPU, and the L1TF pair. Defaults(cpu) reproduces the
// paper's Table 1 per-processor default set.
#ifndef SPECTREBENCH_SRC_OS_MITIGATION_CONFIG_H_
#define SPECTREBENCH_SRC_OS_MITIGATION_CONFIG_H_

#include <string>
#include <vector>

#include "src/cpu/cpu_model.h"

namespace specbench {

enum class RetpolineMode { kNone, kGeneric, kAmd };
enum class IbrsMode { kOff, kLegacyIbrs, kEibrs };
// Linux's spec_store_bypass_disable= policy.
enum class SsbdMode {
  kOff,      // never
  kPrctl,    // processes opt in via prctl
  kSeccomp,  // prctl + implicitly for seccomp processes (pre-5.16 default)
  kAlways,   // forced on for everything
};

const char* RetpolineModeName(RetpolineMode mode);
const char* IbrsModeName(IbrsMode mode);
const char* SsbdModeName(SsbdMode mode);

struct MitigationConfig {
  // Meltdown.
  bool pti = false;
  // Tag TLB entries with the address-space id so cr3 writes need not flush
  // (on by default; `nopcid` disables it — the §5.1 ablation: without PCIDs,
  // PTI's TLB costs stop being marginal).
  bool pcid = true;
  // MDS.
  bool mds_clear_buffers = false;
  bool smt_off = false;  // never default (Table 1 "!"), modelled for bench
  // Spectre V2.
  RetpolineMode retpoline = RetpolineMode::kNone;
  IbrsMode ibrs = IbrsMode::kOff;
  bool ibpb_on_context_switch = false;
  bool rsb_stuff_on_context_switch = false;
  // SMT co-residence (never default, like smt_off): STIBP partitions the
  // indirect-predictor state between hyperthreads (a SPEC_CTRL write on the
  // context-switch path); core scheduling refuses to co-schedule mutually
  // distrusting processes on SMT siblings (a cookie check per switch), so a
  // cross-thread attacker never runs co-resident with its victim.
  bool stibp = false;
  bool core_scheduling = false;
  // Spectre V1 (kernel side).
  bool lfence_after_swapgs = false;
  bool kernel_index_masking = false;
  // LazyFP.
  bool eager_fpu = true;
  // L1TF.
  bool l1tf_pte_inversion = false;
  bool l1d_flush_on_vmentry = false;
  // Speculative Store Bypass.
  SsbdMode ssbd = SsbdMode::kOff;

  // The per-CPU default set Linux chooses (paper Table 1).
  static MitigationConfig Defaults(const CpuModel& cpu);
  // Everything off (mitigations=off).
  static MitigationConfig AllOff();

  // True if this config protects against the given attack on `cpu` (used by
  // Table 1 rendering and the security ground-truth tests).
  bool MitigatesMeltdown(const CpuModel& cpu) const;
  bool MitigatesMds(const CpuModel& cpu) const;
  bool MitigatesSpectreV2Kernel(const CpuModel& cpu) const;

  // One-line summary for logs. Omits smt_off, so it is not a key: compare
  // configs by value.
  std::string Describe() const;

  bool operator==(const MitigationConfig&) const = default;
};

// Applies Linux-style boot parameter tokens to a config, e.g. {"nopti",
// "mds=off", "nospectre_v2", "spec_store_bypass_disable=on",
// "mitigations=off", "spectre_v2=retpoline,generic"}.
// Returns false (and leaves `config` untouched for that token) on an
// unrecognized token; processing continues.
bool ApplyBootParam(MitigationConfig* config, const CpuModel& cpu, const std::string& token);
MitigationConfig ConfigFromCmdline(const CpuModel& cpu, const std::vector<std::string>& tokens);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_OS_MITIGATION_CONFIG_H_
