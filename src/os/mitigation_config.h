// Kernel mitigation configuration (the knobs of the whole study).
//
// Mirrors the Linux controls the paper drives via boot parameters (§4.1):
// page table isolation, MDS buffer clearing, the Spectre V2 family
// (retpolines, IBRS/eIBRS, IBPB, RSB stuffing), Spectre V1 kernel hardening,
// SSBD policy, eager FPU, and the L1TF pair. Defaults(cpu) reproduces the
// paper's Table 1 per-processor default set.
//
// Each MitigationConfig field is one row of MitigationRows(): its
// Describe() spelling, whether it is on and how to turn it off, its attack
// suite knob (src/attack/suite.h) and its Figure 2 group
// (src/core/attribution.h). Describe(), the suite's knobs, Figure 2's
// successive-disable steps and the group boot parameters (nopti, mds=off,
// nospectre_v1, nospectre_v2) all read the rows, so adding a mitigation is
// one field, one row and its kernel code.
#ifndef SPECTREBENCH_SRC_OS_MITIGATION_CONFIG_H_
#define SPECTREBENCH_SRC_OS_MITIGATION_CONFIG_H_

#include <span>
#include <string>
#include <string_view>
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

  // One `key=value` per field, in field order: a complete key (two configs
  // describe alike exactly when they are equal).
  std::string Describe() const;

  bool operator==(const MitigationConfig&) const = default;
};

// The Figure 2 step a field is disabled in (src/core/attribution.h), or
// kNone for a field no step turns off.
enum class MitigationGroup { kNone, kPti, kMds, kSpectreV2, kSpectreV1, kOther };

// One MitigationConfig field.
struct MitigationRow {
  const char* key;                                // Describe() spelling, e.g. "retpoline"
  const char* (*value)(const MitigationConfig&);  // Describe() value, e.g. "generic"
  bool (*on)(const MitigationConfig&);            // the field is in a secure setting
  void (*disable)(MitigationConfig*);             // forces its insecure setting
  const char* knob;       // its attack-suite knob name, or nullptr
  MitigationGroup group;
};

// One row per MitigationConfig field, in field order.
std::span<const MitigationRow> MitigationRows();
// The row whose Describe() spelling is `key`; aborts when there is none.
const MitigationRow& MitigationRowByKey(std::string_view key);

// Whether any row of `group` is on; turning the group off disables them all.
bool GroupOn(const MitigationConfig& config, MitigationGroup group);
void DisableGroup(MitigationConfig* config, MitigationGroup group);

// One accepted boot parameter: `apply` returns false when the CPU cannot
// honour it (spectre_v2=ibrs without IBRS), leaving the config untouched.
struct BootParam {
  const char* token;
  bool (*apply)(MitigationConfig* config, const CpuModel& cpu);
};

// Every boot parameter ApplyBootParam accepts.
std::span<const BootParam> BootParams();

// Applies Linux-style boot parameter tokens to a config, e.g. {"nopti",
// "mds=off", "nospectre_v2", "spec_store_bypass_disable=on",
// "mitigations=off", "spectre_v2=retpoline,generic"}.
// Returns false (and leaves `config` untouched for that token) on an
// unrecognized token; processing continues.
bool ApplyBootParam(MitigationConfig* config, const CpuModel& cpu, const std::string& token);
MitigationConfig ConfigFromCmdline(const CpuModel& cpu, const std::vector<std::string>& tokens);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_OS_MITIGATION_CONFIG_H_
