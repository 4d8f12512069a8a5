#include "src/os/mitigation_config.h"

#include "src/util/check.h"

namespace specbench {

const char* RetpolineModeName(RetpolineMode mode) {
  switch (mode) {
    case RetpolineMode::kNone: return "none";
    case RetpolineMode::kGeneric: return "generic";
    case RetpolineMode::kAmd: return "amd";
  }
  return "?";
}

const char* IbrsModeName(IbrsMode mode) {
  switch (mode) {
    case IbrsMode::kOff: return "off";
    case IbrsMode::kLegacyIbrs: return "ibrs";
    case IbrsMode::kEibrs: return "eibrs";
  }
  return "?";
}

const char* SsbdModeName(SsbdMode mode) {
  switch (mode) {
    case SsbdMode::kOff: return "off";
    case SsbdMode::kPrctl: return "prctl";
    case SsbdMode::kSeccomp: return "seccomp";
    case SsbdMode::kAlways: return "on";
  }
  return "?";
}

MitigationConfig MitigationConfig::Defaults(const CpuModel& cpu) {
  MitigationConfig c;
  c.pti = cpu.vuln.meltdown;
  c.mds_clear_buffers = cpu.vuln.mds;
  c.smt_off = false;  // Table 1: "!": not enabled by default even when vulnerable
  // Spectre V2: eIBRS where available, otherwise retpolines (vendor flavour
  // per Table 1: generic on old Intel, lfence-based on AMD). The AMD
  // retpoline was later shown incompletely effective [Milburn et al. 2022];
  // like the paper, we treat it as the deployed mitigation of its day.
  if (cpu.predictor.eibrs) {
    c.ibrs = IbrsMode::kEibrs;
    c.retpoline = RetpolineMode::kNone;
  } else {
    c.ibrs = IbrsMode::kOff;
    c.retpoline = cpu.vendor == Vendor::kAmd ? RetpolineMode::kAmd : RetpolineMode::kGeneric;
  }
  c.ibpb_on_context_switch = true;
  c.rsb_stuff_on_context_switch = true;
  c.lfence_after_swapgs = true;
  c.kernel_index_masking = true;
  c.eager_fpu = true;  // Table 1: "Always save FPU" on every CPU
  c.l1tf_pte_inversion = cpu.vuln.l1tf;
  c.l1d_flush_on_vmentry = cpu.vuln.l1tf;
  c.ssbd = SsbdMode::kSeccomp;  // pre-Linux-5.16 default (paper §4.3)
  return c;
}

MitigationConfig MitigationConfig::AllOff() {
  MitigationConfig c;
  c.eager_fpu = true;  // Linux keeps eager FPU even with mitigations=off
  return c;
}

namespace {

using enum MitigationGroup;
using C = MitigationConfig;

const char* OnOff(bool on) { return on ? "on" : "off"; }
const char* ClearOff(bool clear) { return clear ? "clear" : "off"; }

// The row of a field that is on unless it holds kOff, which disabling writes
// back; Describe() prints kName(field).
template <auto kField, auto kOff, auto kName>
constexpr MitigationRow Row(const char* key, const char* knob, MitigationGroup group) {
  return {key, [](const C& c) { return kName(c.*kField); },
          [](const C& c) { return c.*kField != kOff; }, [](C* c) { c->*kField = kOff; }, knob,
          group};
}

template <bool C::*kField>
constexpr MitigationRow Flag(const char* key, const char* knob, MitigationGroup group) {
  return Row<kField, false, OnOff>(key, knob, group);
}

// The SSBD row is on for any policy but kOff. The suite's ssb victim is an
// ordinary process, so only kAlways defends it (its defended() says so);
// every weaker policy leaks alike, and disabling to kOff loses nothing.
constexpr MitigationRow kRows[] = {
    Flag<&C::pti>("pti", "pti", kPti),
    Flag<&C::pcid>("pcid", nullptr, kNone),
    Row<&C::mds_clear_buffers, false, ClearOff>("mds", "mds-clear", kMds),
    Flag<&C::smt_off>("nosmt", "nosmt", kNone),
    Row<&C::retpoline, RetpolineMode::kNone, RetpolineModeName>("retpoline", "retpoline",
                                                                 kSpectreV2),
    Row<&C::ibrs, IbrsMode::kOff, IbrsModeName>("ibrs", "ibrs", kSpectreV2),
    Flag<&C::ibpb_on_context_switch>("ibpb", "ibpb", kSpectreV2),
    Flag<&C::rsb_stuff_on_context_switch>("rsb_stuff", "rsb-stuff", kSpectreV2),
    Flag<&C::stibp>("stibp", "stibp", kNone),
    Flag<&C::core_scheduling>("coresched", "coresched", kNone),
    Flag<&C::lfence_after_swapgs>("lfence_swapgs", "lfence-swapgs", kSpectreV1),
    Flag<&C::kernel_index_masking>("v1", "index-masking", kSpectreV1),
    Flag<&C::eager_fpu>("eagerfpu", "eager-fpu", kNone),
    Flag<&C::l1tf_pte_inversion>("l1tf", "pte-inversion", kOther),
    Flag<&C::l1d_flush_on_vmentry>("l1d_flush", nullptr, kOther),
    Row<&C::ssbd, SsbdMode::kOff, SsbdModeName>("ssbd", "ssbd", kOther),
};

// The apply functions of the boot parameters below.
template <auto kField, auto kValue>
bool Set(C* c, const CpuModel&) {
  c->*kField = kValue;
  return true;
}

template <MitigationGroup kGroup>
bool Disable(C* c, const CpuModel&) {
  DisableGroup(c, kGroup);
  return true;
}

template <RetpolineMode kMode>
bool Retpoline(C* c, const CpuModel&) {
  c->retpoline = kMode;
  c->ibrs = IbrsMode::kOff;
  return true;
}

// STIBP and core scheduling are meaningless without a sibling thread.
template <bool C::*kField>
bool WithSibling(C* c, const CpuModel& cpu) {
  c->*kField = cpu.smt;
  return true;
}

bool L1tf(C* c, bool on) {
  c->l1tf_pte_inversion = on;
  c->l1d_flush_on_vmentry = on;
  return true;
}

// Only these exact spellings are accepted: "stibp=forceon" and the like are
// unknown tokens.
constexpr BootParam kBootParams[] = {
    {"mitigations=off",
     [](C* c, const CpuModel&) {
       *c = C::AllOff();
       return true;
     }},
    {"mitigations=auto",
     [](C* c, const CpuModel& cpu) {
       *c = C::Defaults(cpu);
       return true;
     }},
    {"nopcid", Set<&C::pcid, false>},
    {"nopti", Disable<kPti>},
    {"pti=off", Disable<kPti>},
    {"pti=on", Set<&C::pti, true>},
    {"mds=off", Disable<kMds>},
    {"mds=full",
     [](C* c, const CpuModel& cpu) {
       c->mds_clear_buffers = cpu.vuln.mds;
       return true;
     }},
    {"nospectre_v1", Disable<kSpectreV1>},
    {"nospectre_v2", Disable<kSpectreV2>},
    {"spectre_v2=retpoline", Retpoline<RetpolineMode::kGeneric>},
    {"spectre_v2=retpoline,generic", Retpoline<RetpolineMode::kGeneric>},
    {"spectre_v2=retpoline,amd", Retpoline<RetpolineMode::kAmd>},
    {"spectre_v2=ibrs",
     [](C* c, const CpuModel& cpu) {
       if (!cpu.predictor.ibrs_supported) {
         return false;
       }
       c->ibrs = cpu.predictor.eibrs ? IbrsMode::kEibrs : IbrsMode::kLegacyIbrs;
       c->retpoline = RetpolineMode::kNone;
       return true;
     }},
    {"spec_store_bypass_disable=off", Set<&C::ssbd, SsbdMode::kOff>},
    {"spec_store_bypass_disable=prctl", Set<&C::ssbd, SsbdMode::kPrctl>},
    {"spec_store_bypass_disable=seccomp", Set<&C::ssbd, SsbdMode::kSeccomp>},
    {"spec_store_bypass_disable=on", Set<&C::ssbd, SsbdMode::kAlways>},
    {"l1tf=off", [](C* c, const CpuModel&) { return L1tf(c, false); }},
    {"l1tf=full", [](C* c, const CpuModel& cpu) { return L1tf(c, cpu.vuln.l1tf); }},
    {"eagerfpu=off", Set<&C::eager_fpu, false>},
    {"eagerfpu=on", Set<&C::eager_fpu, true>},
    {"nosmt", Set<&C::smt_off, true>},
    {"stibp", WithSibling<&C::stibp>},
    {"stibp=on", WithSibling<&C::stibp>},
    {"stibp=off", Set<&C::stibp, false>},
    {"coresched", WithSibling<&C::core_scheduling>},
    {"coresched=on", WithSibling<&C::core_scheduling>},
    {"coresched=off", Set<&C::core_scheduling, false>},
};

}  // namespace

std::span<const MitigationRow> MitigationRows() { return kRows; }

const MitigationRow& MitigationRowByKey(std::string_view key) {
  for (const MitigationRow& row : kRows) {
    if (key == row.key) {
      return row;
    }
  }
  SPECBENCH_CHECK_MSG(false, "no mitigation row with that key");
}

bool GroupOn(const MitigationConfig& config, MitigationGroup group) {
  for (const MitigationRow& row : kRows) {
    if (row.group == group && row.on(config)) {
      return true;
    }
  }
  return false;
}

void DisableGroup(MitigationConfig* config, MitigationGroup group) {
  for (const MitigationRow& row : kRows) {
    if (row.group == group) {
      row.disable(config);
    }
  }
}

std::string MitigationConfig::Describe() const {
  std::string out;
  for (const MitigationRow& row : kRows) {
    if (!out.empty()) {
      out += ' ';
    }
    out.append(row.key).append("=").append(row.value(*this));
  }
  return out;
}

std::span<const BootParam> BootParams() { return kBootParams; }

bool ApplyBootParam(MitigationConfig* config, const CpuModel& cpu, const std::string& token) {
  for (const auto& [name, apply] : BootParams()) {
    if (name == token) {
      return apply(config, cpu);
    }
  }
  return false;
}

MitigationConfig ConfigFromCmdline(const CpuModel& cpu, const std::vector<std::string>& tokens) {
  MitigationConfig config = MitigationConfig::Defaults(cpu);
  for (const std::string& token : tokens) {
    ApplyBootParam(&config, cpu, token);
  }
  return config;
}

}  // namespace specbench
