#include "src/core/attribution.h"

#include "src/util/rng.h"

namespace specbench {

namespace {

// Overhead of `slow` relative to `fast`, respecting metric direction.
Estimate OverheadPct(const Estimate& with_mitigation, const Estimate& without,
                     bool lower_is_better) {
  if (lower_is_better) {
    return RelativeOverheadPercent(with_mitigation, without);
  }
  // Higher-is-better score: overhead = (score_off / score_on - 1) * 100.
  return RelativeOverheadPercent(without, with_mitigation);
}

}  // namespace

const std::vector<MitigationKnob>& OsMitigationKnobs() {
  static const std::vector<MitigationKnob> kKnobs = {
      {"pti", "Page Table Isolation",
       [](const CpuModel&, const MitigationConfig& c) { return c.pti; },
       [](JitConfig*, MitigationConfig* c) { c->pti = false; }},
      {"mds", "MDS buffer clearing",
       [](const CpuModel& cpu, const MitigationConfig& c) {
         return c.mds_clear_buffers && cpu.vuln.mds;
       },
       [](JitConfig*, MitigationConfig* c) { c->mds_clear_buffers = false; }},
      {"spectre_v2", "Spectre V2 (retpoline/IBRS + IBPB + RSB)",
       [](const CpuModel&, const MitigationConfig& c) {
         return c.retpoline != RetpolineMode::kNone || c.ibrs != IbrsMode::kOff ||
                c.ibpb_on_context_switch || c.rsb_stuff_on_context_switch;
       },
       [](JitConfig*, MitigationConfig* c) {
         c->retpoline = RetpolineMode::kNone;
         c->ibrs = IbrsMode::kOff;
         c->ibpb_on_context_switch = false;
         c->rsb_stuff_on_context_switch = false;
       }},
      {"spectre_v1", "Spectre V1 (lfence + masking)",
       [](const CpuModel&, const MitigationConfig& c) {
         return c.lfence_after_swapgs || c.kernel_index_masking;
       },
       [](JitConfig*, MitigationConfig* c) {
         c->lfence_after_swapgs = false;
         c->kernel_index_masking = false;
       }},
      {"other", "Other mitigations",
       [](const CpuModel& cpu, const MitigationConfig& c) {
         return c.l1tf_pte_inversion || c.ssbd != SsbdMode::kOff ||
                (cpu.vuln.l1tf && c.l1d_flush_on_vmentry);
       },
       [](JitConfig*, MitigationConfig* c) {
         c->l1tf_pte_inversion = false;
         c->l1d_flush_on_vmentry = false;
         c->ssbd = SsbdMode::kOff;
       }},
  };
  return kKnobs;
}

const std::vector<MitigationKnob>& BrowserMitigationKnobs() {
  // Figure 3 order: JS-level mitigations first (blue in the paper), then the
  // OS-level ones that apply to the sandboxed browser (green).
  static const std::vector<MitigationKnob> kKnobs = {
      {"index_masking", "Index masking", nullptr,
       [](JitConfig* jit, MitigationConfig*) { jit->index_masking = false; }},
      {"object_guards", "Object mitigations", nullptr,
       [](JitConfig* jit, MitigationConfig*) { jit->object_guards = false; }},
      {"other_js", "Other JavaScript", nullptr,
       [](JitConfig* jit, MitigationConfig*) { jit->pointer_poisoning = false; }},
      {"ssbd", "SSBD (seccomp)", nullptr,
       [](JitConfig*, MitigationConfig* os) { os->ssbd = SsbdMode::kOff; }},
      {"other_os", "Other OS", nullptr,
       [](JitConfig*, MitigationConfig* os) { *os = MitigationConfig::AllOff(); }},
  };
  return kKnobs;
}

AttributionReport AttributeMitigations(const CpuModel& cpu, const std::string& workload,
                                       const std::vector<MitigationKnob>& knobs,
                                       const MeasureFn& measure, bool lower_is_better,
                                       const SamplerOptions& sampler, uint64_t base_seed) {
  AttributionReport report;
  report.cpu = UarchName(cpu.uarch);
  report.workload = workload;

  // Every configuration's first sample seed derives from base_seed alone, so
  // the whole chain is a pure function of its inputs. Sampler health is
  // folded into the report.
  uint64_t seed_stream = base_seed;
  JitConfig jit = JitConfig::AllOn();
  MitigationConfig os = MitigationConfig::Defaults(cpu);
  auto measure_current = [&] {
    const SampleResult result =
        SampleUntilConverged(measure(jit, os), SplitMix64Next(&seed_stream), sampler);
    report.total_samples += result.samples;
    report.converged = report.converged && result.converged;
    report.saw_non_finite = report.saw_non_finite || result.saw_non_finite();
    return result.estimate;
  };

  Estimate current = measure_current();
  const Estimate with_all = current;
  for (const MitigationKnob& knob : knobs) {
    if (knob.relevant && !knob.relevant(cpu, os)) {
      continue;
    }
    knob.disable(&jit, &os);
    const Estimate without = measure_current();
    // This knob's contribution: overhead of keeping it on, relative to the
    // configuration with it (and everything later) still enabled.
    report.segments.push_back(
        AttributionSegment{knob.id, knob.label, OverheadPct(current, without, lower_is_better)});
    current = without;
  }
  report.total_overhead_pct = OverheadPct(with_all, current, lower_is_better);
  return report;
}

}  // namespace specbench
