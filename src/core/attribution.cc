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
  // Each step is one group of the mitigation table: relevant while any of
  // its rows is on, and disabling it turns them all off.
  static const std::vector<MitigationKnob> kKnobs = [] {
    const struct {
      const char* id;
      const char* label;
      MitigationGroup group;
    } steps[] = {
        {"pti", "Page Table Isolation", MitigationGroup::kPti},
        {"mds", "MDS buffer clearing", MitigationGroup::kMds},
        {"spectre_v2", "Spectre V2 (retpoline/IBRS + IBPB + RSB)", MitigationGroup::kSpectreV2},
        {"spectre_v1", "Spectre V1 (lfence + masking)", MitigationGroup::kSpectreV1},
        {"other", "Other mitigations", MitigationGroup::kOther},
    };
    std::vector<MitigationKnob> knobs;
    for (const auto& step : steps) {
      knobs.push_back({step.id, step.label,
                       [group = step.group](const CpuModel&, const MitigationConfig& c) {
                         return GroupOn(c, group);
                       },
                       [group = step.group](JitConfig*, MitigationConfig* c) {
                         DisableGroup(c, group);
                       }});
    }
    return knobs;
  }();
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
       [](JitConfig*, MitigationConfig* os) { MitigationRowByKey("ssbd").disable(os); }},
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
