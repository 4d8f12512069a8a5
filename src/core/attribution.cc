#include "src/core/attribution.h"

#include "src/util/check.h"
#include "src/util/rng.h"

namespace specbench {

namespace {

// Measures one simulated configuration with the adaptive sampler; the seed
// changes per sample so the simulated run-to-run noise drives the CI. Sampler
// health is folded into the report.
Estimate MeasureConfig(const SampleFn& sample, uint64_t seed_base,
                       const SamplerOptions& options, AttributionReport* report) {
  uint64_t seed = seed_base;
  const SampleResult result = SampleUntilConverged([&] { return sample(seed++); }, options);
  report->total_samples += result.samples;
  report->converged = report->converged && result.converged;
  report->saw_non_finite = report->saw_non_finite || result.saw_non_finite();
  return result.estimate;
}

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
       [](const CpuModel& cpu, const MitigationConfig& c) {
         (void)cpu;
         return c.pti;
       },
       [](MitigationConfig* c) { c->pti = false; }},
      {"mds", "MDS buffer clearing",
       [](const CpuModel& cpu, const MitigationConfig& c) {
         return c.mds_clear_buffers && cpu.vuln.mds;
       },
       [](MitigationConfig* c) { c->mds_clear_buffers = false; }},
      {"spectre_v2", "Spectre V2 (retpoline/IBRS + IBPB + RSB)",
       [](const CpuModel& cpu, const MitigationConfig& c) {
         (void)cpu;
         return c.retpoline != RetpolineMode::kNone || c.ibrs != IbrsMode::kOff ||
                c.ibpb_on_context_switch || c.rsb_stuff_on_context_switch;
       },
       [](MitigationConfig* c) {
         c->retpoline = RetpolineMode::kNone;
         c->ibrs = IbrsMode::kOff;
         c->ibpb_on_context_switch = false;
         c->rsb_stuff_on_context_switch = false;
       }},
      {"spectre_v1", "Spectre V1 (lfence + masking)",
       [](const CpuModel& cpu, const MitigationConfig& c) {
         (void)cpu;
         return c.lfence_after_swapgs || c.kernel_index_masking;
       },
       [](MitigationConfig* c) {
         c->lfence_after_swapgs = false;
         c->kernel_index_masking = false;
       }},
      {"other", "Other mitigations",
       [](const CpuModel& cpu, const MitigationConfig& c) {
         return c.l1tf_pte_inversion || c.ssbd != SsbdMode::kOff ||
                (cpu.vuln.l1tf && c.l1d_flush_on_vmentry);
       },
       [](MitigationConfig* c) {
         c->l1tf_pte_inversion = false;
         c->l1d_flush_on_vmentry = false;
         c->ssbd = SsbdMode::kOff;
       }},
  };
  return kKnobs;
}

double AttributionReport::SegmentSum() const {
  double sum = 0.0;
  for (const AttributionSegment& segment : segments) {
    sum += segment.overhead_pct.value;
  }
  return sum;
}

AttributionReport AttributeOsMitigations(const CpuModel& cpu, const std::string& workload,
                                         const OsMeasureFn& measure, bool lower_is_better,
                                         const SamplerOptions& options, uint64_t base_seed) {
  AttributionReport report;
  report.cpu = UarchName(cpu.uarch);
  report.workload = workload;

  // Every configuration's sample-seed stream derives from base_seed alone,
  // so the whole attribution chain is a pure function of its inputs.
  uint64_t seed_stream = base_seed;
  MitigationConfig config = MitigationConfig::Defaults(cpu);
  Estimate current =
      MeasureConfig(measure(config), SplitMix64Next(&seed_stream), options, &report);
  const Estimate with_all = current;

  for (const MitigationKnob& knob : OsMitigationKnobs()) {
    if (!knob.relevant(cpu, config)) {
      continue;
    }
    MitigationConfig next = config;
    knob.disable(&next);
    const Estimate without =
        MeasureConfig(measure(next), SplitMix64Next(&seed_stream), options, &report);
    // This knob's contribution: overhead of keeping it on, relative to the
    // configuration with it (and everything later) still enabled.
    const Estimate delta = OverheadPct(current, without, lower_is_better);
    report.segments.push_back(AttributionSegment{knob.id, knob.label, delta});
    config = next;
    current = without;
  }
  // `current` is now the mitigations=off baseline.
  report.total_overhead_pct = OverheadPct(with_all, current, lower_is_better);
  return report;
}

AttributionReport AttributeBrowserMitigations(const CpuModel& cpu,
                                              const BrowserMeasureFn& measure,
                                              const SamplerOptions& options,
                                              uint64_t base_seed) {
  AttributionReport report;
  report.cpu = UarchName(cpu.uarch);
  report.workload = "octane2";

  // Figure 3 sweep order: JS-level mitigations first (blue in the paper),
  // then the OS-level ones that apply to the sandboxed browser (green).
  struct Step {
    std::string id;
    std::string label;
    std::function<void(JitConfig*, MitigationConfig*)> disable;
  };
  const std::vector<Step> steps = {
      {"index_masking", "Index masking",
       [](JitConfig* jit, MitigationConfig*) { jit->index_masking = false; }},
      {"object_guards", "Object mitigations",
       [](JitConfig* jit, MitigationConfig*) { jit->object_guards = false; }},
      {"other_js", "Other JavaScript",
       [](JitConfig* jit, MitigationConfig*) { jit->pointer_poisoning = false; }},
      {"ssbd", "SSBD (seccomp)",
       [](JitConfig*, MitigationConfig* os) { os->ssbd = SsbdMode::kOff; }},
      {"other_os", "Other OS",
       [](JitConfig*, MitigationConfig* os) { *os = MitigationConfig::AllOff(); }},
  };

  JitConfig jit = JitConfig::AllOn();
  MitigationConfig os = MitigationConfig::Defaults(cpu);
  uint64_t seed_stream = base_seed;
  auto measure_current = [&] {
    return MeasureConfig(measure(jit, os), SplitMix64Next(&seed_stream), options, &report);
  };

  Estimate current = measure_current();
  const Estimate with_all = current;
  for (const Step& step : steps) {
    JitConfig next_jit = jit;
    MitigationConfig next_os = os;
    step.disable(&next_jit, &next_os);
    jit = next_jit;
    os = next_os;
    const Estimate without = measure_current();
    // Octane is higher-is-better: disabling a mitigation raises the score.
    // This step's overhead = (score_without / score_with - 1) * 100.
    report.segments.push_back(
        AttributionSegment{step.id, step.label,
                           RelativeOverheadPercent(without, current)});
    current = without;
  }
  report.total_overhead_pct = RelativeOverheadPercent(current, with_all);
  return report;
}

}  // namespace specbench
