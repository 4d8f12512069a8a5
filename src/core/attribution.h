// The paper's central methodology: attribute end-to-end slowdown to
// individual mitigations (§4.1).
//
// "To measure the impact of individual mitigations, we run Linux with the
// default set of mitigations enabled, and then use kernel boot parameters to
// successively disable them to determine the overhead that each one causes."
//
// AttributeMitigations does exactly that, once for both figures: measure the
// default configuration (sampling until the 95% CI converges), then disable
// one mitigation at a time — in a fixed knob order — re-measuring after each
// step. The per-mitigation overhead is the successive difference; the
// segments stack to the total. Figure 2 runs it over OsMitigationKnobs() on
// LEBench, Figure 3 over BrowserMitigationKnobs() on Octane 2.
#ifndef SPECTREBENCH_SRC_CORE_ATTRIBUTION_H_
#define SPECTREBENCH_SRC_CORE_ATTRIBUTION_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/cpu/cpu_model.h"
#include "src/jit/jit.h"
#include "src/os/mitigation_config.h"
#include "src/stats/sampler.h"

namespace specbench {

// One mitigation knob in the successive-disable chain.
struct MitigationKnob {
  std::string id;
  std::string label;
  // Whether the knob does anything under the chain's current OS
  // configuration; a knob without one is always measured.
  std::function<bool(const CpuModel&, const MitigationConfig&)> relevant;
  // Turns the mitigation off.
  std::function<void(JitConfig*, MitigationConfig*)> disable;
};

// The knobs measured for Figure 2, in the disable order used by the sweep:
// PTI (Meltdown), MDS buffer clearing, Spectre V2 (retpolines/eIBRS + IBPB +
// RSB stuffing), Spectre V1 (lfence + masking), and "other" (everything
// remaining down to mitigations=off).
const std::vector<MitigationKnob>& OsMitigationKnobs();

// The knobs measured for Figure 3: the JavaScript mitigations first (index
// masking, object guards, other JavaScript), then the OS ones that matter to
// a seccomp-sandboxed browser (SSBD, then everything else down to
// mitigations=off). Every step is measured on every CPU.
const std::vector<MitigationKnob>& BrowserMitigationKnobs();

struct AttributionSegment {
  std::string id;
  std::string label;
  Estimate overhead_pct;  // percentage points of the stacked total
};

struct AttributionReport {
  std::string cpu;
  std::string workload;
  Estimate total_overhead_pct;
  std::vector<AttributionSegment> segments;  // only knobs with nonzero effect

  // Sampler health, aggregated over every configuration measured: finite
  // samples used in the estimates (non-finite draws are excluded; see
  // SampleResult), whether every configuration's CI converged, and whether
  // any measurement returned a non-finite value (surfaced rather than
  // silently poisoning the estimates).
  size_t total_samples = 0;
  bool converged = true;
  bool saw_non_finite = false;
};

// A measurement under one (JIT, OS) configuration. The simulation is
// deterministic and only the injected noise varies, so the callback
// simulates the configuration once (it takes no seed) and returns its
// SampleFn; the sampler varies the seed per sample so the noise exercises
// the CI machinery.
using MeasureFn = std::function<SampleFn(const JitConfig&, const MitigationConfig&)>;

// Default `base_seed` for AttributeMitigations. Each configuration's first
// sample seed is the next SplitMix64 draw from the base, so a caller (e.g. a
// parallel sweep cell) can substitute its own deterministic seed and get
// results independent of execution order.
inline constexpr uint64_t kDefaultAttributionSeed = 1000;

// Successively disables `knobs`, starting from JitConfig::AllOn() and the
// CPU's default OS configuration. `lower_is_better` selects cost (cycles,
// Figure 2) vs score (Octane, Figure 3) semantics.
AttributionReport AttributeMitigations(const CpuModel& cpu, const std::string& workload,
                                       const std::vector<MitigationKnob>& knobs,
                                       const MeasureFn& measure, bool lower_is_better,
                                       const SamplerOptions& sampler = SamplerOptions(),
                                       uint64_t base_seed = kDefaultAttributionSeed);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_CORE_ATTRIBUTION_H_
