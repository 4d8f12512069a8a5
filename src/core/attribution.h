// The paper's central methodology: attribute end-to-end slowdown to
// individual mitigations (§4.1).
//
// "To measure the impact of individual mitigations, we run Linux with the
// default set of mitigations enabled, and then use kernel boot parameters to
// successively disable them to determine the overhead that each one causes."
//
// AttributeOsMitigations does exactly that: measure the default
// configuration (sampling until the 95% CI converges), then disable one
// mitigation at a time — in a fixed order — re-measuring after each step
// down to mitigations=off. The per-mitigation overhead is the successive
// difference; the segments stack to the total (Figures 2 and 3).
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

// One OS-level mitigation knob in the successive-disable sweep.
struct MitigationKnob {
  std::string id;
  std::string label;
  // Whether the knob does anything in this CPU's default configuration.
  std::function<bool(const CpuModel&, const MitigationConfig&)> relevant;
  // Turns the mitigation off.
  std::function<void(MitigationConfig*)> disable;
};

// The knobs measured for Figure 2, in the disable order used by the sweep:
// PTI (Meltdown), MDS buffer clearing, Spectre V2 (retpolines/eIBRS + IBPB +
// RSB stuffing), Spectre V1 (lfence + masking), and "other" (everything
// remaining down to mitigations=off).
const std::vector<MitigationKnob>& OsMitigationKnobs();

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

  // Sum of segment midpoints (== total up to measurement error).
  double SegmentSum() const;
};

// One configuration's noisy sample: a score or cost for the whole workload,
// with the run-to-run noise drawn from `seed`.
using SampleFn = std::function<double(uint64_t seed)>;

// A measurement under one OS configuration. The simulation is deterministic
// and only the injected noise varies, so the callback simulates the
// configuration once (it takes no seed) and returns its SampleFn; the sampler
// varies the seed per sample so the noise exercises the CI machinery.
using OsMeasureFn = std::function<SampleFn(const MitigationConfig&)>;

// Default `base_seed` for the attribution sweeps below. Seeds for the
// per-configuration measurements are derived from the base via SplitMix64,
// so a caller (e.g. a parallel sweep cell) can substitute its own
// deterministic seed and get results independent of execution order.
inline constexpr uint64_t kDefaultAttributionSeed = 1000;

// Successively disables knobs on top of the CPU's default configuration.
// `lower_is_better` selects cost (cycles) vs score (Octane) semantics.
AttributionReport AttributeOsMitigations(const CpuModel& cpu, const std::string& workload,
                                         const OsMeasureFn& measure, bool lower_is_better,
                                         const SamplerOptions& options = SamplerOptions(),
                                         uint64_t base_seed = kDefaultAttributionSeed);

// Browser-side attribution (Figure 3): sweeps the JIT mitigations (index
// masking, object guards, other JavaScript) and then the OS-side knobs that
// matter to a seccomp-sandboxed browser (SSBD, other OS).
// As OsMeasureFn: simulates one (JIT, OS) configuration once.
using BrowserMeasureFn = std::function<SampleFn(const JitConfig&, const MitigationConfig&)>;

AttributionReport AttributeBrowserMitigations(const CpuModel& cpu,
                                              const BrowserMeasureFn& measure,
                                              const SamplerOptions& options = SamplerOptions(),
                                              uint64_t base_seed = kDefaultAttributionSeed);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_CORE_ATTRIBUTION_H_
