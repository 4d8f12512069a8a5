// Cross-checks the event-bus cycle attribution (spectrebench counters)
// against the paper's difference-of-runs methodology (§4.1) on the
// Figure 2 / Figure 3 grids.
//
// The two methods answer the same question through independent paths:
//   - difference-of-runs re-measures after successively disabling each
//     mitigation knob and takes the deltas (src/core/attribution.cc);
//   - the bus charges every in-window cycle to a CauseTag during a single
//     default-configuration run (src/uarch/cycle_attribution.h).
//
// They agree only up to three real effects, all discussed in docs/uarch.md:
//   - chained denominators: segment i is relative to the run with knobs
//     1..i already off, not to mitigations=off. We undo that here by
//     compounding the segments back into vs-baseline percentages.
//   - overlap/interaction terms: removing a mitigation can expose stalls it
//     previously hid (SSBD store-bypass delays overlap load chains), so a
//     knob's delta need not equal the bus bucket exactly. The tolerances
//     below were calibrated against the observed worst case (~3pp on the
//     Octane SSBD step).
//   - always-on mitigations: eager FPU switching (CauseTag::kOther) has no
//     knob — Linux removed the lazy path entirely, so `mitigations=off`
//     still pays it and difference-of-runs is structurally blind to it.
//     The bus sees it; we assert that and exclude it from the comparison.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "src/core/attribution.h"
#include "src/core/counters.h"
#include "src/cpu/cpu_model.h"
#include "src/workload/lebench.h"
#include "src/workload/measurement.h"
#include "src/workload/octane.h"

namespace specbench {
namespace {

SamplerOptions FastSampler() {
  SamplerOptions options;
  options.min_samples = 3;
  options.max_samples = 8;
  options.target_relative_ci = 0.02;
  return options;
}

double PctOfBaseline(const CounterBreakdown& row, const std::vector<CauseTag>& tags) {
  uint64_t sum = 0;
  for (CauseTag tag : tags) {
    sum += row.Cause(tag);
  }
  return 100.0 * static_cast<double>(sum) / static_cast<double>(row.baseline_cycles());
}

// Total bus-side overhead visible to a knob sweep: everything except the
// baseline bucket and the knob-less eager-FPU cost.
double VisibleTotalPct(const CounterBreakdown& row) {
  return 100.0 *
         static_cast<double>(row.window_cycles - row.baseline_cycles() -
                             row.Cause(CauseTag::kOther)) /
         static_cast<double>(row.baseline_cycles());
}

// Rebuilds each knob's overhead *relative to the mitigations-off baseline*
// from the successive-difference segments: with T_i the runtime after
// disabling knobs 1..i, segment s_i = (T_{i-1}/T_i - 1) * 100, so
// T_{i-1}/T_n = prod_{j>=i} (1 + s_j/100) and this knob's vs-baseline
// share is the difference of adjacent products.
std::vector<std::pair<std::string, double>> SegmentsVsBaseline(
    const AttributionReport& report) {
  std::vector<std::pair<std::string, double>> out(report.segments.size());
  double tail = 1.0;  // T_i / T_n for the config after segment i
  for (size_t i = report.segments.size(); i-- > 0;) {
    const double head = tail * (1.0 + report.segments[i].overhead_pct.value / 100.0);
    out[i] = {report.segments[i].id, (head - tail) * 100.0};
    tail = head;
  }
  return out;
}

// The knob -> CauseTag correspondence. The "other" knob turns off SSBD and
// L1TF hardening; the bus tags those kSsbd (the L1TF PTE inversion is free
// at LEBench/Octane scale). CauseTag::kOther is deliberately unmapped: no
// knob removes eager FPU switching.
std::vector<CauseTag> OsKnobTags(const std::string& id) {
  if (id == "pti") return {CauseTag::kPti};
  if (id == "mds") return {CauseTag::kMds};
  if (id == "spectre_v2") return {CauseTag::kSpectreV2};
  if (id == "spectre_v1") return {CauseTag::kSpectreV1};
  if (id == "other") return {CauseTag::kSsbd};
  ADD_FAILURE() << "unknown knob " << id;
  return {};
}

std::vector<CauseTag> BrowserStepTags(const std::string& id) {
  if (id == "index_masking") return {CauseTag::kJsIndexMasking};
  if (id == "object_guards") return {CauseTag::kJsObjectGuards};
  if (id == "other_js") return {CauseTag::kJsOther};
  if (id == "ssbd") return {CauseTag::kSsbd};
  if (id == "other_os") {
    return {CauseTag::kPti, CauseTag::kMds, CauseTag::kSpectreV2, CauseTag::kSpectreV1};
  }
  ADD_FAILURE() << "unknown browser step " << id;
  return {};
}

// Per-knob agreement tolerance: an absolute floor for tiny buckets (the
// sampler's noise is ~1pp at these magnitudes) plus a relative band for the
// overlap effects described in the header comment.
double KnobTolerance(double diff_pct, double bus_pct) {
  return 2.0 + 0.3 * std::max(std::abs(diff_pct), bus_pct);
}

void CheckAgreement(const std::string& where, const CounterBreakdown& row,
                    const AttributionReport& report,
                    std::vector<CauseTag> (*tags_for)(const std::string&)) {
  SCOPED_TRACE(where);
  ASSERT_TRUE(report.converged);
  for (const auto& [id, diff_pct] : SegmentsVsBaseline(report)) {
    const double bus_pct = PctOfBaseline(row, tags_for(id));
    EXPECT_NEAR(diff_pct, bus_pct, KnobTolerance(diff_pct, bus_pct))
        << "knob " << id << ": difference-of-runs and bus counters disagree";
  }
  EXPECT_NEAR(report.total_overhead_pct.value, VisibleTotalPct(row),
              report.total_overhead_pct.ci95 + 2.0)
      << "total overhead disagrees beyond the sampler CI";
}

struct AgreementCase {
  Uarch uarch;
  std::string kernel;
};

TEST(CountersAgreement, OsMitigationsOnFigure2Cells) {
  const std::vector<AgreementCase> cases = {
      {Uarch::kBroadwell, "getpid"},
      {Uarch::kBroadwell, "context-switch"},
      {Uarch::kSkylakeClient, "getpid"},
      {Uarch::kZen2, "getpid"},
      {Uarch::kIceLakeServer, "context-switch"},
      {Uarch::kZen3, "getpid"}};
  for (const AgreementCase& c : cases) {
    const CpuModel& cpu = GetCpuModel(c.uarch);
    const CounterBreakdown row =
        MeasureLeBenchCounters(cpu, MitigationConfig::Defaults(cpu), c.kernel);
    const AttributionReport report = AttributeMitigations(
        cpu, "lebench:" + c.kernel, OsMitigationKnobs(),
        [&](const JitConfig&, const MitigationConfig& config) -> SampleFn {
          return [&c, simulated = LeBench::SimulateKernel(c.kernel, cpu, config)](uint64_t seed) {
            return NoisyKernel(c.kernel, simulated, seed);
          };
        },
        /*lower_is_better=*/true, FastSampler());
    CheckAgreement(std::string(UarchName(cpu.uarch)) + " lebench:" + c.kernel, row, report,
                   &OsKnobTags);
  }
}

TEST(CountersAgreement, BrowserMitigationsOnFigure3Cells) {
  for (Uarch u : {Uarch::kBroadwell, Uarch::kZen3}) {
    const CpuModel& cpu = GetCpuModel(u);
    const CounterBreakdown row = MeasureOctaneCounters(
        cpu, JitConfig::AllOn(), MitigationConfig::Defaults(cpu), "richards");
    const AttributionReport report = AttributeMitigations(
        cpu, "octane:richards", BrowserMitigationKnobs(),
        [&](const JitConfig& jit, const MitigationConfig& os) -> SampleFn {
          return [richards = Octane::SimulateKernel("richards", cpu, jit, os)](uint64_t seed) {
            return NoisyKernel("richards", richards, seed);
          };
        },
        /*lower_is_better=*/false, FastSampler());
    CheckAgreement(std::string(UarchName(cpu.uarch)) + " octane:richards", row, report,
                   &BrowserStepTags);
  }
}

TEST(CountersAgreement, EagerFpuIsInvisibleToDifferenceOfRuns) {
  // The structural blind spot: the sweep's terminal configuration still has
  // eager FPU switching on (there is no lazy path to fall back to), so the
  // bus bucket for it is real cost that no difference-of-runs segment can
  // ever contain.
  const CpuModel& cpu = GetCpuModel(Uarch::kBroadwell);
  JitConfig jit = JitConfig::AllOn();
  MitigationConfig config = MitigationConfig::Defaults(cpu);
  for (const MitigationKnob& knob : OsMitigationKnobs()) {
    knob.disable(&jit, &config);
  }
  EXPECT_TRUE(config.eager_fpu);
  EXPECT_TRUE(MitigationConfig::AllOff().eager_fpu);

  const CounterBreakdown row =
      MeasureLeBenchCounters(cpu, MitigationConfig::Defaults(cpu), "context-switch");
  EXPECT_GT(row.Cause(CauseTag::kOther), 0u)
      << "context switches should pay the eager-FPU save/restore";
}

}  // namespace
}  // namespace specbench
