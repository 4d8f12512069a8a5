// The attribution harness and experiment drivers: the paper's contribution.
#include <gtest/gtest.h>

#include "src/core/attribution.h"
#include "src/core/experiments.h"
#include "src/core/microbench.h"
#include "src/core/paper_expectations.h"
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

TEST(Knobs, CoverTheFigure2Families) {
  const auto& knobs = OsMitigationKnobs();
  ASSERT_EQ(knobs.size(), 5u);
  EXPECT_EQ(knobs[0].id, "pti");
  EXPECT_EQ(knobs[1].id, "mds");
  EXPECT_EQ(knobs[2].id, "spectre_v2");
  EXPECT_EQ(knobs[3].id, "spectre_v1");
  EXPECT_EQ(knobs[4].id, "other");
}

TEST(Knobs, RelevanceTracksCpu) {
  const auto& knobs = OsMitigationKnobs();
  const CpuModel& broadwell = GetCpuModel(Uarch::kBroadwell);
  const CpuModel& zen3 = GetCpuModel(Uarch::kZen3);
  EXPECT_TRUE(knobs[0].relevant(broadwell, MitigationConfig::Defaults(broadwell)));
  EXPECT_FALSE(knobs[0].relevant(zen3, MitigationConfig::Defaults(zen3)));  // no PTI
  EXPECT_TRUE(knobs[2].relevant(zen3, MitigationConfig::Defaults(zen3)));   // retpoline
}

TEST(Attribution, SyntheticMeasureDecomposesExactly) {
  // A synthetic cost function with known per-knob contributions must come
  // back decomposed into exactly those contributions.
  const CpuModel& cpu = GetCpuModel(Uarch::kBroadwell);
  auto measure = [](const MitigationConfig& c) -> SampleFn {
    double cost = 100.0;
    if (c.pti) {
      cost += 20.0;
    }
    if (c.mds_clear_buffers) {
      cost += 10.0;
    }
    if (c.retpoline != RetpolineMode::kNone) {
      cost += 5.0;
    }
    return [cost](uint64_t) { return cost; };
  };
  const AttributionReport report =
      AttributeOsMitigations(cpu, "synthetic", measure, /*lower_is_better=*/true, FastSampler());
  EXPECT_NEAR(report.total_overhead_pct.value, 35.0, 0.3);
  ASSERT_GE(report.segments.size(), 3u);
  // pti: (135/115 - 1) relative to the config with pti removed.
  EXPECT_EQ(report.segments[0].id, "pti");
  EXPECT_NEAR(report.segments[0].overhead_pct.value, (135.0 / 115.0 - 1.0) * 100.0, 0.3);
  EXPECT_EQ(report.segments[1].id, "mds");
  EXPECT_NEAR(report.segments[1].overhead_pct.value, (115.0 / 105.0 - 1.0) * 100.0, 0.3);
}

TEST(Attribution, SegmentsRoughlySumToTotal) {
  const CpuModel& cpu = GetCpuModel(Uarch::kSkylakeClient);
  const AttributionReport report = AttributeOsMitigations(
      cpu, "lebench",
      [&cpu](const MitigationConfig& config) -> SampleFn {
        return [getpid = LeBench::SimulateKernel("getpid", cpu, config)](uint64_t seed) {
          return NoisyKernel("getpid", getpid, seed);
        };
      },
      /*lower_is_better=*/true, FastSampler());
  EXPECT_GT(report.total_overhead_pct.value, 10.0);
  // Successive-difference segments compound, so the sum is close to (and
  // slightly below) the total for small percentages.
  EXPECT_NEAR(report.SegmentSum(), report.total_overhead_pct.value,
              report.total_overhead_pct.value * 0.35 + 3.0);
}

TEST(Attribution, BroadwellLeBenchDominatedByPtiAndMds) {
  const CpuModel& cpu = GetCpuModel(Uarch::kBroadwell);
  const AttributionReport report = AttributeOsMitigations(
      cpu, "lebench",
      [&cpu](const MitigationConfig& config) -> SampleFn {
        return [suite = LeBench::SimulateSuite(cpu, config)](uint64_t seed) {
          return LeBench::SuiteGeomean(NoisySuite(suite, seed));
        };
      },
      /*lower_is_better=*/true, FastSampler());
  double pti = 0;
  double mds = 0;
  double v1 = 0;
  for (const auto& segment : report.segments) {
    if (segment.id == "pti") {
      pti = segment.overhead_pct.value;
    } else if (segment.id == "mds") {
      mds = segment.overhead_pct.value;
    } else if (segment.id == "spectre_v1") {
      v1 = segment.overhead_pct.value;
    }
  }
  // Paper: Meltdown mitigation alone is ~10%; MDS is the other big chunk;
  // Spectre V1 has no measurable LEBench impact.
  EXPECT_GT(pti, 5.0);
  EXPECT_GT(mds, 5.0);
  EXPECT_LT(v1, 2.5);
  EXPECT_GT(pti + mds, report.total_overhead_pct.value * 0.5);
}

TEST(Attribution, BrowserReportHasTheFigure3Segments) {
  const CpuModel& cpu = GetCpuModel(Uarch::kZen3);
  const AttributionReport report = AttributeBrowserMitigations(
      cpu,
      [&cpu](const JitConfig& jit, const MitigationConfig& os) -> SampleFn {
        // One kernel keeps the test fast; the full suite runs in fig3.
        return [crypto = Octane::SimulateKernel("crypto", cpu, jit, os)](uint64_t seed) {
          return NoisyKernel("crypto", crypto, seed);
        };
      },
      FastSampler());
  ASSERT_EQ(report.segments.size(), 5u);
  EXPECT_EQ(report.segments[0].id, "index_masking");
  EXPECT_EQ(report.segments[3].id, "ssbd");
  EXPECT_GT(report.total_overhead_pct.value, 3.0);
}

// The simulation is deterministic, so each configuration is simulated once
// and the sampler only draws its noise: one callback call per configuration
// measured, while every configuration still gets at least min_samples.
TEST(Attribution, SimulatesEachConfigOnceAndSamplesItsNoise) {
  const CpuModel& cpu = GetCpuModel(Uarch::kBroadwell);
  const SamplerOptions sampler = FastSampler();
  size_t os_simulations = 0;
  const AttributionReport os = AttributeOsMitigations(
      cpu, "getpid",
      [&](const MitigationConfig& config) -> SampleFn {
        os_simulations++;
        return [getpid = LeBench::SimulateKernel("getpid", cpu, config)](uint64_t seed) {
          return NoisyKernel("getpid", getpid, seed);
        };
      },
      /*lower_is_better=*/true, sampler);
  // The defaults, then one configuration per knob the sweep disables.
  EXPECT_EQ(os_simulations, 1 + os.segments.size());
  EXPECT_EQ(os_simulations, 1 + OsMitigationKnobs().size());  // all five matter on Broadwell
  EXPECT_GE(os.total_samples, sampler.min_samples * os_simulations);

  size_t browser_simulations = 0;
  const AttributionReport browser = AttributeBrowserMitigations(
      cpu,
      [&](const JitConfig& jit, const MitigationConfig& config) -> SampleFn {
        browser_simulations++;
        return [crypto = Octane::SimulateKernel("crypto", cpu, jit, config)](uint64_t seed) {
          return NoisyKernel("crypto", crypto, seed);
        };
      },
      sampler);
  EXPECT_EQ(browser_simulations, 1 + browser.segments.size());
  EXPECT_EQ(browser_simulations, 6u);  // everything on, then five steps
  EXPECT_GE(browser.total_samples, sampler.min_samples * browser_simulations);
}

TEST(Experiments, Table1RenderMatchesVulnerabilityMatrix) {
  const std::string table = RenderTable1MitigationMatrix();
  EXPECT_NE(table.find("Page Table Isolation"), std::string::npos);
  EXPECT_NE(table.find("Broadwell"), std::string::npos);
  EXPECT_NE(table.find("!"), std::string::npos);  // SSBD / SMT rows
}

TEST(Experiments, Table2RenderListsAllCpus) {
  const std::string table = RenderTable2CpuInfo();
  for (Uarch u : AllUarches()) {
    EXPECT_NE(table.find(UarchName(u)), std::string::npos) << UarchName(u);
  }
  EXPECT_NE(table.find("EPYC 7452"), std::string::npos);
}

TEST(Microbench, Table3TracksPaper) {
  for (Uarch u : AllUarches()) {
    const EntryExitCosts costs = MeasureEntryExit(GetCpuModel(u));
    const PaperTable3Row paper = PaperTable3(u);
    EXPECT_NEAR(costs.syscall, paper.syscall, kTable3EntryExitTolerance.Bound(paper.syscall))
        << UarchName(u);
    EXPECT_NEAR(costs.sysret, paper.sysret, kTable3EntryExitTolerance.Bound(paper.sysret))
        << UarchName(u);
    if (paper.swap_cr3.has_value()) {
      EXPECT_NEAR(costs.swap_cr3, *paper.swap_cr3, kTable3SwapCr3Tolerance.Bound(*paper.swap_cr3))
          << UarchName(u);
    }
  }
}

TEST(Microbench, Table4TracksPaper) {
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    const double measured = MeasureVerw(cpu);
    if (const auto paper = PaperTable4(u); paper.has_value()) {
      EXPECT_NEAR(measured, *paper, kTable4VerwTolerance.Bound(*paper)) << UarchName(u);
    } else {
      EXPECT_LT(measured, kTable4LegacyVerwMaxCycles) << UarchName(u);
    }
  }
}

TEST(Microbench, Table6IbpbTracksPaper) {
  for (Uarch u : AllUarches()) {
    const double measured = MeasureIbpb(GetCpuModel(u));
    const double paper = PaperTable6Ibpb(u);
    EXPECT_NEAR(measured, paper, kTable6IbpbTolerance.Bound(paper)) << UarchName(u);
  }
}

TEST(Microbench, Table7RsbTracksPaper) {
  for (Uarch u : AllUarches()) {
    EXPECT_NEAR(MeasureRsbStuff(GetCpuModel(u)), PaperTable7RsbStuff(u),
                kTable7RsbTolerance.Bound(PaperTable7RsbStuff(u)))
        << UarchName(u);
  }
}

TEST(Microbench, Table8LfenceTracksPaper) {
  for (Uarch u : AllUarches()) {
    EXPECT_NEAR(MeasureLfence(GetCpuModel(u)), PaperTable8Lfence(u),
                kTable8LfenceTolerance.Bound(PaperTable8Lfence(u)))
        << UarchName(u);
  }
}

TEST(Microbench, Table5ShapeHolds) {
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    const IndirectBranchCosts costs = MeasureIndirectBranch(cpu);
    // Retpolines always cost more than a predicted indirect branch.
    EXPECT_GT(costs.generic_retpoline, costs.baseline) << UarchName(u);
    // IBRS is ~free on eIBRS parts and costly on legacy parts.
    if (cpu.predictor.eibrs) {
      EXPECT_NEAR(costs.ibrs, costs.baseline, kTable5EibrsMaxDelta) << UarchName(u);
    } else if (cpu.predictor.ibrs_supported) {
      EXPECT_GT(costs.ibrs, costs.baseline + kTable5LegacyIbrsMinDelta) << UarchName(u);
    } else {
      EXPECT_LT(costs.ibrs, 0) << UarchName(u);  // N/A on Zen 1
    }
    if (cpu.vendor == Vendor::kAmd) {
      EXPECT_GE(costs.amd_retpoline, 0) << UarchName(u);
    } else {
      EXPECT_LT(costs.amd_retpoline, 0) << UarchName(u);
    }
  }
  // The paper's standout AMD result: the lfence retpoline is ~free on Zen 2
  // and clearly slower than generic on Zen 1.
  const IndirectBranchCosts zen2 = MeasureIndirectBranch(GetCpuModel(Uarch::kZen2));
  EXPECT_LT(zen2.amd_retpoline, zen2.generic_retpoline);
  const IndirectBranchCosts zen1 = MeasureIndirectBranch(GetCpuModel(Uarch::kZen1));
  EXPECT_GT(zen1.amd_retpoline, zen1.generic_retpoline);
}

TEST(Experiments, AttributionCsvRoundTrip) {
  AttributionReport report;
  report.cpu = "TestCpu";
  report.workload = "wl";
  report.total_overhead_pct = {12.5, 0.4};
  report.segments.push_back({"pti", "Page Table Isolation", {7.25, 0.2}});
  const std::string csv = RenderAttributionCsv({report});
  EXPECT_NE(csv.find("cpu,workload,mitigation,overhead_pct,ci95"), std::string::npos);
  EXPECT_NE(csv.find("TestCpu,wl,pti,7.250,0.200"), std::string::npos);
  EXPECT_NE(csv.find("TestCpu,wl,TOTAL,12.500,0.400"), std::string::npos);
}

TEST(Experiments, Tables9And10Render) {
  const std::string rendered = RenderTables9And10();
  EXPECT_NE(rendered.find("Table 9"), std::string::npos);
  EXPECT_NE(rendered.find("Table 10"), std::string::npos);
  EXPECT_NE(rendered.find("same-call-site control"), std::string::npos);
  EXPECT_NE(rendered.find("speculated"), std::string::npos);
}

TEST(Experiments, EibrsBimodalRender) {
  const std::string rendered = RenderEibrsBimodal();
  EXPECT_NE(rendered.find("Cascade Lake"), std::string::npos);
  EXPECT_NE(rendered.find("slow entries"), std::string::npos);
}

TEST(Experiments, Figure5TrendAcrossGenerations) {
  const auto rows = RunFigure5Ssbd({Uarch::kBroadwell, Uarch::kIceLakeServer, Uarch::kZen1,
                                    Uarch::kZen3});
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_GT(rows[1].facesim_pct, rows[0].facesim_pct);  // ICX > BDW
  EXPECT_GT(rows[3].facesim_pct, rows[2].facesim_pct);  // Zen3 > Zen1
  EXPECT_GT(rows[3].facesim_pct, 20.0);
}

}  // namespace
}  // namespace specbench

namespace specbench {
namespace {

// --- The §7 future-hardware proposal -----------------------------------------

TEST(FutureCpu, ModelShape) {
  const CpuModel& future = FutureCpuModel();
  EXPECT_FALSE(future.vuln.spec_store_bypass);  // ARCH_CAPABILITIES.SSB_NO
  EXPECT_TRUE(future.cmov_load_fusion);
  EXPECT_TRUE(future.predictor.eibrs);
  EXPECT_FALSE(future.vuln.meltdown);
  EXPECT_FALSE(future.vuln.mds);
}

TEST(FutureCpu, FusionMakesIndexMaskingNearlyFree) {
  // The masked/unmasked Octane gap shrinks by >2x on the fused part.
  const CpuModel& today = GetCpuModel(Uarch::kIceLakeServer);
  const CpuModel& future = FutureCpuModel();
  const MitigationConfig os = MitigationConfig::AllOff();
  JitConfig masked = JitConfig::AllOff();
  masked.index_masking = true;
  masked.object_guards = true;
  auto overhead = [&](const CpuModel& cpu) {
    const double base = Octane::SuiteScore(Octane::RunSuite(cpu, JitConfig::AllOff(), os, 3));
    const double with = Octane::SuiteScore(Octane::RunSuite(cpu, masked, os, 4));
    return (base / with - 1.0) * 100.0;
  };
  const double now = overhead(today);
  const double later = overhead(future);
  EXPECT_GT(now, 5.0);
  EXPECT_LT(later, now * 0.7);
}

}  // namespace
}  // namespace specbench
