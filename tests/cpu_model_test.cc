#include <gtest/gtest.h>

#include "src/cpu/cpu_model.h"
#include "src/cpu/paper_expectations.h"

namespace specbench {
namespace {

TEST(Catalog, HasEightCpus) {
  EXPECT_EQ(AllUarches().size(), 8u);
}

TEST(Catalog, Table2Identity) {
  const CpuModel& broadwell = GetCpuModel(Uarch::kBroadwell);
  EXPECT_EQ(broadwell.model_name, "E5-2640v4");
  EXPECT_EQ(broadwell.cores, 10);
  EXPECT_EQ(broadwell.power_watts, 90);
  EXPECT_NEAR(broadwell.clock_ghz, 2.4, 1e-9);

  const CpuModel& zen3 = GetCpuModel(Uarch::kZen3);
  EXPECT_EQ(zen3.model_name, "Ryzen 5 5600X");
  EXPECT_EQ(zen3.vendor, Vendor::kAmd);
  EXPECT_EQ(zen3.cores, 6);

  // Zen 1 is the only non-SMT part (Table 2 note).
  for (Uarch u : AllUarches()) {
    EXPECT_EQ(GetCpuModel(u).smt, u != Uarch::kZen1) << UarchName(u);
  }
}

TEST(Catalog, Table3Latencies) {
  EXPECT_EQ(GetCpuModel(Uarch::kBroadwell).latency.syscall, 49u);
  EXPECT_EQ(GetCpuModel(Uarch::kBroadwell).latency.swap_cr3, 206u);
  EXPECT_EQ(GetCpuModel(Uarch::kSkylakeClient).latency.swap_cr3, 191u);
  EXPECT_EQ(GetCpuModel(Uarch::kCascadeLake).latency.syscall, 70u);
  EXPECT_EQ(GetCpuModel(Uarch::kIceLakeClient).latency.syscall, 21u);
  EXPECT_EQ(GetCpuModel(Uarch::kZen3).latency.syscall, 83u);
}

// Each input the paper's own microbenchmarks measure (Tables 3-8, and the
// §6.2.2 scrub cost) is that table's cell. A cell the paper marks N/A is a
// model choice, not an input, and the N/A cells are exactly the parts the
// mitigation does not apply to.
TEST(Catalog, CalibratedInputsAreThePaperCells) {
  int checked = 0;
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    const LatencyTable& lat = cpu.latency;
    auto expect = [&](uint32_t input, double paper, const char* what) {
      EXPECT_EQ(static_cast<double>(input), paper) << UarchName(u) << " " << what;
      checked++;
    };
    const PaperTable3Row t3 = PaperTable3(u);
    expect(lat.syscall, t3.syscall, "syscall");
    expect(lat.sysret, t3.sysret, "sysret");
    EXPECT_EQ(t3.swap_cr3.has_value(), cpu.vuln.meltdown) << UarchName(u);
    if (t3.swap_cr3) {
      expect(lat.swap_cr3, *t3.swap_cr3, "swap_cr3");
    }
    const std::optional<double> verw = PaperTable4(u);
    EXPECT_EQ(verw.has_value(), cpu.vuln.mds) << UarchName(u);
    if (verw) {
      expect(lat.verw_clear, *verw, "verw_clear");
    }
    const PaperTable5Row t5 = PaperTable5(u);
    expect(lat.indirect_predicted, t5.baseline, "indirect_predicted");
    EXPECT_EQ(t5.ibrs_delta.has_value(), cpu.predictor.ibrs_supported) << UarchName(u);
    if (cpu.predictor.ibrs_supported && !cpu.predictor.eibrs) {
      expect(lat.frontend_redirect, *t5.ibrs_delta, "frontend_redirect");
    }
    expect(lat.mispredict_penalty, t5.generic_delta - 3 + t5.baseline, "mispredict_penalty");
    expect(lat.ibpb, PaperTable6Ibpb(u), "ibpb");
    expect(lat.rsb_stuff, PaperTable7RsbStuff(u), "rsb_stuff");
    expect(lat.lfence, PaperTable8Lfence(u), "lfence");
    if (cpu.predictor.eibrs) {
      expect(cpu.predictor.eibrs_scrub_cycles, kSection622ExtraCycles, "eibrs_scrub_cycles");
    }
  }
  EXPECT_EQ(checked, 68);
}

TEST(Catalog, Table1VulnerabilityMatrix) {
  // Meltdown & L1TF: only Broadwell and Skylake.
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    const bool old_intel = u == Uarch::kBroadwell || u == Uarch::kSkylakeClient;
    EXPECT_EQ(cpu.vuln.meltdown, old_intel) << UarchName(u);
    EXPECT_EQ(cpu.vuln.l1tf, old_intel) << UarchName(u);
    EXPECT_EQ(cpu.vuln.lazy_fp, old_intel) << UarchName(u);
    // MDS: those two plus Cascade Lake.
    EXPECT_EQ(cpu.vuln.mds, old_intel || u == Uarch::kCascadeLake) << UarchName(u);
    // Spectre V1/V2/SSB: everyone.
    EXPECT_TRUE(cpu.vuln.spectre_v1);
    EXPECT_TRUE(cpu.vuln.spectre_v2);
    EXPECT_TRUE(cpu.vuln.spec_store_bypass);
  }
}

TEST(Catalog, EibrsOnlyOnNewIntel) {
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    const bool expected = u == Uarch::kCascadeLake || u == Uarch::kIceLakeClient ||
                          u == Uarch::kIceLakeServer;
    EXPECT_EQ(cpu.predictor.eibrs, expected) << UarchName(u);
    EXPECT_EQ(cpu.predictor.btb_mode_tagged, expected) << UarchName(u);
  }
}

TEST(Catalog, ZenQuirks) {
  EXPECT_FALSE(GetCpuModel(Uarch::kZen1).predictor.ibrs_supported);
  EXPECT_TRUE(GetCpuModel(Uarch::kZen2).predictor.ibrs_supported);
  EXPECT_TRUE(GetCpuModel(Uarch::kZen3).predictor.btb_bhb_indexed);
  EXPECT_FALSE(GetCpuModel(Uarch::kZen2).predictor.btb_bhb_indexed);
}

TEST(Catalog, IbpbCostDeclinesOverIntelServerGenerations) {
  // Paper §5.3: Broadwell ~5600 cycles, Cascade Lake ~340, Ice Lake Srv ~840.
  EXPECT_GT(GetCpuModel(Uarch::kBroadwell).latency.ibpb,
            GetCpuModel(Uarch::kIceLakeServer).latency.ibpb);
  EXPECT_GT(GetCpuModel(Uarch::kIceLakeServer).latency.ibpb,
            GetCpuModel(Uarch::kCascadeLake).latency.ibpb);
}

TEST(Catalog, SsbdStallTrendsWorseOverTime) {
  // Paper Figure 5: the SSBD penalty grows on newer parts.
  EXPECT_LT(GetCpuModel(Uarch::kBroadwell).latency.ssbd_forward_stall,
            GetCpuModel(Uarch::kIceLakeServer).latency.ssbd_forward_stall);
  EXPECT_LT(GetCpuModel(Uarch::kZen1).latency.ssbd_forward_stall,
            GetCpuModel(Uarch::kZen3).latency.ssbd_forward_stall);
}

TEST(Catalog, LookupByName) {
  EXPECT_EQ(GetCpuModelByName("Zen 2").uarch, Uarch::kZen2);
  EXPECT_EQ(GetCpuModelByName("Ice Lake Client").uarch, Uarch::kIceLakeClient);
}

TEST(Catalog, NamesRoundTrip) {
  for (Uarch u : AllUarches()) {
    EXPECT_EQ(GetCpuModelByName(UarchName(u)).uarch, u);
  }
}

TEST(Catalog, MdsPartsHaveExpensiveVerw) {
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    if (cpu.vuln.mds) {
      EXPECT_GE(cpu.latency.verw_clear, 400u) << UarchName(u);
    } else {
      EXPECT_LE(cpu.latency.verw_legacy, 40u) << UarchName(u);
    }
  }
}

}  // namespace
}  // namespace specbench
