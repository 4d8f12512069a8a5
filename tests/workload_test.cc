// Workload suites: sanity, determinism modulo noise, and the qualitative
// overheads the paper's evaluation section builds on.
#include <gtest/gtest.h>

#include "src/workload/lebench.h"
#include "src/workload/lfs.h"
#include "src/workload/measurement.h"
#include "src/workload/octane.h"
#include "src/workload/parsec.h"

namespace specbench {
namespace {

TEST(Measurement, NoiseIsSmallAndSeeded) {
  const double a = ApplyNoise(1000.0, 1);
  const double b = ApplyNoise(1000.0, 1);
  const double c = ApplyNoise(1000.0, 2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NEAR(a, 1000.0, 100.0);
}

TEST(LeBenchSuite, FourteenKernels) {
  EXPECT_EQ(LeBench::KernelNames().size(), 14u);
}

TEST(LeBenchSuite, AllKernelsRunEverywhere) {
  for (Uarch u : {Uarch::kBroadwell, Uarch::kZen3}) {
    const CpuModel& cpu = GetCpuModel(u);
    const auto results = LeBench::RunSuite(cpu, MitigationConfig::Defaults(cpu), 1);
    EXPECT_EQ(results.size(), 14u);
    for (const auto& [name, cycles] : results) {
      EXPECT_GT(cycles, 0.0) << name << " on " << UarchName(u);
    }
    EXPECT_GT(LeBench::SuiteGeomean(results), 0.0);
  }
}

TEST(LeBenchSuite, MitigationOverheadLargeOnBroadwellSmallOnIceLake) {
  // The paper's headline: >30% on old Intel, <3% on the newest parts.
  auto overhead = [](Uarch u) {
    const CpuModel& cpu = GetCpuModel(u);
    const double def =
        LeBench::SuiteGeomean(LeBench::RunSuite(cpu, MitigationConfig::Defaults(cpu), 1));
    const double off =
        LeBench::SuiteGeomean(LeBench::RunSuite(cpu, MitigationConfig::AllOff(), 2));
    return (def / off - 1.0) * 100.0;
  };
  const double broadwell = overhead(Uarch::kBroadwell);
  const double icelake = overhead(Uarch::kIceLakeServer);
  EXPECT_GT(broadwell, 15.0);
  EXPECT_LT(icelake, 8.0);
  EXPECT_GT(broadwell, icelake * 3);
}

TEST(LeBenchSuite, GetpidDominatedByBoundaryCost) {
  const CpuModel& cpu = GetCpuModel(Uarch::kSkylakeClient);
  const double off = LeBench::RunKernel("getpid", cpu, MitigationConfig::AllOff(), 3);
  const double def = LeBench::RunKernel("getpid", cpu, MitigationConfig::Defaults(cpu), 3);
  // PTI (2x ~191 cyc) + verw (~518) on a ~1.4k-cycle null syscall.
  EXPECT_GT(def, off * 1.4);
}

TEST(LeBenchSuite, BigReadLessSensitiveThanGetpid) {
  const CpuModel& cpu = GetCpuModel(Uarch::kBroadwell);
  const double read_off = LeBench::RunKernel("big-read", cpu, MitigationConfig::AllOff(), 4);
  const double read_def =
      LeBench::RunKernel("big-read", cpu, MitigationConfig::Defaults(cpu), 4);
  const double getpid_off = LeBench::RunKernel("getpid", cpu, MitigationConfig::AllOff(), 4);
  const double getpid_def =
      LeBench::RunKernel("getpid", cpu, MitigationConfig::Defaults(cpu), 4);
  const double read_ovh = read_def / read_off;
  const double getpid_ovh = getpid_def / getpid_off;
  EXPECT_LT(read_ovh, getpid_ovh);  // more work amortizes the boundary cost
}

TEST(OctaneSuite, EightKernels) {
  EXPECT_EQ(Octane::KernelNames().size(), 8u);
}

TEST(OctaneSuite, AllKernelsRun) {
  const CpuModel& cpu = GetCpuModel(Uarch::kZen2);
  const auto results =
      Octane::RunSuite(cpu, JitConfig::AllOn(), MitigationConfig::Defaults(cpu), 1);
  EXPECT_EQ(results.size(), 8u);
  for (const auto& [name, score] : results) {
    EXPECT_GT(score, 0.0) << name;
  }
}

TEST(OctaneSuite, JitMitigationsReduceScore) {
  for (Uarch u : {Uarch::kSkylakeClient, Uarch::kZen3}) {
    const CpuModel& cpu = GetCpuModel(u);
    const MitigationConfig os = MitigationConfig::AllOff();
    const double with =
        Octane::SuiteScore(Octane::RunSuite(cpu, JitConfig::AllOn(), os, 5));
    const double without =
        Octane::SuiteScore(Octane::RunSuite(cpu, JitConfig::AllOff(), os, 6));
    EXPECT_LT(with, without) << UarchName(u);
    // The paper: total browser overhead stays in the 15-25% band; JS-side
    // mitigations account for roughly half. Loose sanity bounds here.
    const double slowdown = (1.0 - with / without) * 100.0;
    EXPECT_GT(slowdown, 2.0) << UarchName(u);
    EXPECT_LT(slowdown, 40.0) << UarchName(u);
  }
}

TEST(OctaneSuite, IndexMaskingAloneCostsAFewPercent) {
  const CpuModel& cpu = GetCpuModel(Uarch::kIceLakeServer);
  const MitigationConfig os = MitigationConfig::AllOff();
  JitConfig only_masking = JitConfig::AllOff();
  only_masking.index_masking = true;
  const double base = Octane::SuiteScore(Octane::RunSuite(cpu, JitConfig::AllOff(), os, 7));
  const double masked = Octane::SuiteScore(Octane::RunSuite(cpu, only_masking, os, 8));
  const double slowdown = (1.0 - masked / base) * 100.0;
  EXPECT_GT(slowdown, 0.5);
  EXPECT_LT(slowdown, 15.0);
}

TEST(OctaneSuite, SeccompSsbdSlowsTheBrowser) {
  // Firefox is a seccomp process: under the kSeccomp policy it runs with
  // SSBD even though ordinary processes do not (paper §4.3).
  const CpuModel& cpu = GetCpuModel(Uarch::kZen3);
  MitigationConfig with_ssbd = MitigationConfig::AllOff();
  with_ssbd.ssbd = SsbdMode::kSeccomp;
  MitigationConfig no_ssbd = MitigationConfig::AllOff();
  const double slow =
      Octane::SuiteScore(Octane::RunSuite(cpu, JitConfig::AllOff(), with_ssbd, 9));
  const double fast =
      Octane::SuiteScore(Octane::RunSuite(cpu, JitConfig::AllOff(), no_ssbd, 10));
  EXPECT_LT(slow, fast);
}

TEST(ParsecSuite, ThreeKernels) {
  EXPECT_EQ(Parsec::KernelNames().size(), 3u);
}

TEST(ParsecSuite, DefaultMitigationsNearlyFree) {
  // §4.5: total runtime usually within +-0.5%, never more than 2%.
  for (Uarch u : {Uarch::kBroadwell, Uarch::kCascadeLake, Uarch::kZen2}) {
    const CpuModel& cpu = GetCpuModel(u);
    for (const std::string& name : Parsec::KernelNames()) {
      const double off = Parsec::RunKernel(name, cpu, MitigationConfig::AllOff(), 11);
      const double def = Parsec::RunKernel(name, cpu, MitigationConfig::Defaults(cpu), 12);
      const double delta = std::abs(def / off - 1.0) * 100.0;
      EXPECT_LT(delta, 3.0) << name << " on " << UarchName(u);
    }
  }
}

TEST(ParsecSuite, NosmtChargeIsMeasuredAndWithinTheModelledEnvelope) {
  // The nosmt charge is no longer a flat constant: it is derived from the
  // measured co-run (RunCoResident of two kernel instances) as
  // clamp(2*T_solo/T_co, 1, 2). Pin the modelled envelope: at least 1
  // (nosmt never speeds the suite up; store-heavy kernels whose siblings
  // thrash the shared store buffer legitimately clamp to exactly 1 — no SMT
  // yield to lose), at most 2 (serializing two streams can at worst double),
  // some pair with a real yield, and never the old flat 1.25 for every pair.
  int exactly_one_quarter = 0;
  int with_real_yield = 0;
  int pairs = 0;
  for (Uarch u : {Uarch::kBroadwell, Uarch::kSkylakeClient, Uarch::kZen3}) {
    const CpuModel& cpu = GetCpuModel(u);
    ASSERT_TRUE(cpu.smt);
    for (const std::string& name : Parsec::KernelNames()) {
      const double charge = Parsec::NosmtCharge(name, cpu);
      EXPECT_GE(charge, 1.0) << name << " on " << UarchName(u);
      EXPECT_LE(charge, 2.0) << name << " on " << UarchName(u);
      if (charge > 1.05) {
        with_real_yield++;
      }
      if (std::abs(charge - 1.25) < 1e-9) {
        exactly_one_quarter++;
      }
      pairs++;
    }
  }
  EXPECT_GT(with_real_yield, 0);          // overlap-friendly kernels do pay
  EXPECT_LT(exactly_one_quarter, pairs);  // a measurement, not the old constant
}

TEST(ParsecSuite, NosmtChargeIsFreeWithoutASibling) {
  // Zen1 has no SMT: nosmt costs PARSEC nothing.
  const CpuModel& cpu = GetCpuModel(Uarch::kZen1);
  ASSERT_FALSE(cpu.smt);
  for (const std::string& name : Parsec::KernelNames()) {
    EXPECT_EQ(Parsec::NosmtCharge(name, cpu), 1.0) << name;
  }
}

TEST(ParsecSuite, NosmtChargeIsMeasuredPerCpuModelValue) {
  // The co-run charge belongs to the CPU model passed, not to its uarch: a
  // perturbed copy of a catalog model (a 10% slower memory) is a different
  // CPU with its own measured charge, and measuring it does not change the
  // catalog model's charge.
  const CpuModel& broadwell = GetCpuModel(Uarch::kBroadwell);
  CpuModel slower_memory = broadwell;
  slower_memory.latency.mem_latency = broadwell.latency.mem_latency * 11 / 10;
  ASSERT_TRUE(slower_memory.smt);
  const double catalog = Parsec::NosmtCharge("facesim", broadwell);
  const double perturbed = Parsec::NosmtCharge("facesim", slower_memory);
  EXPECT_NE(perturbed, catalog);
  EXPECT_GE(perturbed, 1.0);
  EXPECT_LE(perturbed, 2.0);
  EXPECT_EQ(Parsec::NosmtCharge("facesim", broadwell), catalog);
}

TEST(ParsecSuite, SsbdHurtsFacesimMost) {
  const CpuModel& cpu = GetCpuModel(Uarch::kZen3);
  MitigationConfig ssbd = MitigationConfig::AllOff();
  ssbd.ssbd = SsbdMode::kAlways;
  auto slowdown = [&](const std::string& name) {
    const double off = Parsec::RunKernel(name, cpu, MitigationConfig::AllOff(), 13);
    const double on = Parsec::RunKernel(name, cpu, ssbd, 14);
    return (on / off - 1.0) * 100.0;
  };
  const double face = slowdown("facesim");
  const double swap = slowdown("swaptions");
  EXPECT_GT(face, swap);   // store-heavy kernel suffers most
  EXPECT_GT(face, 3.0);    // a real slowdown...
  EXPECT_LT(face, 60.0);   // ...but bounded
}

TEST(ParsecSuite, SsbdTrendsWorseOnNewerCpus) {
  // Figure 5: the SSBD slowdown grows across generations.
  auto facesim_slowdown = [](Uarch u) {
    const CpuModel& cpu = GetCpuModel(u);
    MitigationConfig ssbd = MitigationConfig::AllOff();
    ssbd.ssbd = SsbdMode::kAlways;
    const double off = Parsec::RunKernel("facesim", cpu, MitigationConfig::AllOff(), 15);
    const double on = Parsec::RunKernel("facesim", cpu, ssbd, 16);
    return (on / off - 1.0) * 100.0;
  };
  EXPECT_GT(facesim_slowdown(Uarch::kIceLakeServer), facesim_slowdown(Uarch::kBroadwell));
  EXPECT_GT(facesim_slowdown(Uarch::kZen3), facesim_slowdown(Uarch::kZen1));
}

TEST(LfsSuite, SmallfileHasMoreExitsPerWork) {
  const CpuModel& cpu = GetCpuModel(Uarch::kBroadwell);
  const LfsResult small =
      Lfs::SimulateKernel("smallfile", cpu, MitigationConfig::AllOff(), HostConfig::AllOff());
  const LfsResult large =
      Lfs::SimulateKernel("largefile", cpu, MitigationConfig::AllOff(), HostConfig::AllOff());
  EXPECT_GT(small.vm_exits, large.vm_exits);
  const double small_exit_rate = small.vm_exits / small.cycles;
  const double large_exit_rate = large.vm_exits / large.cycles;
  EXPECT_GT(small_exit_rate, large_exit_rate);
}

TEST(LfsSuite, HostMitigationOverheadModest) {
  // §4.4: median overhead under 2% on real hardware; our simulated disk is
  // much faster than a real one, so allow more — but it must stay modest
  // because exits are rare relative to work.
  const CpuModel& cpu = GetCpuModel(Uarch::kBroadwell);
  for (const std::string& name : Lfs::KernelNames()) {
    const double off =
        Lfs::SimulateKernel(name, cpu, MitigationConfig::AllOff(), HostConfig::AllOff()).cycles;
    const double on =
        Lfs::SimulateKernel(name, cpu, MitigationConfig::AllOff(), HostConfig::Defaults(cpu))
            .cycles;
    const double overhead = (on / off - 1.0) * 100.0;
    EXPECT_GE(overhead, -1.0) << name;
    EXPECT_LT(overhead, 25.0) << name;
  }
}

}  // namespace
}  // namespace specbench
