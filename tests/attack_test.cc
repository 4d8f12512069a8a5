// Security ground truth: every attack leaks exactly when (a) the hardware
// is vulnerable and (b) the corresponding mitigation is off — and recovers
// the planted value through the real flush+reload timing channel.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/attack/attacks.h"
#include "src/attack/side_channel.h"
#include "src/attack/speculation_probe.h"
#include "src/cpu/paper_expectations.h"

namespace specbench {
namespace {

class AllCpus : public ::testing::TestWithParam<Uarch> {};
INSTANTIATE_TEST_SUITE_P(Catalog, AllCpus, ::testing::ValuesIn(AllUarches()),
                         [](const ::testing::TestParamInfo<Uarch>& info) {
                           std::string name = UarchName(info.param);
                           for (char& c : name) {
                             if (c == ' ') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST_P(AllCpus, SpectreV1LeaksWithoutMasking) {
  const AttackResult r = RunSpectreV1Attack(GetCpuModel(GetParam()), /*index_masking=*/false);
  EXPECT_TRUE(r.leaked);
  EXPECT_EQ(r.recovered, static_cast<int>(r.expected));
}

TEST_P(AllCpus, SpectreV1BlockedByMasking) {
  const AttackResult r = RunSpectreV1Attack(GetCpuModel(GetParam()), /*index_masking=*/true);
  EXPECT_FALSE(r.leaked);
}

TEST_P(AllCpus, SpectreV2LeakMatchesBtbPolicy) {
  const CpuModel& cpu = GetCpuModel(GetParam());
  const AttackResult r = RunSpectreV2Attack(cpu, SpectreV2Options{});
  // Zen 3's context-indexed BTB defeats the cross-site training even with
  // no mitigations (paper §6.2); everything else leaks.
  EXPECT_EQ(r.leaked, !cpu.predictor.btb_bhb_indexed) << UarchName(GetParam());
}

TEST_P(AllCpus, SpectreV2BlockedByRetpoline) {
  SpectreV2Options options;
  options.generic_retpoline = true;
  const AttackResult r = RunSpectreV2Attack(GetCpuModel(GetParam()), options);
  EXPECT_FALSE(r.leaked);
}

TEST_P(AllCpus, SpectreV2BlockedByIbpb) {
  SpectreV2Options options;
  options.ibpb_before_victim = true;
  const AttackResult r = RunSpectreV2Attack(GetCpuModel(GetParam()), options);
  EXPECT_FALSE(r.leaked);
}

TEST_P(AllCpus, SpectreV2UnderIbrs) {
  const CpuModel& cpu = GetCpuModel(GetParam());
  SpectreV2Options options;
  options.ibrs = true;
  const AttackResult r = RunSpectreV2Attack(cpu, options);
  if (!cpu.predictor.ibrs_supported) {
    EXPECT_FALSE(r.attempted);
    return;
  }
  // IBRS blocks prediction outright on legacy parts; eIBRS parts tag by
  // mode, and this attack is same-mode (user->user) *cross-site*, so it
  // still leaks there — except Zen 3 (context indexing) and Zen 2 (legacy
  // blocking semantics).
  const bool expect_leak = cpu.predictor.eibrs && !cpu.predictor.btb_bhb_indexed;
  EXPECT_EQ(r.leaked, expect_leak) << UarchName(GetParam());
}

TEST_P(AllCpus, SpectreRsbLeaksWithoutStuffing) {
  const CpuModel& cpu = GetCpuModel(GetParam());
  const AttackResult r = RunSpectreRsbAttack(cpu, /*rsb_stuffing=*/false);
  // The BTB fallback is trained directly at the victim's context, so even
  // Zen 3 speculates here (same context value).
  EXPECT_TRUE(r.leaked) << UarchName(GetParam());
}

TEST_P(AllCpus, SpectreRsbBlockedByStuffing) {
  const AttackResult r = RunSpectreRsbAttack(GetCpuModel(GetParam()), /*rsb_stuffing=*/true);
  EXPECT_FALSE(r.leaked);
}

TEST_P(AllCpus, MeltdownLeaksOnlyOnVulnerableHardware) {
  const CpuModel& cpu = GetCpuModel(GetParam());
  const AttackResult r = RunMeltdownAttack(cpu, /*pti=*/false);
  EXPECT_EQ(r.leaked, cpu.vuln.meltdown) << UarchName(GetParam());
}

TEST_P(AllCpus, MeltdownBlockedByPti) {
  const AttackResult r = RunMeltdownAttack(GetCpuModel(GetParam()), /*pti=*/true);
  EXPECT_FALSE(r.leaked);
}

TEST_P(AllCpus, MdsLeaksOnlyOnVulnerableHardware) {
  const CpuModel& cpu = GetCpuModel(GetParam());
  const AttackResult r = RunMdsAttack(cpu, /*verw_clear=*/false);
  EXPECT_EQ(r.leaked, cpu.vuln.mds) << UarchName(GetParam());
}

TEST_P(AllCpus, MdsBlockedByVerw) {
  const AttackResult r = RunMdsAttack(GetCpuModel(GetParam()), /*verw_clear=*/true);
  EXPECT_FALSE(r.leaked);
}

TEST_P(AllCpus, SsbLeaksWithoutSsbd) {
  const AttackResult r = RunSsbAttack(GetCpuModel(GetParam()), /*ssbd=*/false);
  EXPECT_TRUE(r.leaked) << UarchName(GetParam());
}

TEST_P(AllCpus, SsbBlockedBySsbd) {
  const AttackResult r = RunSsbAttack(GetCpuModel(GetParam()), /*ssbd=*/true);
  EXPECT_FALSE(r.leaked);
}

TEST_P(AllCpus, LazyFpLeaksOnlyOnVulnerableHardware) {
  const CpuModel& cpu = GetCpuModel(GetParam());
  const AttackResult r = RunLazyFpAttack(cpu, /*eager_fpu=*/false);
  EXPECT_EQ(r.leaked, cpu.vuln.lazy_fp) << UarchName(GetParam());
}

TEST_P(AllCpus, LazyFpBlockedByEagerFpu) {
  const AttackResult r = RunLazyFpAttack(GetCpuModel(GetParam()), /*eager_fpu=*/true);
  EXPECT_FALSE(r.leaked);
}

TEST_P(AllCpus, L1tfLeaksOnlyOnVulnerableHardware) {
  const CpuModel& cpu = GetCpuModel(GetParam());
  const AttackResult r = RunL1tfAttack(cpu, /*pte_inversion=*/false);
  EXPECT_EQ(r.leaked, cpu.vuln.l1tf) << UarchName(GetParam());
}

TEST_P(AllCpus, L1tfBlockedByPteInversion) {
  const AttackResult r = RunL1tfAttack(GetCpuModel(GetParam()), /*pte_inversion=*/true);
  EXPECT_FALSE(r.leaked);
}

TEST_P(AllCpus, DifferentSecretsRecovered) {
  // Property: the channel carries arbitrary values, not one magic constant.
  const CpuModel& cpu = GetCpuModel(GetParam());
  for (uint64_t secret : {1ull, 8ull, 15ull}) {
    const AttackResult r = RunSpectreV1Attack(cpu, false, secret);
    EXPECT_TRUE(r.leaked) << UarchName(GetParam()) << " secret=" << secret;
    EXPECT_EQ(r.recovered, static_cast<int>(secret));
  }
}

// --- The §6 speculation probe: Tables 9 and 10 ------------------------------

// Expected Tables 9 (IBRS disabled) and 10 (IBRS enabled) rows, one 'y'/'n'
// per Table9Columns() entry, from src/cpu/paper_expectations.h.
TEST(SpeculationProbe, Table9IbrsDisabled) {
  for (Uarch u : AllUarches()) {
    const std::string expect = PaperTable9(u);
    SpeculationProbe probe(GetCpuModel(u));
    const auto cases = Table9Columns(/*ibrs=*/false);
    ASSERT_EQ(expect.size(), cases.size()) << UarchName(u);
    for (size_t i = 0; i < cases.size(); i++) {
      const ProbeOutcome outcome = probe.Run(cases[i]);
      EXPECT_EQ(outcome == ProbeOutcome::kSpeculated, expect[i] == 'y')
          << UarchName(u) << " " << ProbeCaseName(cases[i]);
    }
  }
}

TEST(SpeculationProbe, Table10IbrsEnabled) {
  for (Uarch u : AllUarches()) {
    const std::string expect = PaperTable10(u);
    if (expect == "N/A") {
      continue;  // no IBRS: Zen1IbrsUnsupported
    }
    SpeculationProbe probe(GetCpuModel(u));
    const auto cases = Table9Columns(/*ibrs=*/true);
    ASSERT_EQ(expect.size(), cases.size()) << UarchName(u);
    for (size_t i = 0; i < cases.size(); i++) {
      const ProbeOutcome outcome = probe.Run(cases[i]);
      ASSERT_NE(outcome, ProbeOutcome::kUnsupported) << UarchName(u);
      EXPECT_EQ(outcome == ProbeOutcome::kSpeculated, expect[i] == 'y')
          << UarchName(u) << " " << ProbeCaseName(cases[i]);
    }
  }
}

TEST(SpeculationProbe, Zen1IbrsUnsupported) {
  EXPECT_EQ(PaperTable10(Uarch::kZen1), "N/A");
  SpeculationProbe probe(GetCpuModel(Uarch::kZen1));
  for (const ProbeCase& c : Table9Columns(/*ibrs=*/true)) {
    EXPECT_EQ(probe.Run(c), ProbeOutcome::kUnsupported);
  }
}

TEST(SpeculationProbe, Zen3SameSiteControlSpeculates) {
  // The paper's suspicion: Zen 3 is not immune, its BTB just cannot be
  // poisoned across contexts. Same-context training works in our model.
  SpeculationProbe probe(GetCpuModel(Uarch::kZen3));
  EXPECT_EQ(probe.RunSameSiteControl(), ProbeOutcome::kSpeculated);
}

TEST(SpeculationProbe, CaseNamesReadable) {
  const auto cases = Table9Columns(false);
  EXPECT_EQ(ProbeCaseName(cases[0]), "user->kernel (syscall)");
  EXPECT_EQ(ProbeCaseName(cases[4]), "kernel->kernel (no syscall)");
}

// --- Side channel plumbing ---------------------------------------------------

TEST(CacheTimingChannel, RecoversPlantedLine) {
  Machine m(GetCpuModel(Uarch::kZen2));
  CacheTimingChannel channel(0x40000000, 16);
  channel.Flush(m);
  m.caches().Access(channel.LineAddress(11));
  EXPECT_EQ(channel.Recover(m), 11);
}

TEST(CacheTimingChannel, NothingHotMeansMinusOne) {
  Machine m(GetCpuModel(Uarch::kZen2));
  CacheTimingChannel channel(0x40000000, 16);
  channel.Flush(m);
  EXPECT_EQ(channel.Recover(m), -1);
}

TEST(CacheTimingChannel, MeasureAllShowsLatencyContrast) {
  Machine m(GetCpuModel(Uarch::kBroadwell));
  CacheTimingChannel channel(0x40000000, 4);
  channel.Flush(m);
  m.caches().Access(channel.LineAddress(2));
  const auto latencies = channel.MeasureAll(m);
  ASSERT_EQ(latencies.size(), 4u);
  EXPECT_LT(latencies[2] * 2, latencies[0]);
}

// What a channel reads off fresh machines of one CPU with one planted line:
// every candidate's reload latency, and the recovered value.
struct ChannelReading {
  std::vector<uint64_t> latencies;
  int recovered = -1;
};

ChannelReading ReadPlanted(const CacheTimingChannel& channel, Uarch u, uint64_t planted) {
  ChannelReading reading;
  for (bool recover : {false, true}) {
    Machine m(GetCpuModel(u));
    channel.Flush(m);
    m.caches().Access(channel.LineAddress(planted));
    if (recover) {
      reading.recovered = channel.Recover(m);
    } else {
      reading.latencies = channel.MeasureAll(m);
    }
  }
  return reading;
}

// The attacks decode through one process-wide channel whose reload programs
// were built once. It must read every CPU exactly as a channel built in
// place with the same geometry does.
TEST(SharedProbeChannel, MatchesAChannelBuiltInPlaceOnEveryCpu) {
  const CacheTimingChannel in_place(0x40000000, 16);
  const std::vector<Uarch> cpus = AllUarches();
  for (size_t i = 0; i < cpus.size(); i++) {
    const uint64_t planted = (3 * i + 1) % 16;
    const ChannelReading want = ReadPlanted(in_place, cpus[i], planted);
    const ChannelReading got = ReadPlanted(AttackProbeChannel(), cpus[i], planted);
    EXPECT_EQ(got.latencies, want.latencies) << UarchName(cpus[i]);
    EXPECT_EQ(got.recovered, want.recovered) << UarchName(cpus[i]);
    EXPECT_EQ(got.recovered, static_cast<int>(planted)) << UarchName(cpus[i]);
  }
}

// Several threads read through the shared channel at once, each on its own
// machines (the sanitizer CI job runs this under TSan): the shared Programs
// are only read, so every thread sees the in-place latencies.
TEST(SharedProbeChannel, ConcurrentReadersSeeTheSameLatencies) {
  const CacheTimingChannel in_place(0x40000000, 16);
  const std::vector<Uarch> cpus = AllUarches();
  std::vector<ChannelReading> want;
  for (size_t i = 0; i < cpus.size(); i++) {
    want.push_back(ReadPlanted(in_place, cpus[i], i % 16));
  }
  constexpr int kThreads = 4;
  std::vector<std::vector<ChannelReading>> got(kThreads,
                                               std::vector<ChannelReading>(cpus.size()));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&cpus, &got, t] {
      for (size_t k = 0; k < cpus.size(); k++) {
        const size_t i = (k + static_cast<size_t>(t)) % cpus.size();  // staggered start
        got[t][i] = ReadPlanted(AttackProbeChannel(), cpus[i], i % 16);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; t++) {
    for (size_t i = 0; i < cpus.size(); i++) {
      const std::string where = "thread " + std::to_string(t) + " " + UarchName(cpus[i]);
      EXPECT_EQ(got[t][i].latencies, want[i].latencies) << where;
      EXPECT_EQ(got[t][i].recovered, want[i].recovered) << where;
    }
  }
}

}  // namespace
}  // namespace specbench

namespace specbench {
namespace {

// The §3.3 SMT story: verw protects transitions, not concurrent siblings.
TEST(MdsSmt, SiblingLeaksDespiteVerwOnVulnerableParts) {
  for (Uarch u : {Uarch::kBroadwell, Uarch::kSkylakeClient, Uarch::kCascadeLake}) {
    MdsSmtOptions options;
    options.smt_enabled = true;
    options.verw_on_switch = true;  // irrelevant: no transition happens
    EXPECT_TRUE(RunMdsSmtAttack(GetCpuModel(u), options).leaked) << UarchName(u);
  }
}

TEST(MdsSmt, DisablingSmtPlusVerwIsSafe) {
  for (Uarch u : AllUarches()) {
    MdsSmtOptions options;
    options.smt_enabled = false;
    options.verw_on_switch = true;
    EXPECT_FALSE(RunMdsSmtAttack(GetCpuModel(u), options).leaked) << UarchName(u);
  }
}

TEST(MdsSmt, DisablingSmtAloneLeavesResidue) {
  // Without verw at the switch, stale fill-buffer data survives into the
  // attacker's time slice even with SMT off.
  MdsSmtOptions options;
  options.smt_enabled = false;
  options.verw_on_switch = false;
  EXPECT_TRUE(RunMdsSmtAttack(GetCpuModel(Uarch::kSkylakeClient), options).leaked);
}

TEST(MdsSmt, FixedHardwareSafeEitherWay) {
  for (Uarch u : {Uarch::kIceLakeServer, Uarch::kZen3}) {
    MdsSmtOptions options;
    options.smt_enabled = true;
    options.verw_on_switch = false;
    EXPECT_FALSE(RunMdsSmtAttack(GetCpuModel(u), options).leaked) << UarchName(u);
  }
}

}  // namespace
}  // namespace specbench

namespace specbench {
namespace {

TEST(SpectreV2Smt, SiblingTrainingSteersVictimWithoutStibp) {
  for (Uarch u : {Uarch::kBroadwell, Uarch::kCascadeLake, Uarch::kZen2}) {
    EXPECT_TRUE(RunSpectreV2SmtAttack(GetCpuModel(u), /*stibp=*/false).leaked)
        << UarchName(u);
  }
}

TEST(SpectreV2Smt, StibpPartitionsThePredictor) {
  for (Uarch u : AllUarches()) {
    EXPECT_FALSE(RunSpectreV2SmtAttack(GetCpuModel(u), /*stibp=*/true).leaked)
        << UarchName(u);
  }
}

TEST(SmotherSpectre, CoResidentSiblingRecoversTheSecret) {
  // Port contention needs no predictor and no transient window — every SMT
  // part leaks, including the ones whose silicon fixed MDS and V2.
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    if (!cpu.smt) {
      continue;
    }
    const AttackResult r = RunSmotherSpectreAttack(cpu, /*co_resident=*/true);
    EXPECT_TRUE(r.leaked) << UarchName(u);
    EXPECT_EQ(r.recovered, static_cast<int>(r.expected)) << UarchName(u);
  }
}

TEST(SmotherSpectre, NoSignalWithoutCoResidence) {
  // nosmt or core scheduling: the attacker times its stream alone, every
  // bit measures identically, nothing is recovered.
  for (Uarch u : AllUarches()) {
    const AttackResult r =
        RunSmotherSpectreAttack(GetCpuModel(u), /*co_resident=*/false);
    EXPECT_FALSE(r.leaked) << UarchName(u);
    EXPECT_EQ(r.recovered, 0) << UarchName(u);
  }
}

TEST(SmotherSpectre, DifferentSecretsRecovered) {
  const CpuModel& cpu = GetCpuModel(Uarch::kSkylakeClient);
  for (uint64_t secret : {1ull, 8ull, 15ull}) {
    const AttackResult r = RunSmotherSpectreAttack(cpu, /*co_resident=*/true, secret);
    EXPECT_TRUE(r.leaked) << "secret=" << secret;
    EXPECT_EQ(r.recovered, static_cast<int>(secret));
  }
}

TEST(SpectreV2Smt, Zen3ContextIndexingAlsoBlocksCrossSmt) {
  // Both threads call from different symbols... actually the call sites are
  // identical shared code, but the attacker/victim entries differ by one
  // call frame — on Zen 3 the context hash still matches because the last
  // two call sites are (attacker/victim entry, do_call)... verify behaviour
  // empirically: whatever the outcome, STIBP must keep it safe.
  const AttackResult no_stibp = RunSpectreV2SmtAttack(GetCpuModel(Uarch::kZen3), false);
  const AttackResult with_stibp = RunSpectreV2SmtAttack(GetCpuModel(Uarch::kZen3), true);
  EXPECT_FALSE(with_stibp.leaked);
  (void)no_stibp;
}

}  // namespace
}  // namespace specbench

namespace specbench {
namespace {

TEST(FutureCpuSecurity, MaskedSpectreV1StillSafeWithFusion) {
  EXPECT_FALSE(RunSpectreV1Attack(FutureCpuModel(), /*index_masking=*/true).leaked);
  EXPECT_TRUE(RunSpectreV1Attack(FutureCpuModel(), /*index_masking=*/false).leaked);
}

TEST(FutureCpuSecurity, SsbNoBlocksBypassWithoutSsbd) {
  EXPECT_FALSE(RunSsbAttack(FutureCpuModel(), /*ssbd=*/false).leaked);
}

}  // namespace
}  // namespace specbench
