#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/os/mitigation_config.h"

namespace specbench {
namespace {

TEST(Defaults, Table1PerCpu) {
  // Broadwell: PTI + MDS clear + generic retpoline.
  {
    const MitigationConfig c = MitigationConfig::Defaults(GetCpuModel(Uarch::kBroadwell));
    EXPECT_TRUE(c.pti);
    EXPECT_TRUE(c.mds_clear_buffers);
    EXPECT_EQ(c.retpoline, RetpolineMode::kGeneric);
    EXPECT_EQ(c.ibrs, IbrsMode::kOff);
    EXPECT_TRUE(c.l1tf_pte_inversion);
  }
  // Cascade Lake: no PTI, still MDS clear, eIBRS instead of retpolines.
  {
    const MitigationConfig c = MitigationConfig::Defaults(GetCpuModel(Uarch::kCascadeLake));
    EXPECT_FALSE(c.pti);
    EXPECT_TRUE(c.mds_clear_buffers);
    EXPECT_EQ(c.retpoline, RetpolineMode::kNone);
    EXPECT_EQ(c.ibrs, IbrsMode::kEibrs);
    EXPECT_FALSE(c.l1tf_pte_inversion);
  }
  // Zen 2: AMD retpoline, nothing Meltdown/MDS related.
  {
    const MitigationConfig c = MitigationConfig::Defaults(GetCpuModel(Uarch::kZen2));
    EXPECT_FALSE(c.pti);
    EXPECT_FALSE(c.mds_clear_buffers);
    EXPECT_EQ(c.retpoline, RetpolineMode::kAmd);
  }
  // Common rows of Table 1: every CPU gets these.
  for (Uarch u : AllUarches()) {
    const MitigationConfig c = MitigationConfig::Defaults(GetCpuModel(u));
    EXPECT_TRUE(c.eager_fpu) << UarchName(u);
    EXPECT_TRUE(c.lfence_after_swapgs) << UarchName(u);
    EXPECT_TRUE(c.kernel_index_masking) << UarchName(u);
    EXPECT_TRUE(c.ibpb_on_context_switch) << UarchName(u);
    EXPECT_TRUE(c.rsb_stuff_on_context_switch) << UarchName(u);
    EXPECT_EQ(c.ssbd, SsbdMode::kSeccomp) << UarchName(u);   // "!" row
    EXPECT_FALSE(c.smt_off) << UarchName(u);                  // "!" row
  }
}

TEST(AllOff, DisablesEverythingButEagerFpu) {
  const MitigationConfig c = MitigationConfig::AllOff();
  EXPECT_FALSE(c.pti);
  EXPECT_FALSE(c.mds_clear_buffers);
  EXPECT_EQ(c.retpoline, RetpolineMode::kNone);
  EXPECT_EQ(c.ibrs, IbrsMode::kOff);
  EXPECT_FALSE(c.ibpb_on_context_switch);
  EXPECT_FALSE(c.kernel_index_masking);
  EXPECT_EQ(c.ssbd, SsbdMode::kOff);
  EXPECT_TRUE(c.eager_fpu);  // Linux keeps eager FPU regardless
}

TEST(BootParams, IndividualToggles) {
  const CpuModel& cpu = GetCpuModel(Uarch::kBroadwell);
  MitigationConfig c = MitigationConfig::Defaults(cpu);
  EXPECT_TRUE(ApplyBootParam(&c, cpu, "nopti"));
  EXPECT_FALSE(c.pti);
  EXPECT_TRUE(ApplyBootParam(&c, cpu, "mds=off"));
  EXPECT_FALSE(c.mds_clear_buffers);
  EXPECT_TRUE(ApplyBootParam(&c, cpu, "nospectre_v2"));
  EXPECT_EQ(c.retpoline, RetpolineMode::kNone);
  EXPECT_FALSE(c.ibpb_on_context_switch);
  EXPECT_TRUE(ApplyBootParam(&c, cpu, "spec_store_bypass_disable=on"));
  EXPECT_EQ(c.ssbd, SsbdMode::kAlways);
}

TEST(BootParams, MitigationsOffResets) {
  const CpuModel& cpu = GetCpuModel(Uarch::kSkylakeClient);
  MitigationConfig c = MitigationConfig::Defaults(cpu);
  EXPECT_TRUE(ApplyBootParam(&c, cpu, "mitigations=off"));
  EXPECT_FALSE(c.pti);
  EXPECT_EQ(c.retpoline, RetpolineMode::kNone);
}

TEST(BootParams, UnknownTokenRejected) {
  const CpuModel& cpu = GetCpuModel(Uarch::kZen1);
  MitigationConfig c = MitigationConfig::Defaults(cpu);
  const MitigationConfig before = c;
  EXPECT_FALSE(ApplyBootParam(&c, cpu, "bogus=thing"));
  EXPECT_EQ(c.pti, before.pti);
}

TEST(BootParams, IbrsUnsupportedOnZen1) {
  const CpuModel& cpu = GetCpuModel(Uarch::kZen1);
  MitigationConfig c = MitigationConfig::Defaults(cpu);
  EXPECT_FALSE(ApplyBootParam(&c, cpu, "spectre_v2=ibrs"));
}

TEST(BootParams, IbrsSelectsEibrsOnCapableParts) {
  const CpuModel& cpu = GetCpuModel(Uarch::kIceLakeServer);
  MitigationConfig c = MitigationConfig::Defaults(cpu);
  EXPECT_TRUE(ApplyBootParam(&c, cpu, "spectre_v2=ibrs"));
  EXPECT_EQ(c.ibrs, IbrsMode::kEibrs);
}

TEST(BootParams, CmdlineComposition) {
  const CpuModel& cpu = GetCpuModel(Uarch::kBroadwell);
  const MitigationConfig c = ConfigFromCmdline(cpu, {"nopti", "mds=off"});
  EXPECT_FALSE(c.pti);
  EXPECT_FALSE(c.mds_clear_buffers);
  EXPECT_EQ(c.retpoline, RetpolineMode::kGeneric);  // untouched default
}

TEST(Describe, MentionsKeyKnobs) {
  const std::string s =
      MitigationConfig::Defaults(GetCpuModel(Uarch::kBroadwell)).Describe();
  EXPECT_NE(s.find("pti=on"), std::string::npos);
  EXPECT_NE(s.find("retpoline=generic"), std::string::npos);
}

// Configs compare by value, every knob included, and Describe() tells apart
// what equality tells apart (smt_off too).
TEST(Equality, ComparesEveryKnobIncludingSmtOff) {
  const CpuModel& cpu = GetCpuModel(Uarch::kSkylakeClient);
  const MitigationConfig defaults = MitigationConfig::Defaults(cpu);
  EXPECT_EQ(defaults, MitigationConfig::Defaults(cpu));
  EXPECT_FALSE(defaults == MitigationConfig::AllOff());

  MitigationConfig nosmt = defaults;
  nosmt.smt_off = true;
  EXPECT_FALSE(nosmt == defaults);
  EXPECT_NE(nosmt.Describe(), defaults.Describe());

  MitigationConfig ssbd = defaults;
  ssbd.ssbd = SsbdMode::kAlways;
  EXPECT_FALSE(ssbd == defaults);
  MitigationConfig nopcid = defaults;
  nopcid.pcid = false;
  EXPECT_FALSE(nopcid == defaults);
}

TEST(Names, EnumToString) {
  EXPECT_STREQ(RetpolineModeName(RetpolineMode::kAmd), "amd");
  EXPECT_STREQ(IbrsModeName(IbrsMode::kEibrs), "eibrs");
  EXPECT_STREQ(SsbdModeName(SsbdMode::kSeccomp), "seccomp");
}

TEST(MitigationRows, LookupByKeyFindsEachRowAndRejectsOthers) {
  for (const MitigationRow& row : MitigationRows()) {
    EXPECT_EQ(&MitigationRowByKey(row.key), &row) << row.key;
  }
  EXPECT_DEATH(MitigationRowByKey("spectre_v2"), "no mitigation row");
}

TEST(Describe, ListsEveryKnobOnEveryTable1DefaultSet) {
  // Describe() is the config's identity for logs and golden files: it must
  // name every row of the mitigation table and must distinguish the default
  // set from mitigations=off on every CPU.
  const std::string all_off = MitigationConfig::AllOff().Describe();
  for (Uarch u : AllUarches()) {
    const std::string s = MitigationConfig::Defaults(GetCpuModel(u)).Describe();
    for (const MitigationRow& row : MitigationRows()) {
      EXPECT_NE(s.find(std::string(row.key) + "="), std::string::npos)
          << UarchName(u) << ": " << s;
    }
    EXPECT_NE(s, all_off) << UarchName(u);
  }
}

// Describe() is a complete key: over the Table 1 defaults, mitigations=off
// and every single boot parameter, two configs describe alike exactly when
// they are equal.
TEST(Describe, IsACompleteKey) {
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    std::vector<MitigationConfig> configs = {MitigationConfig::Defaults(cpu),
                                             MitigationConfig::AllOff()};
    for (const BootParam& param : BootParams()) {
      configs.push_back(ConfigFromCmdline(cpu, {param.token}));
    }
    for (const MitigationConfig& a : configs) {
      for (const MitigationConfig& b : configs) {
        EXPECT_EQ(a.Describe() == b.Describe(), a == b)
            << UarchName(u) << ": " << a.Describe() << " vs " << b.Describe();
      }
    }
  }
}

TEST(Describe, RoundTripsThroughConfigFromCmdline) {
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    const std::string defaults = MitigationConfig::Defaults(cpu).Describe();
    // An empty cmdline is the Table 1 default set.
    EXPECT_EQ(ConfigFromCmdline(cpu, {}).Describe(), defaults) << UarchName(u);
    // mitigations=off followed by mitigations=auto restores the defaults.
    EXPECT_EQ(ConfigFromCmdline(cpu, {"mitigations=off", "mitigations=auto"}).Describe(),
              defaults)
        << UarchName(u);
    // So does any disable token followed by mitigations=auto.
    for (const char* token :
         {"nopti", "nopcid", "mds=off", "nospectre_v1", "nospectre_v2",
          "spec_store_bypass_disable=off", "l1tf=off", "eagerfpu=off", "nosmt",
          "stibp", "coresched"}) {
      EXPECT_EQ(ConfigFromCmdline(cpu, {token, "mitigations=auto"}).Describe(), defaults)
          << UarchName(u) << " via " << token;
    }
    // Unknown tokens are skipped without disturbing the rest of the cmdline.
    EXPECT_EQ(ConfigFromCmdline(cpu, {"bogus=thing"}).Describe(), defaults) << UarchName(u);
  }
}

TEST(BootParams, StibpAndCoreSchedTokens) {
  // SMT part: the tokens take effect and round-trip through Describe().
  const CpuModel& smt = GetCpuModel(Uarch::kSkylakeClient);
  ASSERT_TRUE(smt.smt);
  MitigationConfig c = MitigationConfig::Defaults(smt);
  EXPECT_FALSE(c.stibp);
  EXPECT_FALSE(c.core_scheduling);
  EXPECT_TRUE(ApplyBootParam(&c, smt, "stibp"));
  EXPECT_TRUE(c.stibp);
  EXPECT_TRUE(ApplyBootParam(&c, smt, "stibp=off"));
  EXPECT_FALSE(c.stibp);
  EXPECT_TRUE(ApplyBootParam(&c, smt, "coresched=on"));
  EXPECT_TRUE(c.core_scheduling);
  EXPECT_TRUE(ApplyBootParam(&c, smt, "coresched=off"));
  EXPECT_FALSE(c.core_scheduling);

  const std::string on = ConfigFromCmdline(smt, {"stibp", "coresched"}).Describe();
  EXPECT_NE(on.find("stibp=on"), std::string::npos) << on;
  EXPECT_NE(on.find("coresched=on"), std::string::npos) << on;

  // Non-SMT part (Zen1): no sibling thread, the "on" spellings are accepted
  // but stay off — there is nothing to partition or co-schedule.
  const CpuModel& no_smt = GetCpuModel(Uarch::kZen1);
  ASSERT_FALSE(no_smt.smt);
  MitigationConfig z = MitigationConfig::Defaults(no_smt);
  EXPECT_TRUE(ApplyBootParam(&z, no_smt, "stibp=on"));
  EXPECT_FALSE(z.stibp);
  EXPECT_TRUE(ApplyBootParam(&z, no_smt, "coresched"));
  EXPECT_FALSE(z.core_scheduling);
}

TEST(BootParams, StibpAndCoreSchedRejectUnknownSpellings) {
  // Strict tokens: anything but the exact spellings is the unknown-token
  // error and leaves the config untouched.
  const CpuModel& cpu = GetCpuModel(Uarch::kSkylakeClient);
  MitigationConfig c = MitigationConfig::Defaults(cpu);
  for (const char* bad : {"stibp=forceon", "stibp=auto", "stibp=1", "nostibp",
                          "coresched=forceon", "coresched=cookie", "core_scheduling"}) {
    EXPECT_FALSE(ApplyBootParam(&c, cpu, bad)) << bad;
    EXPECT_FALSE(c.stibp) << bad;
    EXPECT_FALSE(c.core_scheduling) << bad;
  }
}

TEST(Describe, DisableTokensShowUpInTheSummary) {
  const CpuModel& cpu = GetCpuModel(Uarch::kBroadwell);
  const struct {
    const char* token;
    const char* expect;
  } cases[] = {
      {"nopti", "pti=off"},
      {"mds=off", "mds=off"},
      {"nospectre_v2", "retpoline=none"},
      {"nospectre_v1", "v1=off"},
      {"spec_store_bypass_disable=off", "ssbd=off"},
      {"spec_store_bypass_disable=on", "ssbd=on"},
      {"l1tf=off", "l1tf=off"},
      {"spectre_v2=ibrs", "ibrs=ibrs"},  // Broadwell: legacy IBRS
  };
  for (const auto& c : cases) {
    const std::string s = ConfigFromCmdline(cpu, {c.token}).Describe();
    EXPECT_NE(s.find(c.expect), std::string::npos) << c.token << " -> " << s;
  }
}

}  // namespace
}  // namespace specbench
