// The attack-suite conformance matrix (src/attack/suite.h).
//
// The registry's defended() entries are knob-level *claims*; the simulator's
// attack runs are the ground truth. The core test here demands they agree on
// every attempted cell of the full (CPU x config x attack) matrix: an
// unmitigated vulnerable cell must leak, a mitigated one must never leak,
// and an invulnerable CPU must report the cell as not attempted (Table 1's
// empty cells). On top of that: job-count byte-identity, leak-rate
// determinism, and the dominance property — a config that is at least as
// hardened on every knob can never be less secure.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/attack/suite.h"
#include "src/cpu/cpu_model.h"
#include "src/os/mitigation_config.h"
#include "src/uarch/machine_pool.h"

namespace specbench {
namespace {

SuiteResult RunDefaultSuite(int jobs) {
  SuiteOptions options;
  options.jobs = jobs;
  return RunSuite(options);
}

TEST(AttackSuiteRegistry, ElevenSpecsInFixedOrder) {
  const std::vector<AttackSpec>& suite = AttackSuite();
  const std::vector<std::string> expected = {
      "spectre-v1", "spectre-v2", "spectre-rsb", "spectre-v2-smt",
      "meltdown",   "mds",        "mds-smt",     "ssb",
      "lazyfp",     "l1tf",       "smother-spectre",
  };
  ASSERT_EQ(suite.size(), expected.size());
  for (size_t i = 0; i < suite.size(); i++) {
    EXPECT_EQ(suite[i].name, expected[i]);
    EXPECT_FALSE(suite[i].label.empty());
    EXPECT_FALSE(suite[i].knobs.empty()) << suite[i].name;
    EXPECT_NE(suite[i].canonical_secret, 0u) << suite[i].name;
  }
  EXPECT_EQ(FindAttackSpec("mds"), &suite[5]);
  EXPECT_EQ(FindAttackSpec("retbleed"), nullptr);
}

TEST(AttackSuiteRegistry, ConfigMatrixHasTheTable1Axis) {
  const CpuModel& cpu = GetCpuModel(Uarch::kSkylakeClient);
  const std::vector<NamedConfig> matrix = MitigationConfigMatrix(cpu);
  const std::vector<std::string> expected = {
      "off",            "v1-only",            "no-v2",
      "defaults",       "defaults+ssbd",      "defaults+stibp",
      "defaults+coresched", "defaults+nosmt", "defaults+nosmt+ssbd",
      "paranoid",
  };
  ASSERT_EQ(matrix.size(), expected.size());
  for (size_t i = 0; i < matrix.size(); i++) {
    EXPECT_EQ(matrix[i].name, expected[i]);
  }
  // "off" must be a true baseline and "paranoid" must activate every knob
  // (it is the over-protection straw man the pareto report prices).
  for (size_t k = 0; k < kNumSuiteKnobs; k++) {
    const SuiteKnob knob = static_cast<SuiteKnob>(k);
    if (knob != SuiteKnob::kEagerFpu) {  // AllOff keeps eager FPU switching
      EXPECT_FALSE(KnobActive(matrix[0].config, knob)) << SuiteKnobName(knob);
    }
    EXPECT_TRUE(KnobActive(matrix.back().config, knob)) << SuiteKnobName(knob);
  }
}

// The tentpole assertion: the registry's knob-level defended() claims match
// the simulator's empirical verdicts on every cell of the full matrix.
TEST(AttackSuiteMatrix, ClaimsMatchEmpiricalVerdictsEverywhere) {
  const SuiteResult result = RunDefaultSuite(/*jobs=*/0);
  ASSERT_EQ(result.cells.size(),
            AllUarches().size() * 10 /*configs*/ * AttackSuite().size());
  int attempted_cells = 0;
  int empty_cells = 0;
  for (const SuiteCell& cell : result.cells) {
    const AttackSpec* spec = FindAttackSpec(cell.attack);
    ASSERT_NE(spec, nullptr) << cell.attack;
    if (!cell.attempted) {
      // Table 1 empty cell: the hardware is not vulnerable, nothing ran.
      EXPECT_EQ(cell.trials, 0) << cell.cpu << "/" << cell.config << "/" << cell.attack;
      EXPECT_EQ(cell.leaks, 0);
      EXPECT_EQ(cell.leak_rate, 0.0);
      empty_cells++;
      continue;
    }
    attempted_cells++;
    EXPECT_EQ(cell.trials, result.options.trials);
    EXPECT_DOUBLE_EQ(cell.leak_rate,
                     static_cast<double>(cell.leaks) / static_cast<double>(cell.trials));
    // Claim == verdict: leak with the defense off, never with it on.
    EXPECT_EQ(cell.leaked(), !cell.defended)
        << cell.cpu << "/" << cell.config << "/" << cell.attack << " leaks=" << cell.leaks;
  }
  EXPECT_GT(attempted_cells, 0);
  EXPECT_GT(empty_cells, 0) << "every CPU vulnerable to everything: Table 1 disagrees";
}

// The same contract on the configs users boot: Defaults(cpu) with one
// accepted boot parameter, mitigations=off with one (so each mitigation is
// measured alone, e.g. retpoline,amd without IBPB), and the mitigation
// tuner's cmdlines. Every vulnerable spec's canonical trial must leak
// exactly when its defended() claim is false.
TEST(AttackSuiteMatrix, ClaimsMatchVerdictsUnderBootParams) {
  // examples/mitigation_tuner's rows.
  std::vector<std::vector<std::string>> cmdlines = {
      {}, {"nopti"}, {"mds=off"}, {"nospectre_v2"}, {"spec_store_bypass_disable=on"},
      {"mitigations=off"},
  };
  // Every token ApplyBootParam accepts (spectre_v2=ibrs only where the part
  // has IBRS; elsewhere it leaves the config as it is).
  for (const BootParam& param : BootParams()) {
    cmdlines.push_back({param.token});
    cmdlines.push_back({"mitigations=off", param.token});
  }
  int checked = 0;
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    std::vector<MitigationConfig> seen;  // many cmdlines boot the same config
    for (const std::vector<std::string>& cmdline : cmdlines) {
      if (!cmdline.empty()) {
        MitigationConfig probe = MitigationConfig::Defaults(cpu);
        if (!ApplyBootParam(&probe, cpu, cmdline.back())) {
          ASSERT_EQ(cmdline.back(), "spectre_v2=ibrs") << UarchName(u);  // no IBRS on this part
        }
      }
      const MitigationConfig config = ConfigFromCmdline(cpu, cmdline);
      if (std::find(seen.begin(), seen.end(), config) != seen.end()) {
        continue;
      }
      seen.push_back(config);
      std::string booted;
      for (const std::string& token : cmdline) {
        booted += (booted.empty() ? "" : " ") + token;
      }
      for (const AttackSpec& spec : AttackSuite()) {
        if (!spec.vulnerable(cpu)) {
          continue;
        }
        const AttackResult r = RunCanonicalTrial(spec, cpu, config);
        EXPECT_TRUE(r.attempted) << UarchName(u) << " " << spec.name;
        EXPECT_EQ(r.leaked, !spec.defended(cpu, config))
            << UarchName(u) << " [" << booted << "] "
            << spec.name << " recovered=" << r.recovered;
        checked++;
      }
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(AttackSuiteMatrix, InvulnerableHardwareIsNotAttempted) {
  const SuiteResult result = RunDefaultSuite(/*jobs=*/4);
  // Zen 3's context-indexed BTB defeats cross-site training: V2 and its SMT
  // variant are empty cells, but same-context SpectreRSB still runs.
  EXPECT_FALSE(result.Find("Zen 3", "off", "spectre-v2")->attempted);
  EXPECT_FALSE(result.Find("Zen 3", "off", "spectre-v2-smt")->attempted);
  EXPECT_TRUE(result.Find("Zen 3", "off", "spectre-rsb")->attempted);
  // Zen 1 has no SMT sibling to attack from — not even for port contention.
  EXPECT_FALSE(result.Find("Zen", "off", "spectre-v2-smt")->attempted);
  EXPECT_FALSE(result.Find("Zen", "off", "mds-smt")->attempted);
  EXPECT_FALSE(result.Find("Zen", "off", "smother-spectre")->attempted);
  // Silicon fixes for the transient leaks do not close the port-contention
  // channel: every SMT part attempts smother-spectre.
  EXPECT_TRUE(result.Find("Zen 3", "off", "smother-spectre")->attempted);
  EXPECT_TRUE(result.Find("Ice Lake Server", "off", "smother-spectre")->attempted);
  // AMD parts are not vulnerable to Meltdown / MDS / L1TF.
  for (const char* cpu : {"Zen", "Zen 2", "Zen 3"}) {
    EXPECT_FALSE(result.Find(cpu, "off", "meltdown")->attempted) << cpu;
    EXPECT_FALSE(result.Find(cpu, "off", "mds")->attempted) << cpu;
    EXPECT_FALSE(result.Find(cpu, "off", "l1tf")->attempted) << cpu;
  }
  // Broadwell (pre-MDS-fix Intel) attempts everything.
  for (const AttackSpec& spec : AttackSuite()) {
    EXPECT_TRUE(result.Find("Broadwell", "off", spec.name)->attempted) << spec.name;
  }
}

TEST(AttackSuiteMatrix, CrossThreadDefenseLadder) {
  // The SMT co-residence story the pareto frontier prices, pinned on a
  // vulnerable SMT part (Skylake):
  //   - stibp closes cross-thread V2 but neither MDS sampling nor port
  //     contention;
  //   - coresched and nosmt close all three (MDS-smt also needs verw,
  //     which defaults provide on MDS-vulnerable parts).
  const SuiteResult result = RunDefaultSuite(/*jobs=*/0);
  const auto cell = [&](const char* config, const char* attack) {
    const SuiteCell* c = result.Find("Skylake Client", config, attack);
    EXPECT_NE(c, nullptr) << config << "/" << attack;
    return c;
  };
  // defaults: SMT on, all three cross-thread channels open.
  EXPECT_TRUE(cell("defaults", "spectre-v2-smt")->leaked());
  EXPECT_TRUE(cell("defaults", "mds-smt")->leaked());
  EXPECT_TRUE(cell("defaults", "smother-spectre")->leaked());
  // defaults+stibp: predictor partitioned, fill buffers and ports still
  // shared.
  EXPECT_FALSE(cell("defaults+stibp", "spectre-v2-smt")->leaked());
  EXPECT_TRUE(cell("defaults+stibp", "mds-smt")->leaked());
  EXPECT_TRUE(cell("defaults+stibp", "smother-spectre")->leaked());
  // defaults+coresched / defaults+nosmt: no co-residence, nothing leaks.
  for (const char* config : {"defaults+coresched", "defaults+nosmt"}) {
    EXPECT_FALSE(cell(config, "spectre-v2-smt")->leaked()) << config;
    EXPECT_FALSE(cell(config, "mds-smt")->leaked()) << config;
    EXPECT_FALSE(cell(config, "smother-spectre")->leaked()) << config;
  }
}

TEST(AttackSuiteMatrix, ResultIsIdenticalForAnyJobCount) {
  const SuiteResult serial = RunDefaultSuite(/*jobs=*/1);
  // -1: any jobs <= 0 means all cores (it used to be cast to size_t).
  for (int jobs : {8, -1}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const SuiteResult parallel = RunDefaultSuite(jobs);
    ASSERT_EQ(serial.cells.size(), parallel.cells.size());
    for (size_t i = 0; i < serial.cells.size(); i++) {
      const SuiteCell& a = serial.cells[i];
      const SuiteCell& b = parallel.cells[i];
      EXPECT_EQ(a.cpu, b.cpu);
      EXPECT_EQ(a.config, b.config);
      EXPECT_EQ(a.attack, b.attack);
      EXPECT_EQ(a.attempted, b.attempted);
      EXPECT_EQ(a.defended, b.defended);
      EXPECT_EQ(a.trials, b.trials);
      EXPECT_EQ(a.leaks, b.leaks);
      EXPECT_EQ(a.leak_rate, b.leak_rate);
    }
  }
}

TEST(AttackSuiteMatrix, LeakRatesAreDeterministicAndFractional) {
  const SuiteResult first = RunDefaultSuite(/*jobs=*/0);
  const SuiteResult second = RunDefaultSuite(/*jobs=*/0);
  ASSERT_EQ(first.cells.size(), second.cells.size());
  bool fractional = false;
  for (size_t i = 0; i < first.cells.size(); i++) {
    EXPECT_EQ(first.cells[i].leaks, second.cells[i].leaks)
        << first.cells[i].cpu << "/" << first.cells[i].config << "/" << first.cells[i].attack;
    if (first.cells[i].leak_rate > 0.0 && first.cells[i].leak_rate < 1.0) {
      fractional = true;
    }
  }
  // The varied-salt MDS trials must surface probabilistic fill-buffer
  // sampling as a *rate*: somewhere the attacker recovers the secret on
  // some trials and a benign victim value on others.
  EXPECT_TRUE(fractional) << "no cell with 0 < leak_rate < 1: salts not varying the channel";
}

TEST(AttackSuiteMatrix, VerdictsHoldForOtherSeeds) {
  // A different base seed draws different trial secrets and salts; the
  // *verdict* (leaked iff undefended) must not depend on them.
  SuiteOptions options;
  options.base_seed = 1234567;
  options.trials = 3;
  const SuiteResult result = RunSuite(options);
  for (const SuiteCell& cell : result.cells) {
    if (cell.attempted) {
      EXPECT_EQ(cell.leaked(), !cell.defended)
          << cell.cpu << "/" << cell.config << "/" << cell.attack;
    }
  }
}

// Every attack trial leases its machines (src/uarch/machine_pool.h): run on
// the thread's reused slot machine, a trial must see exactly what it sees on
// a freshly built one. Holding an outer lease forces the fresh machine,
// smother-spectre's twelve per-trial measurements included.
TEST(AttackSuiteTrials, ReusedMachineMatchesFreshMachineEverywhere) {
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    for (const NamedConfig& named : MitigationConfigMatrix(cpu)) {
      for (const AttackSpec& spec : AttackSuite()) {
        for (int salt = 0; salt < 3; salt++) {
          const uint64_t secret = TrialSecret(spec, /*cell_seed=*/1, salt);
          AttackResult fresh;
          {
            MachineLease outer(cpu);
            fresh = spec.run(cpu, named.config, secret, static_cast<uint64_t>(salt));
          }
          const AttackResult reused =
              spec.run(cpu, named.config, secret, static_cast<uint64_t>(salt));
          const std::string where =
              std::string(UarchName(u)) + "/" + named.name + "/" + spec.name + "/salt=" +
              std::to_string(salt);
          EXPECT_EQ(reused.attempted, fresh.attempted) << where;
          EXPECT_EQ(reused.expected, fresh.expected) << where;
          EXPECT_EQ(reused.recovered, fresh.recovered) << where;
          EXPECT_EQ(reused.leaked, fresh.leaked) << where;
        }
      }
    }
  }
}

TEST(AttackSuiteTrials, SecretsStayInTheLeakableRange) {
  const AttackSpec* spec = FindAttackSpec("mds");
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(TrialSecret(*spec, /*cell_seed=*/99, /*trial=*/0), spec->canonical_secret);
  EXPECT_EQ(TrialSalt(/*cell_seed=*/99, /*trial=*/0), 0u);
  for (uint64_t cell_seed : {1ull, 42ull, 0xdeadbeefull}) {
    for (int trial = 1; trial < 64; trial++) {
      const uint64_t secret = TrialSecret(*spec, cell_seed, trial);
      // Never 0: a drained channel (post-verw fill buffer, masked index)
      // encodes 0, and a 0 secret would count that as a leak.
      EXPECT_GE(secret, 1u);
      EXPECT_LE(secret, 15u);
      EXPECT_NE(TrialSalt(cell_seed, trial), 0u);
    }
  }
}

// --- Dominance property ----------------------------------------------------
//
// If config A is at least as hardened as config B on every knob, A can never
// be less secure: any (cpu, attack) that does not leak under B must not leak
// under A. Sampled over random config pairs; seed-deterministic.

MitigationConfig WithKnobEnabled(const MitigationConfig& config, SuiteKnob knob) {
  MitigationConfig c = config;
  switch (knob) {
    case SuiteKnob::kPti: c.pti = true; break;
    case SuiteKnob::kMdsClearBuffers: c.mds_clear_buffers = true; break;
    case SuiteKnob::kSmtOff: c.smt_off = true; break;
    case SuiteKnob::kRetpoline: c.retpoline = RetpolineMode::kGeneric; break;
    case SuiteKnob::kIbrs: c.ibrs = IbrsMode::kLegacyIbrs; break;
    case SuiteKnob::kIbpb: c.ibpb_on_context_switch = true; break;
    case SuiteKnob::kRsbStuff: c.rsb_stuff_on_context_switch = true; break;
    case SuiteKnob::kLfenceAfterSwapgs: c.lfence_after_swapgs = true; break;
    case SuiteKnob::kKernelIndexMasking: c.kernel_index_masking = true; break;
    case SuiteKnob::kEagerFpu: c.eager_fpu = true; break;
    case SuiteKnob::kL1tfPteInversion: c.l1tf_pte_inversion = true; break;
    case SuiteKnob::kSsbd: c.ssbd = SsbdMode::kAlways; break;
    case SuiteKnob::kStibp: c.stibp = true; break;
    case SuiteKnob::kCoreSched: c.core_scheduling = true; break;
    case SuiteKnob::kCount: break;
  }
  return c;
}

TEST(AttackSuiteDominance, MoreHardenedIsNeverLessSecure) {
  // mt19937_64's output sequence is fixed by the C++ standard, so the
  // sampled pairs are identical on every platform. Raw bits only — the
  // distribution adapters are implementation-defined.
  std::mt19937_64 rng(20260808);
  for (int pair = 0; pair < 20; pair++) {
    // B: each knob independently on/off (enum knobs get a random secure
    // mode when on, so modes beyond the binary view are exercised too).
    MitigationConfig weaker = MitigationConfig::AllOff();
    for (size_t k = 0; k < kNumSuiteKnobs; k++) {
      const SuiteKnob knob = static_cast<SuiteKnob>(k);
      if ((rng() & 1) != 0) {
        weaker = WithKnobEnabled(weaker, knob);
        if (knob == SuiteKnob::kRetpoline && (rng() & 1) != 0) {
          weaker.retpoline = RetpolineMode::kAmd;
        }
        if (knob == SuiteKnob::kIbrs && (rng() & 1) != 0) {
          weaker.ibrs = IbrsMode::kEibrs;
        }
      } else {
        weaker = WithKnobDisabled(weaker, knob);
      }
    }
    // A: B plus a random non-empty set of additionally-enabled knobs.
    MitigationConfig stronger = weaker;
    int added = 0;
    for (size_t k = 0; k < kNumSuiteKnobs; k++) {
      const SuiteKnob knob = static_cast<SuiteKnob>(k);
      if (!KnobActive(stronger, knob) && (rng() & 1) != 0) {
        stronger = WithKnobEnabled(stronger, knob);
        added++;
      }
    }
    if (added == 0) {
      continue;  // A == B; nothing to compare
    }
    for (size_t k = 0; k < kNumSuiteKnobs; k++) {
      const SuiteKnob knob = static_cast<SuiteKnob>(k);
      ASSERT_GE(KnobActive(stronger, knob), KnobActive(weaker, knob)) << SuiteKnobName(knob);
    }
    for (Uarch u : AllUarches()) {
      const CpuModel& cpu = GetCpuModel(u);
      for (const AttackSpec& spec : AttackSuite()) {
        if (!spec.vulnerable(cpu)) {
          continue;
        }
        const AttackResult weak = spec.run(cpu, weaker, spec.canonical_secret, 0);
        const AttackResult strong = spec.run(cpu, stronger, spec.canonical_secret, 0);
        const bool weak_leaked = weak.attempted && weak.leaked;
        const bool strong_leaked = strong.attempted && strong.leaked;
        if (!weak_leaked) {
          EXPECT_FALSE(strong_leaked)
              << "pair " << pair << ": enabling knobs opened a leak on " << UarchName(u)
              << "/" << spec.name;
        }
        // The claims must be monotone too, not just the empirical runs.
        if (spec.defended(cpu, weaker)) {
          EXPECT_TRUE(spec.defended(cpu, stronger))
              << "pair " << pair << ": " << UarchName(u) << "/" << spec.name;
        }
      }
    }
  }
}

}  // namespace
}  // namespace specbench
