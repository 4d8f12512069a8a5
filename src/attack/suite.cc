#include "src/attack/suite.h"

#include <string>

#include "src/runner/seed.h"
#include "src/util/check.h"

namespace specbench {

const char* SuiteKnobName(SuiteKnob knob) {
  switch (knob) {
    case SuiteKnob::kPti: return "pti";
    case SuiteKnob::kMdsClearBuffers: return "mds-clear";
    case SuiteKnob::kSmtOff: return "nosmt";
    case SuiteKnob::kRetpoline: return "retpoline";
    case SuiteKnob::kIbrs: return "ibrs";
    case SuiteKnob::kIbpb: return "ibpb";
    case SuiteKnob::kRsbStuff: return "rsb-stuff";
    case SuiteKnob::kLfenceAfterSwapgs: return "lfence-swapgs";
    case SuiteKnob::kKernelIndexMasking: return "index-masking";
    case SuiteKnob::kEagerFpu: return "eager-fpu";
    case SuiteKnob::kL1tfPteInversion: return "pte-inversion";
    case SuiteKnob::kSsbdAlways: return "ssbd";
    case SuiteKnob::kStibp: return "stibp";
    case SuiteKnob::kCoreSched: return "coresched";
    case SuiteKnob::kCount: break;
  }
  return "?";
}

bool KnobActive(const MitigationConfig& config, SuiteKnob knob) {
  switch (knob) {
    case SuiteKnob::kPti: return config.pti;
    case SuiteKnob::kMdsClearBuffers: return config.mds_clear_buffers;
    case SuiteKnob::kSmtOff: return config.smt_off;
    case SuiteKnob::kRetpoline: return config.retpoline != RetpolineMode::kNone;
    case SuiteKnob::kIbrs: return config.ibrs != IbrsMode::kOff;
    case SuiteKnob::kIbpb: return config.ibpb_on_context_switch;
    case SuiteKnob::kRsbStuff: return config.rsb_stuff_on_context_switch;
    case SuiteKnob::kLfenceAfterSwapgs: return config.lfence_after_swapgs;
    case SuiteKnob::kKernelIndexMasking: return config.kernel_index_masking;
    case SuiteKnob::kEagerFpu: return config.eager_fpu;
    case SuiteKnob::kL1tfPteInversion: return config.l1tf_pte_inversion;
    case SuiteKnob::kSsbdAlways: return config.ssbd == SsbdMode::kAlways;
    case SuiteKnob::kStibp: return config.stibp;
    case SuiteKnob::kCoreSched: return config.core_scheduling;
    case SuiteKnob::kCount: break;
  }
  return false;
}

MitigationConfig WithKnobDisabled(const MitigationConfig& config, SuiteKnob knob) {
  MitigationConfig c = config;
  switch (knob) {
    case SuiteKnob::kPti: c.pti = false; break;
    case SuiteKnob::kMdsClearBuffers: c.mds_clear_buffers = false; break;
    case SuiteKnob::kSmtOff: c.smt_off = false; break;
    case SuiteKnob::kRetpoline: c.retpoline = RetpolineMode::kNone; break;
    case SuiteKnob::kIbrs: c.ibrs = IbrsMode::kOff; break;
    case SuiteKnob::kIbpb: c.ibpb_on_context_switch = false; break;
    case SuiteKnob::kRsbStuff: c.rsb_stuff_on_context_switch = false; break;
    case SuiteKnob::kLfenceAfterSwapgs: c.lfence_after_swapgs = false; break;
    case SuiteKnob::kKernelIndexMasking: c.kernel_index_masking = false; break;
    case SuiteKnob::kEagerFpu: c.eager_fpu = false; break;
    case SuiteKnob::kL1tfPteInversion: c.l1tf_pte_inversion = false; break;
    case SuiteKnob::kSsbdAlways:
      // Downgrade to the pre-5.16 default rather than kOff: the suite's
      // victim is an ordinary (non-seccomp) process, for which kSeccomp
      // offers nothing — the minimal "one notch less" that matters.
      c.ssbd = SsbdMode::kSeccomp;
      break;
    case SuiteKnob::kStibp: c.stibp = false; break;
    case SuiteKnob::kCoreSched: c.core_scheduling = false; break;
    case SuiteKnob::kCount: break;
  }
  return c;
}

namespace {

// Whether the attacker can ever run co-resident with its victim: nosmt
// removes the sibling thread, core scheduling refuses to pair the two
// mutually distrusting processes on one core.
bool CoResidencePossible(const MitigationConfig& c) {
  return !c.smt_off && !c.core_scheduling;
}

}  // namespace

namespace {

// Maps the config's Spectre-V2 family onto the primitive's options. IBRS is
// only asserted where the silicon has the MSR bit (Zen 1 does not) so the
// run is a real attempt rather than the primitive's attempted=false path.
SpectreV2Options V2Options(const CpuModel& cpu, const MitigationConfig& config) {
  SpectreV2Options o;
  o.generic_retpoline = config.retpoline != RetpolineMode::kNone;
  o.ibpb_before_victim = config.ibpb_on_context_switch;
  o.ibrs = config.ibrs != IbrsMode::kOff && cpu.predictor.ibrs_supported;
  return o;
}

std::vector<AttackSpec> BuildSuite() {
  std::vector<AttackSpec> specs;

  {
    AttackSpec s;
    s.name = "spectre-v1";
    s.label = "Spectre V1 (bounds check bypass)";
    s.knobs = {SuiteKnob::kKernelIndexMasking};
    s.vulnerable = [](const CpuModel& cpu) { return cpu.vuln.spectre_v1; };
    s.defended = [](const CpuModel&, const MitigationConfig& c) {
      // lfence_after_swapgs covers the swapgs variant, which this primitive
      // does not model; only masking defends the array gadget.
      return c.kernel_index_masking;
    };
    s.run = [](const CpuModel& cpu, const MitigationConfig& c, uint64_t secret, uint64_t) {
      return RunSpectreV1Attack(cpu, c.kernel_index_masking, secret);
    };
    s.canonical_secret = 7;
    specs.push_back(std::move(s));
  }

  {
    AttackSpec s;
    s.name = "spectre-v2";
    s.label = "Spectre V2 (cross-site branch target injection)";
    s.knobs = {SuiteKnob::kRetpoline, SuiteKnob::kIbpb, SuiteKnob::kIbrs};
    s.vulnerable = [](const CpuModel& cpu) {
      // Zen 3's context-indexed BTB defeats cross-site training outright
      // (paper §6.2) — the mitigation isn't required.
      return cpu.vuln.spectre_v2 && !cpu.predictor.btb_bhb_indexed;
    };
    s.defended = [](const CpuModel& cpu, const MitigationConfig& c) {
      if (c.retpoline != RetpolineMode::kNone || c.ibpb_on_context_switch) {
        return true;
      }
      // IBRS stops this same-mode user->user attack only with the legacy
      // "blocks all prediction" semantics; eIBRS mode-tagging does not
      // (attack_test SpectreV2UnderIbrs).
      return c.ibrs != IbrsMode::kOff && cpu.predictor.ibrs_supported &&
             !cpu.predictor.eibrs;
    };
    s.run = [](const CpuModel& cpu, const MitigationConfig& c, uint64_t secret, uint64_t) {
      return RunSpectreV2Attack(cpu, V2Options(cpu, c), secret);
    };
    s.canonical_secret = 5;
    specs.push_back(std::move(s));
  }

  {
    AttackSpec s;
    s.name = "spectre-rsb";
    s.label = "SpectreRSB (return stack underflow)";
    s.knobs = {SuiteKnob::kRsbStuff};
    // Trained at the victim's own context, so even Zen 3 speculates.
    s.vulnerable = [](const CpuModel& cpu) { return cpu.vuln.spectre_v2; };
    s.defended = [](const CpuModel&, const MitigationConfig& c) {
      return c.rsb_stuff_on_context_switch;
    };
    s.run = [](const CpuModel& cpu, const MitigationConfig& c, uint64_t secret, uint64_t) {
      return RunSpectreRsbAttack(cpu, c.rsb_stuff_on_context_switch, secret);
    };
    s.canonical_secret = 9;
    specs.push_back(std::move(s));
  }

  {
    AttackSpec s;
    s.name = "spectre-v2-smt";
    s.label = "Spectre V2 across SMT siblings";
    s.knobs = {SuiteKnob::kSmtOff, SuiteKnob::kStibp, SuiteKnob::kCoreSched};
    s.vulnerable = [](const CpuModel& cpu) {
      // Needs a sibling (Zen 1 has none) and a BTB poisonable from another
      // context (Zen 3's is not, even intra-core — probed empirically).
      return cpu.vuln.spectre_v2 && cpu.smt && !cpu.predictor.btb_bhb_indexed;
    };
    s.defended = [](const CpuModel&, const MitigationConfig& c) {
      // Three defenses, in ascending cost: STIBP partitions the predictor
      // between the still-co-resident siblings; core scheduling keeps the
      // attacker off the sibling; nosmt removes the sibling outright.
      return c.smt_off || c.core_scheduling || c.stibp;
    };
    s.run = [](const CpuModel& cpu, const MitigationConfig& c, uint64_t secret, uint64_t) {
      if (!CoResidencePossible(c)) {
        // No sibling exists (nosmt) or the scheduler never pairs the two
        // (core scheduling): the attack simply cannot run.
        AttackResult r;
        r.expected = secret;
        return r;
      }
      return RunSpectreV2SmtAttack(cpu, c.stibp, secret);
    };
    s.canonical_secret = 12;
    specs.push_back(std::move(s));
  }

  {
    AttackSpec s;
    s.name = "meltdown";
    s.label = "Meltdown (user read of kernel memory)";
    s.knobs = {SuiteKnob::kPti};
    s.vulnerable = [](const CpuModel& cpu) { return cpu.vuln.meltdown; };
    s.defended = [](const CpuModel&, const MitigationConfig& c) { return c.pti; };
    s.run = [](const CpuModel& cpu, const MitigationConfig& c, uint64_t secret, uint64_t) {
      return RunMeltdownAttack(cpu, c.pti, secret);
    };
    s.canonical_secret = 11;
    specs.push_back(std::move(s));
  }

  {
    AttackSpec s;
    s.name = "mds";
    s.label = "MDS / RIDL (fill-buffer sampling at a transition)";
    s.knobs = {SuiteKnob::kMdsClearBuffers};
    s.vulnerable = [](const CpuModel& cpu) { return cpu.vuln.mds; };
    s.defended = [](const CpuModel&, const MitigationConfig& c) { return c.mds_clear_buffers; };
    s.run = [](const CpuModel& cpu, const MitigationConfig& c, uint64_t secret,
               uint64_t trial_salt) {
      return RunMdsAttack(cpu, c.mds_clear_buffers, secret, trial_salt);
    };
    s.canonical_secret = 6;
    specs.push_back(std::move(s));
  }

  {
    AttackSpec s;
    s.name = "mds-smt";
    s.label = "MDS across SMT siblings";
    s.knobs = {SuiteKnob::kSmtOff, SuiteKnob::kCoreSched, SuiteKnob::kMdsClearBuffers};
    s.vulnerable = [](const CpuModel& cpu) { return cpu.vuln.mds && cpu.smt; };
    s.defended = [](const CpuModel&, const MitigationConfig& c) {
      // Co-residence must be impossible (nosmt or core scheduling) AND verw
      // must clear the residue at the switch (paper §3.3): with a live
      // sibling, verw guards no transition; without verw, stale fill-buffer
      // data survives the context switch into the attacker's slice. STIBP
      // partitions predictors, not fill buffers — it does nothing here.
      return !CoResidencePossible(c) && c.mds_clear_buffers;
    };
    s.run = [](const CpuModel& cpu, const MitigationConfig& c, uint64_t secret,
               uint64_t trial_salt) {
      MdsSmtOptions o;
      o.smt_enabled = CoResidencePossible(c);
      o.verw_on_switch = c.mds_clear_buffers;
      return RunMdsSmtAttack(cpu, o, secret, trial_salt);
    };
    s.canonical_secret = 10;
    specs.push_back(std::move(s));
  }

  {
    AttackSpec s;
    s.name = "ssb";
    s.label = "Speculative Store Bypass";
    s.knobs = {SuiteKnob::kSsbdAlways};
    s.vulnerable = [](const CpuModel& cpu) { return cpu.vuln.spec_store_bypass; };
    s.defended = [](const CpuModel&, const MitigationConfig& c) {
      // The suite's victim is an ordinary process: neither seccomp'd nor
      // prctl-opted-in, so only ssbd=kAlways actually disables the bypass
      // for it (src/os/kernel.cc SsbdActiveFor).
      return c.ssbd == SsbdMode::kAlways;
    };
    s.run = [](const CpuModel& cpu, const MitigationConfig& c, uint64_t secret, uint64_t) {
      return RunSsbAttack(cpu, c.ssbd == SsbdMode::kAlways, secret);
    };
    s.canonical_secret = 3;
    specs.push_back(std::move(s));
  }

  {
    AttackSpec s;
    s.name = "lazyfp";
    s.label = "LazyFP (stale FPU register read)";
    s.knobs = {SuiteKnob::kEagerFpu};
    s.vulnerable = [](const CpuModel& cpu) { return cpu.vuln.lazy_fp; };
    s.defended = [](const CpuModel&, const MitigationConfig& c) { return c.eager_fpu; };
    s.run = [](const CpuModel& cpu, const MitigationConfig& c, uint64_t secret, uint64_t) {
      return RunLazyFpAttack(cpu, c.eager_fpu, secret);
    };
    s.canonical_secret = 4;
    specs.push_back(std::move(s));
  }

  {
    AttackSpec s;
    s.name = "l1tf";
    s.label = "L1 Terminal Fault";
    s.knobs = {SuiteKnob::kL1tfPteInversion};
    s.vulnerable = [](const CpuModel& cpu) { return cpu.vuln.l1tf; };
    s.defended = [](const CpuModel&, const MitigationConfig& c) { return c.l1tf_pte_inversion; };
    s.run = [](const CpuModel& cpu, const MitigationConfig& c, uint64_t secret, uint64_t) {
      return RunL1tfAttack(cpu, c.l1tf_pte_inversion, secret);
    };
    s.canonical_secret = 13;
    specs.push_back(std::move(s));
  }

  {
    AttackSpec s;
    s.name = "smother-spectre";
    s.label = "SMoTherSpectre (port contention across SMT siblings)";
    s.knobs = {SuiteKnob::kSmtOff, SuiteKnob::kCoreSched};
    // Any part with a sibling thread: the channel is execution-port
    // pressure, not a transient-execution flaw, so silicon fixes for
    // MDS/V2 (Ice Lake, Zen 3) do not help.
    s.vulnerable = [](const CpuModel& cpu) { return cpu.smt; };
    s.defended = [](const CpuModel&, const MitigationConfig& c) {
      // Only taking the sibling away works; STIBP partitions predictor
      // state, not ports, and is deliberately absent here — the gap the
      // pareto frontier prices.
      return !CoResidencePossible(c);
    };
    s.run = [](const CpuModel& cpu, const MitigationConfig& c, uint64_t secret, uint64_t) {
      return RunSmotherSpectreAttack(cpu, CoResidencePossible(c), secret);
    };
    s.canonical_secret = 14;
    specs.push_back(std::move(s));
  }

  return specs;
}

}  // namespace

const std::vector<AttackSpec>& AttackSuite() {
  static const std::vector<AttackSpec> suite = BuildSuite();
  return suite;
}

const AttackSpec* FindAttackSpec(const std::string& name) {
  for (const AttackSpec& spec : AttackSuite()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

std::vector<NamedConfig> MitigationConfigMatrix(const CpuModel& cpu) {
  std::vector<NamedConfig> configs;

  configs.push_back({"off", MitigationConfig::AllOff()});

  {
    MitigationConfig c = MitigationConfig::AllOff();
    c.kernel_index_masking = true;
    c.lfence_after_swapgs = true;
    configs.push_back({"v1-only", c});
  }

  {
    MitigationConfig c = MitigationConfig::Defaults(cpu);
    c.retpoline = RetpolineMode::kNone;
    c.ibrs = IbrsMode::kOff;
    c.ibpb_on_context_switch = false;
    c.rsb_stuff_on_context_switch = false;
    configs.push_back({"no-v2", c});
  }

  configs.push_back({"defaults", MitigationConfig::Defaults(cpu)});

  {
    MitigationConfig c = MitigationConfig::Defaults(cpu);
    c.ssbd = SsbdMode::kAlways;
    configs.push_back({"defaults+ssbd", c});
  }

  {
    // STIBP rides the context-switch path (one SPEC_CTRL write) — the
    // cheap cross-thread V2 defense the pareto report prices against
    // nosmt's throughput loss.
    MitigationConfig c = MitigationConfig::Defaults(cpu);
    c.stibp = true;
    configs.push_back({"defaults+stibp", c});
  }

  {
    // Core scheduling: no MSR traffic, just cookie arithmetic in
    // pick_next — covers every cross-thread channel (including port
    // contention) without giving up the sibling for same-cookie work.
    MitigationConfig c = MitigationConfig::Defaults(cpu);
    c.core_scheduling = true;
    configs.push_back({"defaults+coresched", c});
  }

  {
    MitigationConfig c = MitigationConfig::Defaults(cpu);
    c.smt_off = true;
    configs.push_back({"defaults+nosmt", c});
  }

  {
    MitigationConfig c = MitigationConfig::Defaults(cpu);
    c.smt_off = true;
    c.ssbd = SsbdMode::kAlways;
    configs.push_back({"defaults+nosmt+ssbd", c});
  }

  {
    // Every knob forced on regardless of the hardware's needs — what an
    // operator buys by ignoring Table 1's empty cells. The pareto report
    // prices this against the cheapest sufficient set.
    MitigationConfig c = MitigationConfig::Defaults(cpu);
    c.pti = true;
    c.mds_clear_buffers = true;
    c.smt_off = true;
    c.retpoline = RetpolineMode::kGeneric;
    c.ibrs = cpu.predictor.eibrs
                 ? IbrsMode::kEibrs
                 : (cpu.predictor.ibrs_supported ? IbrsMode::kLegacyIbrs : IbrsMode::kOff);
    c.ibpb_on_context_switch = true;
    c.rsb_stuff_on_context_switch = true;
    c.lfence_after_swapgs = true;
    c.kernel_index_masking = true;
    c.eager_fpu = true;
    c.l1tf_pte_inversion = true;
    c.l1d_flush_on_vmentry = true;
    c.ssbd = SsbdMode::kAlways;
    c.stibp = true;
    c.core_scheduling = true;
    configs.push_back({"paranoid", c});
  }

  return configs;
}

const SuiteCell* SuiteResult::Find(const std::string& cpu, const std::string& config,
                                   const std::string& attack) const {
  for (const SuiteCell& cell : cells) {
    if (cell.cpu == cpu && cell.config == config && cell.attack == attack) {
      return &cell;
    }
  }
  return nullptr;
}

uint64_t TrialSecret(const AttackSpec& spec, uint64_t cell_seed, int trial) {
  if (trial == 0) {
    return spec.canonical_secret;
  }
  const std::string key = "secret:" + std::to_string(trial);
  return 1 + Fnv1a64(key, cell_seed) % 15;
}

uint64_t TrialSalt(uint64_t cell_seed, int trial) {
  if (trial == 0) {
    return 0;
  }
  const std::string key = "salt:" + std::to_string(trial);
  const uint64_t salt = Fnv1a64(key, cell_seed);
  return salt == 0 ? 1 : salt;  // 0 means "canonical"; keep trials varied
}

namespace {

// Workload prefix of the suite's runner cells. CellSeed hashes the key, so
// the trial secrets and salts depend on it.
const char kAttackCellPrefix[] = "attack:";

}  // namespace

SuiteResult AddSuiteCells(const SuiteOptions& options, Sweep* grid) {
  SPECBENCH_CHECK(options.trials > 0);
  SuiteResult result;
  result.options = options;
  for (Uarch u : options.cpus) {
    const CpuModel& cpu = GetCpuModel(u);
    for (const NamedConfig& named : MitigationConfigMatrix(cpu)) {
      for (const AttackSpec& spec : AttackSuite()) {
        SuiteCell cell;
        cell.cpu = UarchName(u);
        cell.config = named.name;
        cell.attack = spec.name;
        cell.defended = spec.defended(cpu, named.config);
        cell.attempted = spec.vulnerable(cpu);
        if (cell.attempted) {  // Table 1's empty cells run nothing
          grid->Add(SweepCellKey{cell.cpu, cell.config, kAttackCellPrefix + spec.name},
                    [&cpu, &spec, config = named.config, trials = options.trials](uint64_t seed) {
                      int leaks = 0;
                      for (int t = 0; t < trials; t++) {
                        const AttackResult r =
                            spec.run(cpu, config, TrialSecret(spec, seed, t), TrialSalt(seed, t));
                        if (r.attempted && r.leaked) {
                          leaks++;
                        }
                      }
                      CellOutput out;
                      out.metrics.push_back(CellMetric{"leaks", "Trials that leaked",
                                                       Estimate{static_cast<double>(leaks), 0.0}});
                      return out;
                    });
        }
        result.cells.push_back(std::move(cell));
      }
    }
  }
  return result;
}

void FoldSuiteCells(const SweepResult& result, SuiteResult* suite) {
  size_t slot = 0;
  for (const SweepCellResult& ran : result.cells) {
    if (ran.key.workload.rfind(kAttackCellPrefix, 0) != 0) {
      continue;
    }
    while (!suite->cells.at(slot).attempted) {
      slot++;
    }
    SuiteCell& cell = suite->cells[slot++];
    SPECBENCH_CHECK(ran.key.cpu == cell.cpu && ran.key.config == cell.config &&
                    ran.key.workload == kAttackCellPrefix + cell.attack);
    cell.trials = suite->options.trials;
    cell.leaks = static_cast<int>(ran.output.metrics.at(0).estimate.value);
    cell.leak_rate = static_cast<double>(cell.leaks) / static_cast<double>(cell.trials);
  }
}

SuiteResult RunSuite(const SuiteOptions& options) {
  Sweep grid;
  SuiteResult suite = AddSuiteCells(options, &grid);
  RunnerOptions runner;
  runner.jobs = options.jobs;
  runner.base_seed = options.base_seed;
  FoldSuiteCells(grid.Run(runner), &suite);
  return suite;
}

}  // namespace specbench
