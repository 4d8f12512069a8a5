#include "src/attack/suite.h"

#include <string>
#include <vector>

#include "src/runner/seed.h"
#include "src/util/check.h"

namespace specbench {

namespace {

// The knob's row: the rows that name a knob, in SuiteKnob (field) order.
const MitigationRow& Row(SuiteKnob knob) {
  static const std::vector<const MitigationRow*> kKnobbed = [] {
    std::vector<const MitigationRow*> rows;
    for (const MitigationRow& row : MitigationRows()) {
      if (row.knob != nullptr) {
        rows.push_back(&row);
      }
    }
    SPECBENCH_CHECK(rows.size() == kNumSuiteKnobs);
    return rows;
  }();
  return *kKnobbed[static_cast<size_t>(knob)];
}

// Every knob forced on regardless of the hardware's needs — what an operator
// buys by ignoring Table 1's empty cells. The pareto report prices this
// against the cheapest sufficient set.
MitigationConfig Paranoid(const CpuModel& cpu) {
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
  return c;
}

}  // namespace

const char* SuiteKnobName(SuiteKnob knob) { return Row(knob).knob; }

bool KnobActive(const MitigationConfig& config, SuiteKnob knob) { return Row(knob).on(config); }

MitigationConfig WithKnobDisabled(const MitigationConfig& config, SuiteKnob knob) {
  MitigationConfig c = config;
  Row(knob).disable(&c);
  return c;
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
    // The defaults with every other Figure 2 group turned off.
    MitigationConfig c = MitigationConfig::Defaults(cpu);
    for (MitigationGroup group : {MitigationGroup::kPti, MitigationGroup::kMds,
                                  MitigationGroup::kSpectreV2, MitigationGroup::kOther}) {
      DisableGroup(&c, group);
    }
    configs.push_back({"v1-only", c});
  }

  {
    MitigationConfig c = MitigationConfig::Defaults(cpu);
    DisableGroup(&c, MitigationGroup::kSpectreV2);
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

  configs.push_back({"paranoid", Paranoid(cpu)});

  return configs;
}

MitigationConfig ParanoidConfig(const AttackSpec& spec, const CpuModel& cpu, bool mitigated) {
  MitigationConfig config = Paranoid(cpu);
  if (!mitigated) {
    for (SuiteKnob knob : spec.knobs) {
      config = WithKnobDisabled(config, knob);
    }
  }
  return config;
}

AttackResult RunCanonicalTrial(const AttackSpec& spec, const CpuModel& cpu,
                               const MitigationConfig& config) {
  return spec.run(cpu, config, spec.canonical_secret, /*trial_salt=*/0);
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
