#include "src/difftest/difftest.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <sstream>
#include <utility>

#include "src/difftest/shrink.h"
#include "src/os/mitigation_config.h"
#include "src/runner/sweep.h"
#include "src/uarch/machine.h"
#include "src/uarch/machine_pool.h"
#include "src/util/check.h"

namespace specbench {

namespace {

// Quotes an argument for the repro command line when it contains spaces
// (CPU names like "Skylake Client").
std::string ShellArg(const std::string& arg) {
  if (arg.find(' ') == std::string::npos) {
    return arg;
  }
  std::string quoted = "'";
  quoted += arg;
  quoted += '\'';
  return quoted;
}

std::string ReproCommandLine(uint64_t seed, const std::string& cpu, const std::string& config,
                             uint64_t inject_alu_fault_after) {
  std::ostringstream out;
  out << "spectrebench difftest --seeds=" << seed << ":" << seed + 1;
  if (!cpu.empty() && cpu != "-") {
    std::string flag = "--cpus=";
    flag += cpu;
    out << " " << ShellArg(flag);
  }
  if (!config.empty() && config != "-") {
    std::string flag = "--configs=";
    flag += config;
    out << " " << ShellArg(flag);
  }
  if (inject_alu_fault_after != 0) {
    out << " --inject-alu-fault=" << inject_alu_fault_after;
  }
  return out.str();
}

void ApplyDiffConfig(Machine* m, const DiffConfig& config) {
  if (config.from_cpu_defaults) {
    const MitigationConfig defaults = MitigationConfig::Defaults(m->cpu());
    m->SetSsbd(defaults.ssbd == SsbdMode::kAlways);
    m->SetIbrs(defaults.ibrs != IbrsMode::kOff);
    m->SetPcidEnabled(defaults.pcid);
    return;
  }
  m->SetSsbd(config.ssbd);
  m->SetIbrs(config.ibrs);
  m->SetStibp(config.stibp);
  m->SetPcidEnabled(config.pcid);
}

// Seeds per RunDifftest block (one runner cell): a block amortizes one
// Machine per CPU model over this many seeds x configs, and 500 seeds still
// make enough cells to spread over a few workers.
constexpr uint64_t kSeedsPerBlock = 32;

}  // namespace

std::vector<DiffConfig> DefaultDiffConfigs() {
  std::vector<DiffConfig> configs;
  configs.push_back({.name = "off"});
  configs.push_back({.name = "defaults", .from_cpu_defaults = true});
  configs.push_back({.name = "ssbd", .ssbd = true});
  configs.push_back({.name = "ibrs", .ibrs = true});
  configs.push_back({.name = "nopcid", .pcid = false});
  configs.push_back({.name = "stibp", .stibp = true});
  return configs;
}

bool TryGetDiffConfigByName(const std::string& name, DiffConfig* out) {
  for (const DiffConfig& config : DefaultDiffConfigs()) {
    if (config.name == name) {
      *out = config;
      return true;
    }
  }
  return false;
}

ArchState RunMachineArch(Machine& m, const Program& program, const DiffConfig& config,
                         uint64_t max_instructions, uint64_t inject_alu_fault_after) {
  m.Reset();
  m.LoadProgram(&program);
  ApplyDiffConfig(&m, config);
  if (inject_alu_fault_after != 0) {
    m.InjectAluFaultForTesting(inject_alu_fault_after);
  }

  ArchState state;
  state.trace_hash = kArchHashBasis;
  m.SetTraceHook([&state](const Machine::TraceRecord& record) {
    state.retired++;
    state.trace_hash = FoldTraceHash(state.trace_hash, record.index, record.op);
  });

  // RunPartial: exhausting the budget is a reportable outcome (halted=false
  // diverges from the reference), not a SPECBENCH_CHECK abort like Run.
  const Machine::RunResult result = m.RunPartial(program.base_vaddr(), max_instructions);
  m.DrainPipeline();
  m.DrainStoreBuffer();

  for (uint8_t r = 0; r < kNumRegs; r++) {
    state.regs[r] = m.reg(r);
  }
  for (uint8_t r = 0; r < kNumFpRegs; r++) {
    state.fpregs[r] = m.fpreg(r);
  }
  state.halted = result.halted;
  state.memory_digest = DigestMemoryWords(m.physical_memory().SortedNonZeroWords());
  // The hook captures stack state; detach it before the machine outlives the
  // frame (reused machines run further cells).
  m.SetTraceHook(nullptr);
  return state;
}

ArchState RunMachineArch(const Program& program, const CpuModel& cpu, const DiffConfig& config,
                         uint64_t max_instructions, uint64_t inject_alu_fault_after) {
  MachineLease lease(cpu);
  return RunMachineArch(*lease, program, config, max_instructions, inject_alu_fault_after);
}

DifftestReport RunDifftestBlock(const DifftestOptions& options, uint64_t first_seed,
                                uint64_t last_seed) {
  const std::vector<Uarch> cpus = options.cpus.empty() ? AllUarches() : options.cpus;
  const std::vector<DiffConfig> configs =
      options.configs.empty() ? DefaultDiffConfigs() : options.configs;
  DifftestReport report;
  report.programs = last_seed - first_seed;
  // Per-seed divergences: the CPU loop is outermost, the report seed-major.
  std::vector<std::vector<Divergence>> per_seed(static_cast<size_t>(report.programs));
  std::vector<Program> programs;
  std::vector<ReferenceResult> refs;
  for (uint64_t seed = first_seed; seed < last_seed; seed++) {
    programs.push_back(GenerateProgram(seed, options.generator));
    refs.push_back(RunReference(programs.back(), options.max_instructions));
    if (!refs.back().ok) {
      Divergence d;
      d.seed = seed;
      d.cpu = '-';
      d.config = '-';
      d.detail = "reference: ";
      d.detail += refs.back().error;
      d.repro = ReproCommandLine(seed, "-", "-", options.inject_alu_fault_after);
      per_seed[static_cast<size_t>(seed - first_seed)].push_back(std::move(d));
    }
  }
  // CPUs are the outer loop, so the block holds one Machine at a time and
  // Resets it between every cell of that CPU (configs, seeds and shrink
  // candidates alike).
  for (Uarch u : cpus) {
    MachineLease lease(GetCpuModel(u));
    Machine& machine = *lease;
    for (size_t i = 0; i < programs.size(); i++) {
      const uint64_t seed = first_seed + i;
      const Program& program = programs[i];
      const ReferenceResult& ref = refs[i];
      if (!ref.ok) {
        continue;
      }
      for (const DiffConfig& config : configs) {
        const ArchState got = RunMachineArch(machine, program, config, options.max_instructions,
                                             options.inject_alu_fault_after);
        report.executions++;
        report.retired_instructions += got.retired;
        if (got == ref.state) {
          continue;
        }
        Divergence d;
        d.seed = seed;
        d.cpu = UarchName(u);
        d.config = config.name;
        d.detail = DescribeArchDivergence(ref.state, got);
        d.repro = ReproCommandLine(seed, d.cpu, d.config, options.inject_alu_fault_after);
        if (options.shrink) {
          auto still_fails = [&](const Program& candidate) {
            const ReferenceResult r = RunReference(candidate, options.max_instructions);
            if (!r.ok) {
              return false;  // invalid candidate: would abort the machine
            }
            const ArchState g = RunMachineArch(machine, candidate, config,
                                               options.max_instructions,
                                               options.inject_alu_fault_after);
            return !(g == r.state);
          };
          d.shrunk = ShrinkProgram(program, still_fails);
          d.shrunk_size = CountNonNop(d.shrunk);
        }
        per_seed[i].push_back(std::move(d));
      }
    }
  }
  for (std::vector<Divergence>& divergences : per_seed) {
    std::move(divergences.begin(), divergences.end(), std::back_inserter(report.divergences));
  }
  return report;
}

DifftestReport RunDifftest(const DifftestOptions& options) {
  SPECBENCH_CHECK_MSG(options.seed_end >= options.seed_begin, "difftest: empty seed range");
  // One runner cell per block; a block ignores its runner seed (the oracle
  // seeds are the work) and writes only its own slot.
  const uint64_t count = options.seed_end - options.seed_begin;
  std::vector<DifftestReport> slots;
  Sweep blocks;
  for (uint64_t first = 0; first < count; first += kSeedsPerBlock) {
    const uint64_t begin = options.seed_begin + first;
    const uint64_t end = begin + std::min(kSeedsPerBlock, count - first);
    blocks.Add(SweepCellKey{"*", "*", "seeds:" + std::to_string(begin) + ":" + std::to_string(end)},
               [&options, &slots, slot = slots.size(), begin, end](uint64_t) {
                 slots[slot] = RunDifftestBlock(options, begin, end);
                 return CellOutput{};
               });
    slots.emplace_back();
  }
  RunnerOptions runner;
  runner.jobs = options.jobs;
  blocks.Run(runner);

  DifftestReport report;
  for (DifftestReport& block : slots) {
    report.programs += block.programs;
    report.executions += block.executions;
    report.retired_instructions += block.retired_instructions;
    std::move(block.divergences.begin(), block.divergences.end(),
              std::back_inserter(report.divergences));
  }
  return report;
}

std::string DifftestReport::ToText() const {
  std::ostringstream out;
  out << "difftest: " << programs << " programs, " << executions << " machine runs, "
      << divergences.size() << " divergences\n";
  for (const Divergence& d : divergences) {
    out << "  seed=" << d.seed << " cpu=" << d.cpu << " config=" << d.config << ": " << d.detail
        << "\n";
    if (d.shrunk.size() > 0) {
      out << "    shrunk to " << d.shrunk_size << " instructions\n";
    }
    out << "    repro: " << d.repro << "\n";
  }
  return out.str();
}

}  // namespace specbench
