// Mitigation tuner: the sysadmin's view of the study.
//
// Given a CPU, sweep realistic boot-parameter configurations and print the
// cost/security frontier: what each setting costs on an OS-intensive
// workload, and which attacks it leaves open (verified by actually running
// them). This is the decision the paper's measurements inform — e.g. that
// `mitigations=off` buys old Intel ~30% syscall throughput at the price of
// ten working attacks, while on Zen 3 it buys almost nothing.
//
// Build & run:  ./build/examples/mitigation_tuner [uarch-name]
#include <cstdio>
#include <string>
#include <vector>

#include "src/attack/suite.h"
#include "src/os/mitigation_config.h"
#include "src/workload/lebench.h"

using namespace specbench;

namespace {

// Count the attacks a configuration leaves exploitable on this CPU: every
// registered attack the hardware is vulnerable to whose canonical trial
// leaks under the configuration.
int OpenAttacks(const CpuModel& cpu, const MitigationConfig& config) {
  int open = 0;
  for (const AttackSpec& spec : AttackSuite()) {
    if (spec.vulnerable(cpu) && RunCanonicalTrial(spec, cpu, config).leaked) {
      open++;
    }
  }
  return open;
}

}  // namespace

int main(int argc, char** argv) {
  const CpuModel& cpu =
      argc > 1 ? GetCpuModelByName(argv[1]) : GetCpuModel(Uarch::kBroadwell);
  std::printf("Tuning mitigations for: %s %s\n\n", VendorName(cpu.vendor),
              cpu.uarch_name.c_str());

  struct Option {
    std::string name;
    std::vector<std::string> cmdline;
  };
  const std::vector<Option> options = {
      {"defaults (mitigations=auto)", {}},
      {"nopti", {"nopti"}},
      {"mds=off", {"mds=off"}},
      {"nospectre_v2", {"nospectre_v2"}},
      {"paranoid (+ssbd on)", {"spec_store_bypass_disable=on"}},
      {"mitigations=off", {"mitigations=off"}},
  };

  const double baseline = LeBench::SuiteGeomean(
      LeBench::RunSuite(cpu, MitigationConfig::AllOff(), /*seed=*/1));

  std::printf("%-28s %16s %14s\n", "boot parameters", "LEBench overhead", "attacks open");
  for (const Option& option : options) {
    const MitigationConfig config = ConfigFromCmdline(cpu, option.cmdline);
    const double cost =
        LeBench::SuiteGeomean(LeBench::RunSuite(cpu, config, /*seed=*/2));
    const double overhead = (cost / baseline - 1.0) * 100.0;
    std::printf("%-28s %15.1f%% %14d\n", option.name.c_str(), overhead,
                OpenAttacks(cpu, config));
  }
  std::printf(
      "\n'attacks open' runs every registered attack the CPU is vulnerable to\n"
      "(AttackSuite(): Spectre V1/V2/RSB, cross-SMT V2, Meltdown, MDS,\n"
      "cross-SMT MDS, SSB, LazyFP, L1TF, SMoTherSpectre) under that\n"
      "configuration. SSB and the cross-SMT attacks stay open under the\n"
      "defaults: Linux forces neither SSBD nor nosmt, the posture the paper\n"
      "describes.\n");
  return 0;
}
