// Attack lab: every registered transient-execution attack (AttackSuite()),
// run against every CPU model with and without the knobs that defend it —
// the security ground truth behind the paper's Table 1.
//
// Each attack plants a secret, triggers the transient leak, and recovers the
// value through a flush+reload cache timing channel; "LEAK" means the
// recovered value matched the planted one. Every run starts from the
// "paranoid" config (every knob on); the "(off)" row disables the attack's
// own knobs, the second row keeps them.
//
// Build & run:  ./build/examples/attack_lab
#include <cstdio>
#include <string>

#include "src/attack/suite.h"

using namespace specbench;

namespace {

// One cell; counts a leak only where the hardware is vulnerable.
void PrintCell(const AttackSpec& spec, const CpuModel& cpu, bool mitigated, int* leaks) {
  if (!spec.vulnerable(cpu)) {
    std::printf(" %-15s", "  n/a");
    return;
  }
  const bool leaked =
      RunCanonicalTrial(spec, cpu, ParanoidConfig(spec, cpu, mitigated)).leaked;
  *leaks += leaked ? 1 : 0;
  std::printf(" %-15s", leaked ? " LEAK" : " safe");
}

}  // namespace

int main() {
  std::printf("%-16s %-26s", "attack", "defending knobs");
  for (Uarch u : AllUarches()) {
    std::printf(" %-15s", UarchName(u));
  }
  std::printf("\n");

  int leaks_unmitigated = 0;
  int leaks_mitigated = 0;
  for (const AttackSpec& spec : AttackSuite()) {
    std::string knobs;
    for (SuiteKnob knob : spec.knobs) {
      knobs += (knobs.empty() ? "" : ",") + std::string(SuiteKnobName(knob));
    }
    std::printf("%-16s %-26s", spec.name.c_str(), "(off)");
    for (Uarch u : AllUarches()) {
      PrintCell(spec, GetCpuModel(u), /*mitigated=*/false, &leaks_unmitigated);
    }
    std::printf("\n%-16s %-26s", "", knobs.c_str());
    for (Uarch u : AllUarches()) {
      PrintCell(spec, GetCpuModel(u), /*mitigated=*/true, &leaks_mitigated);
    }
    std::printf("\n");
  }

  std::printf("\n%d leaks with the knobs off; %d with them on.\n", leaks_unmitigated,
              leaks_mitigated);
  std::printf("(n/a cells are CPUs whose hardware is not vulnerable — the reason\n"
              " newer parts can drop the mitigation.)\n");
  return leaks_mitigated == 0 ? 0 : 1;
}
