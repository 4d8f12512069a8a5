// The paper's §6 measurement technique (Figure 6): detect whether a CPU
// speculatively executes a BTB-trained indirect branch target by watching
// the ARITH_DIVIDER_ACTIVE performance counter.
//
// The probe trains an indirect branch toward victim_target (which contains
// a division), optionally crosses the user/kernel boundary, repoints the
// branch at nop_target, flushes the target pointer so the branch resolves
// slowly, executes it, and reads the divider counter: any activity means
// the stale prediction steered transient execution. Sweeping (train mode,
// victim mode, intervening syscall, IBRS) over the eight CPU models
// regenerates Tables 9 and 10.
#ifndef SPECTREBENCH_SRC_ATTACK_SPECULATION_PROBE_H_
#define SPECTREBENCH_SRC_ATTACK_SPECULATION_PROBE_H_

#include <string>
#include <vector>

#include "src/cpu/cpu_model.h"
#include "src/isa/isa.h"

namespace specbench {

enum class ProbeOutcome {
  kSpeculated,    // divider ran: the trained target was executed transiently
  kSafe,          // no divider activity: prediction did not cross
  kUnsupported,   // configuration impossible on this CPU (IBRS on Zen 1)
};

const char* ProbeOutcomeName(ProbeOutcome outcome);

// One cell of Table 9/10.
struct ProbeCase {
  Mode train_mode = Mode::kUser;
  Mode victim_mode = Mode::kUser;
  bool intervening_syscall = false;
  bool ibrs = false;
};

// The five columns of Tables 9/10, in the paper's order.
std::vector<ProbeCase> Table9Columns(bool ibrs);
std::string ProbeCaseName(const ProbeCase& c);

class SpeculationProbe {
 public:
  explicit SpeculationProbe(const CpuModel& cpu);

  // Runs the full train/transition/probe sequence for one configuration on
  // a power-on machine.
  ProbeOutcome Run(const ProbeCase& probe_case) const;

  // Control experiment: training and probing from the *same* call site in
  // the same mode. On Zen 3 this succeeds even though all the cross-context
  // cases fail — the paper's suspicion that Zen 3 "isn't immune, just
  // unpoisonable by our experiment" (§6.2).
  ProbeOutcome RunSameSiteControl() const;

 private:
  CpuModel cpu_;
};

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_ATTACK_SPECULATION_PROBE_H_
