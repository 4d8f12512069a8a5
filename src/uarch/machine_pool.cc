#include "src/uarch/machine_pool.h"

#include "src/util/check.h"

namespace specbench {

Machine& MachinePool::Acquire(const CpuModel& cpu) {
  auto it = machines_.find(&cpu);
  if (it == machines_.end()) {
    it = machines_.emplace(&cpu, std::make_unique<Machine>(cpu)).first;
  } else {
    // Guards the keyed-by-address contract: the storage behind `cpu` must
    // still describe the model the pooled machine was built from.
    SPECBENCH_CHECK_MSG(it->second->cpu().uarch == cpu.uarch,
                        "MachinePool key reused for a different CPU model");
    it->second->Reset();
  }
  return *it->second;
}

}  // namespace specbench
