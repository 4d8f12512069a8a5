// Machine reuse across cells that mix CPU models.
//
// Constructing a Machine is dominated by allocating and zeroing the cache
// hierarchy's way arrays (megabytes for an L3). A MachinePool keeps one
// Machine per CPU model and hands it back Reset() to power-on state, so the
// per-cell cost drops to an O(1) generation-bump reset. The reset
// regression test (tests/uarch_reset_test.cc) pins the contract that a
// reused machine is bit- and cycle-identical to a fresh one.
#ifndef SPECTREBENCH_SRC_UARCH_MACHINE_POOL_H_
#define SPECTREBENCH_SRC_UARCH_MACHINE_POOL_H_

#include <map>
#include <memory>

#include "src/cpu/cpu_model.h"
#include "src/uarch/machine.h"

namespace specbench {

// A pool of reusable Machines keyed by CPU model identity. Not thread-safe:
// give each worker its own pool.
class MachinePool {
 public:
  // Returns a machine for `cpu` in power-on state: freshly constructed on
  // first use, Reset() on reuse. The reference is keyed by address, so `cpu`
  // must outlive the pool — pass catalog models (GetCpuModel /
  // FutureCpuModel), not stack-built ones.
  Machine& Acquire(const CpuModel& cpu);

  size_t size() const { return machines_.size(); }

 private:
  std::map<const CpuModel*, std::unique_ptr<Machine>> machines_;
};

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_UARCH_MACHINE_POOL_H_
