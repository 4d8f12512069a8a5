// Machine reuse: the one way src/ gets a Machine.
//
// Constructing a Machine allocates the cache hierarchy's way arrays
// (megabytes for an L3) but does not initialise them: a cache writes a
// set's ways when it first touches the set (src/uarch/cache.h), so a
// machine pays for the sets it touches. Reuse skips the allocation too: it
// hands back an existing machine Reset() to power-on state, an O(1)
// generation-bump reset.
// The reset regression test (tests/uarch_reset_test.cc) pins the contract
// that a reused machine is bit- and cycle-identical to a fresh one.
//
// MachineLease is what library code uses: each thread keeps one idle
// machine, so memory stays at one machine per worker. MachinePool keeps one
// machine per CPU model for callers that interleave models on purpose.
#ifndef SPECTREBENCH_SRC_UARCH_MACHINE_POOL_H_
#define SPECTREBENCH_SRC_UARCH_MACHINE_POOL_H_

#include <map>
#include <memory>

#include "src/cpu/cpu_model.h"
#include "src/uarch/machine.h"

namespace specbench {

// An RAII handle on a Machine in power-on state. Each thread has a single
// slot holding at most one idle machine:
//   * slot free, holding a machine for an equal CpuModel (compared by value,
//     so modified copies of a catalog model never share a machine): the
//     lease borrows it, Reset();
//   * slot free, holding another model's machine: that machine is destroyed
//     first, then one is built for `cpu` and kept in the slot;
//   * slot already leased (nested leases, e.g. two Kernels alive at once):
//     the lease builds a private machine and frees it at scope end, so two
//     live leases never share a machine.
// A lease must be released on the thread that took it.
class MachineLease {
 public:
  explicit MachineLease(const CpuModel& cpu);
  ~MachineLease();
  MachineLease(const MachineLease&) = delete;
  MachineLease& operator=(const MachineLease&) = delete;

  Machine& operator*() const { return *machine_; }
  Machine* operator->() const { return machine_; }

 private:
  Machine* machine_;
  std::unique_ptr<Machine> private_;  // set only for a nested lease
};

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
