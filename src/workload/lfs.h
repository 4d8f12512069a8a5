// LFS smallfile / largefile microbenchmarks against the emulated disk
// (paper §4.4: "we measure the overhead of virtual machine exits by running
// the smallfile and largefile microbenchmarks from LFS against an emulated
// disk").
//
// smallfile: many small file creations — metadata syscalls inside the guest
// plus one small I/O (and thus one vmexit) per file. largefile: sequential
// writes of a large file — lots of in-guest buffered work per (larger) I/O,
// so vmexits are rarer relative to work. The contrast in exit rate is what
// makes host mitigations visible (or not).
#ifndef SPECTREBENCH_SRC_WORKLOAD_LFS_H_
#define SPECTREBENCH_SRC_WORKLOAD_LFS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/hv/hypervisor.h"

namespace specbench {

struct LfsResult {
  double cycles = 0;        // total runtime
  uint64_t vm_exits = 0;    // boundary crossings taken
};

class Lfs {
 public:
  static const std::vector<std::string>& KernelNames();  // {smallfile, largefile}

  // Simulates one kernel in a guest under `host_config`. Takes no seed: the
  // simulation is deterministic.
  static LfsResult SimulateKernel(const std::string& name, const CpuModel& cpu,
                                  const MitigationConfig& guest_config,
                                  const HostConfig& host_config);
};

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_WORKLOAD_LFS_H_
