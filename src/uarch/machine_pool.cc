#include "src/uarch/machine_pool.h"

#include "src/util/check.h"

namespace specbench {

namespace {

struct LeaseSlot {
  std::unique_ptr<Machine> machine;
  bool leased = false;
};

LeaseSlot& ThisThreadSlot() {
  thread_local LeaseSlot slot;
  return slot;
}

}  // namespace

MachineLease::MachineLease(const CpuModel& cpu) {
  LeaseSlot& slot = ThisThreadSlot();
  if (slot.leased) {
    private_ = std::make_unique<Machine>(cpu);
    machine_ = private_.get();
    return;
  }
  if (slot.machine != nullptr && slot.machine->cpu() == cpu) {
    slot.machine->Reset();
  } else {
    slot.machine.reset();  // destroy first: one slot machine alive at a time
    slot.machine = std::make_unique<Machine>(cpu);
  }
  slot.leased = true;
  machine_ = slot.machine.get();
}

MachineLease::~MachineLease() {
  if (private_ != nullptr) {
    return;
  }
  LeaseSlot& slot = ThisThreadSlot();
  SPECBENCH_CHECK_MSG(slot.machine.get() == machine_,
                      "MachineLease released on another thread than it was taken on");
  slot.leased = false;
}

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
