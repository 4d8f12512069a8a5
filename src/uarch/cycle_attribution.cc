#include "src/uarch/cycle_attribution.h"

#include "src/util/check.h"

namespace specbench {

void CycleAttribution::Reset() { *this = CycleAttribution(); }

uint64_t CycleAttribution::WindowTotalCycles() const {
  SPECBENCH_CHECK_MSG(HasWindow(), "attribution window needs two rdtsc marks");
  return snapshots_.back().total_cycles - snapshots_.front().total_cycles;
}

uint64_t CycleAttribution::WindowCauseCycles(CauseTag tag) const {
  SPECBENCH_CHECK_MSG(HasWindow(), "attribution window needs two rdtsc marks");
  return snapshots_.back().Cause(tag) - snapshots_.front().Cause(tag);
}

}  // namespace specbench
