// Cache timing side channel (flush+reload).
//
// Every attack in the paper transmits its transiently-read value through the
// data cache: the gadget touches probe[value * stride] and the attacker
// later times loads of each candidate line. This helper implements both
// halves against the simulated machine using the architectural timing
// channel (rdtsc around a load), not simulator introspection — the recovered
// byte comes out the same way it would on hardware.
#ifndef SPECTREBENCH_SRC_ATTACK_SIDE_CHANNEL_H_
#define SPECTREBENCH_SRC_ATTACK_SIDE_CHANNEL_H_

#include <cstdint>
#include <vector>

#include "src/isa/program.h"
#include "src/uarch/machine.h"

namespace specbench {

// Default probe array geometry: one candidate value per 4096-byte slot, the
// classic Spectre layout (Figure 1 of the paper).
inline constexpr uint64_t kProbeStride = 4096;

// The reload programs are built once, in the constructor, and only read
// afterwards: one const channel (a function-local static) may serve every
// thread, each running it on its own Machine.
class CacheTimingChannel {
 public:
  // `base` is the probe array's virtual address; `candidates` the number of
  // distinct values the victim might encode.
  CacheTimingChannel(uint64_t base, uint64_t candidates, uint64_t stride = kProbeStride);

  // Evicts every candidate line (the "flush" half). Uses clflush semantics
  // directly on the hierarchy via an emitted program.
  void Flush(Machine& m) const;

  // Times a load of each candidate line and returns the index of the
  // fastest (the "reload" half), or -1 if none is distinguishably hot.
  // Latencies are measured architecturally with rdtsc.
  int Recover(Machine& m) const;

  // Latency of each candidate's reload, for diagnostics/tests.
  std::vector<uint64_t> MeasureAll(Machine& m) const;

  uint64_t LineAddress(uint64_t value) const { return base_ + value * stride_; }

 private:
  uint64_t base_;
  uint64_t candidates_;
  uint64_t stride_;
  // One lfence+rdtsc-timed load of each candidate line, in candidate order.
  std::vector<Program> reload_programs_;
};

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_ATTACK_SIDE_CHANNEL_H_
