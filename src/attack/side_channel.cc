#include "src/attack/side_channel.h"

#include <limits>

#include "src/util/check.h"

namespace specbench {

CacheTimingChannel::CacheTimingChannel(uint64_t base, uint64_t candidates, uint64_t stride)
    : base_(base), candidates_(candidates), stride_(stride) {
  SPECBENCH_CHECK(candidates > 0);
  reload_programs_.reserve(candidates_);
  for (uint64_t v = 0; v < candidates_; v++) {
    ProgramBuilder b;
    b.MovImm(0, static_cast<int64_t>(LineAddress(v)));
    b.Lfence();
    b.Rdtsc(1);
    b.Load(2, MemRef{.base = 0});
    b.Lfence();
    b.Rdtsc(3);
    b.Halt();
    reload_programs_.push_back(b.Build());
  }
}

void CacheTimingChannel::Flush(Machine& m) const {
  for (uint64_t v = 0; v < candidates_; v++) {
    m.caches().Clflush(LineAddress(v));
  }
}

std::vector<uint64_t> CacheTimingChannel::MeasureAll(Machine& m) const {
  // One timing program per candidate, run back to back on the same machine
  // so the cache state carrying the signal is preserved. Clobbers r0..r2;
  // the caller's program pointer is restored afterwards.
  const Program* original = m.program();
  std::vector<uint64_t> latencies;
  latencies.reserve(candidates_);
  for (const Program& p : reload_programs_) {
    m.LoadProgram(&p);
    m.Run(p.VaddrOf(0));
    latencies.push_back(m.reg(3) - m.reg(1));
  }
  if (original != nullptr) {
    m.LoadProgram(original);
  }
  return latencies;
}

int CacheTimingChannel::Recover(Machine& m) const {
  const std::vector<uint64_t> latencies = MeasureAll(m);
  // Hot line: clearly below memory latency. Use the midpoint between the L1
  // and DRAM latencies as the threshold.
  const uint64_t threshold =
      (m.cpu().l1d.latency_cycles + m.cpu().latency.mem_latency) / 2;
  int best = -1;
  uint64_t best_latency = std::numeric_limits<uint64_t>::max();
  for (uint64_t v = 0; v < candidates_; v++) {
    if (latencies[v] < threshold && latencies[v] < best_latency) {
      best = static_cast<int>(v);
      best_latency = latencies[v];
    }
  }
  return best;
}

}  // namespace specbench
