// Shared internals of the Machine's step loop (machine.cc and the
// machine_*_inl.h step handlers it includes) and its speculative engine
// (speculation.cc). Not part of the public uarch API.
#ifndef SPECTREBENCH_SRC_UARCH_MACHINE_INTERNAL_H_
#define SPECTREBENCH_SRC_UARCH_MACHINE_INTERNAL_H_

#include <algorithm>
#include <array>
#include <cstdint>

#include "src/isa/isa.h"

namespace specbench {
namespace minternal {

// Page-walk cost charged on a TLB miss.
inline constexpr uint32_t kTlbWalkCycles = 24;
// Store-to-load forwarding latency.
inline constexpr uint32_t kForwardLatency = 5;
// Cycles after issue until a store's *address* is known (data takes the
// CPU-specific store_resolve_delay).
inline constexpr uint32_t kAddrResolveDelay = 3;
// Minimum wrong-path window even when a branch condition resolves instantly.
inline constexpr uint64_t kMinSpecWindow = 2;
// Sentinel readiness for values that never materialize inside an episode.
inline constexpr uint64_t kNeverReady = ~UINT64_C(0) / 2;

// Wrong-path budget of a branch predicted at `now` that resolves at
// `resolve_at`: the cycles until it resolves plus the minimum window,
// bounded by the CPU's speculation `window`.
inline uint64_t EpisodeBudget(uint64_t resolve_at, uint64_t now, uint64_t window) {
  return std::clamp<uint64_t>(resolve_at > now ? resolve_at - now + kMinSpecWindow : kMinSpecWindow,
                              kMinSpecWindow, window);
}

// base + index * scale + disp over the register file `regs` (committed or
// an episode's copy).
inline uint64_t EffectiveAddress(const Instruction& instr,
                                 const std::array<uint64_t, kNumRegs>& regs) {
  uint64_t addr = static_cast<uint64_t>(instr.mem.disp);
  if (instr.mem.base != kNoReg) {
    addr += regs[instr.mem.base];
  }
  if (instr.mem.index != kNoReg) {
    addr += regs[instr.mem.index] * instr.mem.scale;
  }
  return addr;
}

inline uint64_t AluCompute(AluOp op, uint64_t a, uint64_t b) {
  switch (op) {
    case AluOp::kAdd: return a + b;
    case AluOp::kSub: return a - b;
    case AluOp::kAnd: return a & b;
    case AluOp::kOr: return a | b;
    case AluOp::kXor: return a ^ b;
    case AluOp::kShl: return b >= 64 ? 0 : a << b;
    case AluOp::kShr: return b >= 64 ? 0 : a >> b;
    case AluOp::kCmpLt: return a < b ? 1 : 0;
    case AluOp::kCmpGe: return a >= b ? 1 : 0;
    case AluOp::kCmpEq: return a == b ? 1 : 0;
    case AluOp::kCmpNe: return a != b ? 1 : 0;
  }
  return 0;
}

}  // namespace minternal
}  // namespace specbench

#endif  // SPECTREBENCH_SRC_UARCH_MACHINE_INTERNAL_H_
