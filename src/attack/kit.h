// The attack kit: the setup every attack program shares, and the victim
// scenarios the static analyzer's gadget corpus (src/analysis/corpus.cc)
// replays as its ground truth.
//
// A scenario is one builder plus one replay. The builder emits the victim
// program; the replay plants the secret, trains the predictors, flushes
// the probe and runs the program on a power-on machine, then reads the
// flush+reload channel. The replay takes the program as a parameter, so the
// same steps run the attack (src/attack/attacks.cc) and re-run a
// rewriter-hardened copy of it. Replays find the entry point and the branch
// to train by symbol: the rewriter moves instruction indices but keeps
// symbols. Every victim binds "entry" at its first instruction.
#ifndef SPECTREBENCH_SRC_ATTACK_KIT_H_
#define SPECTREBENCH_SRC_ATTACK_KIT_H_

#include <cstdint>
#include <string>

#include "src/attack/attacks.h"
#include "src/cpu/cpu_model.h"
#include "src/isa/program.h"

namespace specbench {

class Machine;
class MemoryMap;

// Address layout.
constexpr uint64_t kProbeBase = 0x40000000;   // flush+reload probe array
constexpr uint64_t kCandidates = 16;          // 4-bit secrets
constexpr uint64_t kGuardAddr = 0x41000000;   // flushed branch guard; V1's length
constexpr uint64_t kArrayBase = 0x42000000;   // V1 victim array
constexpr uint64_t kArrayLen = 16;
constexpr uint64_t kSecretSlot = 0x43000000;  // where the secret value lives
constexpr uint64_t kPtrSlot = 0x44000000;     // indirect-branch function pointer
constexpr uint64_t kStackTop = 0x48000000;
constexpr uint64_t kMdsSampleBase = 0x50000000;  // unmapped sampling page

// Emits "r(dst) = probe[r(value_reg) * 4096]" — the cache-encoding load.
void EmitEncode(ProgramBuilder& b, uint8_t value_reg, uint8_t scratch, uint8_t dst);

// Identity map with the sampling page at kMdsSampleBase left unmapped, so a
// load there faults and reads the fill buffers transiently.
const MemoryMap& MdsSampleMap();

// First conditional branch at or after `symbol`, or -1.
int32_t FirstCondBranchAtOrAfter(const Program& p, const std::string& symbol);

// What the AttackProbeChannel() reads on `m`, judged against `secret`.
AttackResult ReadAttackResult(Machine& m, uint64_t secret);

// Spectre V1: if (r0 < len) { x = array[r0]; encode(x); }, with the index
// masked by cmov or the body fenced by an lfence.
enum class V1Variant { kNaked, kMasked, kLfenced };
Program BuildSpectreV1Victim(V1Variant variant);
// Trains the bounds check with in-bounds runs, flushes the length, then
// runs once with the index pointing at the secret.
AttackResult ReplaySpectreV1(const CpuModel& cpu, const Program& victim, uint64_t secret);

// SpectreRSB: "entry" is a bare ret whose RSB entry was lost; "after" is its
// true return site and "gadget" encodes the secret.
Program BuildSpectreRsbVictim();
// Trains the BTB at the ret towards the gadget, leaves the true return
// address in flushed stack memory, and either clears the RSB (underflow)
// or stuffs it with benign entries (the kernel's mitigation).
AttackResult ReplaySpectreRsb(const CpuModel& cpu, const Program& victim, bool rsb_stuffing,
                              uint64_t secret);

// Speculative Store Bypass: a store to a slot, unresolved at a mispredicted
// branch whose body loads the slot and encodes it; `mfence_after_store`
// drains the store buffer first.
Program BuildSsbVictim(bool mfence_after_store);
// Plants the secret as the slot's old value, trains the branch taken and
// runs once with SSBD set per `ssbd`.
AttackResult ReplaySsb(const CpuModel& cpu, const Program& victim, bool ssbd, uint64_t secret);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_ATTACK_KIT_H_
