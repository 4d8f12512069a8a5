// The attack kit: the setup every attack program shares, and the victim
// scenarios the static analyzer's gadget corpus (src/analysis/corpus.cc)
// replays as its ground truth.
//
// Every attack plants a 4-bit secret and recovers it through the
// flush+reload channel (`AttackProbeChannel()`). `ProbeTrial` is that
// shape: lease a power-on machine, set it up, flush the probe, trigger the
// attack, read the channel. The attack suite's scenarios
// (src/attack/attacks.cc) are written on it.
//
// A corpus scenario is one builder plus one replay. The builder emits the
// victim program; the replay plants the secret, trains the predictors and
// runs the program in one ProbeTrial. The replay takes the program as a
// parameter, so the same steps run the attack and re-run a rewriter-
// hardened copy of it. Replays find the entry point and the branch to train
// by symbol: the rewriter moves instruction indices but keeps symbols.
// Every victim binds "entry" at its first instruction.
#ifndef SPECTREBENCH_SRC_ATTACK_KIT_H_
#define SPECTREBENCH_SRC_ATTACK_KIT_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/cpu/cpu_model.h"
#include "src/isa/program.h"

namespace specbench {

class CacheTimingChannel;
class Machine;
class MemoryMap;

struct AttackResult {
  bool attempted = true;   // false when the configuration is N/A for the CPU
  bool leaked = false;     // recovered == the planted secret
  int recovered = -1;      // what flush+reload saw (-1: nothing hot)
  uint64_t expected = 0;   // the planted secret
};

// The flush+reload receiver every attack decodes through: a 16-candidate
// probe array at kProbeBase (src/attack/side_channel.h). One const channel
// per process, so its reload programs are built once and shared by every
// thread.
const CacheTimingChannel& AttackProbeChannel();

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
constexpr uint64_t kStalePteBase = 0x52000000;   // non-present PTE (L1TF)

// Emits "r(dst) = probe[r(value_reg) * 4096]" — the cache-encoding load.
void EmitEncode(ProgramBuilder& b, uint8_t value_reg, uint8_t scratch, uint8_t dst);

// Emits the two targets a branch-target attack chooses between: "gadget"
// reads the secret, encodes it and returns; "benign" just returns.
void EmitSecretGadget(ProgramBuilder& b);

// The attack address space: an identity map, user-accessible, except for
// the secret's page (kSecretSlot) and the attacker's page.
enum class SecretPage {
  kUser,        // user-accessible like the rest
  kSupervisor,  // kernel-only but mapped: the Meltdown surface
  kAbsent,      // not in this address space (PTI)
};
enum class AttackerPage {
  kUnmapped,        // kMdsSampleBase has no PTE: a load there faults
  kStaleToSecret,   // kStalePteBase is a non-present PTE whose stale
                    // physical address is the secret's (L1TF)
  kStaleToNothing,  // the same PTE, inverted to unpopulated memory
};
const MemoryMap& AttackMap(SecretPage secret, AttackerPage attacker);

// Trains the conditional branch at `vaddr` taken: two predictor updates,
// the training depth of every attack scenario.
void TrainTaken(Machine& m, uint64_t vaddr);

// First conditional branch at or after `symbol`, or -1.
int32_t FirstCondBranchAtOrAfter(const Program& p, const std::string& symbol);

// One flush+reload trial on a power-on machine of `cpu`: `setup` loads the
// victim and plants its state, the probe array is flushed, `trigger` runs
// the attack, and the channel is read against `secret`.
AttackResult ProbeTrial(const CpuModel& cpu, uint64_t secret,
                        const std::function<void(Machine&)>& setup,
                        const std::function<void(Machine&)>& trigger);

// Runs `p`'s "victim" on SMT thread 0 co-resident with its "attacker" on
// thread 1, each on its own stack below kStackTop. `stibp` tags each
// thread's BTB entries with its thread id. Returns the attacker's finish
// cycle: its own completion time, the only clock it can read.
uint64_t RunSiblings(Machine& m, const Program& p, bool stibp);

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
