// End-to-end reproductions of the transient execution attacks in the study.
//
// Each attack runs against a fresh simulated machine and recovers a 4-bit
// secret through the cache timing channel — the full pipeline: transient
// access, cache encoding, flush+reload recovery. Each takes the mitigation
// that defends against it as a parameter, so callers (tests, examples, the
// attribution harness) can verify the security ground truth of Table 1:
// attack succeeds with the mitigation off (on vulnerable hardware) and fails
// with it on.
#ifndef SPECTREBENCH_SRC_ATTACK_ATTACKS_H_
#define SPECTREBENCH_SRC_ATTACK_ATTACKS_H_

#include <cstdint>

#include "src/cpu/cpu_model.h"

namespace specbench {

class CacheTimingChannel;

// The flush+reload receiver every attack here decodes through: a
// 16-candidate probe array at 0x40000000 (src/attack/side_channel.h). One
// const channel per process, so its reload programs are built once and
// shared by every thread.
const CacheTimingChannel& AttackProbeChannel();

struct AttackResult {
  bool attempted = true;   // false when the configuration is N/A for the CPU
  bool leaked = false;     // recovered == the planted secret
  int recovered = -1;      // what flush+reload saw (-1: nothing hot)
  uint64_t expected = 0;   // the planted secret
};

// Spectre V1 (bounds check bypass) against array code; `index_masking`
// applies the cmov hardening.
AttackResult RunSpectreV1Attack(const CpuModel& cpu, bool index_masking,
                                uint64_t secret = 7);

// Spectre V2 (branch target injection). The victim's indirect branch is
// protected per the flags; the attacker trains from a separate call site in
// the same process.
struct SpectreV2Options {
  bool generic_retpoline = false;  // victim branch compiled as a retpoline
  bool ibpb_before_victim = false; // barrier between training and victim
  bool ibrs = false;               // SPEC_CTRL.IBRS set throughout
};
AttackResult RunSpectreV2Attack(const CpuModel& cpu, const SpectreV2Options& options,
                                uint64_t secret = 5);

// SpectreRSB: a victim ret whose RSB entry was lost (e.g. across a context
// switch) falls back to an attacker-trained BTB entry. `rsb_stuffing`
// refills the RSB with benign entries, the kernel mitigation from §5.3.
AttackResult RunSpectreRsbAttack(const CpuModel& cpu, bool rsb_stuffing,
                                 uint64_t secret = 9);

// Meltdown: user-mode transient read of kernel memory. `pti` unmaps the
// kernel page from the user address space.
AttackResult RunMeltdownAttack(const CpuModel& cpu, bool pti, uint64_t secret = 11);

// MDS / RIDL: sample stale fill-buffer data. `verw_clear` runs the patched
// verw between the victim access and the attack.
//
// `trial_salt` models attack-to-attack variation for leak-*rate* studies
// (src/attack/suite.h): a non-zero salt plants one to three benign victim
// fills alongside the secret and moves the attacker's sampling load within
// its unmapped page, so which fill-buffer entry the sample hits varies per
// trial exactly like the paper's §3.3 "cannot target addresses" story.
// Salt 0 is the canonical single-fill attack (always leaks when
// unmitigated on vulnerable parts).
AttackResult RunMdsAttack(const CpuModel& cpu, bool verw_clear, uint64_t secret = 6,
                          uint64_t trial_salt = 0);

// MDS across SMT siblings (paper §3.3): with hyperthreading, the attacker
// samples fill buffers *while* the victim runs on the same physical core —
// no privilege crossing separates them, so verw-on-transition cannot help;
// only disabling SMT does. With smt_enabled=false the attacker only runs
// after a context switch (which executes verw when `verw_on_switch`).
struct MdsSmtOptions {
  bool smt_enabled = true;
  bool verw_on_switch = true;
};
// `trial_salt` as in RunMdsAttack: non-zero interleaves benign fills with
// the victim's secret refills and moves the sampling load, for leak-rate
// trials; zero reproduces the canonical attack.
AttackResult RunMdsSmtAttack(const CpuModel& cpu, const MdsSmtOptions& options,
                             uint64_t secret = 10, uint64_t trial_salt = 0);

// Spectre V2 across SMT siblings: the attacker hyperthread trains the
// shared BTB; the victim sibling's indirect branch then speculates to the
// gadget. STIBP (single-threaded indirect branch predictors) partitions the
// predictor between siblings — the companion knob to IBPB that Linux 5.16's
// default changes also covered [Larabel 2021].
AttackResult RunSpectreV2SmtAttack(const CpuModel& cpu, bool stibp, uint64_t secret = 12);

// SMoTherSpectre (port contention across SMT siblings): the attacker times
// its own instruction stream while the victim executes secret-dependent
// code — divider chains vs ALU streams — on the sibling hardware thread of
// the same core; the shared-port pressure shifts the attacker's completion
// time, one bit per measurement. No predictor state is involved, so STIBP
// does not help: only taking the sibling away does (`co_resident=false`:
// nosmt, or core scheduling refusing to pair the two processes).
AttackResult RunSmotherSpectreAttack(const CpuModel& cpu, bool co_resident,
                                     uint64_t secret = 14);

// Speculative Store Bypass: transient load reads memory under an unresolved
// store. `ssbd` disables the bypass.
AttackResult RunSsbAttack(const CpuModel& cpu, bool ssbd, uint64_t secret = 3);

// LazyFP: transient read of stale FPU registers left by a lazily-switched
// previous owner. `eager_fpu` clears them at switch time instead.
AttackResult RunLazyFpAttack(const CpuModel& cpu, bool eager_fpu, uint64_t secret = 4);

// L1 Terminal Fault: transient read through a non-present PTE whose stale
// physical address points at victim data resident in the L1. With
// `pte_inversion` the kernel scrambles the address so it points nowhere.
AttackResult RunL1tfAttack(const CpuModel& cpu, bool pte_inversion, uint64_t secret = 13);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_ATTACK_ATTACKS_H_
