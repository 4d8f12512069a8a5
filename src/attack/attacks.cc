// The eleven attacks of the suite (src/attack/suite.h), each written once as
// its AttackSpec: what it is, the hardware it needs, the knobs that defend
// it, and its scenario, which reads its mitigation straight from the
// MitigationConfig.
//
// Each scenario runs against a fresh simulated machine and recovers a 4-bit
// secret through the cache timing channel — the full pipeline: transient
// access, cache encoding, flush+reload recovery. Spectre V1, SpectreRSB and
// SSB are the kit's replays (src/attack/kit.h), which the analyzer's gadget
// corpus replays too.
#include <array>
#include <memory>

#include "src/attack/kit.h"
#include "src/attack/suite.h"
#include "src/isa/program.h"
#include "src/os/kernel.h"
#include "src/uarch/machine.h"
#include "src/uarch/machine_pool.h"
#include "src/util/check.h"

namespace specbench {

namespace {

// Layout beyond the kit's (src/attack/kit.h).
constexpr uint64_t kPtrSlot2 = 0x44001000;    // the SMT victim's own pointer
constexpr uint64_t kNoiseBase = 0x45000000;   // benign MDS victim fills

// Leak-rate trial parameters derived from a salt (0 = canonical attack):
// how many benign victim fills ride alongside the secret, and where within
// the unmapped page the attacker's sampling load lands (the FillBuffers
// Sample salt — varying it varies which resident entry the sample hits).
// A non-zero salt thus models the paper's §3.3 "cannot target addresses"
// story; salt 0 is the canonical single-fill attack.
uint32_t NoiseFillCount(uint64_t trial_salt) {
  return trial_salt == 0 ? 0 : 1 + static_cast<uint32_t>(trial_salt % 3);
}

uint64_t SampleVaddr(uint64_t trial_salt) {
  // 61 * 64 < kPageBytes, so every offset stays inside the unmapped page.
  return kMdsSampleBase + (trial_salt == 0 ? 0 : 64 * ((trial_salt >> 8) % 61));
}

// Plants the values the benign fills carry: in-range but never the secret,
// so a trial that samples one of them recovers a wrong value rather than
// leaking.
void PlantNoise(Machine& m, uint64_t secret, uint32_t noise) {
  for (uint32_t i = 0; i < noise; i++) {
    m.PokeData(kNoiseBase + 64 * i, (secret + 1 + i) % kCandidates);
  }
}

// Emits a mispredicted-branch shield: a branch on a flushed guard variable,
// trained taken, actually not taken, so the body only ever runs transiently.
// Returns the branch's instruction index (for predictor training).
int32_t EmitFlushedGuard(ProgramBuilder& b, Label* spec, Label* done) {
  *spec = b.NewLabel();
  *done = b.NewLabel();
  b.MovImm(1, static_cast<int64_t>(kGuardAddr));
  b.Load(2, MemRef{.base = 1});
  const int32_t branch_index = b.NextIndex();
  b.BranchNz(2, *spec);
  b.Jmp(*done);
  b.Bind(*spec);
  return branch_index;
}

void TrainGuard(Machine& m, const Program& p, int32_t branch_index) {
  SPECBENCH_CHECK(p.at(branch_index).op == Op::kBranchNz);
  m.PokeData(kGuardAddr, 0);
  TrainTaken(m, p.VaddrOf(branch_index));
  m.caches().Clflush(kGuardAddr);
}

// Whether the attacker can ever run co-resident with its victim: nosmt
// removes the sibling thread, core scheduling refuses to pair the two
// mutually distrusting processes on one core.
bool CoResidencePossible(const MitigationConfig& c) {
  return !c.smt_off && !c.core_scheduling;
}

// Spectre V1 (bounds check bypass) against array code; kernel index masking
// applies the cmov hardening.
AttackSpec SpectreV1() {
  return {
      .name = "spectre-v1",
      .label = "Spectre V1 (bounds check bypass)",
      .canonical_secret = 7,
      .knobs = {SuiteKnob::kKernelIndexMasking},
      .vulnerable = [](const CpuModel& cpu) { return cpu.vuln.spectre_v1; },
      .defended =
          [](const CpuModel&, const MitigationConfig& c) {
            // lfence_after_swapgs covers the swapgs variant: the wrong path
            // runs past a swapgs (it is not in the stop set), but this
            // scenario does not build that variant; only masking defends the
            // array gadget.
            return c.kernel_index_masking;
          },
      .run =
          [](const CpuModel& cpu, const MitigationConfig& c, uint64_t secret, uint64_t) {
            return ReplaySpectreV1(
                cpu,
                BuildSpectreV1Victim(c.kernel_index_masking ? V1Variant::kMasked
                                                            : V1Variant::kNaked),
                secret);
          },
  };
}

// Spectre V2 (branch target injection). The victim's indirect branch is
// protected with the kernel's emitter (src/os/kernel.h): the generic thunk,
// AMD's lfence before the call, or nothing; IBPB runs between the
// attacker's training and the victim, IBRS is set throughout. The attacker
// trains from a separate call site in the same process.
AttackSpec SpectreV2() {
  return {
      .name = "spectre-v2",
      .label = "Spectre V2 (cross-site branch target injection)",
      .canonical_secret = 5,
      .knobs = {SuiteKnob::kRetpoline, SuiteKnob::kIbpb, SuiteKnob::kIbrs},
      .vulnerable =
          [](const CpuModel& cpu) {
            // Zen 3's context-indexed BTB defeats cross-site training
            // outright (paper §6.2) — the mitigation isn't required.
            return cpu.vuln.spectre_v2 && !cpu.predictor.btb_bhb_indexed;
          },
      .defended =
          [](const CpuModel& cpu, const MitigationConfig& c) {
            if (c.retpoline != RetpolineMode::kNone || c.ibpb_on_context_switch) {
              return true;
            }
            // IBRS stops this same-mode user->user attack only with the
            // legacy "blocks all prediction" semantics; eIBRS mode-tagging
            // does not (attack_test SpectreV2UnderIbrs).
            return c.ibrs != IbrsMode::kOff && cpu.predictor.ibrs_supported &&
                   !cpu.predictor.eibrs;
          },
      .run =
          [](const CpuModel& cpu, const MitigationConfig& c, uint64_t secret, uint64_t) {
            const bool ibrs = c.ibrs != IbrsMode::kOff;
            if (ibrs && !cpu.predictor.ibrs_supported) {
              AttackResult result;  // no IBRS bit to set (Table 10's N/A)
              result.attempted = false;
              return result;
            }
            ProgramBuilder b;
            Label victim_label = b.NewLabel();
            Label retpoline = b.NewLabel();
            EmitSecretGadget(b);

            // The victim function: loads a function pointer and calls
            // through it, protected as the kernel protects its dispatch.
            b.BindSymbol("victim_fn");
            b.Bind(victim_label);
            b.MovImm(2, static_cast<int64_t>(kPtrSlot));
            b.Clflush(MemRef{.base = 2});  // target resolves slowly: wide window
            b.Load(11, MemRef{.base = 2});
            EmitProtectedIndirectCall(b, c.retpoline, 11, retpoline);
            b.Ret();
            EmitRetpolineThunk(b, retpoline, 11);  // entered only by the generic call

            // Attacker: repeatedly call the victim function with the pointer
            // aimed at the gadget, training the BTB entry of the indirect
            // call inside it.
            b.BindSymbol("attacker_entry");
            Label train_loop = b.NewLabel();
            b.MovImm(3, 6);
            b.Bind(train_loop);
            b.Call(victim_label);
            b.AluImm(AluOp::kSub, 3, 3, 1);
            b.BranchNz(3, train_loop);
            b.Halt();

            // Victim run: a single call with the pointer now pointing at
            // benign code.
            b.BindSymbol("victim_entry");
            b.Call(victim_label);
            b.Halt();
            const Program p = b.Build();

            return ProbeTrial(
                cpu, secret,
                [&](Machine& m) {
                  m.LoadProgram(&p);
                  m.SetReg(kRegSp, kStackTop);
                  m.SetIbrs(ibrs);
                  m.PokeData(kSecretSlot, secret);
                  // Train (the gadget also runs architecturally here; the
                  // channel is flushed before the victim run, as a real
                  // attacker would).
                  m.PokeData(kPtrSlot, p.SymbolVaddr("gadget"));
                  m.Run(p.SymbolVaddr("attacker_entry"));
                  if (c.ibpb_on_context_switch) {
                    m.btb().FlushAll();  // the kernel's IBPB on the switch
                  }
                  m.PokeData(kPtrSlot, p.SymbolVaddr("benign"));
                },
                [&](Machine& m) { m.Run(p.SymbolVaddr("victim_entry")); });
          },
  };
}

// SpectreRSB: a victim ret whose RSB entry was lost (e.g. across a context
// switch) falls back to an attacker-trained BTB entry. RSB stuffing refills
// the RSB with benign entries, the kernel mitigation from §5.3.
AttackSpec SpectreRsb() {
  return {
      .name = "spectre-rsb",
      .label = "SpectreRSB (return stack underflow)",
      .canonical_secret = 9,
      .knobs = {SuiteKnob::kRsbStuff},
      // Trained at the victim's own context, so even Zen 3 speculates.
      .vulnerable = [](const CpuModel& cpu) { return cpu.vuln.spectre_v2; },
      .defended = [](const CpuModel&,
                     const MitigationConfig& c) { return c.rsb_stuff_on_context_switch; },
      .run =
          [](const CpuModel& cpu, const MitigationConfig& c, uint64_t secret, uint64_t) {
            return ReplaySpectreRsb(cpu, BuildSpectreRsbVictim(),
                                    c.rsb_stuff_on_context_switch, secret);
          },
  };
}

// Spectre V2 across SMT siblings: the attacker hyperthread trains the
// shared BTB; the victim sibling's indirect branch then speculates to the
// gadget. STIBP (single-threaded indirect branch predictors) partitions the
// predictor between siblings — the companion knob to IBPB that Linux 5.16's
// default changes also covered [Larabel 2021].
AttackSpec SpectreV2Smt() {
  return {
      .name = "spectre-v2-smt",
      .label = "Spectre V2 across SMT siblings",
      .canonical_secret = 12,
      .knobs = {SuiteKnob::kSmtOff, SuiteKnob::kStibp, SuiteKnob::kCoreSched},
      .vulnerable =
          [](const CpuModel& cpu) {
            // Needs a sibling (Zen 1 has none) and a BTB poisonable from
            // another context (Zen 3's is not, even intra-core — probed
            // empirically).
            return cpu.vuln.spectre_v2 && cpu.smt && !cpu.predictor.btb_bhb_indexed;
          },
      .defended =
          [](const CpuModel&, const MitigationConfig& c) {
            // Three defenses, in ascending cost: STIBP partitions the
            // predictor between the still-co-resident siblings; core
            // scheduling keeps the attacker off the sibling; nosmt removes
            // the sibling outright.
            return c.smt_off || c.core_scheduling || c.stibp;
          },
      .run =
          [](const CpuModel& cpu, const MitigationConfig& c, uint64_t secret, uint64_t) {
            if (!CoResidencePossible(c)) {
              // No sibling exists (nosmt) or the scheduler never pairs the
              // two (core scheduling): the attack simply cannot run.
              AttackResult result;
              result.expected = secret;
              return result;
            }
            ProgramBuilder b;
            Label victim_call_site = b.NewLabel();
            EmitSecretGadget(b);

            // Shared code both hyperthreads execute: an indirect call
            // through a per-thread pointer slot whose address arrives in
            // r1. One call-site PC, so one BTB entry — partitioned between
            // the siblings only when STIBP tags it with the thread id.
            b.BindSymbol("do_call");
            b.Bind(victim_call_site);
            b.Clflush(MemRef{.base = 1});  // the target resolves slowly: wide window
            b.Load(3, MemRef{.base = 1});
            b.IndirectCall(3);
            b.Ret();

            // Attacker thread: train the shared call site at the gadget,
            // then flush the probe array (arming flush+reload — the
            // training calls ran the gadget architecturally) and leave the
            // core.
            b.BindSymbol("attacker");
            Label train = b.NewLabel();
            b.MovImm(1, static_cast<int64_t>(kPtrSlot));
            b.MovImm(4, 6);
            b.Bind(train);
            b.Call(victim_call_site);
            b.AluImm(AluOp::kSub, 4, 4, 1);
            b.BranchNz(4, train);
            for (uint64_t i = 0; i < kCandidates; i++) {
              b.MovImm(5, static_cast<int64_t>(kProbeBase + (i << 12)));
              b.Clflush(MemRef{.base = 5});
            }
            b.Halt();

            // Victim thread: spin past the attacker's training window, then
            // one call through its own pointer, which points at benign code.
            b.BindSymbol("victim");
            Label spin = b.NewLabel();
            b.MovImm(1, static_cast<int64_t>(kPtrSlot2));
            b.MovImm(4, 96);
            b.Bind(spin);
            b.AluImm(AluOp::kSub, 4, 4, 1);
            b.BranchNz(4, spin);
            b.Call(victim_call_site);
            b.Halt();
            const Program p = b.Build();

            return ProbeTrial(
                cpu, secret,
                [&](Machine& m) {
                  m.LoadProgram(&p);
                  m.PokeData(kSecretSlot, secret);
                  m.PokeData(kPtrSlot, p.SymbolVaddr("gadget"));
                  m.PokeData(kPtrSlot2, p.SymbolVaddr("benign"));
                },
                // Genuinely co-resident: the attacker trains from the
                // sibling while the victim spins, in one lockstep co-run on
                // the shared predictors. With STIBP each context's BTB
                // entries carry its own thread tag, so the victim's
                // prediction never sees the attacker's training.
                [&](Machine& m) { RunSiblings(m, p, c.stibp); });
          },
  };
}

// Meltdown: user-mode transient read of kernel memory. PTI unmaps the kernel
// page from the user address space.
AttackSpec Meltdown() {
  return {
      .name = "meltdown",
      .label = "Meltdown (user read of kernel memory)",
      .canonical_secret = 11,
      .knobs = {SuiteKnob::kPti},
      .vulnerable = [](const CpuModel& cpu) { return cpu.vuln.meltdown; },
      .defended = [](const CpuModel&, const MitigationConfig& c) { return c.pti; },
      .run =
          [](const CpuModel& cpu, const MitigationConfig& c, uint64_t secret, uint64_t) {
            ProgramBuilder b;
            Label spec;
            Label done;
            const int32_t branch_index = EmitFlushedGuard(b, &spec, &done);
            b.MovImm(3, static_cast<int64_t>(kSecretSlot));
            b.Load(4, MemRef{.base = 3});  // the Meltdown read
            EmitEncode(b, 4, 5, 6);
            b.Bind(done);
            b.Halt();
            const Program p = b.Build();

            return ProbeTrial(
                cpu, secret,
                [&](Machine& m) {
                  m.SetMemoryMap(&AttackMap(c.pti ? SecretPage::kAbsent : SecretPage::kSupervisor,
                                            AttackerPage::kUnmapped));
                  m.LoadProgram(&p);
                  m.SetMode(Mode::kUser);
                  if (!c.pti) {
                    m.PokeData(kSecretSlot, secret);  // via kernel-privileged PokeData
                  } else {
                    // With PTI the page is not in this address space at
                    // all; the secret lives only in the kernel's (not
                    // simulated here).
                    m.physical_memory().Write(kSecretSlot, secret);
                  }
                  TrainGuard(m, p, branch_index);
                },
                [&](Machine& m) { m.Run(p.VaddrOf(0)); });
          },
  };
}

// MDS / RIDL: sample stale fill-buffer data. The patched verw clears the
// buffers between the victim access and the attack.
AttackSpec Mds() {
  return {
      .name = "mds",
      .label = "MDS / RIDL (fill-buffer sampling at a transition)",
      .canonical_secret = 6,
      .knobs = {SuiteKnob::kMdsClearBuffers},
      .vulnerable = [](const CpuModel& cpu) { return cpu.vuln.mds; },
      .defended = [](const CpuModel&, const MitigationConfig& c) { return c.mds_clear_buffers; },
      .run =
          [](const CpuModel& cpu, const MitigationConfig& c, uint64_t secret,
             uint64_t trial_salt) {
            ProgramBuilder b;
            // Victim: load the secret (fills a line-fill buffer), plus any
            // benign trial fills — cold lines, so each load refills another
            // buffer entry.
            const uint32_t noise = NoiseFillCount(trial_salt);
            b.MovImm(12, static_cast<int64_t>(kSecretSlot));
            b.Load(13, MemRef{.base = 12});
            for (uint32_t i = 0; i < noise; i++) {
              b.MovImm(9, static_cast<int64_t>(kNoiseBase + 64 * i));
              b.Load(10, MemRef{.base = 9});
            }
            b.Lfence();
            if (c.mds_clear_buffers) {
              b.Verw();
            }
            // Attacker: division-delayed mispredicted branch; wrong path
            // samples the fill buffers through a faulting load.
            Label spec = b.NewLabel();
            Label done = b.NewLabel();
            b.MovImm(1, 7);
            b.DivImm(2, 1, 9);
            const int32_t branch_index = b.NextIndex();
            b.BranchNz(2, spec);
            b.Jmp(done);
            b.Bind(spec);
            b.MovImm(3, static_cast<int64_t>(SampleVaddr(trial_salt)));
            b.Load(4, MemRef{.base = 3});
            EmitEncode(b, 4, 5, 6);
            b.Bind(done);
            b.Halt();
            const Program p = b.Build();

            return ProbeTrial(
                cpu, secret,
                [&](Machine& m) {
                  m.SetMemoryMap(&AttackMap(SecretPage::kUser, AttackerPage::kUnmapped));
                  m.LoadProgram(&p);
                  m.PokeData(kSecretSlot, secret);
                  PlantNoise(m, secret, noise);
                  m.caches().Clflush(kSecretSlot);  // so the victim load refills the LFB
                  TrainTaken(m, p.VaddrOf(branch_index));
                },
                [&](Machine& m) { m.Run(p.VaddrOf(0)); });
          },
  };
}

// MDS across SMT siblings (paper §3.3): with hyperthreading, the attacker
// samples fill buffers *while* the victim runs on the same physical core —
// no privilege crossing separates them, so verw-on-transition cannot help;
// only taking the sibling away does. Without a sibling the attacker only
// runs after a context switch, which executes verw when configured. The
// trial salt interleaves benign fills with the victim's secret refills and
// moves the sampling load, as for MDS.
AttackSpec MdsSmt() {
  return {
      .name = "mds-smt",
      .label = "MDS across SMT siblings",
      .canonical_secret = 10,
      .knobs = {SuiteKnob::kSmtOff, SuiteKnob::kCoreSched, SuiteKnob::kMdsClearBuffers},
      .vulnerable = [](const CpuModel& cpu) { return cpu.vuln.mds && cpu.smt; },
      .defended =
          [](const CpuModel&, const MitigationConfig& c) {
            // Co-residence must be impossible (nosmt or core scheduling)
            // AND verw must clear the residue at the switch (paper §3.3):
            // with a live sibling, verw guards no transition; without verw,
            // stale fill-buffer data survives the context switch into the
            // attacker's slice. STIBP partitions predictors, not fill
            // buffers — it does nothing here.
            return !CoResidencePossible(c) && c.mds_clear_buffers;
          },
      .run =
          [](const CpuModel& cpu, const MitigationConfig& c, uint64_t secret,
             uint64_t trial_salt) {
            // One program, two threads. The victim repeatedly pulls its
            // secret line through the fill buffers; the attacker runs the
            // one-shot sampling gadget.
            ProgramBuilder b;
            const uint32_t noise = NoiseFillCount(trial_salt);
            b.BindSymbol("victim");
            Label vloop = b.NewLabel();
            b.MovImm(0, 24);  // iterations
            b.MovImm(1, static_cast<int64_t>(kSecretSlot));
            b.Bind(vloop);
            b.Load(2, MemRef{.base = 1});
            b.Clflush(MemRef{.base = 1});  // so the next access refills the LFB
            for (uint32_t i = 0; i < noise; i++) {
              // Benign victim traffic interleaved with the secret refills,
              // so the fill-buffer ring holds a mixture and a sample is not
              // a sure leak.
              b.MovImm(9, static_cast<int64_t>(kNoiseBase + 64 * i));
              b.Load(10, MemRef{.base = 9});
              b.Clflush(MemRef{.base = 9});
            }
            b.AluImm(AluOp::kSub, 0, 0, 1);
            b.BranchNz(0, vloop);
            b.Halt();

            b.BindSymbol("attacker");
            Label spec = b.NewLabel();
            Label done = b.NewLabel();
            b.MovImm(3, 7);
            b.DivImm(4, 3, 9);  // slow zero: the misprediction window
            const int32_t branch_index = b.NextIndex();
            b.BranchNz(4, spec);
            b.Jmp(done);
            b.Bind(spec);
            b.MovImm(5, static_cast<int64_t>(SampleVaddr(trial_salt)));
            b.Load(6, MemRef{.base = 5});  // faulting load -> fill-buffer sample
            EmitEncode(b, 6, 7, 8);
            b.Bind(done);
            b.Halt();
            const Program p = b.Build();
            const uint64_t branch = p.VaddrOf(branch_index);

            return ProbeTrial(
                cpu, secret,
                [&](Machine& m) {
                  m.SetMemoryMap(&AttackMap(SecretPage::kUser, AttackerPage::kUnmapped));
                  m.LoadProgram(&p);
                  m.PokeData(kSecretSlot, secret);
                  PlantNoise(m, secret, noise);
                },
                [&](Machine& m) {
                  if (CoResidencePossible(c)) {
                    // SMT siblings genuinely co-resident: the victim streams
                    // its secret through the core-shared fill buffers while
                    // the attacker's sampling gadget runs in the arbiter's
                    // alternate fetch granules. No privilege transition ever
                    // separates them, so verw has no place to run.
                    TrainTaken(m, branch);
                    RunSiblings(m, p, /*stibp=*/false);
                    return;
                  }
                  // No sibling: the attacker only gets the core after the
                  // victim's time slice ends — a context switch, which runs
                  // verw when configured.
                  m.Run(p.SymbolVaddr("victim"));
                  if (c.mds_clear_buffers && cpu.vuln.mds) {
                    m.fill_buffers().Clear();
                    m.DrainStoreBuffer();
                  }
                  for (int i = 0; i < 4; i++) {
                    TrainTaken(m, branch);
                    m.Run(p.SymbolVaddr("attacker"));
                  }
                });
          },
  };
}

// Speculative Store Bypass: transient load reads memory under an unresolved
// store. SSBD disables the bypass.
AttackSpec Ssb() {
  return {
      .name = "ssb",
      .label = "Speculative Store Bypass",
      .canonical_secret = 3,
      .knobs = {SuiteKnob::kSsbd},
      .vulnerable = [](const CpuModel& cpu) { return cpu.vuln.spec_store_bypass; },
      .defended =
          [](const CpuModel&, const MitigationConfig& c) {
            // The suite's victim is an ordinary process: neither seccomp'd
            // nor prctl-opted-in, so only ssbd=kAlways actually disables the
            // bypass for it (src/os/kernel.cc SsbdActiveFor).
            return c.ssbd == SsbdMode::kAlways;
          },
      .run =
          [](const CpuModel& cpu, const MitigationConfig& c, uint64_t secret, uint64_t) {
            return ReplaySsb(cpu, BuildSsbVictim(/*mfence_after_store=*/false),
                             c.ssbd == SsbdMode::kAlways, secret);
          },
  };
}

// LazyFP: transient read of stale FPU registers left by a lazily-switched
// previous owner. Eager FPU switching clears them at switch time instead.
AttackSpec LazyFp() {
  return {
      .name = "lazyfp",
      .label = "LazyFP (stale FPU register read)",
      .canonical_secret = 4,
      .knobs = {SuiteKnob::kEagerFpu},
      .vulnerable = [](const CpuModel& cpu) { return cpu.vuln.lazy_fp; },
      .defended = [](const CpuModel&, const MitigationConfig& c) { return c.eager_fpu; },
      .run =
          [](const CpuModel& cpu, const MitigationConfig& c, uint64_t secret, uint64_t) {
            ProgramBuilder b;
            Label spec;
            Label done;
            const int32_t branch_index = EmitFlushedGuard(b, &spec, &done);
            b.FpToGp(4, 0);  // transient read of the stale register
            EmitEncode(b, 4, 5, 6);
            b.Bind(done);
            b.Halt();
            const Program p = b.Build();

            AttackResult result = ProbeTrial(
                cpu, secret,
                [&](Machine& m) {
                  // The previous process left `secret` in fp0. With eager
                  // FPU the switch already replaced it with the new
                  // process's (zero) state.
                  if (c.eager_fpu) {
                    m.SetFpReg(0, 0);
                    m.SetFpuEnabled(true);
                  } else {
                    m.SetFpReg(0, secret);
                    m.SetFpuEnabled(false);
                    m.SetFpTrapHook([](Machine& machine) {
                      // The lazy-switch trap handler would swap in the
                      // current process's state; the transient window exists
                      // only before the trap commits.
                      machine.SetFpReg(0, 0);
                      machine.SetFpuEnabled(true);
                    });
                  }
                  m.LoadProgram(&p);
                  TrainGuard(m, p, branch_index);
                },
                [&](Machine& m) { m.Run(p.VaddrOf(0)); });
            if (c.eager_fpu && result.recovered == 0) {
              // Encoding a zero is indistinguishable from "leaked the
              // cleared reg"; either way the secret did not leak.
              result.leaked = false;
            }
            return result;
          },
  };
}

// L1 Terminal Fault: transient read through a non-present PTE whose stale
// physical address points at victim data resident in the L1. PTE inversion
// makes the kernel scramble the address so it points nowhere.
AttackSpec L1tf() {
  return {
      .name = "l1tf",
      .label = "L1 Terminal Fault",
      .canonical_secret = 13,
      .knobs = {SuiteKnob::kL1tfPteInversion},
      .vulnerable = [](const CpuModel& cpu) { return cpu.vuln.l1tf; },
      .defended = [](const CpuModel&, const MitigationConfig& c) { return c.l1tf_pte_inversion; },
      .run =
          [](const CpuModel& cpu, const MitigationConfig& c, uint64_t secret, uint64_t) {
            ProgramBuilder b;
            Label spec;
            Label done;
            const int32_t branch_index = EmitFlushedGuard(b, &spec, &done);
            b.MovImm(3, static_cast<int64_t>(kStalePteBase));
            b.Load(4, MemRef{.base = 3});  // through the non-present PTE
            EmitEncode(b, 4, 5, 6);
            b.Bind(done);
            b.Halt();
            const Program p = b.Build();

            return ProbeTrial(
                cpu, secret,
                [&](Machine& m) {
                  // The victim's secret lives at physical address
                  // kSecretSlot, mapped kernel-only at the same virtual
                  // address; the attacker's PTE still points at it unless
                  // inverted.
                  m.SetMemoryMap(&AttackMap(SecretPage::kSupervisor,
                                            c.l1tf_pte_inversion ? AttackerPage::kStaleToNothing
                                                                 : AttackerPage::kStaleToSecret));
                  // Victim step: kernel touches the secret, leaving it in
                  // the L1.
                  m.PokeData(kSecretSlot, secret);
                  m.caches().Access(kSecretSlot);
                  m.LoadProgram(&p);
                  m.SetMode(Mode::kUser);
                  TrainGuard(m, p, branch_index);
                },
                [&](Machine& m) { m.Run(p.VaddrOf(0)); });
          },
  };
}

// SMoTherSpectre (port contention across SMT siblings): the attacker times
// its own instruction stream while the victim executes secret-dependent
// code — divider chains vs ALU streams — on the sibling hardware thread of
// the same core; the shared-port pressure shifts the attacker's completion
// time, one bit per measurement. No predictor state is involved, so STIBP
// does not help: only taking the sibling away does (nosmt, or core
// scheduling refusing to pair the two processes).
AttackSpec SmotherSpectre() {
  // One measurement per secret *bit*. The victim extracts the bit and, when
  // set, issues a chained divider sequence (latency-bound: few issue slots,
  // the shared divider busy for a long stretch); when clear, an equal-length
  // ALU stream (issue-bound: every slot contended). The attacker runs a
  // fixed ALU stream on the sibling thread and reads the only clock it has —
  // its own completion time, which the victim's port pressure shifts.
  // Without co-residence the attacker times its stream alone and every bit
  // measures the same.
  constexpr int kBodyLen = 64;
  constexpr int kAttackerLen = 96;
  // The program of bit `bit` depends on nothing else (not the CPU, config,
  // secret or salt), so the four are built once, here, and shared: a copied
  // spec and trials on any thread read the same immutable Programs.
  auto build = [](int bit) {
    ProgramBuilder b;
    Label div_path = b.NewLabel();
    Label vdone = b.NewLabel();
    b.BindSymbol("victim");
    b.MovImm(1, static_cast<int64_t>(kSecretSlot));
    b.Load(2, MemRef{.base = 1});
    b.AluImm(AluOp::kShr, 2, 2, bit);
    b.AluImm(AluOp::kAnd, 2, 2, 1);
    b.BranchNz(2, div_path);
    for (int i = 0; i < kBodyLen; i++) {
      b.AluImm(AluOp::kAdd, 3, 3, 1);
    }
    b.Jmp(vdone);
    b.Bind(div_path);
    b.MovImm(4, 1);
    for (int i = 0; i < kBodyLen; i++) {
      b.DivImm(4, 4, 3);  // each division waits on the previous quotient
    }
    b.Bind(vdone);
    b.Halt();

    b.BindSymbol("attacker");
    for (int i = 0; i < kAttackerLen; i++) {
      b.AluImm(AluOp::kAdd, 5, 5, 1);
    }
    b.Halt();
    return b.Build();
  };
  const auto programs = std::make_shared<const std::array<Program, 4>>(
      std::array<Program, 4>{build(0), build(1), build(2), build(3)});

  return {
      .name = "smother-spectre",
      .label = "SMoTherSpectre (port contention across SMT siblings)",
      .canonical_secret = 14,
      .knobs = {SuiteKnob::kSmtOff, SuiteKnob::kCoreSched},
      // Any part with a sibling thread: the channel is execution-port
      // pressure, not a transient-execution flaw, so silicon fixes for
      // MDS/V2 (Ice Lake, Zen 3) do not help.
      .vulnerable = [](const CpuModel& cpu) { return cpu.smt; },
      .defended =
          [](const CpuModel&, const MitigationConfig& c) {
            // Only taking the sibling away works; STIBP partitions
            // predictor state, not ports, and is deliberately absent here —
            // the gap the pareto frontier prices.
            return !CoResidencePossible(c);
          },
      .run =
          [programs](const CpuModel& cpu, const MitigationConfig& c, uint64_t secret, uint64_t) {
            SPECBENCH_CHECK(secret < kCandidates);
            const bool co_resident = CoResidencePossible(c);

            auto measure = [&](int bit, uint64_t planted) -> uint64_t {
              MachineLease lease(cpu);
              Machine& m = *lease;
              const Program& p = (*programs)[static_cast<size_t>(bit)];
              m.LoadProgram(&p);
              m.PokeData(kSecretSlot, planted);
              if (co_resident) {
                return RunSiblings(m, p, /*stibp=*/false);
              }
              // The victim ran in its own time slice; the attacker's
              // self-timed stream has the whole core to itself.
              m.Run(p.SymbolVaddr("victim"));
              const uint64_t before = m.cycles();
              m.Run(p.SymbolVaddr("attacker"));
              return m.cycles() - before;
            };

            AttackResult result;
            result.expected = secret;
            int recovered = 0;
            for (int bit = 0; bit < 4; bit++) {
              const uint64_t clear = measure(bit, 0);
              const uint64_t set = measure(bit, 0xF);
              const uint64_t observed = measure(bit, secret);
              // Deterministic simulation: the observation matches one
              // calibration exactly. No contrast (clear == set) means no
              // co-resident signal, and the bit reads as 0.
              if (set != clear && observed == set) {
                recovered |= 1 << bit;
              }
            }
            result.recovered = recovered;
            result.leaked = static_cast<uint64_t>(recovered) == secret;
            return result;
          },
  };
}

}  // namespace

const std::vector<AttackSpec>& AttackSuite() {
  static const std::vector<AttackSpec> suite = {
      SpectreV1(), SpectreV2(), SpectreRsb(), SpectreV2Smt(), Meltdown(), Mds(),
      MdsSmt(),    Ssb(),       LazyFp(),     L1tf(),         SmotherSpectre(),
  };
  return suite;
}

}  // namespace specbench
