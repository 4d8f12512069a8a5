#include "src/attack/attacks.h"

#include "src/attack/kit.h"
#include "src/attack/side_channel.h"
#include "src/isa/program.h"
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
uint32_t NoiseFillCount(uint64_t trial_salt) {
  return trial_salt == 0 ? 0 : 1 + static_cast<uint32_t>(trial_salt % 3);
}

uint64_t SampleVaddr(uint64_t trial_salt) {
  // 61 * 64 < kPageBytes, so every offset stays inside the unmapped page.
  return kMdsSampleBase + (trial_salt == 0 ? 0 : 64 * ((trial_salt >> 8) % 61));
}

// Values the benign fills carry: in-range but never the secret, so a trial
// that samples one of them recovers a wrong value rather than leaking.
uint64_t NoiseValue(uint64_t secret, uint32_t i) {
  return (secret + 1 + i) % kCandidates;
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
  m.cond_predictor().Train(p.VaddrOf(branch_index), true);
  m.cond_predictor().Train(p.VaddrOf(branch_index), true);
  m.caches().Clflush(kGuardAddr);
}

}  // namespace

AttackResult RunSpectreV1Attack(const CpuModel& cpu, bool index_masking, uint64_t secret) {
  return ReplaySpectreV1(
      cpu, BuildSpectreV1Victim(index_masking ? V1Variant::kMasked : V1Variant::kNaked), secret);
}

AttackResult RunSpectreV2Attack(const CpuModel& cpu, const SpectreV2Options& options,
                                uint64_t secret) {
  SPECBENCH_CHECK(secret < kCandidates);
  if (options.ibrs && !cpu.predictor.ibrs_supported) {
    AttackResult result;
    result.attempted = false;
    return result;
  }
  MachineLease lease(cpu);
  Machine& m = *lease;
  ProgramBuilder b;

  Label victim_label = b.NewLabel();
  Label retpoline = b.NewLabel();
  Label rp_setup = b.NewLabel();
  Label rp_spin = b.NewLabel();

  // Gadget the attacker wants executed transiently: read and encode secret.
  b.BindSymbol("gadget");
  b.MovImm(5, static_cast<int64_t>(kSecretSlot));
  b.Load(6, MemRef{.base = 5});
  EmitEncode(b, 6, 7, 8);
  b.Ret();

  b.BindSymbol("benign");
  b.Ret();

  // The victim function: loads a function pointer and calls through it,
  // protected (or not) by a generic retpoline.
  b.BindSymbol("victim_fn");
  b.Bind(victim_label);
  b.MovImm(2, static_cast<int64_t>(kPtrSlot));
  b.Clflush(MemRef{.base = 2});  // target resolves slowly: wide window
  b.Load(11, MemRef{.base = 2});
  if (options.generic_retpoline) {
    b.Call(retpoline);
  } else {
    b.IndirectCall(11);
  }
  b.Ret();

  b.Bind(retpoline);  // unreachable when the retpoline option is off
  b.Call(rp_setup);
  b.Bind(rp_spin);
  b.Pause();
  b.Lfence();
  b.Jmp(rp_spin);
  b.Bind(rp_setup);
  b.Store(MemRef{.base = kRegSp}, 11);
  b.Ret();

  // Attacker: repeatedly call the victim function with the pointer aimed at
  // the gadget, training the BTB entry of the indirect call inside it.
  b.BindSymbol("attacker_entry");
  Label train_loop = b.NewLabel();
  b.MovImm(3, 6);
  b.Bind(train_loop);
  b.Call(victim_label);
  b.AluImm(AluOp::kSub, 3, 3, 1);
  b.BranchNz(3, train_loop);
  b.Halt();

  // Victim run: a single call with the pointer now pointing at benign code.
  b.BindSymbol("victim_entry");
  b.Call(victim_label);
  b.Halt();

  Program p = b.Build();
  m.LoadProgram(&p);
  m.SetReg(kRegSp, kStackTop);
  m.SetIbrs(options.ibrs);
  m.PokeData(kSecretSlot, secret);

  // Train (the gadget also runs architecturally here; the channel is
  // flushed before the victim run, as a real attacker would).
  m.PokeData(kPtrSlot, p.SymbolVaddr("gadget"));
  m.Run(p.SymbolVaddr("attacker_entry"));

  if (options.ibpb_before_victim) {
    m.btb().FlushAll();  // the kernel's IBPB on the attacker->victim switch
  }
  m.PokeData(kPtrSlot, p.SymbolVaddr("benign"));
  AttackProbeChannel().Flush(m);
  m.Run(p.SymbolVaddr("victim_entry"));
  return ReadAttackResult(m, secret);
}

AttackResult RunSpectreRsbAttack(const CpuModel& cpu, bool rsb_stuffing, uint64_t secret) {
  return ReplaySpectreRsb(cpu, BuildSpectreRsbVictim(), rsb_stuffing, secret);
}

AttackResult RunMeltdownAttack(const CpuModel& cpu, bool pti, uint64_t secret) {
  SPECBENCH_CHECK(secret < kCandidates);
  MachineLease lease(cpu);
  Machine& m = *lease;

  // Address space: everything user-accessible except the kernel page, which
  // is supervisor-only without PTI and entirely unmapped with PTI.
  class MeltdownMap : public MemoryMap {
   public:
    explicit MeltdownMap(bool pti) : pti_(pti) {}
    Translation Translate(uint64_t vaddr, uint64_t, Mode mode) const override {
      Translation t;
      const bool kernel_page = vaddr >= kSecretSlot && vaddr < kSecretSlot + kPageBytes;
      if (kernel_page && pti_) {
        return t;  // unmapped in the user view
      }
      t.mapped = true;
      t.present = true;
      t.paddr = vaddr;
      t.user_accessible = !kernel_page;
      const bool user = mode == Mode::kUser || mode == Mode::kGuestUser;
      t.valid = t.user_accessible || !user;
      return t;
    }
    bool pti_;
  };
  static MeltdownMap no_pti_map(false);
  static MeltdownMap pti_map(true);
  m.SetMemoryMap(pti ? static_cast<const MemoryMap*>(&pti_map) : &no_pti_map);

  ProgramBuilder b;
  Label spec;
  Label done;
  const int32_t branch_index = EmitFlushedGuard(b, &spec, &done);
  b.MovImm(3, static_cast<int64_t>(kSecretSlot));
  b.Load(4, MemRef{.base = 3});  // the Meltdown read
  EmitEncode(b, 4, 5, 6);
  b.Bind(done);
  b.Halt();
  Program p = b.Build();
  m.LoadProgram(&p);
  m.SetMode(Mode::kUser);
  if (!pti) {
    m.PokeData(kSecretSlot, secret);  // via kernel-privileged PokeData
  } else {
    // With PTI the page is not in this address space at all; the secret
    // lives only in the kernel's (not simulated here).
    m.physical_memory().Write(kSecretSlot, secret);
  }
  TrainGuard(m, p, branch_index);
  AttackProbeChannel().Flush(m);
  m.Run(p.VaddrOf(0));
  return ReadAttackResult(m, secret);
}

AttackResult RunMdsAttack(const CpuModel& cpu, bool verw_clear, uint64_t secret,
                          uint64_t trial_salt) {
  SPECBENCH_CHECK(secret < kCandidates);
  MachineLease lease(cpu);
  Machine& m = *lease;
  m.SetMemoryMap(&MdsSampleMap());

  ProgramBuilder b;
  // Victim: load the secret (fills a line-fill buffer), plus any benign
  // trial fills — cold lines, so each load refills another buffer entry.
  const uint32_t noise = NoiseFillCount(trial_salt);
  b.MovImm(12, static_cast<int64_t>(kSecretSlot));
  b.Load(13, MemRef{.base = 12});
  for (uint32_t i = 0; i < noise; i++) {
    b.MovImm(9, static_cast<int64_t>(kNoiseBase + 64 * i));
    b.Load(10, MemRef{.base = 9});
  }
  b.Lfence();
  if (verw_clear) {
    b.Verw();
  }
  // Attacker: division-delayed mispredicted branch; wrong path samples the
  // fill buffers through a faulting load.
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
  Program p = b.Build();
  m.LoadProgram(&p);
  m.PokeData(kSecretSlot, secret);
  for (uint32_t i = 0; i < noise; i++) {
    m.PokeData(kNoiseBase + 64 * i, NoiseValue(secret, i));
  }
  m.caches().Clflush(kSecretSlot);  // so the victim load refills the LFB
  m.cond_predictor().Train(p.VaddrOf(branch_index), true);
  m.cond_predictor().Train(p.VaddrOf(branch_index), true);
  AttackProbeChannel().Flush(m);
  m.Run(p.VaddrOf(0));
  return ReadAttackResult(m, secret);
}

AttackResult RunSpectreV2SmtAttack(const CpuModel& cpu, bool stibp, uint64_t secret) {
  SPECBENCH_CHECK(secret < kCandidates);
  MachineLease lease(cpu);
  Machine& m = *lease;
  ProgramBuilder b;

  Label victim_call_site = b.NewLabel();

  // The gadget the attacker wants the victim to run transiently.
  b.BindSymbol("gadget");
  b.MovImm(5, static_cast<int64_t>(kSecretSlot));
  b.Load(6, MemRef{.base = 5});
  EmitEncode(b, 6, 7, 8);
  b.Ret();

  b.BindSymbol("benign");
  b.Ret();

  // Shared code both hyperthreads execute: an indirect call through a
  // per-thread pointer slot whose address arrives in r1. One call-site PC,
  // so one BTB entry — partitioned between the siblings only when STIBP
  // tags it with the hardware thread id.
  b.BindSymbol("do_call");
  b.Bind(victim_call_site);
  b.Clflush(MemRef{.base = 1});  // the target resolves slowly: wide window
  b.Load(3, MemRef{.base = 1});
  b.IndirectCall(3);
  b.Ret();

  // Attacker thread: train the shared call site at the gadget, then flush
  // the probe array (arming flush+reload — the training calls ran the
  // gadget architecturally) and leave the core.
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

  // Victim thread: spin past the attacker's training window, then one call
  // through its own pointer, which points at benign code.
  b.BindSymbol("victim");
  Label spin = b.NewLabel();
  b.MovImm(1, static_cast<int64_t>(kPtrSlot2));
  b.MovImm(4, 96);
  b.Bind(spin);
  b.AluImm(AluOp::kSub, 4, 4, 1);
  b.BranchNz(4, spin);
  b.Call(victim_call_site);
  b.Halt();

  Program p = b.Build();
  m.LoadProgram(&p);
  m.PokeData(kSecretSlot, secret);
  m.PokeData(kPtrSlot, p.SymbolVaddr("gadget"));
  m.PokeData(kPtrSlot2, p.SymbolVaddr("benign"));
  AttackProbeChannel().Flush(m);

  // Genuinely co-resident: the attacker trains from the sibling hardware
  // thread while the victim spins, in one lockstep co-run on the shared
  // predictors. With STIBP each context's BTB entries carry its own thread
  // tag, so the victim's prediction never sees the attacker's training.
  Machine::CoResidentSpec victim;
  victim.program = &p;
  victim.entry_vaddr = p.SymbolVaddr("victim");
  victim.smt_thread_id = 0;
  victim.stibp = stibp;
  victim.initial_regs = {{kRegSp, kStackTop}};
  Machine::CoResidentSpec attacker;
  attacker.program = &p;
  attacker.entry_vaddr = p.SymbolVaddr("attacker");
  attacker.smt_thread_id = 1;
  attacker.stibp = stibp;
  attacker.initial_regs = {{kRegSp, kStackTop - 4096}};
  m.RunCoResident(victim, attacker);
  return ReadAttackResult(m, secret);
}

AttackResult RunMdsSmtAttack(const CpuModel& cpu, const MdsSmtOptions& options,
                             uint64_t secret, uint64_t trial_salt) {
  SPECBENCH_CHECK(secret < kCandidates);
  MachineLease lease(cpu);
  Machine& m = *lease;
  m.SetMemoryMap(&MdsSampleMap());

  // One program, two threads. The victim repeatedly pulls its secret line
  // through the fill buffers; the attacker runs the one-shot sampling gadget.
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
    // Benign victim traffic interleaved with the secret refills, so the
    // fill-buffer ring holds a mixture and a sample is not a sure leak.
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

  Program p = b.Build();
  m.LoadProgram(&p);
  m.PokeData(kSecretSlot, secret);
  for (uint32_t i = 0; i < noise; i++) {
    m.PokeData(kNoiseBase + 64 * i, NoiseValue(secret, i));
  }
  AttackProbeChannel().Flush(m);

  auto run_attacker_once = [&] {
    m.cond_predictor().Train(p.VaddrOf(branch_index), true);
    m.cond_predictor().Train(p.VaddrOf(branch_index), true);
    m.Run(p.SymbolVaddr("attacker"));
  };

  if (options.smt_enabled) {
    // SMT siblings genuinely co-resident: the victim streams its secret
    // through the core-shared fill buffers while the attacker's sampling
    // gadget runs in the arbiter's alternate fetch granules. No privilege
    // transition ever separates them, so verw has no place to run.
    m.cond_predictor().Train(p.VaddrOf(branch_index), true);
    m.cond_predictor().Train(p.VaddrOf(branch_index), true);
    Machine::CoResidentSpec victim;
    victim.program = &p;
    victim.entry_vaddr = p.SymbolVaddr("victim");
    victim.smt_thread_id = 0;
    Machine::CoResidentSpec attacker;
    attacker.program = &p;
    attacker.entry_vaddr = p.SymbolVaddr("attacker");
    attacker.smt_thread_id = 1;
    m.RunCoResident(victim, attacker);
  } else {
    // SMT off: the attacker only gets the core after the victim's time
    // slice ends — a context switch, which runs verw when configured.
    m.Run(p.SymbolVaddr("victim"));
    if (options.verw_on_switch && cpu.vuln.mds) {
      m.fill_buffers().Clear();
      m.DrainStoreBuffer();
    }
    for (int i = 0; i < 4; i++) {
      run_attacker_once();
    }
  }
  return ReadAttackResult(m, secret);
}

AttackResult RunSmotherSpectreAttack(const CpuModel& cpu, bool co_resident,
                                     uint64_t secret) {
  SPECBENCH_CHECK(secret < kCandidates);
  // One measurement per secret *bit*. The victim extracts the bit and, when
  // set, issues a chained divider sequence (latency-bound: few issue slots,
  // the shared divider busy for a long stretch); when clear, an equal-length
  // ALU stream (issue-bound: every slot contended). The attacker runs a
  // fixed ALU stream on the sibling thread and reads the only clock it has —
  // its own completion time, which the victim's port pressure shifts. The
  // channel needs genuine co-residence: with SMT off, or core scheduling
  // refusing to pair the distrusting processes, the attacker times its
  // stream alone and every bit measures the same.
  constexpr int kBodyLen = 64;
  constexpr int kAttackerLen = 96;

  auto measure = [&](int bit, uint64_t planted) -> uint64_t {
    MachineLease lease(cpu);
    Machine& m = *lease;
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

    Program p = b.Build();
    m.LoadProgram(&p);
    m.PokeData(kSecretSlot, planted);

    if (!co_resident) {
      // The victim ran in its own time slice; the attacker's self-timed
      // stream has the whole core to itself.
      m.Run(p.SymbolVaddr("victim"));
      const uint64_t before = m.cycles();
      m.Run(p.SymbolVaddr("attacker"));
      return m.cycles() - before;
    }
    Machine::CoResidentSpec victim;
    victim.program = &p;
    victim.entry_vaddr = p.SymbolVaddr("victim");
    victim.smt_thread_id = 0;
    Machine::CoResidentSpec attacker;
    attacker.program = &p;
    attacker.entry_vaddr = p.SymbolVaddr("attacker");
    attacker.smt_thread_id = 1;
    const Machine::CoResidentResult r = m.RunCoResident(victim, attacker);
    return r.thread[1].finish_cycles;
  };

  AttackResult result;
  result.expected = secret;
  int recovered = 0;
  for (int bit = 0; bit < 4; bit++) {
    const uint64_t clear = measure(bit, 0);
    const uint64_t set = measure(bit, 0xF);
    const uint64_t observed = measure(bit, secret);
    // Deterministic simulation: the observation matches one calibration
    // exactly. No contrast (clear == set) means no co-resident signal, and
    // the bit reads as 0.
    if (set != clear && observed == set) {
      recovered |= 1 << bit;
    }
  }
  result.recovered = recovered;
  result.leaked = static_cast<uint64_t>(recovered) == secret;
  return result;
}

AttackResult RunSsbAttack(const CpuModel& cpu, bool ssbd, uint64_t secret) {
  return ReplaySsb(cpu, BuildSsbVictim(/*mfence_after_store=*/false), ssbd, secret);
}

AttackResult RunLazyFpAttack(const CpuModel& cpu, bool eager_fpu, uint64_t secret) {
  SPECBENCH_CHECK(secret < kCandidates);
  MachineLease lease(cpu);
  Machine& m = *lease;
  // The previous process left `secret` in fp0. With eager FPU the switch
  // already replaced it with the new process's (zero) state.
  if (eager_fpu) {
    m.SetFpReg(0, 0);
    m.SetFpuEnabled(true);
  } else {
    m.SetFpReg(0, secret);
    m.SetFpuEnabled(false);
    m.SetFpTrapHook([](Machine& machine) {
      // The lazy-switch trap handler would swap in the current process's
      // state; the transient window exists only before the trap commits.
      machine.SetFpReg(0, 0);
      machine.SetFpuEnabled(true);
    });
  }
  ProgramBuilder b;
  Label spec;
  Label done;
  const int32_t branch_index = EmitFlushedGuard(b, &spec, &done);
  b.FpToGp(4, 0);  // transient read of the stale register
  EmitEncode(b, 4, 5, 6);
  b.Bind(done);
  b.Halt();
  Program p = b.Build();
  m.LoadProgram(&p);
  TrainGuard(m, p, branch_index);
  AttackProbeChannel().Flush(m);
  m.Run(p.VaddrOf(0));
  AttackResult result = ReadAttackResult(m, secret);
  if (eager_fpu && result.recovered == 0) {
    // Encoding a zero is indistinguishable from "leaked the cleared reg";
    // either way the secret did not leak.
    result.leaked = false;
  }
  return result;
}

AttackResult RunL1tfAttack(const CpuModel& cpu, bool pte_inversion, uint64_t secret) {
  SPECBENCH_CHECK(secret < kCandidates);
  MachineLease lease(cpu);
  Machine& m = *lease;
  // The victim's secret lives at physical address kSecretSlot and is mapped
  // (kernel-only) at the same virtual address. The attacker controls a
  // non-present PTE at kEvilVaddr whose physical address still points at the
  // secret — unless PTE inversion scrambled it.
  constexpr uint64_t kEvilVaddr = 0x52000000;
  class L1tfMap : public MemoryMap {
   public:
    explicit L1tfMap(bool inverted) : inverted_(inverted) {}
    Translation Translate(uint64_t vaddr, uint64_t, Mode mode) const override {
      Translation t;
      if (vaddr >= kEvilVaddr && vaddr < kEvilVaddr + kPageBytes) {
        t.mapped = true;
        t.present = false;
        // PTE inversion points the stale paddr at unpopulated memory.
        t.paddr = inverted_ ? 0xdead0000000ULL + (vaddr - kEvilVaddr)
                            : kSecretSlot + (vaddr - kEvilVaddr);
        t.user_accessible = true;
        t.valid = false;
        return t;
      }
      t.mapped = true;
      t.present = true;
      t.paddr = vaddr;
      const bool kernel_page = vaddr >= kSecretSlot && vaddr < kSecretSlot + kPageBytes;
      t.user_accessible = !kernel_page;
      const bool user = mode == Mode::kUser || mode == Mode::kGuestUser;
      t.valid = t.present && (!user || t.user_accessible);
      return t;
    }
    bool inverted_;
  };
  static L1tfMap plain_map(false);
  static L1tfMap inverted_map(true);
  m.SetMemoryMap(pte_inversion ? static_cast<const MemoryMap*>(&inverted_map) : &plain_map);

  // Victim step: kernel touches the secret, leaving it in the L1.
  m.PokeData(kSecretSlot, secret);
  m.caches().Access(kSecretSlot);

  ProgramBuilder b;
  Label spec;
  Label done;
  const int32_t branch_index = EmitFlushedGuard(b, &spec, &done);
  b.MovImm(3, static_cast<int64_t>(kEvilVaddr));
  b.Load(4, MemRef{.base = 3});  // through the non-present PTE
  EmitEncode(b, 4, 5, 6);
  b.Bind(done);
  b.Halt();
  Program p = b.Build();
  m.LoadProgram(&p);
  m.SetMode(Mode::kUser);
  TrainGuard(m, p, branch_index);
  AttackProbeChannel().Flush(m);
  m.Run(p.VaddrOf(0));
  return ReadAttackResult(m, secret);
}

}  // namespace specbench
