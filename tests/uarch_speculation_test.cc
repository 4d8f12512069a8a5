// Speculative-execution behaviour: the transient side effects that make the
// paper's attacks (and its Figure 6 probe) work, and the mitigations that
// stop them.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/cpu/cpu_model.h"
#include "src/isa/program.h"
#include "src/uarch/machine.h"

namespace specbench {
namespace {

#define ASSERT_OR_DIE(cond)                 \
  do {                                      \
    if (!(cond)) {                          \
      ADD_FAILURE() << "setup bug: " #cond; \
      return false;                         \
    }                                       \
  } while (0)

constexpr uint64_t kArrayBase = 0x1000000;   // victim array
constexpr uint64_t kLenAddr = 0x1100000;     // array length variable
constexpr uint64_t kSecretAddr = 0x1200000;  // out-of-bounds secret
constexpr uint64_t kProbeBase = 0x2000000;   // flush+reload probe array

// Emits the classic Spectre V1 gadget:
//   if (index < len) { x = array[index]; y = probe[x * 4096]; }
// with `index` in r0 and `len` loaded from memory (flushed by the caller so
// the bounds check resolves slowly). With `masked`, an index-masking cmov is
// inserted (the SpiderMonkey mitigation, paper §5.4).
void EmitV1Gadget(ProgramBuilder& b, bool masked) {
  Label in_bounds = b.NewLabel();
  Label done = b.NewLabel();
  b.MovImm(1, static_cast<int64_t>(kLenAddr));
  b.Load(2, MemRef{.base = 1});              // len (slow if flushed)
  b.Alu(AluOp::kCmpLt, 3, 0, 2);             // r3 = index < len
  b.BranchNz(3, in_bounds);
  b.Jmp(done);
  b.Bind(in_bounds);
  if (masked) {
    // index = (index < len) ? index : 0 — data dependency on the check.
    b.MovImm(4, 0);
    b.Alu(AluOp::kCmpGe, 5, 0, 2);
    b.Cmov(0, 4, 5);
  }
  b.MovImm(6, static_cast<int64_t>(kArrayBase));
  b.Load(7, MemRef{.base = 6, .index = 0, .scale = 8});   // x = array[index]
  b.AluImm(AluOp::kShl, 8, 7, 12);                        // x * 4096
  b.MovImm(9, static_cast<int64_t>(kProbeBase));
  b.Load(11, MemRef{.base = 9, .index = 8, .scale = 1});  // probe[x*4096]
  b.Bind(done);
  b.Halt();
}

struct V1Result {
  bool leaked = false;       // probe line for the secret value got cached
};

V1Result RunSpectreV1(Uarch uarch, bool masked) {
  Machine m(GetCpuModel(uarch));
  ProgramBuilder b;
  EmitV1Gadget(b, masked);
  Program p = b.Build();
  m.LoadProgram(&p);

  // Memory setup: array of 16 elements; secret placed right after it.
  for (uint64_t i = 0; i < 16; i++) {
    m.PokeData(kArrayBase + i * 8, i);
  }
  m.PokeData(kLenAddr, 16);
  const uint64_t secret = 7;
  const uint64_t oob_index = (kSecretAddr - kArrayBase) / 8;
  m.PokeData(kSecretAddr, secret);

  // Train the bounds check "taken" with in-bounds indexes.
  for (int i = 0; i < 8; i++) {
    m.SetReg(0, static_cast<uint64_t>(i % 16));
    m.Run(p.VaddrOf(0));
  }
  // Flush len so the final bounds check resolves slowly, then attack.
  m.caches().Clflush(kLenAddr);
  // Also flush the probe array so a later hit is unambiguous.
  m.caches().Clflush(kProbeBase + secret * 4096);
  m.SetReg(0, oob_index);
  m.Run(p.VaddrOf(0));

  V1Result r;
  r.leaked = m.caches().LevelOf(kProbeBase + secret * 4096) != 0;
  return r;
}

TEST(SpectreV1, LeaksOnEveryCpuWithoutMasking) {
  for (Uarch u : AllUarches()) {
    EXPECT_TRUE(RunSpectreV1(u, /*masked=*/false).leaked) << UarchName(u);
  }
}

TEST(SpectreV1, IndexMaskingBlocksTheLeak) {
  for (Uarch u : AllUarches()) {
    EXPECT_FALSE(RunSpectreV1(u, /*masked=*/true).leaked) << UarchName(u);
  }
}

TEST(SpectreV1, NoLeakWithoutTraining) {
  // An untrained branch predicts not-taken; the gadget never runs.
  Machine m(GetCpuModel(Uarch::kSkylakeClient));
  ProgramBuilder b;
  EmitV1Gadget(b, /*masked=*/false);
  Program p = b.Build();
  m.LoadProgram(&p);
  m.PokeData(kLenAddr, 16);
  const uint64_t secret = 7;
  m.PokeData(kSecretAddr, secret);
  m.caches().Clflush(kLenAddr);
  m.SetReg(0, (kSecretAddr - kArrayBase) / 8);
  m.Run(p.VaddrOf(0));
  EXPECT_EQ(m.caches().LevelOf(kProbeBase + secret * 4096), 0);
}

// --- Spectre V2: BTB poisoning observed through the divider PMC -----------

// Program layout used by the V2 tests (mirrors the paper's Figure 6):
//   main: load target pointer (flushed), indirect call through it, halt.
//   victim_target: performs a division (divider PMC observable).
//   nop_target: returns immediately.
struct V2Program {
  Program program;
  uint64_t victim_vaddr = 0;
  uint64_t nop_vaddr = 0;
  uint64_t entry = 0;
};

constexpr uint64_t kTargetPtr = 0x3000000;  // function pointer variable

V2Program BuildV2Program() {
  ProgramBuilder b;
  Label victim = b.NewLabel();
  Label nop = b.NewLabel();
  Label main = b.NewLabel();
  b.Jmp(main);
  int32_t victim_idx = b.NextIndex();
  b.Bind(victim);
  b.MovImm(2, 12345);
  b.DivImm(3, 2, 67);   // divider activity = speculation witness
  b.Ret();
  int32_t nop_idx = b.NextIndex();
  b.Bind(nop);
  b.Ret();
  int32_t main_idx = b.NextIndex();
  b.Bind(main);
  b.MovImm(4, static_cast<int64_t>(kTargetPtr));
  b.Clflush(MemRef{.base = 4});       // make target resolution slow
  b.Load(5, MemRef{.base = 4});
  b.IndirectCall(5);
  b.Halt();
  V2Program v2;
  v2.program = b.Build();
  v2.victim_vaddr = v2.program.VaddrOf(victim_idx);
  v2.nop_vaddr = v2.program.VaddrOf(nop_idx);
  v2.entry = v2.program.VaddrOf(main_idx);
  return v2;
}

// Trains the BTB by calling through the pointer at victim_target, then
// switches the pointer to nop_target and checks whether the divider ran
// speculatively (i.e. the stale BTB entry steered transient execution).
bool PoisonAndProbe(Machine& m, const V2Program& v2) {
  m.SetReg(kRegSp, 0x7000000);
  m.PokeData(kTargetPtr, v2.victim_vaddr);
  for (int i = 0; i < 4; i++) {
    m.Run(v2.entry);
  }
  m.PokeData(kTargetPtr, v2.nop_vaddr);
  const uint64_t divider_before = m.PmcValue(Pmc::kArithDividerActive);
  m.Run(v2.entry);
  return m.PmcValue(Pmc::kArithDividerActive) > divider_before;
}

TEST(SpectreV2, BtbPoisoningSpeculatesOnLegacyParts) {
  for (Uarch u : {Uarch::kBroadwell, Uarch::kSkylakeClient, Uarch::kZen1, Uarch::kZen2,
                  Uarch::kCascadeLake, Uarch::kIceLakeClient, Uarch::kIceLakeServer}) {
    Machine m(GetCpuModel(u));
    const V2Program v2 = BuildV2Program();
    m.LoadProgram(&v2.program);
    EXPECT_TRUE(PoisonAndProbe(m, v2)) << UarchName(u);
  }
}

TEST(SpectreV2, Zen3ContextIndexingDefeatsSameSitePoisoningFromDifferentContext) {
  // On Zen 3, training from one caller context does not steer the branch in
  // another; here training and probing share a context, so it *does* leak —
  // matching the paper's suspicion that Zen 3 is not immune...
  Machine m(GetCpuModel(Uarch::kZen3));
  const V2Program v2 = BuildV2Program();
  m.LoadProgram(&v2.program);
  EXPECT_TRUE(PoisonAndProbe(m, v2));
}

TEST(SpectreV2, IbpbBetweenTrainAndProbeStopsTheAttack) {
  Machine m(GetCpuModel(Uarch::kSkylakeClient));
  const V2Program v2 = BuildV2Program();
  m.LoadProgram(&v2.program);
  m.SetReg(kRegSp, 0x7000000);
  m.PokeData(kTargetPtr, v2.victim_vaddr);
  for (int i = 0; i < 4; i++) {
    m.Run(v2.entry);
  }
  m.btb().FlushAll();  // IBPB effect
  m.PokeData(kTargetPtr, v2.nop_vaddr);
  const uint64_t before = m.PmcValue(Pmc::kArithDividerActive);
  m.Run(v2.entry);
  EXPECT_EQ(m.PmcValue(Pmc::kArithDividerActive), before);
}

TEST(SpectreV2, IbrsBlocksSpeculationOnPreSpectreParts) {
  Machine m(GetCpuModel(Uarch::kBroadwell));
  const V2Program v2 = BuildV2Program();
  m.LoadProgram(&v2.program);
  m.SetReg(kRegSp, 0x7000000);
  m.PokeData(kTargetPtr, v2.victim_vaddr);
  for (int i = 0; i < 4; i++) {
    m.Run(v2.entry);
  }
  m.SetIbrs(true);
  m.PokeData(kTargetPtr, v2.nop_vaddr);
  const uint64_t before = m.PmcValue(Pmc::kArithDividerActive);
  m.Run(v2.entry);
  EXPECT_EQ(m.PmcValue(Pmc::kArithDividerActive), before);
}

// --- Meltdown inside a speculative episode ---------------------------------

class KernelOnlyMap : public MemoryMap {
 public:
  // Everything is normal user memory except [0x8000000, +page): supervisor.
  Translation Translate(uint64_t vaddr, uint64_t, Mode mode) const override {
    Translation t;
    t.mapped = true;
    t.present = true;
    t.paddr = vaddr;
    t.user_accessible = !(vaddr >= 0x8000000 && vaddr < 0x8000000 + kPageBytes);
    const bool user = mode == Mode::kUser || mode == Mode::kGuestUser;
    t.valid = t.user_accessible || !user;
    return t;
  }
};

bool RunMeltdown(Uarch uarch) {
  Machine m(GetCpuModel(uarch));
  KernelOnlyMap map;
  m.SetMemoryMap(&map);

  // Victim: speculative read of kernel memory under a mispredicted branch,
  // leaked through the probe array.
  ProgramBuilder b;
  Label read_it = b.NewLabel();
  Label done = b.NewLabel();
  b.MovImm(1, static_cast<int64_t>(kLenAddr));
  b.Load(2, MemRef{.base = 1});     // flushed guard variable
  b.BranchNz(2, read_it);
  b.Jmp(done);
  b.Bind(read_it);
  b.MovImm(3, 0x8000000);           // kernel address
  b.Load(4, MemRef{.base = 3});     // the Meltdown read
  b.AluImm(AluOp::kShl, 5, 4, 12);
  b.MovImm(6, static_cast<int64_t>(kProbeBase));
  b.Load(7, MemRef{.base = 6, .index = 5, .scale = 1});
  b.Bind(done);
  b.Halt();
  Program p = b.Build();
  m.LoadProgram(&p);

  const uint64_t secret = 5;
  m.PokeData(0x8000000, secret);
  // Train branch taken (guard nonzero), then attack with guard zero+flushed.
  m.PokeData(kLenAddr, 1);
  m.SetMode(Mode::kUser);
  for (int i = 0; i < 4; i++) {
    // Avoid committing the kernel load while training: guard=1 commits the
    // load path... so train with the fault hook absorbing it is wrong.
    // Instead train the predictor directly.
    m.cond_predictor().Train(p.VaddrOf(2), true);
  }
  m.PokeData(kLenAddr, 0);
  m.caches().Clflush(kLenAddr);
  m.caches().Clflush(kProbeBase + secret * 4096);
  m.Run(p.VaddrOf(0));
  return m.caches().LevelOf(kProbeBase + secret * 4096) != 0;
}

TEST(Meltdown, LeaksOnlyOnVulnerableParts) {
  for (Uarch u : AllUarches()) {
    EXPECT_EQ(RunMeltdown(u), GetCpuModel(u).vuln.meltdown) << UarchName(u);
  }
}

// --- Speculative Store Bypass ----------------------------------------------

// Victim: an in-flight store to a slot, then (speculatively, under a
// mispredicted branch) a load of the same slot leaked through the probe
// array. With bypass allowed, the speculative load sees the *old* value
// still in memory because the store has not resolved yet.
bool RunSsb(Uarch uarch, bool ssbd) {
  Machine m(GetCpuModel(uarch));
  m.SetSsbd(ssbd);
  constexpr uint64_t kSlot = 0x5000000;
  ProgramBuilder b;
  Label spec = b.NewLabel();
  Label done = b.NewLabel();
  // Warm TLB and cache for the slot and guard so the race window below is
  // not consumed by page walks.
  b.MovImm(1, static_cast<int64_t>(kSlot));
  b.MovImm(3, static_cast<int64_t>(kLenAddr));
  b.Load(9, MemRef{.base = 1});
  b.Load(9, MemRef{.base = 3});
  b.Lfence();
  b.Clflush(MemRef{.base = 3});     // guard resolves slowly
  b.Load(4, MemRef{.base = 3});     // guard (slow)
  b.MovImm(2, 9);                   // new value
  b.Store(MemRef{.base = 1}, 2);    // store still unresolved at the branch
  b.BranchNz(4, spec);
  b.Jmp(done);
  b.Bind(spec);
  b.Load(5, MemRef{.base = 1});     // may bypass the store -> old value
  b.AluImm(AluOp::kShl, 6, 5, 12);
  b.MovImm(7, static_cast<int64_t>(kProbeBase));
  b.Load(8, MemRef{.base = 7, .index = 6, .scale = 1});
  b.Bind(done);
  b.Halt();
  Program p = b.Build();
  m.LoadProgram(&p);

  const uint64_t old_value = 3;
  m.PokeData(kSlot, old_value);
  m.PokeData(kLenAddr, 0);
  const int32_t branch_index = 9;  // the BranchNz above
  ASSERT_OR_DIE(p.at(branch_index).op == Op::kBranchNz);
  m.cond_predictor().Train(p.VaddrOf(branch_index), true);
  m.cond_predictor().Train(p.VaddrOf(branch_index), true);
  m.caches().Clflush(kProbeBase + old_value * 4096);
  m.Run(p.VaddrOf(0));
  return m.caches().LevelOf(kProbeBase + old_value * 4096) != 0;
}

TEST(SpeculativeStoreBypass, LeaksStaleValueWithoutSsbd) {
  for (Uarch u : AllUarches()) {
    EXPECT_TRUE(RunSsb(u, /*ssbd=*/false)) << UarchName(u);
  }
}

TEST(SpeculativeStoreBypass, SsbdBlocksTheBypass) {
  for (Uarch u : AllUarches()) {
    EXPECT_FALSE(RunSsb(u, /*ssbd=*/true)) << UarchName(u);
  }
}

// --- Retpoline: speculation goes to the harmless spin, not the BTB target --

TEST(Retpoline, RetSpeculatesToRsbNotBtb) {
  // A generic retpoline's ret must speculate to the pause/lfence spin (safe)
  // even if the BTB is poisoned; the divider gadget must not run.
  Machine m(GetCpuModel(Uarch::kSkylakeClient));
  ProgramBuilder b;
  Label victim = b.NewLabel();
  Label thunk = b.NewLabel();
  Label setup = b.NewLabel();
  Label spin = b.NewLabel();
  Label main = b.NewLabel();
  b.Jmp(main);
  int32_t victim_idx = b.NextIndex();
  b.Bind(victim);
  b.MovImm(2, 999);
  b.DivImm(3, 2, 7);
  b.Ret();
  // Retpoline thunk (paper Figure 4).
  b.Bind(thunk);
  b.Call(setup);
  b.Bind(spin);
  b.Pause();
  b.Lfence();
  b.Jmp(spin);
  b.Bind(setup);
  b.Store(MemRef{.base = kRegSp}, 11);
  b.Ret();
  int32_t nop_idx = b.NextIndex();
  b.Nop();  // harmless branch destination
  b.Ret();
  b.Bind(main);
  b.MovImm(4, static_cast<int64_t>(kTargetPtr));
  b.Clflush(MemRef{.base = 4});
  b.Load(11, MemRef{.base = 4});
  b.Call(thunk);
  b.Halt();
  Program p = b.Build();
  m.LoadProgram(&p);
  m.SetReg(kRegSp, 0x7000000);
  m.PokeData(kTargetPtr, p.VaddrOf(nop_idx));

  // Poison the *BTB* entry for the thunk's ret... the RSB protects it: the
  // ret consumes the RSB entry from "call setup", so speculation lands in
  // the spin. Divider must stay silent.
  (void)victim_idx;
  const uint64_t before = m.PmcValue(Pmc::kArithDividerActive);
  m.Run(p.VaddrOf(p.IndexOf(p.VaddrOf(0))));  // entry at index 0 -> jmp main
  EXPECT_EQ(m.PmcValue(Pmc::kArithDividerActive), before);
}

// --- LazyFP ------------------------------------------------------------------

bool RunLazyFp(Uarch uarch) {
  Machine m(GetCpuModel(uarch));
  // Previous process left a secret in fp0; FPU disabled by a lazy switch.
  m.SetFpReg(0, 4);
  m.SetFpuEnabled(false);
  m.SetFpTrapHook([](Machine& machine) { machine.SetFpuEnabled(true); });

  ProgramBuilder b;
  Label spec = b.NewLabel();
  Label done = b.NewLabel();
  b.MovImm(1, static_cast<int64_t>(kLenAddr));
  b.Load(2, MemRef{.base = 1});
  b.BranchNz(2, spec);
  b.Jmp(done);
  b.Bind(spec);
  b.FpToGp(3, 0);                   // transient read of the stale register
  b.AluImm(AluOp::kShl, 4, 3, 12);
  b.MovImm(5, static_cast<int64_t>(kProbeBase));
  b.Load(6, MemRef{.base = 5, .index = 4, .scale = 1});
  b.Bind(done);
  b.Halt();
  Program p = b.Build();
  m.LoadProgram(&p);
  m.PokeData(kLenAddr, 0);
  m.cond_predictor().Train(p.VaddrOf(2), true);
  m.cond_predictor().Train(p.VaddrOf(2), true);
  m.caches().Clflush(kLenAddr);
  m.caches().Clflush(kProbeBase + 4 * 4096);
  m.Run(p.VaddrOf(0));
  return m.caches().LevelOf(kProbeBase + 4 * 4096) != 0;
}

TEST(LazyFp, TransientFpReadLeaksOnlyOnVulnerableParts) {
  for (Uarch u : AllUarches()) {
    EXPECT_EQ(RunLazyFp(u), GetCpuModel(u).vuln.lazy_fp) << UarchName(u);
  }
}

// --- MDS ---------------------------------------------------------------------

bool RunMds(Uarch uarch, bool verw_before_attack) {
  Machine m(GetCpuModel(uarch));
  class MostlyMapped : public MemoryMap {
   public:
    Translation Translate(uint64_t vaddr, uint64_t, Mode) const override {
      Translation t;
      if (vaddr >= 0xF000000 && vaddr < 0xF000000 + kPageBytes) {
        return t;  // unmapped: the MDS "assisting load" address
      }
      t.mapped = true;
      t.present = true;
      t.user_accessible = true;
      t.paddr = vaddr;
      t.valid = true;
      return t;
    }
  };
  MostlyMapped map;
  m.SetMemoryMap(&map);

  // "Victim" fills a fill buffer with a secret-bearing line.
  constexpr uint64_t kVictimAddr = 0x6000000;
  const uint64_t secret = 6;
  m.PokeData(kVictimAddr, secret);
  m.caches().Clflush(kVictimAddr);

  ProgramBuilder b;
  Label spec = b.NewLabel();
  Label done = b.NewLabel();
  // Victim access (fills the line-fill buffer with the secret).
  b.MovImm(12, static_cast<int64_t>(kVictimAddr));
  b.Load(13, MemRef{.base = 12});
  b.Lfence();
  if (verw_before_attack) {
    b.Verw();
  }
  // Attacker: a mispredicted branch whose condition comes from a division
  // (slow but memory-free, so the only fill-buffer resident is the victim
  // line); the wrong path samples the fill buffers via a faulting load.
  b.MovImm(1, 7);
  b.DivImm(2, 1, 9);                // r2 = 0, ready after the div latency
  b.BranchNz(2, spec);
  b.Jmp(done);
  b.Bind(spec);
  b.MovImm(3, 0xF000000);
  b.Load(4, MemRef{.base = 3});     // faulting load -> LFB sample
  b.AluImm(AluOp::kShl, 5, 4, 12);
  b.MovImm(6, static_cast<int64_t>(kProbeBase));
  b.Load(7, MemRef{.base = 6, .index = 5, .scale = 1});
  b.Bind(done);
  b.Halt();
  Program p = b.Build();
  m.LoadProgram(&p);
  const int32_t branch_index = verw_before_attack ? 6 : 5;
  ASSERT_OR_DIE(p.at(branch_index).op == Op::kBranchNz);
  m.cond_predictor().Train(p.VaddrOf(branch_index), true);
  m.cond_predictor().Train(p.VaddrOf(branch_index), true);
  m.caches().Clflush(kProbeBase + secret * 4096);
  m.Run(p.VaddrOf(0));
  return m.caches().LevelOf(kProbeBase + secret * 4096) != 0;
}

TEST(Mds, SamplesFillBuffersOnlyOnVulnerableParts) {
  for (Uarch u : AllUarches()) {
    EXPECT_EQ(RunMds(u, /*verw_before_attack=*/false), GetCpuModel(u).vuln.mds)
        << UarchName(u);
  }
}

TEST(Mds, VerwClearsTheLeak) {
  for (Uarch u : {Uarch::kBroadwell, Uarch::kSkylakeClient, Uarch::kCascadeLake}) {
    EXPECT_FALSE(RunMds(u, /*verw_before_attack=*/true)) << UarchName(u);
  }
}

// --- Misc speculation plumbing ----------------------------------------------

TEST(Speculation, SquashedUopsCounted) {
  Machine m(GetCpuModel(Uarch::kBroadwell));
  ProgramBuilder b;
  Label wrong = b.NewLabel();
  Label done = b.NewLabel();
  b.MovImm(1, static_cast<int64_t>(kLenAddr));
  b.Load(2, MemRef{.base = 1});
  b.BranchNz(2, wrong);
  b.Jmp(done);
  b.Bind(wrong);
  for (int i = 0; i < 10; i++) {
    b.AluImm(AluOp::kAdd, 3, 3, 1);
  }
  b.Bind(done);
  b.Halt();
  Program p = b.Build();
  m.LoadProgram(&p);
  m.PokeData(kLenAddr, 0);
  m.cond_predictor().Train(p.VaddrOf(2), true);
  m.cond_predictor().Train(p.VaddrOf(2), true);
  m.caches().Clflush(kLenAddr);
  m.Run(p.VaddrOf(0));
  EXPECT_GT(m.PmcValue(Pmc::kSquashedUops), 5u);
  EXPECT_EQ(m.reg(3), 0u);  // speculative adds never committed
}

TEST(Speculation, LfenceEndsEpisode) {
  Machine m(GetCpuModel(Uarch::kBroadwell));
  ProgramBuilder b;
  Label wrong = b.NewLabel();
  Label done = b.NewLabel();
  b.MovImm(1, static_cast<int64_t>(kLenAddr));
  b.Load(2, MemRef{.base = 1});
  b.MovImm(4, 1000);                // the divide's operand, ready at once
  b.BranchNz(2, wrong);
  b.Jmp(done);
  b.Bind(wrong);
  b.Lfence();                       // stops speculation immediately
  b.DivImm(3, 4, 5);                // must never run speculatively
  b.Bind(done);
  b.Halt();
  Program p = b.Build();
  m.LoadProgram(&p);
  m.PokeData(kLenAddr, 0);
  m.cond_predictor().Train(p.VaddrOf(3), true);
  m.cond_predictor().Train(p.VaddrOf(3), true);
  m.caches().Clflush(kLenAddr);
  const uint64_t before = m.PmcValue(Pmc::kArithDividerActive);
  m.Run(p.VaddrOf(0));
  EXPECT_EQ(m.PmcValue(Pmc::kArithDividerActive), before);
}

// LfenceEndsEpisode for every opcode: a wrong path that runs the opcode and
// then a divide on a ready register moves the divider counter iff the
// opcode is outside the opcode table's stop set (kOpSerializing), the bit
// the analyzer's speculative window also closes at (analysis_test). Skipped:
// the rows with a branch kind and kRet, which redirect the wrong path (to
// their target, the BTB's or the RSB's), so the divide is not what runs
// after them.
TEST(Speculation, EveryOpcodeOutsideTheStopSetLetsTheWrongPathGoOn) {
  int stops = 0;
  int passes = 0;
  for (const OpInfo& row : OpTable()) {
    if (row.branch != BranchKind::kNone || row.op == Op::kRet) {
      continue;
    }
    ProgramBuilder b;
    Label wrong = b.NewLabel();
    Label done = b.NewLabel();
    b.MovImm(1, static_cast<int64_t>(kLenAddr));
    b.Load(2, MemRef{.base = 1});
    b.MovImm(9, 1000);  // the divide's operand, ready at once
    b.BranchNz(2, wrong);
    b.Jmp(done);
    b.Bind(wrong);
    const int32_t slot = b.NextIndex();
    b.Nop();  // becomes `row.op`
    b.DivImm(3, 9, 5);
    b.Bind(done);
    b.Halt();
    const Program built = b.Build();
    std::vector<Instruction> code(built.data(), built.data() + built.size());
    code[static_cast<size_t>(slot)] = Instruction{.op = row.op,
                                                  .dst = 12,
                                                  .src1 = 13,
                                                  .src2 = 14,
                                                  .mem = MemRef{.base = 13}};
    Program p(std::move(code), built.base_vaddr(), built.symbols());

    Machine m(GetCpuModel(Uarch::kBroadwell));
    m.LoadProgram(&p);
    m.PokeData(kLenAddr, 0);
    m.cond_predictor().Train(p.VaddrOf(3), true);
    m.cond_predictor().Train(p.VaddrOf(3), true);
    m.caches().Clflush(kLenAddr);
    const uint64_t before = m.PmcValue(Pmc::kArithDividerActive);
    m.Run(p.VaddrOf(0));
    EXPECT_EQ(m.PmcValue(Pmc::kArithDividerActive) != before, !IsSerializing(row.op))
        << OpName(row.op);
    (IsSerializing(row.op) ? stops : passes)++;
  }
  EXPECT_EQ(stops, 17);  // every row of the stop set is checked
  EXPECT_EQ(passes, 18);
}

}  // namespace
}  // namespace specbench
