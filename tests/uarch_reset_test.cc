// Machine reuse regression tests: Machine::Reset must return the machine to
// power-on state so that a second Run on a reused machine is bit- and
// cycle-identical to a run on a freshly constructed machine. This is the
// contract MachineLease and MachinePool are built on; any
// member added to Machine or its components that survives Reset shows up
// here as a cycle or PMC mismatch on the fuzz corpus.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/cpu/cpu_model.h"
#include "src/difftest/generator.h"
#include "src/difftest/reference.h"
#include "src/isa/program.h"
#include "src/uarch/cache.h"
#include "src/uarch/machine.h"
#include "src/uarch/machine_pool.h"
#include "src/uarch/predictors.h"

namespace specbench {
namespace {

// Everything observable about a completed run: architectural state, the
// cycle clock, and every PMC. Strictly stronger than difftest's ArchState
// (which deliberately excludes timing).
struct Observation {
  std::array<uint64_t, kNumRegs> regs{};
  std::array<uint64_t, kNumFpRegs> fpregs{};
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t trace_hash = kArchHashBasis;
  std::array<uint64_t, static_cast<size_t>(Pmc::kCount)> pmcs{};
  uint64_t memory_digest = 0;
  bool halted = false;

  bool operator==(const Observation& o) const {
    return regs == o.regs && fpregs == o.fpregs && cycles == o.cycles &&
           instructions == o.instructions && trace_hash == o.trace_hash && pmcs == o.pmcs &&
           memory_digest == o.memory_digest && halted == o.halted;
  }

  std::string ToString() const {
    std::ostringstream out;
    out << "cycles=" << cycles << " instructions=" << instructions << " halted=" << halted
        << " trace_hash=" << trace_hash << " memory_digest=" << memory_digest << " pmcs=[";
    for (uint64_t p : pmcs) out << p << " ";
    out << "] regs=[";
    for (uint64_t r : regs) out << r << " ";
    out << "]";
    return out.str();
  }
};

Observation RunOnce(Machine& m, const Program& program) {
  Observation obs;
  m.LoadProgram(&program);
  m.SetTraceHook([&obs](const Machine::TraceRecord& record) {
    obs.trace_hash = FoldTraceHash(obs.trace_hash, record.index, record.op);
  });
  const Machine::RunResult run = m.RunPartial(program.base_vaddr(), 1'000'000);
  m.DrainPipeline();
  m.DrainStoreBuffer();
  for (uint8_t r = 0; r < kNumRegs; r++) obs.regs[r] = m.reg(r);
  for (uint8_t r = 0; r < kNumFpRegs; r++) obs.fpregs[r] = m.fpreg(r);
  obs.cycles = m.cycles();
  obs.instructions = run.instructions;
  for (size_t p = 0; p < static_cast<size_t>(Pmc::kCount); p++) {
    obs.pmcs[p] = m.PmcValue(static_cast<Pmc>(p));
  }
  obs.memory_digest = DigestMemoryWords(m.physical_memory().SortedNonZeroWords());
  obs.halted = run.halted;
  m.SetTraceHook(nullptr);
  return obs;
}

// Co-resident analogue of RunOnce: two generator programs share the
// pipeline via RunCoResident. The observation covers the shared clock, the
// interleaved commit trace, both parked hardware threads (registers,
// instructions, finish cycles) and memory — everything a sweep cell can
// see of a co-run.
struct CoObservation {
  uint64_t cycles = 0;
  uint64_t trace_hash = kArchHashBasis;
  std::array<uint64_t, 2> instructions{};
  std::array<uint64_t, 2> finish_cycles{};
  std::array<bool, 2> halted{};
  std::array<std::array<uint64_t, kNumRegs>, 2> regs{};
  uint64_t memory_digest = 0;

  bool operator==(const CoObservation& o) const {
    return cycles == o.cycles && trace_hash == o.trace_hash && instructions == o.instructions &&
           finish_cycles == o.finish_cycles && halted == o.halted && regs == o.regs &&
           memory_digest == o.memory_digest;
  }

  std::string ToString() const {
    std::ostringstream out;
    out << "cycles=" << cycles << " trace_hash=" << trace_hash
        << " memory_digest=" << memory_digest;
    for (int i = 0; i < 2; i++) {
      out << " thread" << i << "={instructions=" << instructions[i]
          << " finish=" << finish_cycles[i] << " halted=" << halted[i] << "}";
    }
    return out.str();
  }
};

// Generator options for co-resident pairs: generated programs hard-code one
// stack base, and co-resident threads share memory, so two of them running
// architectural call/ret frames would clobber each other's return
// addresses. Leaf functions off keeps the pair stack-free; everything else
// (shared data/alias windows, indirect jumps, loops, fences) still contends.
GeneratorOptions CallFree() {
  GeneratorOptions options;
  options.functions = 0;
  return options;
}

CoObservation CoRunOnce(Machine& m, const Program& a, const Program& b) {
  CoObservation obs;
  m.LoadProgram(&a);
  m.SetTraceHook([&obs](const Machine::TraceRecord& record) {
    obs.trace_hash = FoldTraceHash(obs.trace_hash, record.index, record.op);
  });
  Machine::CoResidentSpec spec_a;
  spec_a.program = &a;
  spec_a.entry_vaddr = a.base_vaddr();
  spec_a.max_instructions = 200'000;
  spec_a.smt_thread_id = 0;
  Machine::CoResidentSpec spec_b;
  spec_b.program = &b;
  spec_b.entry_vaddr = b.base_vaddr();
  spec_b.max_instructions = 200'000;
  spec_b.smt_thread_id = 1;
  const Machine::CoResidentResult run = m.RunCoResident(spec_a, spec_b);
  m.DrainPipeline();
  m.DrainStoreBuffer();
  obs.cycles = run.cycles;
  for (int i = 0; i < 2; i++) {
    obs.instructions[i] = run.thread[i].instructions;
    obs.finish_cycles[i] = run.thread[i].finish_cycles;
    obs.halted[i] = run.thread[i].halted;
    obs.regs[i] = m.hardware_context(i).arch.regs;
  }
  obs.memory_digest = DigestMemoryWords(m.physical_memory().SortedNonZeroWords());
  m.SetTraceHook(nullptr);
  return obs;
}

// The core contract, on the fuzz generator's program distribution: running
// seed B on a machine that already ran seed A, with a Reset in between, is
// indistinguishable — cycles and PMCs included — from running seed B on a
// fresh machine.
TEST(MachineReset, RunAfterResetIsIdenticalToFreshMachine) {
  for (Uarch u : {Uarch::kSkylakeClient, Uarch::kCascadeLake, Uarch::kZen2}) {
    const CpuModel& cpu = GetCpuModel(u);
    Machine reused(cpu);
    for (uint64_t seed = 0; seed < 12; seed++) {
      const Program program = GenerateProgram(seed, GeneratorOptions{});
      Machine fresh(cpu);
      const Observation want = RunOnce(fresh, program);
      reused.Reset();
      const Observation got = RunOnce(reused, program);
      EXPECT_TRUE(got == want) << "uarch=" << UarchName(u) << " seed=" << seed << "\n  fresh:  "
                               << want.ToString() << "\n  reused: " << got.ToString();
    }
  }
}

// Physical memory recycles its pages across Reset. A first user that wrote
// nonzero words over many pages, among them the generator's data, alias and
// stack pages, must leave the next user reading zeros there, exactly like a
// fresh machine.
TEST(MachineReset, RecycledMemoryPagesMatchFreshMachine) {
  const CpuModel& cpu = GetCpuModel(Uarch::kSkylakeClient);
  const Program second = GenerateProgram(5, GeneratorOptions{});
  Machine fresh(cpu);
  const Observation want = RunOnce(fresh, second);

  Machine reused(cpu);
  for (uint64_t page = 0; page < 2 * PageOf(kGenStackTop); page++) {
    for (uint64_t offset = 0; offset < kPageBytes; offset += 64) {
      reused.PokeData(page * kPageBytes + offset, page * kPageBytes + offset + 1);
    }
  }
  (void)RunOnce(reused, GenerateProgram(4, GeneratorOptions{}));
  reused.Reset();
  const Observation got = RunOnce(reused, second);
  EXPECT_TRUE(got == want) << "\n  fresh: " << want.ToString() << "\n  reset: " << got.ToString();
}

// Touches 16 lines of the data window and times a reload, flushes L1D and
// times a reload, then clflushes half the lines and times a reload of one
// of them, and touches every line again after a second L1D flush. r9, r3
// and r6 hold the three reload latencies.
Program FlushAndRetouchProgram() {
  constexpr int kLines = 16;
  ProgramBuilder b;
  b.MovImm(kGenDataBaseReg, static_cast<int64_t>(kGenDataBase));
  for (int line = 0; line < kLines; line++) {
    b.Load(0, MemRef{.base = kGenDataBaseReg, .disp = line * 64});
  }
  b.Lfence().Rdtsc(1).Load(0, MemRef{.base = kGenDataBaseReg}).Lfence().Rdtsc(2);
  b.Alu(AluOp::kSub, 9, 2, 1);
  b.FlushL1d();
  b.Lfence().Rdtsc(1).Load(0, MemRef{.base = kGenDataBaseReg}).Lfence().Rdtsc(2);
  b.Alu(AluOp::kSub, 3, 2, 1);
  for (int line = 0; line < kLines; line += 2) {
    b.Clflush(MemRef{.base = kGenDataBaseReg, .disp = line * 64});
  }
  b.Lfence().Rdtsc(4).Load(0, MemRef{.base = kGenDataBaseReg, .disp = 2 * 64}).Lfence().Rdtsc(5);
  b.Alu(AluOp::kSub, 6, 5, 4);
  b.FlushL1d();
  for (int line = 0; line < kLines; line++) {
    b.MovImm(7, line);
    b.Store(MemRef{.base = kGenDataBaseReg, .disp = line * 64 + 8}, 7);
    b.Load(8, MemRef{.base = kGenDataBaseReg, .disp = line * 64});
  }
  b.Halt();
  return b.Build();
}

// FlushL1d and clflush invalidate lines by generation bump and per-way
// gen, and a set is only written when first touched. A reset machine that
// already ran the flush program (and a generator program) must replay it
// exactly like a fresh one: cycles, registers, memory and every PMC.
TEST(MachineReset, FlushAndRetouchOnResetMachineMatchesFreshMachine) {
  const Program flush = FlushAndRetouchProgram();
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    Machine fresh(cpu);
    const Observation want = RunOnce(fresh, flush);
    EXPECT_LT(fresh.reg(9), fresh.reg(3)) << UarchName(u) << ": FlushL1d left the line in L1";
    EXPECT_LT(fresh.reg(3), fresh.reg(6)) << UarchName(u) << ": clflush left the line cached";

    Machine reused(cpu);
    (void)RunOnce(reused, flush);
    reused.Reset();
    (void)RunOnce(reused, GenerateProgram(3, GeneratorOptions{}));
    reused.Reset();
    const Observation got = RunOnce(reused, flush);
    EXPECT_TRUE(got == want) << "uarch=" << UarchName(u) << "\n  fresh: " << want.ToString()
                             << "\n  reset: " << got.ToString();
  }
}

// Mitigation MSR state (SSBD / IBRS / STIBP / PCID) set by a previous user
// must not leak into the next run.
TEST(MachineReset, ClearsMitigationState) {
  const CpuModel& cpu = GetCpuModel(Uarch::kSkylakeClient);
  const Program program = GenerateProgram(7, GeneratorOptions{});

  Machine fresh(cpu);
  const Observation want = RunOnce(fresh, program);

  Machine dirty(cpu);
  dirty.SetSsbd(true);
  dirty.SetIbrs(true);
  dirty.SetStibp(true);
  dirty.SetPcidEnabled(false);
  (void)RunOnce(dirty, program);  // run once with mitigations on
  dirty.Reset();
  const Observation got = RunOnce(dirty, program);
  EXPECT_TRUE(got == want) << "\n  fresh: " << want.ToString() << "\n  reset: " << got.ToString();
}

// An armed-but-unfired test fault must not survive Reset and fire in the
// next user's run.
TEST(MachineReset, ClearsPendingInjectedFault) {
  const CpuModel& cpu = GetCpuModel(Uarch::kZen3);
  const Program program = GenerateProgram(3, GeneratorOptions{});

  Machine fresh(cpu);
  const Observation want = RunOnce(fresh, program);

  Machine dirty(cpu);
  dirty.InjectAluFaultForTesting(1'000'000'000);  // armed, will not fire this run
  (void)RunOnce(dirty, program);
  dirty.Reset();
  const Observation got = RunOnce(dirty, program);
  EXPECT_TRUE(got == want) << "pending fault leaked across Reset";
}

// Reset must restore *both* hardware threads: a dual-context co-run on a
// machine that already ran a different co-resident pair — parked RSB
// partitions, call-site history, per-thread predictor identity and all —
// is bit-identical to the same co-run on a fresh machine.
TEST(MachineReset, CoResidentRunAfterResetIsIdenticalToFreshMachine) {
  for (Uarch u : {Uarch::kSkylakeClient, Uarch::kZen3}) {
    const CpuModel& cpu = GetCpuModel(u);
    Machine reused(cpu);
    for (uint64_t seed = 0; seed < 6; seed++) {
      const Program a = GenerateProgram(seed * 2 + 100, CallFree());
      const Program b = GenerateProgram(seed * 2 + 101, CallFree());
      Machine fresh(cpu);
      const CoObservation want = CoRunOnce(fresh, a, b);
      reused.Reset();
      const CoObservation got = CoRunOnce(reused, a, b);
      EXPECT_TRUE(got == want) << "uarch=" << UarchName(u) << " seed=" << seed << "\n  fresh:  "
                               << want.ToString() << "\n  reused: " << got.ToString();
    }
  }
}

// Cross-mode pollution: a co-resident run must leave nothing behind that a
// Reset does not clear — the next single-context run on the reused machine
// matches a fresh machine exactly, and the parked contexts are power-on.
TEST(MachineReset, SingleContextRunAfterCoResidentRunAndResetIsClean) {
  const CpuModel& cpu = GetCpuModel(Uarch::kCascadeLake);
  const Program solo = GenerateProgram(42, GeneratorOptions{});
  const Program a = GenerateProgram(43, CallFree());
  const Program b = GenerateProgram(44, CallFree());

  Machine fresh(cpu);
  const Observation want = RunOnce(fresh, solo);

  Machine dirty(cpu);
  (void)CoRunOnce(dirty, a, b);
  dirty.Reset();
  for (int i = 0; i < 2; i++) {
    EXPECT_EQ(dirty.hardware_context(i).program, nullptr) << "thread " << i;
    EXPECT_EQ(dirty.hardware_context(i).instructions, 0u) << "thread " << i;
    EXPECT_EQ(dirty.hardware_context(i).finish_cycles, 0u) << "thread " << i;
  }
  const Observation got = RunOnce(dirty, solo);
  EXPECT_TRUE(got == want) << "\n  fresh: " << want.ToString() << "\n  reset: " << got.ToString();
}

// Every field of a parked hardware context equals the fresh machine's.
void ExpectSameHardwareContext(const Machine::HardwareContext& got,
                               const Machine::HardwareContext& want, const std::string& where) {
  EXPECT_EQ(got.arch.regs, want.arch.regs) << where;
  EXPECT_EQ(got.arch.ready_at, want.arch.ready_at) << where;
  EXPECT_EQ(got.arch.fpregs, want.arch.fpregs) << where;
  EXPECT_EQ(got.arch.mode, want.arch.mode) << where;
  EXPECT_EQ(got.arch.cr3, want.arch.cr3) << where;
  EXPECT_EQ(got.arch.fpu_enabled, want.arch.fpu_enabled) << where;
  EXPECT_EQ(got.arch.msr_spec_ctrl, want.arch.msr_spec_ctrl) << where;
  EXPECT_EQ(got.arch.saved_user_rip, want.arch.saved_user_rip) << where;
  EXPECT_EQ(got.arch.resume_rip, want.arch.resume_rip) << where;
  EXPECT_EQ(got.program, want.program) << where;
  EXPECT_EQ(got.rsb, want.rsb) << where;
  EXPECT_EQ(got.call_sites, want.call_sites) << where;
  EXPECT_EQ(got.smt_thread_id, want.smt_thread_id) << where;
  EXPECT_EQ(got.stibp, want.stibp) << where;
  EXPECT_EQ(got.instructions, want.instructions) << where;
  EXPECT_EQ(got.budget, want.budget) << where;
  EXPECT_EQ(got.finish_cycles, want.finish_cycles) << where;
  EXPECT_EQ(got.halted, want.halted) << where;
}

// Reset resets only the hardware contexts a co-run activated. After a
// two-context co-run, and after a one-context co-run that leaves thread 1
// unused, a Reset machine equals a fresh one: both parked contexts field by
// field, and the next single-context and co-resident runs.
TEST(MachineReset, CoResidentRunThenResetEqualsAFreshMachine) {
  const CpuModel& cpu = GetCpuModel(Uarch::kSkylakeClient);
  const Program solo = GenerateProgram(60, GeneratorOptions{});
  const Program a = GenerateProgram(61, CallFree());
  const Program b = GenerateProgram(62, CallFree());

  Machine fresh(cpu);
  for (bool two_contexts : {true, false}) {
    const std::string where = two_contexts ? "two contexts" : "one context";
    Machine dirty(cpu);
    dirty.SetStibp(true);
    dirty.LoadProgram(&a);
    Machine::CoResidentSpec spec_a;
    spec_a.program = &a;
    spec_a.entry_vaddr = a.base_vaddr();
    spec_a.max_instructions = 200'000;
    spec_a.smt_thread_id = 0;
    spec_a.stibp = true;
    Machine::CoResidentSpec spec_b = spec_a;
    spec_b.program = two_contexts ? &b : nullptr;
    spec_b.entry_vaddr = b.base_vaddr();
    spec_b.smt_thread_id = 1;
    (void)dirty.RunCoResident(spec_a, spec_b);
    ASSERT_NE(dirty.hardware_context(0).instructions, 0u) << where;
    dirty.Reset();
    for (int i = 0; i < 2; i++) {
      ExpectSameHardwareContext(dirty.hardware_context(i), fresh.hardware_context(i),
                                where + " thread " + std::to_string(i));
    }
    Machine fresh_solo(cpu);
    const Observation want = RunOnce(fresh_solo, solo);
    const Observation got = RunOnce(dirty, solo);
    EXPECT_TRUE(got == want) << where << "\n  fresh: " << want.ToString()
                             << "\n  reset: " << got.ToString();
    dirty.Reset();
    Machine fresh_pair(cpu);
    const CoObservation want_pair = CoRunOnce(fresh_pair, a, b);
    const CoObservation got_pair = CoRunOnce(dirty, a, b);
    EXPECT_TRUE(got_pair == want_pair) << where << "\n  fresh: " << want_pair.ToString()
                                       << "\n  reset: " << got_pair.ToString();
  }
}

// --- Resolved code views ---------------------------------------------------
//
// Step fetches from raw views of the loaded program (instructions, decode,
// size, base vaddr) that LoadProgram, Reset and ActivateHardwareContext
// refresh. The programs below make a stale view show as a wrong result
// rather than only as a crash: the short programs sit inside the long
// program's address range, so a view left on the long program still
// resolves their entry points, and every short program folds its own pcs
// (return addresses, indirect-branch targets) into its registers.

constexpr uint64_t kLongBase = 0x400000;
constexpr int32_t kLongAluSteps = 1200;

// kLongAluSteps dependent ALU steps over r0..r3, then halt.
Program LongProgram() {
  ProgramBuilder b;
  b.MovImm(0, 1).MovImm(1, 3).MovImm(2, 5).MovImm(3, 7);
  for (int32_t i = 0; i < kLongAluSteps; i++) {
    const uint8_t r = static_cast<uint8_t>(i % 4);
    b.AluImm(i % 3 == 0 ? AluOp::kXor : AluOp::kAdd, r, static_cast<uint8_t>((r + 1) % 4),
             i + 1);
  }
  b.Halt();
  return b.Build(kLongBase);
}

// A loop of `loops` iterations at `base`: an indirect jump whose target is
// an absolute vaddr (the BTB trains on this thread's own pc), a call whose
// return address the callee loads from the stack and adds into r6, and a
// conditional back edge. r6 ends as loops * (base + 6 * 4), the return
// vaddr, so it names the base the program ran at; r7 counts callee visits.
Program PcFoldingProgram(uint64_t base, int64_t loops) {
  ProgramBuilder b;
  Label top = b.NewLabel();
  Label fn = b.NewLabel();
  b.MovImm(5, loops).MovImm(6, 0).MovImm(7, 0);
  b.Bind(top);
  const int32_t jmp_target = b.NextIndex() + 2;  // past MovImm + IndirectJmp
  b.MovImm(3, static_cast<int64_t>(base + static_cast<uint64_t>(jmp_target) * kInstructionBytes));
  b.IndirectJmp(3);
  b.Call(fn);
  b.AluImm(AluOp::kSub, 5, 5, 1);
  b.BranchNz(5, top);
  b.Halt();
  b.Bind(fn);
  b.Load(4, MemRef{.base = kRegSp});
  b.Alu(AluOp::kAdd, 6, 6, 4);
  b.AluImm(AluOp::kAdd, 7, 7, 1);
  b.Ret();
  return b.Build(base);
}

// The part of an Observation a program's own semantics fix: registers,
// retired instructions, the committed index stream and memory. Warm caches
// and trained predictors left by an earlier program move only cycles and
// PMCs.
void ExpectSameArchitecture(const Observation& got, const Observation& want,
                            const std::string& where) {
  EXPECT_EQ(got.regs, want.regs) << where;
  EXPECT_EQ(got.fpregs, want.fpregs) << where;
  EXPECT_EQ(got.instructions, want.instructions) << where;
  EXPECT_EQ(got.trace_hash, want.trace_hash) << where;
  EXPECT_EQ(got.memory_digest, want.memory_digest) << where;
  EXPECT_EQ(got.halted, want.halted) << where;
}

// RunOnce with the stack pointer at `sp`: each co-resident thread needs a
// stack of its own, and its solo run the same one.
Observation RunWithStack(Machine& m, const Program& program, uint64_t sp) {
  m.SetReg(kRegSp, sp);
  return RunOnce(m, program);
}

// Loading a shorter program at another base, with and without a Reset in
// between, runs it exactly as a fresh machine does; and an empty Program
// loads (its views are data(), never &at(0)).
TEST(MachineCodeView, LoadProgramAtAnotherBaseMatchesFreshMachine) {
  const Program long_program = LongProgram();
  const uint64_t short_base = kLongBase + 600 * kInstructionBytes;
  ASSERT_LT(short_base, kLongBase + long_program.size() * kInstructionBytes);
  const Program short_program = PcFoldingProgram(short_base, 9);
  const Program empty;
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    const std::string where = std::string("uarch=") + UarchName(u);
    Machine fresh(cpu);
    const Observation want = RunWithStack(fresh, short_program, kGenStackTop);
    ASSERT_TRUE(want.halted) << where;
    EXPECT_EQ(want.regs[7], 9u) << where;
    EXPECT_EQ(want.regs[6], 9 * (short_base + 6 * kInstructionBytes)) << where;

    // Same machine, no Reset: the long program warmed the caches and
    // predictors, so only the architectural result must match, once the
    // registers it left are cleared.
    Machine m(cpu);
    m.LoadProgram(&empty);
    const Observation long_run = RunWithStack(m, long_program, kGenStackTop);
    ASSERT_TRUE(long_run.halted) << where;
    m.LoadProgram(&empty);
    for (uint8_t r = 0; r < kNumRegs; r++) {
      m.SetReg(r, 0);
    }
    ExpectSameArchitecture(RunWithStack(m, short_program, kGenStackTop), want, where);

    // After a Reset, everything matches: cycles and every PMC too.
    (void)RunWithStack(m, long_program, kGenStackTop);
    m.Reset();
    m.LoadProgram(&empty);
    const Observation got = RunWithStack(m, short_program, kGenStackTop);
    EXPECT_TRUE(got == want) << where << "\n  fresh:  " << want.ToString()
                             << "\n  reused: " << got.ToString();
  }
}

// RunCoResident switches the fetching thread's views on every activation.
// Two PcFoldingPrograms at different bases (both inside the long program's
// range) each end with the registers they compute alone, and the co-run on
// a machine that ran the long program and was Reset matches a fresh one.
TEST(MachineCodeView, CoResidentThreadsFetchTheirOwnProgram) {
  const Program long_program = LongProgram();
  const uint64_t base_a = kLongBase + 300 * kInstructionBytes;
  const uint64_t base_b = kLongBase + 700 * kInstructionBytes;
  const Program a = PcFoldingProgram(base_a, 7);
  const Program b = PcFoldingProgram(base_b, 11);
  constexpr uint64_t kStackA = kGenStackTop;
  constexpr uint64_t kStackB = kGenStackTop + 0x10000;

  const auto co_run = [&](Machine& m) {
    m.LoadProgram(&a);
    Machine::CoResidentSpec spec_a;
    spec_a.program = &a;
    spec_a.entry_vaddr = a.base_vaddr();
    spec_a.smt_thread_id = 0;
    spec_a.initial_regs = {{kRegSp, kStackA}};
    Machine::CoResidentSpec spec_b;
    spec_b.program = &b;
    spec_b.entry_vaddr = b.base_vaddr();
    spec_b.smt_thread_id = 1;
    spec_b.initial_regs = {{kRegSp, kStackB}};
    // A small fetch granule switches threads many times per loop.
    return m.RunCoResident(spec_a, spec_b, 3);
  };

  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    const std::string where = std::string("uarch=") + UarchName(u);
    Machine solo_a(cpu);
    const Observation want_a = RunWithStack(solo_a, a, kStackA);
    Machine solo_b(cpu);
    const Observation want_b = RunWithStack(solo_b, b, kStackB);
    ASSERT_NE(want_a.regs[6], want_b.regs[6]) << where;

    Machine fresh(cpu);
    const Machine::CoResidentResult fresh_run = co_run(fresh);
    EXPECT_TRUE(fresh_run.thread[0].halted && fresh_run.thread[1].halted) << where;
    EXPECT_EQ(fresh.hardware_context(0).arch.regs, want_a.regs) << where;
    EXPECT_EQ(fresh.hardware_context(1).arch.regs, want_b.regs) << where;
    EXPECT_EQ(fresh_run.thread[0].instructions, want_a.instructions) << where;
    EXPECT_EQ(fresh_run.thread[1].instructions, want_b.instructions) << where;

    Machine m(cpu);
    (void)RunWithStack(m, long_program, kGenStackTop);
    m.Reset();
    const Machine::CoResidentResult run = co_run(m);
    EXPECT_EQ(run.cycles, fresh_run.cycles) << where;
    for (int i = 0; i < 2; i++) {
      EXPECT_EQ(run.thread[i].instructions, fresh_run.thread[i].instructions) << where;
      EXPECT_EQ(run.thread[i].finish_cycles, fresh_run.thread[i].finish_cycles) << where;
      EXPECT_EQ(m.hardware_context(i).arch.regs, fresh.hardware_context(i).arch.regs) << where;
    }
    for (size_t p = 0; p < static_cast<size_t>(Pmc::kCount); p++) {
      EXPECT_EQ(m.PmcValue(static_cast<Pmc>(p)), fresh.PmcValue(static_cast<Pmc>(p)))
          << where << " pmc " << p;
    }
  }
}

// MachinePool reuse across co-resident sweep cells: acquiring the pooled
// machine for a second co-run is indistinguishable from giving each cell
// its own fresh machine.
TEST(MachinePool, ReuseAcrossCoResidentCellsEqualsTwoFreshMachines) {
  const CpuModel& cpu = GetCpuModel(Uarch::kSkylakeClient);
  const Program a1 = GenerateProgram(50, CallFree());
  const Program b1 = GenerateProgram(51, CallFree());
  const Program a2 = GenerateProgram(52, CallFree());
  const Program b2 = GenerateProgram(53, CallFree());

  Machine fresh1(cpu);
  const CoObservation want1 = CoRunOnce(fresh1, a1, b1);
  Machine fresh2(cpu);
  const CoObservation want2 = CoRunOnce(fresh2, a2, b2);

  MachinePool pool;
  const CoObservation got1 = CoRunOnce(pool.Acquire(cpu), a1, b1);
  const CoObservation got2 = CoRunOnce(pool.Acquire(cpu), a2, b2);
  EXPECT_EQ(pool.size(), 1u);  // one machine served both cells
  EXPECT_TRUE(got1 == want1) << "\n  fresh:  " << want1.ToString()
                             << "\n  pooled: " << got1.ToString();
  EXPECT_TRUE(got2 == want2) << "\n  fresh:  " << want2.ToString()
                             << "\n  pooled: " << got2.ToString();
}

TEST(MachinePool, ReusesOneMachinePerCpuModel) {
  MachinePool pool;
  const CpuModel& skl = GetCpuModel(Uarch::kSkylakeClient);
  const CpuModel& zen = GetCpuModel(Uarch::kZen2);
  Machine& a = pool.Acquire(skl);
  Machine& b = pool.Acquire(skl);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(pool.size(), 1u);
  Machine& c = pool.Acquire(zen);
  EXPECT_NE(&a, &c);
  EXPECT_EQ(pool.size(), 2u);
}

TEST(MachinePool, AcquireHandsBackPowerOnState) {
  MachinePool pool;
  const CpuModel& cpu = GetCpuModel(Uarch::kIceLakeClient);
  const Program program = GenerateProgram(11, GeneratorOptions{});

  Machine fresh(cpu);
  const Observation want = RunOnce(fresh, program);

  (void)RunOnce(pool.Acquire(cpu), GenerateProgram(12, GeneratorOptions{}));
  const Observation got = RunOnce(pool.Acquire(cpu), program);
  EXPECT_TRUE(got == want) << "\n  fresh:  " << want.ToString() << "\n  pooled: " << got.ToString();
}

// --- MachineLease: one idle machine per thread ----------------------------

TEST(MachineLease, LeasesInARowReuseOneMachineInPowerOnState) {
  const CpuModel& cpu = GetCpuModel(Uarch::kIceLakeClient);
  const Program program = GenerateProgram(11, GeneratorOptions{});
  Machine fresh(cpu);
  const Observation want = RunOnce(fresh, program);

  Machine* first = nullptr;
  {
    MachineLease lease(cpu);
    first = &*lease;
    (void)RunOnce(*lease, GenerateProgram(12, GeneratorOptions{}));
  }
  MachineLease lease(cpu);
  EXPECT_EQ(&*lease, first);
  const Observation got = RunOnce(*lease, program);
  EXPECT_TRUE(got == want) << "\n  fresh:  " << want.ToString() << "\n  leased: " << got.ToString();
}

TEST(MachineLease, NestedLeaseGetsADistinctPowerOnMachine) {
  const CpuModel& cpu = GetCpuModel(Uarch::kSkylakeClient);
  const Program program = GenerateProgram(21, GeneratorOptions{});
  Machine fresh(cpu);
  const Observation want = RunOnce(fresh, program);

  Machine* outer_machine = nullptr;
  {
    MachineLease outer(cpu);
    outer_machine = &*outer;
    (void)RunOnce(*outer, GenerateProgram(22, GeneratorOptions{}));
    MachineLease inner(cpu);
    EXPECT_NE(&*inner, &*outer);
    const Observation got = RunOnce(*inner, program);
    EXPECT_TRUE(got == want) << "\n  fresh:  " << want.ToString()
                             << "\n  nested: " << got.ToString();
  }
  // The nested machine was private; the slot still holds the outer one.
  MachineLease again(cpu);
  EXPECT_EQ(&*again, outer_machine);
}

// Reuse is keyed on the model's value: a modified copy of a catalog model
// (same uarch) and a stack-built model at a reused address both get a
// machine built for exactly the model they asked for.
TEST(MachineLease, ModifiedModelsNeverReuseAnotherModelsMachine) {
  const CpuModel& broadwell = GetCpuModel(Uarch::kBroadwell);
  CpuModel nopcid = broadwell;
  nopcid.pcid_supported = false;
  {
    MachineLease lease(broadwell);
    EXPECT_TRUE(lease->cpu() == broadwell);
  }
  {
    MachineLease lease(nopcid);
    EXPECT_TRUE(lease->cpu() == nopcid);
    EXPECT_FALSE(lease->cpu().pcid_supported);
  }

  const CpuModel& icx = GetCpuModel(Uarch::kIceLakeServer);
  ASSERT_EQ(FutureCpuModel().uarch, icx.uarch);
  for (const CpuModel* cpu : {&icx, &FutureCpuModel(), &icx}) {
    MachineLease lease(*cpu);
    EXPECT_TRUE(lease->cpu() == *cpu);
    EXPECT_EQ(lease->cpu().cmov_load_fusion, cpu->cmov_load_fusion);
  }

  for (bool pcid : {true, false, true}) {
    CpuModel stack_model = broadwell;  // same stack slot every iteration
    stack_model.pcid_supported = pcid;
    MachineLease lease(stack_model);
    EXPECT_EQ(lease->cpu().pcid_supported, pcid);
  }
}

TEST(MachineLease, AnotherThreadNeverGetsThisThreadsMachine) {
  const CpuModel& cpu = GetCpuModel(Uarch::kZen2);
  Machine* mine = nullptr;
  {
    MachineLease lease(cpu);
    mine = &*lease;
  }
  // This thread's machine is idle in its slot, so it stays allocated while
  // the other thread leases: distinct addresses mean distinct machines.
  Machine* theirs = nullptr;
  std::thread other([&] {
    MachineLease lease(cpu);
    theirs = &*lease;
  });
  other.join();
  EXPECT_NE(theirs, nullptr);
  EXPECT_NE(theirs, mine);
  MachineLease again(cpu);
  EXPECT_EQ(&*again, mine);
}

// --- Component resets -----------------------------------------------------

TEST(ComponentReset, CacheResetInvalidatesLinesAndZeroesStats) {
  Cache cache(CacheGeometry{.size_bytes = 4096, .ways = 4, .line_bytes = 64, .latency_cycles = 3});
  EXPECT_FALSE(cache.Access(0x1000));  // miss installs the line
  EXPECT_TRUE(cache.Access(0x1000));
  EXPECT_EQ(cache.hits(), 1u);
  cache.Reset();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_FALSE(cache.Contains(0x1000)) << "line survived Reset";
  EXPECT_FALSE(cache.Access(0x1000)) << "line survived Reset";
}

TEST(ComponentReset, RsbResetClearsUnderflowCount) {
  Rsb rsb(4);
  EXPECT_FALSE(rsb.Pop().hit);  // underflow
  EXPECT_EQ(rsb.underflows(), 1u);
  rsb.Reset();
  EXPECT_EQ(rsb.underflows(), 0u);
  EXPECT_EQ(rsb.size(), 0u);
}

}  // namespace
}  // namespace specbench
