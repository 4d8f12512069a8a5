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
