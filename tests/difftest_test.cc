// Tests for the differential-execution oracle (src/difftest/): the reference
// interpreter, the random-program generator, the differential runner, the
// greedy shrinker, and the textual corpus format — including the oracle
// self-check that proves an injected simulator bug is detected, shrunk to a
// small reproducer, and emitted as a replayable command line.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/difftest/corpus.h"
#include "src/difftest/difftest.h"
#include "src/difftest/generator.h"
#include "src/difftest/reference.h"
#include "src/difftest/shrink.h"
#include "src/isa/program.h"
#include "src/uarch/machine.h"

namespace specbench {
namespace {

// --- Reference interpreter ------------------------------------------------

TEST(Reference, ExecutesStraightLineProgram) {
  ProgramBuilder b;
  b.MovImm(0, 5);
  b.AluImm(AluOp::kAdd, 1, 0, 7);
  b.Mul(2, 0, 1);
  b.Store(MemRef{kNoReg, kNoReg, 1, 0x1000}, 2);
  b.Load(3, MemRef{kNoReg, kNoReg, 1, 0x1000});
  b.Halt();
  const ReferenceResult r = RunReference(b.Build());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.state.halted);
  EXPECT_EQ(r.state.retired, 6u);
  EXPECT_EQ(r.state.regs[0], 5u);
  EXPECT_EQ(r.state.regs[1], 12u);
  EXPECT_EQ(r.state.regs[2], 60u);
  EXPECT_EQ(r.state.regs[3], 60u);
}

TEST(Reference, CallAndRetRoundTripThroughSimulatedStack) {
  ProgramBuilder b;
  Label func = b.NewLabel();
  Label main = b.NewLabel();
  b.MovImm(kRegSp, 0x8000);
  b.Jmp(main);
  b.Bind(func);
  b.MovImm(1, 42);
  b.Ret();
  b.Bind(main);
  b.Call(func);
  b.Halt();
  const ReferenceResult r = RunReference(b.Build());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.state.regs[1], 42u);
  EXPECT_EQ(r.state.regs[kRegSp], 0x8000u);  // balanced push/pop
}

TEST(Reference, RejectsTimingAndPrivilegedOpcodes) {
  ProgramBuilder b;
  b.Rdtsc(0);
  b.Halt();
  const ReferenceResult r = RunReference(b.Build());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("rdtsc"), std::string::npos) << r.error;
}

TEST(Reference, RejectsRunawayPrograms) {
  ProgramBuilder b;
  Label top = b.NewLabel();
  b.Bind(top);
  b.Jmp(top);  // infinite loop, never halts
  const ReferenceResult r = RunReference(b.Build(), /*max_instructions=*/1000);
  EXPECT_FALSE(r.ok);
}

TEST(Reference, TraceHashDependsOnExecutedPath) {
  ProgramBuilder a;
  a.MovImm(0, 1);
  a.Halt();
  ProgramBuilder b;
  b.MovImm(1, 1);  // same op, different operands -> same trace (index, op)
  b.Halt();
  ProgramBuilder c;
  c.Nop();
  c.Halt();
  const ReferenceResult ra = RunReference(a.Build());
  const ReferenceResult rb = RunReference(b.Build());
  const ReferenceResult rc = RunReference(c.Build());
  ASSERT_TRUE(ra.ok && rb.ok && rc.ok);
  // The trace hash covers (index, op), not operands or timing.
  EXPECT_EQ(ra.state.trace_hash, rb.state.trace_hash);
  EXPECT_NE(ra.state.trace_hash, rc.state.trace_hash);
}

TEST(Reference, DescribeArchDivergencePinpointsFirstDifference) {
  ArchState a, b;
  EXPECT_EQ(DescribeArchDivergence(a, b), "");
  b.regs[3] = 7;
  EXPECT_NE(DescribeArchDivergence(a, b).find("reg[3]"), std::string::npos);
  b = a;
  b.memory_digest = 1;
  EXPECT_NE(DescribeArchDivergence(a, b).find("memory digest"), std::string::npos);
}

// --- Generator ------------------------------------------------------------

TEST(Generator, DeterministicAcrossCalls) {
  for (uint64_t seed = 0; seed < 10; seed++) {
    const std::string a = SerializeCorpusProgram(GenerateProgram(seed), "");
    const std::string b = SerializeCorpusProgram(GenerateProgram(seed), "");
    EXPECT_EQ(a, b) << "seed " << seed;
  }
}

TEST(Generator, EveryProgramTerminatesOnTheReference) {
  for (uint64_t seed = 0; seed < 50; seed++) {
    const Program program = GenerateProgram(seed);
    const ReferenceResult r = RunReference(program);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.error;
    EXPECT_TRUE(r.state.halted) << "seed " << seed;
  }
}

TEST(Generator, EmitsTheHazardShapesItAdvertises) {
  int loads = 0, stores = 0, branches = 0, indirects = 0, calls = 0, rets = 0, fences = 0,
      cmovs = 0;
  for (uint64_t seed = 0; seed < 20; seed++) {
    const Program p = GenerateProgram(seed);
    for (int32_t i = 0; i < p.size(); i++) {
      switch (p.at(i).op) {
        case Op::kLoad: loads++; break;
        case Op::kStore: stores++; break;
        case Op::kBranchNz:
        case Op::kBranchZ: branches++; break;
        case Op::kIndirectJmp:
        case Op::kIndirectCall: indirects++; break;
        case Op::kCall: calls++; break;
        case Op::kRet: rets++; break;
        case Op::kLfence:
        case Op::kMfence:
        case Op::kCpuid: fences++; break;
        case Op::kCmov: cmovs++; break;
        default: break;
      }
    }
  }
  EXPECT_GT(loads, 0);
  EXPECT_GT(stores, 0);
  EXPECT_GT(branches, 0);
  EXPECT_GT(indirects, 0);
  EXPECT_GT(calls, 0);
  EXPECT_GT(rets, 0);
  EXPECT_GT(fences, 0);
  EXPECT_GT(cmovs, 0);  // the bounds-checked-load (Spectre V1) shape
}

// --- The oracle -----------------------------------------------------------

TEST(Oracle, MachineMatchesReferenceAcrossAllCpusAndConfigs) {
  DifftestOptions options;
  options.seed_begin = 0;
  options.seed_end = 10;
  options.jobs = 4;
  const DifftestReport report = RunDifftest(options);
  EXPECT_TRUE(report.ok()) << report.ToText();
  EXPECT_EQ(report.programs, 10u);
  // 10 programs x 8 CPU models x 6 mitigation configs.
  EXPECT_EQ(report.executions, 480u);
}

TEST(Oracle, ReportIsByteIdenticalAcrossJobCounts) {
  // Includes a diverging seed (injected fault) so the divergence/shrink path
  // is covered by the determinism guarantee, not just the happy path.
  DifftestOptions options;
  options.seed_begin = 0;
  options.seed_end = 8;
  options.cpus = {Uarch::kSkylakeClient};
  DiffConfig off;
  ASSERT_TRUE(TryGetDiffConfigByName("off", &off));
  options.configs = {off};
  options.inject_alu_fault_after = 1;
  options.jobs = 1;
  const std::string serial = RunDifftest(options).ToText();
  options.jobs = 8;
  const std::string parallel = RunDifftest(options).ToText();
  EXPECT_EQ(serial, parallel);
}

// The oracle groups seeds into blocks that share one machine per CPU. A
// window that starts mid-block and crosses a block boundary must report
// exactly what one-seed runs report, shrunk reproducers included.
TEST(Oracle, SeedWindowReportEqualsConcatenatedSingleSeedReports) {
  DifftestOptions options;
  options.cpus = {Uarch::kSkylakeClient, Uarch::kZen2};
  DiffConfig off;
  DiffConfig ssbd;
  ASSERT_TRUE(TryGetDiffConfigByName("off", &off));
  ASSERT_TRUE(TryGetDiffConfigByName("ssbd", &ssbd));
  options.configs = {off, ssbd};
  options.inject_alu_fault_after = 1;
  DifftestReport concatenated;
  for (uint64_t seed = 28; seed < 36; seed++) {
    options.seed_begin = seed;
    options.seed_end = seed + 1;
    DifftestReport one = RunDifftest(options);
    concatenated.programs += one.programs;
    concatenated.executions += one.executions;
    concatenated.retired_instructions += one.retired_instructions;
    for (Divergence& d : one.divergences) {
      concatenated.divergences.push_back(std::move(d));
    }
  }
  ASSERT_FALSE(concatenated.ok());
  options.seed_begin = 28;
  options.seed_end = 36;
  for (int jobs : {1, 3}) {
    options.jobs = jobs;
    const DifftestReport window = RunDifftest(options);
    EXPECT_EQ(window.ToText(), concatenated.ToText()) << "jobs=" << jobs;
    EXPECT_EQ(window.retired_instructions, concatenated.retired_instructions);
    ASSERT_EQ(window.divergences.size(), concatenated.divergences.size());
    for (size_t i = 0; i < window.divergences.size(); i++) {
      EXPECT_EQ(SerializeCorpusProgram(window.divergences[i].shrunk, ""),
                SerializeCorpusProgram(concatenated.divergences[i].shrunk, ""))
          << "divergence " << i;
    }
  }
}

// The oracle self-check: corrupt the first committed ALU result inside the
// machine and demand that difftest (a) notices, (b) shrinks the divergence
// to a small reproducer, and (c) emits a self-contained replay command.
TEST(Oracle, InjectedSimulatorBugIsCaughtShrunkAndReplayable) {
  DifftestOptions options;
  options.seed_begin = 0;
  options.seed_end = 5;
  options.cpus = {Uarch::kSkylakeClient};
  DiffConfig off;
  ASSERT_TRUE(TryGetDiffConfigByName("off", &off));
  options.configs = {off};
  options.inject_alu_fault_after = 1;
  const DifftestReport report = RunDifftest(options);
  ASSERT_FALSE(report.ok()) << "a corrupted ALU must not pass the oracle";

  const Divergence& d = report.divergences.front();
  EXPECT_LE(d.shrunk_size, 20) << "greedy shrinking must reach a small reproducer";
  EXPECT_GT(d.shrunk_size, 0);
  // Self-contained repro command line.
  std::ostringstream want_seeds;
  want_seeds << "--seeds=" << d.seed << ":" << d.seed + 1;
  EXPECT_NE(d.repro.find("spectrebench difftest"), std::string::npos) << d.repro;
  EXPECT_NE(d.repro.find(want_seeds.str()), std::string::npos) << d.repro;
  EXPECT_NE(d.repro.find("--inject-alu-fault=1"), std::string::npos) << d.repro;

  // The shrunk program still reproduces the divergence, and survives a
  // corpus round trip.
  const std::string text = SerializeCorpusProgram(d.shrunk, "injected-fault reproducer");
  Program parsed;
  std::string error;
  ASSERT_TRUE(ParseCorpusProgram(text, &parsed, &error)) << error;
  const ReferenceResult ref = RunReference(parsed);
  ASSERT_TRUE(ref.ok) << ref.error;
  const ArchState got = RunMachineArch(parsed, GetCpuModel(Uarch::kSkylakeClient), off,
                                       1'000'000, /*inject_alu_fault_after=*/1);
  EXPECT_FALSE(got == ref.state);
  // ...and is clean without the injected fault.
  const ArchState clean = RunMachineArch(parsed, GetCpuModel(Uarch::kSkylakeClient), off,
                                         1'000'000, /*inject_alu_fault_after=*/0);
  EXPECT_TRUE(clean == ref.state) << DescribeArchDivergence(ref.state, clean);
}

// --- Machine reuse --------------------------------------------------------
//
// The oracle runs every cell of a block of seeds on one Machine per CPU
// model, Reset() between cells, CPU outermost. Reuse must be invisible: each
// cell on the reused machine lands on the same ArchState, cycle count and
// PMCs as the same cell on a freshly constructed machine — including cells
// that follow a config with SSBD/IBRS/STIBP on or PCID off, or another
// seed's program, whose state must not carry over.
TEST(Oracle, ReusedMachineMatchesFreshMachineOnEveryCell) {
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    Machine reused(cpu);
    for (uint64_t seed = 0; seed < 40; seed++) {
      const Program program = GenerateProgram(seed);
      for (const DiffConfig& config : DefaultDiffConfigs()) {
        Machine fresh(cpu);
        const ArchState want = RunMachineArch(fresh, program, config, 1'000'000);
        const ArchState got = RunMachineArch(reused, program, config, 1'000'000);
        const std::string cell =
            "seed " + std::to_string(seed) + " on " + UarchName(u) + "/" + config.name;
        ASSERT_TRUE(got == want) << cell << ": " << DescribeArchDivergence(want, got);
        ASSERT_EQ(reused.cycles(), fresh.cycles()) << cell;
        for (size_t p = 0; p < static_cast<size_t>(Pmc::kCount); p++) {
          ASSERT_EQ(reused.PmcValue(static_cast<Pmc>(p)), fresh.PmcValue(static_cast<Pmc>(p)))
              << cell << ", pmc " << p;
        }
      }
    }
  }
}

// The self-check on reused machines: RunMachineArch re-arms the injected
// fault after every Reset, so the corruption fires in every cell, not just
// the first one a machine runs. The same program computes the same thing on
// every CPU x config, so a seed diverges everywhere or nowhere.
TEST(Oracle, InjectedFaultFiresOnEveryReusedCell) {
  DifftestOptions options;
  options.seed_begin = 0;
  options.seed_end = 5;
  options.shrink = false;
  options.inject_alu_fault_after = 1;
  const DifftestReport report = RunDifftest(options);
  ASSERT_FALSE(report.ok()) << "the oracle missed the injected fault";
  const size_t cells_per_seed = AllUarches().size() * DefaultDiffConfigs().size();
  std::map<uint64_t, size_t> per_seed;
  for (const Divergence& d : report.divergences) {
    per_seed[d.seed]++;
    EXPECT_EQ(d.repro.find("--fast"), std::string::npos) << d.repro;
  }
  for (const auto& [seed, count] : per_seed) {
    EXPECT_EQ(count, cells_per_seed) << "seed " << seed;
  }
}

// --- The reference memo ---------------------------------------------------
//
// Given the program's ReferenceResult, RunMachineArch takes the reference's
// trace hash when the retired index streams are equal, and its memory digest
// when the final nonzero words are. Taking them must never change a state:
// on every CPU and config, with and without an injected fault, the state
// equals the one computed without a reference.
TEST(Difftest, ReferenceMemoIsExact) {
  for (Uarch u : AllUarches()) {
    Machine machine(GetCpuModel(u));
    for (uint64_t seed = 0; seed < 24; seed++) {
      const Program program = GenerateProgram(seed);
      const ReferenceResult ref = RunReference(program);
      ASSERT_TRUE(ref.ok) << ref.error;
      ASSERT_EQ(ref.retired_indices.size(), ref.state.retired);
      for (const DiffConfig& config : DefaultDiffConfigs()) {
        for (uint64_t fault : {UINT64_C(0), UINT64_C(3)}) {
          const std::string cell = "seed " + std::to_string(seed) + " on " + UarchName(u) +
                                   "/" + config.name + ", fault " + std::to_string(fault);
          const ArchState want = RunMachineArch(machine, program, config, 1'000'000, fault);
          const ArchState got = RunMachineArch(machine, program, config, 1'000'000, fault, &ref);
          ASSERT_TRUE(got == want) << cell << ": " << DescribeArchDivergence(want, got);
          if (fault == 0) {
            ASSERT_TRUE(got == ref.state)
                << cell << ": " << DescribeArchDivergence(ref.state, got);
          }
        }
      }
    }
  }
}

// The memo trusts the reference's hash and digest only for content it has
// compared. A reference whose content no longer matches its hash or digest
// (one index or one word changed, the hash or digest poisoned) is refused,
// and the state is the one computed without a reference. With the content
// untouched the poisoned values are taken, which shows the memo is in use.
TEST(Difftest, ReferenceMemoRefusesATamperedReference) {
  Machine machine(GetCpuModel(Uarch::kZen2));
  const DiffConfig off = DefaultDiffConfigs().front();
  for (uint64_t seed = 0; seed < 24; seed++) {
    const Program program = GenerateProgram(seed);
    const ReferenceResult ref = RunReference(program);
    ASSERT_TRUE(ref.ok) << ref.error;
    ASSERT_FALSE(ref.retired_indices.empty());
    ASSERT_FALSE(ref.memory_words.empty());
    const ArchState want = RunMachineArch(machine, program, off, 1'000'000);
    const std::string where = "seed " + std::to_string(seed);

    ReferenceResult poisoned = ref;
    poisoned.state.trace_hash ^= 1;
    poisoned.state.memory_digest ^= 1;
    const ArchState taken = RunMachineArch(machine, program, off, 1'000'000, 0, &poisoned);
    EXPECT_EQ(taken.trace_hash, poisoned.state.trace_hash) << where;
    EXPECT_EQ(taken.memory_digest, poisoned.state.memory_digest) << where;

    const size_t mid_index = ref.retired_indices.size() / 2;
    const size_t mid_word = ref.memory_words.size() / 2;
    std::vector<ReferenceResult> tampered(4, poisoned);
    tampered[0].retired_indices[mid_index] += 1;
    tampered[1].retired_indices.push_back(ref.retired_indices.back());
    tampered[2].memory_words[mid_word].second ^= 1;
    tampered[3].memory_words.erase(tampered[3].memory_words.begin() +
                                   static_cast<std::ptrdiff_t>(mid_word));
    for (size_t t = 0; t < tampered.size(); t++) {
      const ArchState got = RunMachineArch(machine, program, off, 1'000'000, 0, &tampered[t]);
      const bool trace_tampered = t < 2;
      EXPECT_EQ(got.trace_hash, trace_tampered ? want.trace_hash : poisoned.state.trace_hash)
          << where << ", tamper " << t;
      EXPECT_EQ(got.memory_digest,
                trace_tampered ? poisoned.state.memory_digest : want.memory_digest)
          << where << ", tamper " << t;
    }
  }
}

// --- Shrinker -------------------------------------------------------------

TEST(Shrink, ReducesToTheEssentialInstructions) {
  // Build a program with one load-bearing instruction buried in junk; the
  // predicate asks for reg[1] == 42 at halt.
  ProgramBuilder b;
  for (int i = 0; i < 10; i++) {
    b.MovImm(0, i);
  }
  b.MovImm(1, 42);
  for (int i = 0; i < 10; i++) {
    b.AluImm(AluOp::kAdd, 2, 2, 1);
  }
  b.Halt();
  const auto predicate = [](const Program& p) {
    const ReferenceResult r = RunReference(p, 10'000);
    return r.ok && r.state.regs[1] == 42;
  };
  const Program shrunk = ShrinkProgram(b.Build(), predicate);
  EXPECT_TRUE(predicate(shrunk));
  // mov_imm r1, 42 and the halt.
  EXPECT_EQ(CountNonNop(shrunk), 2);
}

// --- Corpus format --------------------------------------------------------

TEST(Corpus, RoundTripsGeneratedPrograms) {
  const Program original = GenerateProgram(7);
  const std::string text = SerializeCorpusProgram(original, "seed=7 round trip");
  Program parsed;
  std::string error;
  ASSERT_TRUE(ParseCorpusProgram(text, &parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), original.size());
  EXPECT_EQ(parsed.base_vaddr(), original.base_vaddr());
  for (int32_t i = 0; i < original.size(); i++) {
    const Instruction& a = original.at(i);
    const Instruction& b = parsed.at(i);
    EXPECT_EQ(a.op, b.op) << i;
    EXPECT_EQ(a.alu, b.alu) << i;
    EXPECT_EQ(a.dst, b.dst) << i;
    EXPECT_EQ(a.src1, b.src1) << i;
    EXPECT_EQ(a.src2, b.src2) << i;
    EXPECT_EQ(a.use_imm, b.use_imm) << i;
    EXPECT_EQ(a.imm, b.imm) << i;
    EXPECT_EQ(a.mem.base, b.mem.base) << i;
    EXPECT_EQ(a.mem.index, b.mem.index) << i;
    EXPECT_EQ(a.mem.scale, b.mem.scale) << i;
    EXPECT_EQ(a.mem.disp, b.mem.disp) << i;
    EXPECT_EQ(a.target, b.target) << i;
  }
  // Serialization is canonical: parse(serialize(p)) serializes identically.
  EXPECT_EQ(SerializeCorpusProgram(parsed, "seed=7 round trip"), text);
}

TEST(Corpus, RejectsMalformedInputWithLineNumbers) {
  Program out;
  std::string error;
  EXPECT_FALSE(ParseCorpusProgram("i op=not_an_opcode\n", &out, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_FALSE(ParseCorpusProgram("base 0x400000\ni op=load mem=1,2\n", &out, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_FALSE(ParseCorpusProgram("# only comments\n", &out, &error));
}

// Fields that would index past the machine's 16 registers, wrap in a
// narrowing cast, or jump outside the program are rejected with the line.
TEST(Corpus, RejectsOutOfRangeOperands) {
  const struct {
    const char* text;
    const char* why;
  } cases[] = {
      {"i op=mov_imm dst=99 imm=1\n", "line 1: dst register 99"},
      {"i op=mov dst=1 src1=16\n", "line 1: src1 register 16"},
      {"i op=alu dst=1 src1=2 src2=-1\n", "line 1: src2 register -1"},
      {"i op=mov_imm dst=256 imm=1\n", "line 1: dst register 256"},
      {"i op=load dst=1 mem=255,99,1,0\n", "line 1: mem index register 99"},
      {"i op=load dst=1 mem=300,255,1,0\n", "line 1: mem base register 300"},
      {"i op=load dst=1 mem=1,2,3,0\n", "line 1: mem scale 3"},
      {"i op=load dst=1 mem=1,2,1,0,\n", "line 1: bad mem operand"},
      {"i op=load dst=1 mem=1,2,1,x\n", "line 1: bad mem operand"},
      {"i op=nop\ni op=jmp target=2\n", "line 2: branch target 2"},
      {"i op=branch_nz src1=1 target=-1\ni op=halt\n", "line 1: branch target -1"},
      {"i op=call target=4294967296\n", "line 1: target 4294967296 is out of range"},
      {"i op=mov_imm imm=1\n", "line 1: op=mov_imm needs dst="},
      {"i op=mov dst=1\n", "line 1: op=mov needs src1="},
      {"i op=alu alu=add dst=1 src1=2\n", "line 1: op=alu needs src2="},
      {"i op=cmov dst=1 src1=2 use_imm=1\n", "line 1: op=cmov needs src2="},
      {"i op=store mem=1,255,1,0\n", "line 1: op=store needs src1="},
      {"i op=indirect_jmp\n", "line 1: op=indirect_jmp needs src1="},
      {"i op=rdpmc dst=1 imm=99\n",
       "line 1: op=rdpmc is not supported by the reference interpreter"},
  };
  for (const auto& c : cases) {
    Program out;
    std::string error;
    EXPECT_FALSE(ParseCorpusProgram(c.text, &out, &error)) << c.text;
    EXPECT_EQ(error.rfind(c.why, 0), 0u) << c.text << " -> " << error;
  }
  // The legal extremes still parse: kNoReg, r15, scale 8, the last index,
  // an immediate in place of src2.
  Program out;
  std::string error;
  EXPECT_TRUE(ParseCorpusProgram(
      "i op=load dst=15 mem=255,15,8,-8\ni op=branch_z src1=0 target=3\n"
      "i op=alu alu=add dst=1 src1=2 use_imm=1 imm=3\ni op=halt\n",
      &out, &error))
      << error;
}

// The checks above never reject what the generator writes: every program of
// the 500-seed sweep survives the corpus round trip.
TEST(Corpus, ValidationAcceptsEveryGeneratedProgram) {
  for (uint64_t seed = 0; seed < 500; seed++) {
    Program parsed;
    std::string error;
    EXPECT_TRUE(ParseCorpusProgram(SerializeCorpusProgram(GenerateProgram(seed), ""), &parsed,
                                   &error))
        << "seed " << seed << ": " << error;
  }
}

// tests/corpus/reject-*.difftest are malformed inputs that once crashed or
// silently misbehaved; each must be rejected with its line number.
TEST(Corpus, CommittedRejectCasesAreRejected) {
  const std::filesystem::path dir =
      std::filesystem::path(SPECBENCH_TEST_SOURCE_DIR) / "corpus";
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("reject-", 0) != 0) {
      continue;
    }
    files++;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    Program program;
    std::string error;
    EXPECT_FALSE(ParseCorpusProgram(text.str(), &program, &error)) << entry.path();
    EXPECT_EQ(error.rfind("line ", 0), 0u) << entry.path() << ": " << error;
  }
  EXPECT_GE(files, 2);
}

// Every committed reproducer in tests/corpus/ must stay architecturally
// clean on every CPU x config: these are shrunk programs that once exposed
// real simulator bugs, kept as regression tests. The reject-* files are
// malformed on purpose (CommittedRejectCasesAreRejected).
TEST(Corpus, CommittedReproducersStayFixed) {
  const std::filesystem::path dir =
      std::filesystem::path(SPECBENCH_TEST_SOURCE_DIR) / "corpus";
  ASSERT_TRUE(std::filesystem::exists(dir)) << dir;
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".difftest" ||
        entry.path().filename().string().rfind("reject-", 0) == 0) {
      continue;
    }
    files++;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    Program program;
    std::string error;
    ASSERT_TRUE(ParseCorpusProgram(text.str(), &program, &error))
        << entry.path() << ": " << error;
    const ReferenceResult ref = RunReference(program);
    ASSERT_TRUE(ref.ok) << entry.path() << ": " << ref.error;
    for (Uarch u : AllUarches()) {
      for (const DiffConfig& config : DefaultDiffConfigs()) {
        const ArchState got = RunMachineArch(program, GetCpuModel(u), config, 1'000'000);
        EXPECT_TRUE(got == ref.state)
            << entry.path() << " on " << UarchName(u) << "/" << config.name << ": "
            << DescribeArchDivergence(ref.state, got);
      }
    }
  }
  EXPECT_GE(files, 1) << "tests/corpus/ should contain at least one reproducer";
}

// --- Refactor guard: architectural hashes of the committed corpus ---------
//
// Beyond "the oracle agrees with itself", the refactor guard pins the
// *absolute* architectural outcome of the committed reproducers: retired
// count, trace hash, register digest and memory digest per (cpu, config).
// CI also diffs `spectrebench difftest --replay=... --arch-hashes` against
// the same golden file, so the CLI emitter and this test must stay in sync.
// Regenerate tests/golden/corpus_trace_hashes.txt deliberately (with the
// CLI) when the ISA or the corpus changes.
uint64_t FoldWord(uint64_t hash, uint64_t word) {
  for (int i = 0; i < 8; i++) {
    hash ^= (word >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

uint64_t RegDigest(const ArchState& state) {
  uint64_t hash = kArchHashBasis;
  for (uint64_t reg : state.regs) {
    hash = FoldWord(hash, reg);
  }
  for (uint64_t reg : state.fpregs) {
    hash = FoldWord(hash, reg);
  }
  return hash;
}

TEST(Corpus, ArchHashesMatchTheGoldenFile) {
  const std::filesystem::path src_dir(SPECBENCH_TEST_SOURCE_DIR);
  std::ifstream in(src_dir / "corpus" / "store-order-zen2.difftest");
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  Program program;
  std::string error;
  ASSERT_TRUE(ParseCorpusProgram(text.str(), &program, &error)) << error;

  std::string actual = "# spectrebench arch-hashes v1\n";
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    for (const DiffConfig& config : DefaultDiffConfigs()) {
      const ArchState state = RunMachineArch(program, cpu, config, 1'000'000);
      std::string cpu_slug = UarchName(u);
      for (char& c : cpu_slug) {
        if (c == ' ') c = '-';
      }
      char line[256];
      std::snprintf(line, sizeof(line),
                    "cpu=%s config=%s retired=%llu trace=0x%016llx regs=0x%016llx "
                    "mem=0x%016llx halted=%d\n",
                    cpu_slug.c_str(), config.name.c_str(),
                    static_cast<unsigned long long>(state.retired),
                    static_cast<unsigned long long>(state.trace_hash),
                    static_cast<unsigned long long>(RegDigest(state)),
                    static_cast<unsigned long long>(state.memory_digest),
                    state.halted ? 1 : 0);
      actual += line;
    }
  }

  std::ifstream golden_in(src_dir / "golden" / "corpus_trace_hashes.txt");
  ASSERT_TRUE(golden_in.good()) << "missing tests/golden/corpus_trace_hashes.txt";
  std::ostringstream golden;
  golden << golden_in.rdbuf();
  EXPECT_EQ(actual, golden.str())
      << "architectural hashes drifted from the committed golden; if the "
         "change is intentional, regenerate with spectrebench difftest "
         "--replay=tests/corpus/store-order-zen2.difftest --arch-hashes";
}

}  // namespace
}  // namespace specbench
