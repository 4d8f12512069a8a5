// Mitigation-pass framework tests: the registry, the analyze -> harden ->
// analyze fixpoint for every pass over the gadget corpus and fuzz seeds, the
// relocation-aware equivalence oracle, and the rewrite-engine edge cases
// (insertion at index 0, adjacent sites, branches into fenced sites, symbol
// and code-immediate remapping), and the `harden` sweep grid that prices
// every pass on every CPU.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/corpus.h"
#include "src/analysis/detectors.h"
#include "src/analysis/passes.h"
#include "src/analysis/rewriter.h"
#include "src/attack/suite.h"
#include "src/core/sweep_grids.h"
#include "src/cpu/cpu_model.h"
#include "src/difftest/difftest.h"
#include "src/difftest/equivalence.h"
#include "src/difftest/generator.h"
#include "src/difftest/reference.h"
#include "src/isa/isa.h"
#include "src/isa/program.h"

namespace specbench {
namespace {

// Skylake: no eIBRS and vulnerable to every class the corpus exercises, so
// every detector (and hence every pass) can fire.
const CpuModel& Baseline() { return GetCpuModel(Uarch::kSkylakeClient); }

std::vector<CorpusEntry> BaselineCorpus() {
  return BuildGadgetCorpus(Baseline().predictor.rsb_depth);
}

const CorpusEntry& EntryNamed(const std::vector<CorpusEntry>& corpus,
                              const std::string& name) {
  for (const CorpusEntry& e : corpus) {
    if (e.name == name) {
      return e;
    }
  }
  ADD_FAILURE() << "no corpus entry named " << name;
  return corpus.front();
}

// --- Registry -------------------------------------------------------------

TEST(PassRegistry, AtLeastFivePassesWithUniqueNames) {
  const std::vector<const MitigationPass*>& passes = MitigationPasses();
  EXPECT_GE(passes.size(), 5u);
  std::set<std::string> names;
  for (const MitigationPass* pass : passes) {
    EXPECT_TRUE(names.insert(pass->name()).second) << "duplicate " << pass->name();
    EXPECT_FALSE(pass->summary().empty()) << pass->name();
    EXPECT_FALSE(pass->target_kinds().empty()) << pass->name();
  }
}

TEST(PassRegistry, LookupByName) {
  for (const MitigationPass* pass : MitigationPasses()) {
    EXPECT_EQ(FindMitigationPassByName(pass->name()), pass);
  }
  EXPECT_EQ(FindMitigationPassByName("no-such-pass"), nullptr);
}

// --- Fixpoint + equivalence over the gadget corpus ------------------------

TEST(PassFixpoint, EveryPassReachesFixpointOnEveryCorpusProgram) {
  for (Uarch u : {Uarch::kSkylakeClient, Uarch::kZen3}) {
    const CpuModel& cpu = GetCpuModel(u);
    for (const CorpusEntry& entry : BuildGadgetCorpus(cpu.predictor.rsb_depth)) {
      for (const MitigationPass* pass : MitigationPasses()) {
        const PassRunReport run = RunPassToFixpoint(*pass, entry.program, cpu);
        EXPECT_TRUE(run.fixpoint_ok())
            << UarchName(u) << "/" << pass->name() << "/" << entry.name << ": "
            << run.findings_after << " residual after " << run.iterations
            << " round(s)";
        const EquivalenceReport eq =
            CheckRewriteEquivalence(entry.program, run.hardened, run.index_map);
        EXPECT_FALSE(eq.checked && !eq.equivalent)
            << UarchName(u) << "/" << pass->name() << "/" << entry.name << ": "
            << eq.divergence;
      }
    }
  }
}

TEST(PassFixpoint, EachPassEliminatesFindingsOnItsGadget) {
  // (pass, corpus entry) pairs where the pass must actually rewrite: the
  // entry exhibits the pass's target finding kinds before and none after.
  const struct {
    const char* pass;
    const char* entry;
  } kCases[] = {
      {"targeted-lfence", "v1-classic"},   {"blanket-lfence", "v1-classic"},
      {"v1-index-mask", "v1-classic"},     {"switchpoline", "indirect-naked"},
      {"ssb-fence", "ssb-gadget"},         {"rsb-fill", "ret-underflow"},
      {"rsb-fill", "deep-call-chain"},     {"transition-hygiene", "sysret-unprotected"},
  };
  const std::vector<CorpusEntry> corpus = BaselineCorpus();
  for (const auto& c : kCases) {
    const MitigationPass* pass = FindMitigationPassByName(c.pass);
    ASSERT_NE(pass, nullptr) << c.pass;
    const CorpusEntry& entry = EntryNamed(corpus, c.entry);
    const PassRunReport run = RunPassToFixpoint(*pass, entry.program, Baseline());
    EXPECT_GT(run.findings_before, 0) << c.pass << "/" << c.entry;
    EXPECT_EQ(run.findings_after, 0) << c.pass << "/" << c.entry;
    EXPECT_GT(run.inserted, 0) << c.pass << "/" << c.entry;
    EXPECT_FALSE(run.sites.empty()) << c.pass << "/" << c.entry;
  }
}

// The idempotence satellite, spelled out: analyze -> harden -> analyze shows
// the target kinds eliminated, and running the pass again on its own output
// inserts nothing.
TEST(PassFixpoint, HardenedOutputIsAFixedPointOfThePass) {
  const CpuModel& cpu = Baseline();
  for (const CorpusEntry& entry : BaselineCorpus()) {
    for (const MitigationPass* pass : MitigationPasses()) {
      const PassRunReport run = RunPassToFixpoint(*pass, entry.program, cpu);
      const AnalysisResult again = Analyze(run.hardened, cpu);
      EXPECT_EQ(CountFindingsOfKinds(again, pass->target_kinds()), 0)
          << pass->name() << "/" << entry.name;
      const RewriteResult second = pass->Run(run.hardened, again, cpu);
      EXPECT_EQ(second.inserted, 0) << pass->name() << "/" << entry.name;
      EXPECT_TRUE(second.sites.empty()) << pass->name() << "/" << entry.name;
    }
  }
}

// --- Cross-validation against the attack suite ----------------------------
//
// The same leak has two independent mitigations in this codebase: the OS
// knob the attack-suite registry reasons about (src/attack/suite.h) and the
// software pass `spectrebench harden` applies (src/analysis/passes.h). Both
// routes must flip the verdict: enabling the knob turns the suite cell from
// leak to no-leak, and hardening the leaking gadget makes its corpus replay
// come back clean — with neither, the leak is observable.
TEST(PassVsAttackSuite, HardeningFlipsTheReplayVerdictLikeTheKnobFlipsTheCell) {
  const struct {
    const char* pass;    // software route: rewrite the gadget
    const char* entry;   // leaking corpus program with a replay scenario
    const char* attack;  // suite route: the registered attack spec
    SuiteKnob knob;      // the OS knob the registry credits for the defense
  } kPairs[] = {
      {"v1-index-mask", "v1-classic", "spectre-v1", SuiteKnob::kKernelIndexMasking},
      {"targeted-lfence", "v1-classic", "spectre-v1", SuiteKnob::kKernelIndexMasking},
      {"ssb-fence", "ssb-gadget", "ssb", SuiteKnob::kSsbd},
      {"rsb-fill", "ret-underflow", "spectre-rsb", SuiteKnob::kRsbStuff},
  };
  const CpuModel& cpu = Baseline();
  const std::vector<CorpusEntry> corpus = BaselineCorpus();
  for (const auto& pair : kPairs) {
    // Software route: the unhardened gadget's replay observes the leak; the
    // matching pass rewrites it and the identical scenario comes back clean.
    const CorpusEntry& entry = EntryNamed(corpus, pair.entry);
    ASSERT_TRUE(entry.replay != nullptr) << pair.entry;
    EXPECT_TRUE(entry.replay(cpu, entry.program))
        << pair.entry << " replay must leak before hardening";
    const MitigationPass* pass = FindMitigationPassByName(pair.pass);
    ASSERT_NE(pass, nullptr) << pair.pass;
    const PassRunReport run = RunPassToFixpoint(*pass, entry.program, cpu);
    EXPECT_TRUE(run.fixpoint_ok()) << pair.pass << "/" << pair.entry;
    EXPECT_FALSE(entry.replay(cpu, run.hardened))
        << pair.pass << " left " << pair.entry << "'s leak observable";

    // Suite route: the registered attack leaks with the knob off and is
    // blocked with it on, and the registry's claim agrees both ways.
    const AttackSpec* spec = FindAttackSpec(pair.attack);
    ASSERT_NE(spec, nullptr) << pair.attack;
    ASSERT_TRUE(spec->vulnerable(cpu)) << pair.attack;
    MitigationConfig off = WithKnobDisabled(MitigationConfig::AllOff(), pair.knob);
    MitigationConfig on = off;
    switch (pair.knob) {
      case SuiteKnob::kKernelIndexMasking: on.kernel_index_masking = true; break;
      case SuiteKnob::kSsbd: on.ssbd = SsbdMode::kAlways; break;
      case SuiteKnob::kRsbStuff: on.rsb_stuff_on_context_switch = true; break;
      default: FAIL() << "unmapped knob"; break;
    }
    const AttackResult open = spec->run(cpu, off, spec->canonical_secret, 0);
    const AttackResult closed = spec->run(cpu, on, spec->canonical_secret, 0);
    EXPECT_TRUE(open.attempted && open.leaked) << pair.attack;
    EXPECT_FALSE(closed.attempted && closed.leaked) << pair.attack;
    EXPECT_FALSE(spec->defended(cpu, off)) << pair.attack;
    EXPECT_TRUE(spec->defended(cpu, on)) << pair.attack;
  }
}

// --- Fixpoint + equivalence over fuzz seeds -------------------------------

TEST(PassFuzz, FixpointAndEquivalenceOnGeneratedPrograms) {
  const CpuModel& cpu = Baseline();
  EquivalenceOptions options;
  options.cpus = {Uarch::kSkylakeClient};  // machine panel, default configs
  for (uint64_t seed = 0; seed < 30; seed++) {
    const Program program = GenerateProgram(seed);
    for (const MitigationPass* pass : MitigationPasses()) {
      const PassRunReport run = RunPassToFixpoint(*pass, program, cpu);
      EXPECT_TRUE(run.fixpoint_ok())
          << pass->name() << " seed " << seed << ": " << run.findings_after
          << " residual after " << run.iterations << " round(s)";
      const EquivalenceReport eq =
          CheckRewriteEquivalence(program, run.hardened, run.index_map, options);
      EXPECT_TRUE(eq.checked) << pass->name() << " seed " << seed;
      EXPECT_TRUE(eq.equivalent)
          << pass->name() << " seed " << seed << ": " << eq.divergence;
    }
  }
}

// --- Switchpoline structure ----------------------------------------------

TEST(Switchpoline, RewritesIndirectBranchIntoCompareChainWithFencedFallback) {
  // Keep the corpus alive for the whole test: EntryNamed returns a
  // reference into its argument, so passing a temporary would dangle.
  const std::vector<CorpusEntry> corpus = BaselineCorpus();
  const CorpusEntry& entry = EntryNamed(corpus, "indirect-naked");
  const MitigationPass* pass = FindMitigationPassByName("switchpoline");
  ASSERT_NE(pass, nullptr);
  const PassRunReport run = RunPassToFixpoint(*pass, entry.program, Baseline());
  int chain = 0;
  bool fenced_fallback = false;
  for (int32_t i = 0; i < run.hardened.size(); i++) {
    if (run.hardened.at(i).op == Op::kBranchEqImm) {
      chain++;
      // Every chain compare tests a known code address of the rewritten
      // program.
      EXPECT_GE(run.hardened.IndexOf(static_cast<uint64_t>(run.hardened.at(i).imm)), 0);
    }
    if (IsIndirectBranch(run.hardened.at(i).op)) {
      ASSERT_GT(i, 0);
      EXPECT_EQ(run.hardened.at(i - 1).op, Op::kLfence);
      fenced_fallback = true;
    }
  }
  EXPECT_GT(chain, 0);
  EXPECT_TRUE(fenced_fallback);
}

// --- Rewrite-engine edge cases --------------------------------------------

RewriteInstr Fence() {
  RewriteInstr ri;
  ri.instr.op = Op::kLfence;
  return ri;
}

// A two-iteration counting loop whose back-edge targets instruction 0.
Program BuildLoopToZero() {
  ProgramBuilder b;
  Label top = b.NewLabel();
  b.Bind(top);
  b.AluImm(AluOp::kAdd, 1, 1, 1);
  b.AluImm(AluOp::kCmpLt, 2, 1, 2);
  b.BranchNz(2, top);
  b.Halt();
  return b.Build();
}

TEST(RewritePlan, InsertBeforeInstructionZeroCatchesTheBackEdge) {
  const Program p = BuildLoopToZero();
  RewritePlan plan(p);
  plan.InsertBefore(0, {Fence()});
  const RewriteResult r = plan.Apply();
  ASSERT_EQ(r.program.size(), p.size() + 1);
  EXPECT_EQ(r.index_map[0], 0);  // incoming edges land on the fence
  EXPECT_EQ(r.program.at(0).op, Op::kLfence);
  EXPECT_EQ(r.program.at(1).op, Op::kAlu);
  // The back edge now targets the fence, so it executes once per iteration:
  // both programs retire, and the fence adds one retirement per trip.
  const ReferenceResult base = RunReference(p);
  const ReferenceResult hardened = RunReference(r.program);
  ASSERT_TRUE(base.ok);
  ASSERT_TRUE(hardened.ok);
  EXPECT_EQ(r.program.at(r.index_map[2]).target, r.index_map[0]);
  EXPECT_GT(hardened.state.retired, base.state.retired);
  const EquivalenceReport eq = CheckRewriteEquivalence(p, r.program, r.index_map);
  EXPECT_TRUE(eq.checked);
  EXPECT_TRUE(eq.equivalent) << eq.divergence;
}

TEST(RewritePlan, AdjacentInsertionsComposeInOrder) {
  ProgramBuilder b;
  b.MovImm(1, 1);
  b.MovImm(2, 2);
  b.MovImm(3, 3);
  b.Halt();
  const Program p = b.Build();
  RewritePlan plan(p);
  plan.InsertBefore(1, {Fence()});
  plan.InsertBefore(2, {Fence()});
  const RewriteResult r = plan.Apply();
  ASSERT_EQ(r.program.size(), 6);
  // index_map points incoming edges at the first instruction inserted for
  // the site, so the fences sit exactly at the mapped indices and the
  // surviving originals follow them.
  EXPECT_EQ(r.index_map[0], 0);
  EXPECT_EQ(r.index_map[1], 1);
  EXPECT_EQ(r.index_map[2], 3);
  EXPECT_EQ(r.index_map[3], 5);
  EXPECT_EQ(r.program.at(1).op, Op::kLfence);
  EXPECT_EQ(r.program.at(2).op, Op::kMovImm);
  EXPECT_EQ(r.program.at(3).op, Op::kLfence);
  EXPECT_EQ(r.program.at(4).op, Op::kMovImm);
  const EquivalenceReport eq = CheckRewriteEquivalence(p, r.program, r.index_map);
  EXPECT_TRUE(eq.checked);
  EXPECT_TRUE(eq.equivalent) << eq.divergence;
}

TEST(RewritePlan, SymbolOnLastInstructionFollowsTheInsertion) {
  ProgramBuilder b;
  b.BindSymbol("entry");
  b.MovImm(1, 1);
  b.BindSymbol("tail");
  b.Halt();
  const Program p = b.Build();
  const int32_t tail = p.symbols().at("tail");
  ASSERT_EQ(tail, p.size() - 1);
  RewritePlan plan(p);
  plan.InsertBefore(tail, {Fence()});
  const RewriteResult r = plan.Apply();
  // The symbol moves with its instruction's incoming edges: callers of
  // "tail" must execute the inserted fence.
  EXPECT_EQ(r.program.symbols().at("tail"), r.index_map[tail]);
  EXPECT_EQ(r.program.at(r.program.symbols().at("tail")).op, Op::kLfence);
  EXPECT_EQ(r.program.symbols().at("entry"), 0);
}

TEST(RewritePlan, CodeAddressImmediatesAreRelocated) {
  // Build the program twice: once to learn instruction 2's address, then
  // again materializing that address with a kMovImm (a code pointer).
  ProgramBuilder probe;
  probe.MovImm(1, 0);
  probe.MovImm(2, 0);
  probe.Halt();
  const uint64_t target_vaddr = probe.Build().VaddrOf(2);

  ProgramBuilder b;
  b.MovImm(1, static_cast<int64_t>(target_vaddr));  // code pointer to index 2
  b.MovImm(2, 0);
  b.Halt();
  const Program p = b.Build();
  ASSERT_EQ(p.IndexOf(target_vaddr), 2);

  RewritePlan plan(p);
  plan.InsertBefore(0, {Fence()});
  plan.InsertBefore(2, {Fence()});
  const RewriteResult r = plan.Apply();
  // The surviving kMovImm (index_map points at the inserted fence; the
  // original follows it) must now hold the relocated address of index 2.
  const Instruction& mov = r.program.at(r.index_map[0] + 1);
  ASSERT_EQ(mov.op, Op::kMovImm);
  ASSERT_EQ(mov.dst, 1);
  EXPECT_EQ(static_cast<uint64_t>(mov.imm), r.program.VaddrOf(r.index_map[2]))
      << "surviving kMovImm code pointer must track its target";
}

// --- The harden grid --------------------------------------------------------
//
// tests/golden/harden_grid.json pins the grid's JSON bytes (the same bytes as
// `spectrebench sweep --grids=harden`); regenerate after an intentional change
// with
//   SPECBENCH_REGEN_GOLDEN=1 ./passes_test --gtest_filter='HardenGrid.*'
// and review the diff.

const SweepResult& HardenGridResult() {
  static const SweepResult result = [] {
    RunnerOptions runner;
    runner.jobs = 1;
    return BuildHardenGrid(AllUarches()).Run(runner);
  }();
  return result;
}

double Metric(const SweepCellResult& cell, const std::string& id) {
  for (const CellMetric& metric : cell.output.metrics) {
    if (metric.id == id) {
      return metric.estimate.value;
    }
  }
  ADD_FAILURE() << "no metric " << id << " in " << cell.key.cpu << "/" << cell.key.config << "/"
                << cell.key.workload;
  return 0.0;
}

TEST(HardenGrid, OneCellPerCpuWorkloadAndPass) {
  const SweepResult& result = HardenGridResult();
  EXPECT_EQ(result.cells.size(), 280u);  // 8 CPUs x 5 workloads x 7 passes
  for (const SweepCellResult& cell : result.cells) {
    EXPECT_NE(FindMitigationPassByName(cell.key.config), nullptr) << cell.key.config;
    EXPECT_GT(Metric(cell, "base"), 0.0) << cell.key.cpu << "/" << cell.key.workload;
  }
}

// The matrix's headline: analyzer-guided fencing beats blanket fencing, and
// index masking beats the targeted fence, each on some (CPU, workload).
TEST(HardenGrid, TargetedBeatsBlanketAndMaskBeatsTargetedSomewhere) {
  std::map<std::pair<std::string, std::string>, std::map<std::string, double>> hardened;
  for (const SweepCellResult& cell : HardenGridResult().cells) {
    hardened[{cell.key.cpu, cell.key.workload}][cell.key.config] = Metric(cell, "hardened");
  }
  int targeted_wins = 0;
  int mask_wins = 0;
  for (auto& [row, by_pass] : hardened) {
    targeted_wins += by_pass["targeted-lfence"] < by_pass["blanket-lfence"] ? 1 : 0;
    mask_wins += by_pass["v1-index-mask"] < by_pass["targeted-lfence"] ? 1 : 0;
  }
  EXPECT_GT(targeted_wins, 0);
  EXPECT_GT(mask_wins, 0);
}

TEST(HardenGrid, IdenticalJsonForAnyJobCount) {
  RunnerOptions runner;
  runner.jobs = 8;
  EXPECT_EQ(BuildHardenGrid(AllUarches()).Run(runner).ToJson(), HardenGridResult().ToJson());
}

TEST(HardenGrid, JsonMatchesGoldenFileByteForByte) {
  const std::string actual = HardenGridResult().ToJson();
  const std::string path =
      (std::filesystem::path(SPECBENCH_TEST_SOURCE_DIR) / "golden" / "harden_grid.json").string();
  if (std::getenv("SPECBENCH_REGEN_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::binary) << actual;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing " << path << " (regenerate with SPECBENCH_REGEN_GOLDEN=1)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str());
}

}  // namespace
}  // namespace specbench
