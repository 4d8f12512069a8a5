// Static analyzer ground truth: the gadget corpus programs produce exactly
// the expected finding kinds, and every finding cross-validates against the
// simulator (replayed attacks leak precisely where the analyzer points).
#include <gtest/gtest.h>

#include <set>

#include "src/analysis/cfg.h"
#include "src/analysis/corpus.h"
#include "src/analysis/crossval.h"
#include "src/analysis/detectors.h"
#include "src/analysis/rewriter.h"
#include "src/analysis/taint.h"
#include "src/cpu/cpu_model.h"
#include "src/isa/isa.h"
#include "src/isa/program.h"
#include "src/uarch/machine.h"

namespace specbench {
namespace {

// Skylake: no eIBRS and vulnerable to every class the corpus exercises, so
// every expected finding kind applies.
const CpuModel& Baseline() { return GetCpuModel(Uarch::kSkylakeClient); }

std::set<FindingKind> KindsOf(const AnalysisResult& r) {
  std::set<FindingKind> kinds;
  for (const Finding& f : r.findings) {
    kinds.insert(f.kind);
  }
  return kinds;
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

std::vector<CorpusEntry> BaselineCorpus() {
  return BuildGadgetCorpus(Baseline().predictor.rsb_depth);
}

// --- ISA metadata ---------------------------------------------------------

TEST(IsaMetadata, OperandAccessors) {
  ProgramBuilder b;
  b.Load(3, MemRef{.base = 1, .index = 2, .scale = 8});
  b.Store(MemRef{.base = 4}, 5);
  b.MovImm(6, 7);
  const Program p = b.Build();

  uint8_t regs[5];
  EXPECT_EQ(SourceRegs(p.at(0), regs), 2);  // base + index
  EXPECT_EQ(DestReg(p.at(0)), 3);
  EXPECT_EQ(SourceRegs(p.at(1), regs), 2);  // base + stored value
  EXPECT_EQ(DestReg(p.at(1)), kNoReg);
  EXPECT_EQ(SourceRegs(p.at(2), regs), 0);
  EXPECT_EQ(DestReg(p.at(2)), 6);

  uint8_t addr[2];
  EXPECT_EQ(AddressRegs(p.at(0), addr), 2);
  EXPECT_EQ(addr[0], 1);
  EXPECT_EQ(addr[1], 2);
  EXPECT_TRUE(IsSerializing(Op::kLfence));
  EXPECT_TRUE(IsSerializing(Op::kSyscall));
  EXPECT_FALSE(IsSerializing(Op::kLoad));
}

// --- CFG ------------------------------------------------------------------

TEST(Cfg, SplitsAtBranchesAndJoinsEdges) {
  ProgramBuilder b;
  Label then = b.NewLabel();
  b.MovImm(0, 1);        // block 0: [0..1]
  b.BranchNz(0, then);
  b.MovImm(1, 2);        // block 1: fallthrough [2]
  b.Bind(then);
  b.Halt();              // block 2: branch target [3]
  const Program p = b.Build();

  const Cfg cfg = Cfg::Build(p);
  ASSERT_EQ(static_cast<int>(cfg.blocks().size()), 3);
  const BasicBlock& entry = cfg.block(cfg.BlockOf(0));
  EXPECT_EQ(entry.first, 0);
  EXPECT_EQ(entry.last, 1);
  ASSERT_EQ(entry.successors.size(), 2u);
  const BasicBlock& target = cfg.block(cfg.BlockOf(3));
  EXPECT_EQ(target.predecessors.size(), 2u);
}

TEST(Cfg, IndirectBranchHasNoStaticSuccessor) {
  ProgramBuilder b;
  b.MovImm(1, 0x400000);
  b.IndirectJmp(1);
  b.Halt();
  const Cfg cfg = Cfg::Build(b.Build());
  const BasicBlock& bb = cfg.block(cfg.BlockOf(1));
  EXPECT_TRUE(bb.has_indirect_successor);
  EXPECT_TRUE(bb.successors.empty());
}

// --- Taint ----------------------------------------------------------------

TEST(Taint, SpeculativeAttackerLoadProducesSecretAndCmovBlocks) {
  ProgramBuilder b;
  Label in = b.NewLabel();
  b.Alu(AluOp::kCmpLt, 3, 0, 2);  // r0: attacker-controlled
  b.BranchNz(3, in);
  b.Halt();
  b.Bind(in);
  b.MovImm(7, 0x1000);            // 3
  b.Load(8, MemRef{.base = 7, .index = 0, .scale = 8});  // 4: wild load
  b.MovImm(6, 0);                 // 5
  b.Cmov(4, 6, 3);                // 6: r4 becomes a masked copy
  b.Halt();                       // 7
  const Program p = b.Build();

  const Cfg cfg = Cfg::Build(p);
  const TaintAnalysis taint = TaintAnalysis::Run(cfg, Baseline());
  EXPECT_GT(taint.at(4).spec_remaining, 0u);
  EXPECT_NE(taint.at(5).regs[8].bits & kTaintSecret, 0u);
  EXPECT_EQ(taint.at(5).regs[8].secret_origin, 4);
  EXPECT_NE(taint.at(7).regs[4].bits & kTaintSpecBlocked, 0u);
}

// --- Detectors over the corpus -------------------------------------------

TEST(Analyzer, CorpusFindingKindsMatchGroundTruth) {
  for (const CorpusEntry& entry : BaselineCorpus()) {
    const AnalysisResult r = Analyze(entry.program, Baseline());
    const std::set<FindingKind> expected(entry.expected.begin(), entry.expected.end());
    EXPECT_EQ(KindsOf(r), expected) << "corpus entry: " << entry.name;
  }
}

TEST(Analyzer, NegativesProduceNoFindingsAtAll) {
  for (const CorpusEntry& entry : BaselineCorpus()) {
    if (!entry.expected.empty()) {
      continue;
    }
    const AnalysisResult r = Analyze(entry.program, Baseline());
    EXPECT_TRUE(r.findings.empty())
        << "corpus entry " << entry.name << " flagged "
        << (r.findings.empty() ? "" : r.findings.front().detail);
  }
}

TEST(Analyzer, CorpusCoversAtLeastFiveFindingKinds) {
  std::set<FindingKind> kinds;
  for (const CorpusEntry& entry : BaselineCorpus()) {
    const AnalysisResult r = Analyze(entry.program, Baseline());
    const std::set<FindingKind> k = KindsOf(r);
    kinds.insert(k.begin(), k.end());
  }
  EXPECT_GE(static_cast<int>(kinds.size()), 5);
}

TEST(Analyzer, EibrsSuppressesIndirectBranchFindings) {
  const CpuModel& eibrs_cpu = GetCpuModel(Uarch::kCascadeLake);
  ASSERT_TRUE(eibrs_cpu.predictor.eibrs);
  const auto corpus = BuildGadgetCorpus(eibrs_cpu.predictor.rsb_depth);
  const CorpusEntry& entry = EntryNamed(corpus, "indirect-naked");
  const AnalysisResult r = Analyze(entry.program, eibrs_cpu);
  EXPECT_FALSE(r.Has(FindingKind::kUnprotectedIndirectBranch));
}

TEST(Analyzer, V1FindingPointsAtTheSecretProducingLoad) {
  const auto corpus = BaselineCorpus();
  const CorpusEntry& entry = EntryNamed(corpus, "v1-classic");
  const AnalysisResult r = Analyze(entry.program, Baseline());
  const auto v1 = r.OfKind(FindingKind::kSpectreV1Gadget);
  ASSERT_FALSE(v1.empty());
  for (const Finding& f : v1) {
    ASSERT_GE(f.aux_index, 0);
    EXPECT_EQ(entry.program.at(f.aux_index).op, Op::kLoad);
  }
}

// --- Rewriter -------------------------------------------------------------

TEST(Rewriter, TargetedInsertsFewerFencesThanBlanket) {
  const auto corpus = BaselineCorpus();
  const CorpusEntry& entry = EntryNamed(corpus, "v1-classic");
  const AnalysisResult r = Analyze(entry.program, Baseline());
  const RewriteResult targeted = HardenTargeted(entry.program, r);
  const RewriteResult blanket = HardenBlanket(entry.program);
  EXPECT_GE(targeted.inserted, 1);
  EXPECT_LT(targeted.inserted, blanket.inserted);
}

TEST(Rewriter, HardenedProgramPreservesArchitecturalBehavior) {
  // A hardened benign loop must still compute the same sum.
  const auto corpus = BaselineCorpus();
  const CorpusEntry& entry = EntryNamed(corpus, "benign-loop");
  const RewriteResult blanket = HardenBlanket(entry.program);
  ASSERT_GT(blanket.inserted, 0);

  auto run_sum = [](const Program& p) {
    Machine m(Baseline());
    m.LoadProgram(&p);
    for (uint64_t i = 0; i < 16; i++) {
      m.PokeData(0x42000000 + 8 * i, i);
    }
    m.Run(p.SymbolVaddr("entry"));
    return m.reg(5);
  };
  EXPECT_EQ(run_sum(entry.program), run_sum(blanket.program));
}

TEST(Rewriter, BranchesIntoFencedSitesExecuteTheFence) {
  const auto corpus = BaselineCorpus();
  const CorpusEntry& entry = EntryNamed(corpus, "v1-classic");
  const AnalysisResult r = Analyze(entry.program, Baseline());
  const RewriteResult targeted = HardenTargeted(entry.program, r);
  // Hardened program re-analyzes clean: the fence closes the window.
  const AnalysisResult after = Analyze(targeted.program, Baseline());
  EXPECT_FALSE(after.Has(FindingKind::kSpectreV1Gadget));
}

// --- Cross-validation -----------------------------------------------------

TEST(CrossVal, BaselinePositivesLeakAndNegativesDoNot) {
  for (const CorpusEntry& entry : BaselineCorpus()) {
    const AnalysisResult r = Analyze(entry.program, Baseline());
    const CrossValidationResult xval = CrossValidate(entry, Baseline(), r);
    EXPECT_EQ(xval.leak_observed, !entry.expected.empty())
        << "corpus entry: " << entry.name;
  }
}

TEST(CrossVal, NoFalseNegativesOrFalsePositivesOnAnyCpu) {
  for (Uarch uarch : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(uarch);
    for (const CorpusEntry& entry : BuildGadgetCorpus(cpu.predictor.rsb_depth)) {
      const AnalysisResult r = Analyze(entry.program, cpu);
      const CrossValidationResult xval = CrossValidate(entry, cpu, r);
      EXPECT_EQ(xval.false_negatives, 0)
          << UarchName(uarch) << " / " << entry.name;
      EXPECT_EQ(xval.false_positives, 0)
          << UarchName(uarch) << " / " << entry.name;
    }
  }
}

TEST(CrossVal, TargetedRewriteEliminatesTheV1Leak) {
  const auto corpus = BaselineCorpus();
  const CorpusEntry& entry = EntryNamed(corpus, "v1-classic");
  const AnalysisResult r = Analyze(entry.program, Baseline());
  const CrossValidationResult xval = CrossValidate(entry, Baseline(), r);
  EXPECT_TRUE(xval.leak_observed);
  ASSERT_TRUE(xval.validated_rewrite);
  EXPECT_FALSE(xval.leak_after_targeted);
}

}  // namespace
}  // namespace specbench
