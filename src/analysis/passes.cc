#include "src/analysis/passes.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "src/isa/isa.h"
#include "src/util/check.h"

namespace specbench {

namespace {

RewriteInstr MakeLfence(CauseTag cause) {
  RewriteInstr ri;
  ri.instr.op = Op::kLfence;
  ri.instr.cause = cause;
  return ri;
}

// --- targeted-lfence ------------------------------------------------------

class TargetedLfencePass : public MitigationPass {
 public:
  std::string name() const override { return "targeted-lfence"; }
  std::string summary() const override {
    return "lfence in front of each Spectre-V1 finding's secret-producing load";
  }
  std::vector<FindingKind> target_kinds() const override {
    return {FindingKind::kSpectreV1Gadget};
  }
  RewriteResult Run(const Program& program, const AnalysisResult& analysis,
                    const CpuModel& cpu) const override {
    (void)cpu;
    return HardenTargeted(program, analysis);
  }
};

// --- blanket-lfence -------------------------------------------------------

class BlanketLfencePass : public MitigationPass {
 public:
  std::string name() const override { return "blanket-lfence"; }
  std::string summary() const override {
    return "lfence on both successors of every conditional branch (compiler-style)";
  }
  std::vector<FindingKind> target_kinds() const override {
    return {FindingKind::kSpectreV1Gadget};
  }
  RewriteResult Run(const Program& program, const AnalysisResult& analysis,
                    const CpuModel& cpu) const override {
    (void)analysis;
    (void)cpu;
    return HardenBlanket(program);
  }
};

// --- v1-index-mask --------------------------------------------------------

// SLH-style index masking: instead of serializing, make the flagged load's
// address registers *data-dependent* on the bounds condition with an
// architectural-identity cmov (dst == src). The machine cannot issue the
// load until the condition resolves, which closes the misprediction window
// without draining the pipeline — the cheap alternative the paper's kernel
// index-masking rows price. The taint pass models the dependency barrier as
// kTaintSpecBlocked on the cmov destination.
class V1IndexMaskPass : public MitigationPass {
 public:
  std::string name() const override { return "v1-index-mask"; }
  std::string summary() const override {
    return "mask each V1 load's address with its bounds condition (SLH-style cmov)";
  }
  std::vector<FindingKind> target_kinds() const override {
    return {FindingKind::kSpectreV1Gadget};
  }
  RewriteResult Run(const Program& program, const AnalysisResult& analysis,
                    const CpuModel& cpu) const override {
    (void)cpu;
    RewritePlan plan(program);
    std::set<int32_t> handled;
    std::set<int32_t> fence_fallback;
    for (const Finding& f : analysis.OfKind(FindingKind::kSpectreV1Gadget)) {
      const int32_t load = f.aux_index >= 0 ? f.aux_index : f.index;
      if (!handled.insert(load).second) {
        continue;
      }
      const Instruction& ld = program.at(load);
      uint8_t addr[2];
      const int num_addr = AddressRegs(ld, addr);
      const bool branch_known = f.branch_index >= 0 &&
                                IsConditionalBranch(program.at(f.branch_index).op) &&
                                program.at(f.branch_index).src1 != kNoReg;
      if (ld.op != Op::kLoad || num_addr == 0 || !branch_known) {
        fence_fallback.insert(load);
        continue;
      }
      const uint8_t cond = program.at(f.branch_index).src1;
      std::vector<RewriteInstr> seq;
      for (int k = 0; k < num_addr; k++) {
        RewriteInstr ri;
        ri.instr.op = Op::kCmov;
        ri.instr.dst = addr[k];
        ri.instr.src1 = addr[k];  // dst == src: identity for any condition value
        ri.instr.src2 = cond;
        ri.instr.cause = CauseTag::kSpectreV1;
        seq.push_back(ri);
      }
      plan.InsertBefore(load, std::move(seq));
    }
    for (int32_t site : fence_fallback) {
      if (program.at(site).op != Op::kLfence) {
        plan.InsertBefore(site, {MakeLfence(CauseTag::kSpectreV1)});
      }
    }
    return plan.Apply();
  }
};

// --- switchpoline ---------------------------------------------------------

// Candidate dispatch targets for an indirect branch: every original
// instruction whose address is materialized by a kMovImm anywhere in the
// program (code pointers only ever enter registers/memory that way), plus
// exported symbols. Ranked by how close the defining kMovImm sits to the
// branch (the pointer feeding a dispatch is usually materialized nearby),
// ties broken by index so the chain is deterministic.
std::vector<int32_t> DispatchCandidates(const Program& p, int32_t site, size_t limit) {
  std::map<int32_t, int32_t> best;  // target index -> best (smallest) rank
  for (int32_t i = 0; i < p.size(); i++) {
    const Instruction& in = p.at(i);
    if (in.op != Op::kMovImm) {
      continue;
    }
    const int32_t t = p.IndexOf(static_cast<uint64_t>(in.imm));
    if (t < 0) {
      continue;
    }
    // Definitions before the site outrank definitions after it.
    const int32_t rank = i <= site ? site - i : (i - site) + p.size();
    auto [it, fresh] = best.emplace(t, rank);
    if (!fresh && rank < it->second) {
      it->second = rank;
    }
  }
  for (const auto& [name, index] : p.symbols()) {
    (void)name;
    if (index >= 0 && index < p.size()) {
      best.emplace(index, 2 * p.size());  // weakest rank: no defining kMovImm seen
    }
  }
  std::vector<std::pair<int32_t, int32_t>> ranked;  // (rank, target)
  ranked.reserve(best.size());
  for (const auto& [target, rank] : best) {
    ranked.emplace_back(rank, target);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<int32_t> out;
  for (const auto& [rank, target] : ranked) {
    (void)rank;
    if (out.size() == limit) {
      break;
    }
    out.push_back(target);
  }
  return out;
}

// Switchpoline-style conversion: replace a BTB-predicted indirect branch
// with a chain of compare-against-known-target direct branches. Matching
// targets never consult the BTB; the residual fallback keeps the original
// indirect branch behind an lfence, which both serializes the rare unknown
// target and satisfies the analyzer's protected-indirect rule (fixpoint).
class SwitchpolinePass : public MitigationPass {
 public:
  static constexpr size_t kMaxChain = 4;

  std::string name() const override { return "switchpoline"; }
  std::string summary() const override {
    return "indirect branch -> compare chain of direct branches, lfence fallback";
  }
  std::vector<FindingKind> target_kinds() const override {
    return {FindingKind::kUnprotectedIndirectBranch};
  }
  RewriteResult Run(const Program& program, const AnalysisResult& analysis,
                    const CpuModel& cpu) const override {
    (void)cpu;
    RewritePlan plan(program);
    for (const Finding& f : analysis.OfKind(FindingKind::kUnprotectedIndirectBranch)) {
      const int32_t i = f.index;
      const Instruction& in = program.at(i);
      if (!IsIndirectBranch(in.op)) {
        continue;
      }
      const std::vector<int32_t> targets = DispatchCandidates(program, i, kMaxChain);
      const bool call_form = in.op == Op::kIndirectCall && i + 1 < program.size();
      if (targets.empty() || (in.op == Op::kIndirectCall && !call_form)) {
        // No dispatch table to speak of (or a call with no return site):
        // just serialize the branch.
        plan.InsertBefore(i, {MakeLfence(CauseTag::kSpectreV2)});
        continue;
      }
      std::vector<RewriteInstr> seq;
      const int32_t k = static_cast<int32_t>(targets.size());
      for (int32_t j = 0; j < k; j++) {
        RewriteInstr cmp;
        cmp.instr.op = Op::kBranchEqImm;
        cmp.instr.src1 = in.src1;
        cmp.instr.use_imm = true;
        cmp.instr.imm = static_cast<int64_t>(program.VaddrOf(targets[j]));
        cmp.remap_imm_vaddr = true;
        cmp.instr.cause = CauseTag::kSpectreV2;
        if (call_form) {
          // Jump to this target's call stub after the shared fallback.
          cmp.instr.target = k + 3 + 2 * j;
          cmp.target_kind = RewriteInstr::Target::kRelative;
        } else {
          cmp.instr.target = targets[j];
          cmp.target_kind = RewriteInstr::Target::kOriginal;
        }
        seq.push_back(cmp);
      }
      seq.push_back(MakeLfence(CauseTag::kSpectreV2));
      RewriteInstr fallback;
      fallback.instr = in;  // the original indirect branch, now serialized
      seq.push_back(fallback);
      if (call_form) {
        RewriteInstr rejoin;
        rejoin.instr.op = Op::kJmp;
        rejoin.instr.cause = CauseTag::kSpectreV2;
        rejoin.instr.target = i + 1;
        rejoin.target_kind = RewriteInstr::Target::kOriginal;
        seq.push_back(rejoin);
        for (int32_t j = 0; j < k; j++) {
          RewriteInstr call;
          call.instr.op = Op::kCall;
          call.instr.cause = CauseTag::kSpectreV2;
          call.instr.target = targets[j];
          call.target_kind = RewriteInstr::Target::kOriginal;
          seq.push_back(call);
          RewriteInstr back = rejoin;
          seq.push_back(back);
        }
      }
      plan.Replace(i, std::move(seq));
    }
    return plan.Apply();
  }
};

// --- ssb-fence ------------------------------------------------------------

class SsbFencePass : public MitigationPass {
 public:
  std::string name() const override { return "ssb-fence"; }
  std::string summary() const override {
    return "lfence between each SSB finding's store and its bypassing load";
  }
  std::vector<FindingKind> target_kinds() const override {
    return {FindingKind::kSsbGadget};
  }
  RewriteResult Run(const Program& program, const AnalysisResult& analysis,
                    const CpuModel& cpu) const override {
    (void)cpu;
    RewritePlan plan(program);
    std::set<int32_t> sites;
    for (const Finding& f : analysis.OfKind(FindingKind::kSsbGadget)) {
      // f.index is the bypassing load; a fence directly in front of it
      // forces the older store's address to resolve first.
      if (f.index >= 0 && program.at(f.index).op != Op::kLfence) {
        sites.insert(f.index);
      }
    }
    for (int32_t site : sites) {
      plan.InsertBefore(site, {MakeLfence(CauseTag::kSsbd)});
    }
    return plan.Apply();
  }
};

// --- rsb-fill -------------------------------------------------------------

class RsbFillPass : public MitigationPass {
 public:
  std::string name() const override { return "rsb-fill"; }
  std::string summary() const override {
    return "kRsbStuff refill at underflowing rets and past-RSB-depth call chains";
  }
  std::vector<FindingKind> target_kinds() const override {
    return {FindingKind::kRsbImbalance};
  }
  RewriteResult Run(const Program& program, const AnalysisResult& analysis,
                    const CpuModel& cpu) const override {
    (void)cpu;
    RewritePlan plan(program);
    std::set<int32_t> sites;
    for (const Finding& f : analysis.OfKind(FindingKind::kRsbImbalance)) {
      const Op op = program.at(f.index).op;
      if (op == Op::kRet) {
        // Refill before the underflowing ret: it then predicts a benign
        // stuffed entry instead of the BTB.
        sites.insert(f.index);
      } else if (op == Op::kCall && f.index + 1 < program.size()) {
        // Deep call chain: refill at the return site, executed on the way
        // back out just before the outer returns would underflow.
        sites.insert(f.index + 1);
      }
    }
    for (int32_t site : sites) {
      if (program.at(site).op == Op::kRsbStuff) {
        continue;
      }
      RewriteInstr stuff;
      stuff.instr.op = Op::kRsbStuff;
      stuff.instr.cause = CauseTag::kSpectreV2;
      plan.InsertBefore(site, {stuff});
    }
    return plan.Apply();
  }
};

// --- transition-hygiene ---------------------------------------------------

// Mirrors the corpus's protected kernel-exit sequence: MovImm(r10, 0) +
// MovCr3 (KPTI) and verw (MDS) ahead of kSysret, flush_l1d ahead of
// kVmEnter. Note the cr3 switch clobbers r10, matching the convention that
// the kernel exit path owns the scratch registers.
class TransitionHygienePass : public MitigationPass {
 public:
  static constexpr uint8_t kScratchReg = 10;

  std::string name() const override { return "transition-hygiene"; }
  std::string summary() const override {
    return "verw / KPTI cr3 switch / L1D flush ahead of unprotected transitions";
  }
  std::vector<FindingKind> target_kinds() const override {
    return {FindingKind::kMissingBufferClear, FindingKind::kMissingKptiCr3Switch};
  }
  RewriteResult Run(const Program& program, const AnalysisResult& analysis,
                    const CpuModel& cpu) const override {
    (void)cpu;
    // One combined sequence per flagged transition site.
    std::map<int32_t, std::pair<bool, bool>> sites;  // index -> (clear, kpti)
    for (const Finding& f : analysis.findings) {
      if (f.kind == FindingKind::kMissingBufferClear) {
        sites[f.index].first = true;
      } else if (f.kind == FindingKind::kMissingKptiCr3Switch) {
        sites[f.index].second = true;
      }
    }
    RewritePlan plan(program);
    for (const auto& [index, need] : sites) {
      const auto& [clear, kpti] = need;
      const Op op = program.at(index).op;
      std::vector<RewriteInstr> seq;
      if (kpti && op == Op::kSysret) {
        RewriteInstr zero;
        zero.instr.op = Op::kMovImm;
        zero.instr.dst = kScratchReg;
        zero.instr.imm = 0;
        zero.instr.cause = CauseTag::kPti;
        seq.push_back(zero);
        RewriteInstr cr3;
        cr3.instr.op = Op::kMovCr3;
        cr3.instr.src1 = kScratchReg;
        cr3.instr.cause = CauseTag::kPti;
        seq.push_back(cr3);
      }
      if (clear) {
        RewriteInstr flush;
        flush.instr.op = op == Op::kVmEnter ? Op::kFlushL1d : Op::kVerw;
        flush.instr.cause = op == Op::kVmEnter ? CauseTag::kOther : CauseTag::kMds;
        seq.push_back(flush);
      }
      if (!seq.empty()) {
        plan.InsertBefore(index, std::move(seq));
      }
    }
    return plan.Apply();
  }
};

}  // namespace

const std::vector<const MitigationPass*>& MitigationPasses() {
  static const TargetedLfencePass targeted;
  static const BlanketLfencePass blanket;
  static const V1IndexMaskPass mask;
  static const SwitchpolinePass switchpoline;
  static const SsbFencePass ssb;
  static const RsbFillPass rsb;
  static const TransitionHygienePass transitions;
  static const std::vector<const MitigationPass*> passes = {
      &targeted, &blanket, &mask, &switchpoline, &ssb, &rsb, &transitions,
  };
  return passes;
}

const MitigationPass* FindMitigationPassByName(const std::string& name) {
  for (const MitigationPass* pass : MitigationPasses()) {
    if (pass->name() == name) {
      return pass;
    }
  }
  return nullptr;
}

int CountFindingsOfKinds(const AnalysisResult& analysis,
                         const std::vector<FindingKind>& kinds) {
  int count = 0;
  for (const Finding& f : analysis.findings) {
    if (std::find(kinds.begin(), kinds.end(), f.kind) != kinds.end()) {
      count++;
    }
  }
  return count;
}

PassRunReport RunPassToFixpoint(const MitigationPass& pass, const Program& program,
                                const CpuModel& cpu, int max_iterations) {
  if (max_iterations <= 0) {
    max_iterations = program.size() + 1;
  }
  const std::vector<FindingKind> kinds = pass.target_kinds();
  PassRunReport report;
  report.hardened = program;
  report.index_map.resize(program.size() + 1);
  for (int32_t i = 0; i <= program.size(); i++) {
    report.index_map[i] = i;
  }

  AnalysisResult analysis = Analyze(report.hardened, cpu);
  report.findings_before = CountFindingsOfKinds(analysis, kinds);
  for (int round = 0; round < max_iterations; round++) {
    RewriteResult result = pass.Run(report.hardened, analysis, cpu);
    if (result.inserted == 0) {
      report.converged = true;
      break;
    }
    if (round == 0) {
      report.sites = result.sites;
    }
    report.iterations++;
    report.inserted += result.inserted;
    for (int32_t& mapped : report.index_map) {
      SPECBENCH_CHECK(mapped >= 0 &&
                      mapped < static_cast<int32_t>(result.index_map.size()));
      mapped = result.index_map[mapped];
    }
    report.hardened = std::move(result.program);
    analysis = Analyze(report.hardened, cpu);
  }
  report.findings_after = CountFindingsOfKinds(analysis, kinds);
  return report;
}

}  // namespace specbench
