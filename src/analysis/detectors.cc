#include "src/analysis/detectors.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <tuple>

#include "src/isa/isa.h"

namespace specbench {

const char* FindingKindName(FindingKind kind) {
  switch (kind) {
    case FindingKind::kSpectreV1Gadget: return "spectre-v1-gadget";
    case FindingKind::kUnprotectedIndirectBranch: return "unprotected-indirect-branch";
    case FindingKind::kRsbImbalance: return "rsb-imbalance";
    case FindingKind::kSsbGadget: return "ssb-gadget";
    case FindingKind::kMissingBufferClear: return "missing-buffer-clear";
    case FindingKind::kMissingKptiCr3Switch: return "missing-kpti-cr3-switch";
    case FindingKind::kCount: break;
  }
  return "?";
}

std::vector<Finding> AnalysisResult::OfKind(FindingKind kind) const {
  std::vector<Finding> out;
  for (const Finding& f : findings) {
    if (f.kind == kind) {
      out.push_back(f);
    }
  }
  return out;
}

namespace {

std::string Describe(const Program& p, int32_t index) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s@%d (0x%llx)", OpName(p.at(index).op), index,
                static_cast<unsigned long long>(p.VaddrOf(index)));
  return buf;
}

// --- Spectre V1 ----------------------------------------------------------

void DetectSpectreV1(const Cfg& cfg, const TaintAnalysis& taint, AnalysisResult* result) {
  const Program& p = cfg.program();
  std::set<std::pair<int32_t, int32_t>> seen;  // (access, origin)
  for (int32_t i = 0; i < p.size(); i++) {
    const Instruction& in = p.at(i);
    if (in.op != Op::kLoad && in.op != Op::kStore) {
      continue;
    }
    const TaintState& state = taint.at(i);
    if (!state.reachable || state.spec_remaining == 0) {
      continue;
    }
    uint8_t addr[2];
    const int n = AddressRegs(in, addr);
    for (int k = 0; k < n; k++) {
      const RegTaint& t = state.regs[addr[k]];
      if ((t.bits & kTaintSecret) == 0 || (t.bits & kTaintSpecBlocked) != 0) {
        continue;
      }
      if (!seen.insert({i, t.secret_origin}).second) {
        continue;
      }
      Finding f;
      f.kind = FindingKind::kSpectreV1Gadget;
      f.index = i;
      f.vaddr = p.VaddrOf(i);
      f.aux_index = t.secret_origin;
      f.branch_index = state.spec_branch;
      f.detail = "transient " + std::string(OpName(in.op)) +
                 " dereferences secret produced by speculative load " +
                 Describe(p, t.secret_origin) + " under branch " +
                 (state.spec_branch >= 0 ? Describe(p, state.spec_branch) : "?");
      result->findings.push_back(std::move(f));
    }
  }
}

// --- Spectre V2 (unprotected indirect branches) --------------------------

void DetectIndirectBranches(const Cfg& cfg, const TaintAnalysis& taint, const CpuModel& cpu,
                            AnalysisResult* result) {
  if (!cpu.vuln.spectre_v2 || cpu.predictor.eibrs) {
    // eIBRS-class parts isolate predictor entries across contexts; the
    // paper's Tables 9/10 show cross-training fails there.
    return;
  }
  const Program& p = cfg.program();
  for (int32_t i = 0; i < p.size(); i++) {
    if (!IsIndirectBranch(p.at(i).op) || !taint.at(i).reachable) {
      continue;
    }
    // Serialized directly ahead (only register-to-register work in between):
    // the target is architecturally resolved before the branch issues, so
    // there is no wide misprediction window to steer.
    bool protected_by_lfence = false;
    const BasicBlock& bb = cfg.block(cfg.BlockOf(i));
    for (int32_t j = i - 1; j >= bb.first; j--) {
      const Op op = p.at(j).op;
      if (op == Op::kLfence) {
        protected_by_lfence = true;
        break;
      }
      if (ReadsMemory(op) || WritesMemory(op) || IsControlFlow(op)) {
        break;
      }
    }
    if (protected_by_lfence) {
      continue;
    }
    Finding f;
    f.kind = FindingKind::kUnprotectedIndirectBranch;
    f.index = i;
    f.vaddr = p.VaddrOf(i);
    f.detail = std::string(OpName(p.at(i).op)) +
               " is BTB-predicted with no lfence/retpoline; attacker-trained targets "
               "steer transient execution on pre-eIBRS hardware";
    result->findings.push_back(std::move(f));
  }
}

// --- RSB call/ret imbalance ----------------------------------------------

class RsbWalker {
 public:
  RsbWalker(const Cfg& cfg, uint32_t rsb_depth, AnalysisResult* result)
      : cfg_(cfg), p_(cfg.program()), rsb_depth_(rsb_depth), result_(result) {}

  void Run() {
    // Roots are thread entry points, where call depth is genuinely zero: the
    // program's first instruction plus any of these symbols. Arbitrary
    // exported symbols are call targets (their rets match a caller) —
    // walking them at depth 0 would flag every function epilogue.
    static const char* const kRootSymbols[] = {"entry", "user_main", "main", "_start"};
    std::set<int32_t> roots;
    roots.insert(cfg_.BlockOf(0));
    for (const char* name : kRootSymbols) {
      if (p_.HasSymbol(name)) {
        roots.insert(cfg_.BlockOf(p_.SymbolIndex(name)));
      }
    }
    for (int32_t root : roots) {
      Walk(root, {}, false);
    }
  }

 private:
  void Flag(int32_t index, const std::string& detail) {
    if (!flagged_.insert(index).second) {
      return;
    }
    Finding f;
    f.kind = FindingKind::kRsbImbalance;
    f.index = index;
    f.vaddr = p_.VaddrOf(index);
    f.detail = detail;
    result_->findings.push_back(std::move(f));
  }

  // `stuffed`: an executed kRsbStuff refilled the RSB with benign entries on
  // this path, so a later underflowing ret predicts a harmless stuffed slot
  // instead of falling back to the attacker-trainable BTB. The rsb-fill
  // mitigation pass relies on both suppressions below for its fixpoint.
  void Walk(int32_t block, std::vector<int32_t> ret_sites, bool stuffed) {
    if (!visited_.insert({block, ret_sites.size(), stuffed}).second) {
      return;
    }
    const BasicBlock& bb = cfg_.block(block);
    for (int32_t i = bb.first; i <= bb.last; i++) {
      if (p_.at(i).op == Op::kRsbStuff) {
        stuffed = true;
      }
    }
    const Instruction& term = p_.at(bb.last);
    switch (term.op) {
      case Op::kCall: {
        // A refill planted at the return site repairs the underflow the
        // outer returns would otherwise hit on the way back.
        const bool refilled_on_return =
            bb.last + 1 < p_.size() && p_.at(bb.last + 1).op == Op::kRsbStuff;
        if (ret_sites.size() == rsb_depth_ && !refilled_on_return) {
          Flag(bb.last, "call depth exceeds the " + std::to_string(rsb_depth_) +
                            "-entry RSB; outer returns will underflow and "
                            "fall back to the BTB");
        }
        if (ret_sites.size() < rsb_depth_ + 2 && bb.last + 1 < p_.size()) {
          ret_sites.push_back(cfg_.BlockOf(bb.last + 1));
          Walk(cfg_.BlockOf(term.target), std::move(ret_sites), stuffed);
        }
        break;
      }
      case Op::kRet: {
        if (ret_sites.empty()) {
          if (!stuffed) {
            Flag(bb.last,
                 "ret with no matching call on this path: RSB underflow predicts "
                 "from the attacker-trainable BTB (SpectreRSB)");
          }
        } else {
          const int32_t back = ret_sites.back();
          ret_sites.pop_back();
          Walk(back, std::move(ret_sites), stuffed);
        }
        break;
      }
      default:
        for (int32_t succ : bb.successors) {
          Walk(succ, ret_sites, stuffed);
        }
        break;
    }
  }

  const Cfg& cfg_;
  const Program& p_;
  const uint32_t rsb_depth_;
  AnalysisResult* result_;
  std::set<std::tuple<int32_t, size_t, bool>> visited_;
  std::set<int32_t> flagged_;
};

// --- Speculative Store Bypass --------------------------------------------

// Conservative may-alias on effective addresses: only provably-disjoint
// operands (same register expression or both absolute, displacements at
// least a word apart) are declared distinct.
bool MayAlias(const MemRef& a, const MemRef& b) {
  const bool same_expr = a.base == b.base && a.index == b.index &&
                         (a.index == kNoReg || a.scale == b.scale);
  if (same_expr) {
    const int64_t delta = a.disp > b.disp ? a.disp - b.disp : b.disp - a.disp;
    return delta < 8;
  }
  return true;
}

void DetectSsb(const Cfg& cfg, const TaintAnalysis& taint, const CpuModel& cpu,
               AnalysisResult* result) {
  if (!cpu.vuln.spec_store_bypass) {
    return;
  }
  const Program& p = cfg.program();
  // How many instructions a store's address/data stays unresolved for the
  // bypass machinery.
  const uint32_t window = std::max(4u, cpu.latency.store_resolve_delay);
  struct PendingStore {
    int32_t index;
    MemRef mem;
  };
  struct StaleValue {
    int32_t load_index;   // the bypassing load
    int32_t store_index;  // the store it may bypass
  };
  // Program-order scan: the classic gadget's store and bypassing load sit a
  // few instructions apart in the emission order even when a mispredicted
  // branch separates their basic blocks, so scanning the raw stream (with
  // resets at serialization points) catches cross-block gadgets. The cost
  // is flagging store/load pairs that never share a dynamic path — an
  // over-approximation the cross-validation harness quantifies.
  std::set<std::pair<int32_t, int32_t>> seen;
  std::vector<PendingStore> stores;
  std::map<uint8_t, StaleValue> stale;
  auto emit = [&](const StaleValue& v, int32_t use_index) {
    if (!seen.insert({v.load_index, v.store_index}).second) {
      return;
    }
    Finding f;
    f.kind = FindingKind::kSsbGadget;
    f.index = v.load_index;
    f.vaddr = p.VaddrOf(v.load_index);
    f.aux_index = v.store_index;
    f.detail = "load may bypass unresolved store " + Describe(p, v.store_index) +
               " and forward stale memory into the address of " + Describe(p, use_index);
    result->findings.push_back(std::move(f));
  };
  for (int32_t i = 0; i < p.size(); i++) {
    const Instruction& in = p.at(i);
    if (!taint.at(i).reachable) {
      continue;
    }
    if (IsSerializing(in.op)) {
      // Store addresses resolve across a serialization point; the bypass
      // window is gone.
      stores.clear();
      stale.clear();
      continue;
    }
    // A memory access whose address depends on a possibly-stale value is
    // the transmitting half of the gadget.
    uint8_t addr[2];
    const int n = AddressRegs(in, addr);
    for (int k = 0; k < n; k++) {
      if (auto it = stale.find(addr[k]); it != stale.end()) {
        emit(it->second, i);
      }
    }
    if (in.op == Op::kLoad) {
      bool bypasses = false;
      // The bypass is a transient phenomenon: committed loads wait for (or
      // forward from) older stores, so only speculative contexts qualify.
      if (taint.at(i).spec_remaining > 0) {
        for (const PendingStore& s : stores) {
          if (i - s.index <= static_cast<int32_t>(window) && MayAlias(in.mem, s.mem)) {
            stale[in.dst] = StaleValue{i, s.index};
            bypasses = true;
            break;
          }
        }
      }
      if (!bypasses) {
        stale.erase(in.dst);
      }
    } else if (in.op == Op::kStore) {
      stores.push_back(PendingStore{i, in.mem});
    } else {
      // Propagate staleness through register dataflow.
      const uint8_t dst = DestReg(in);
      if (dst != kNoReg) {
        uint8_t srcs[5];
        const int ns = SourceRegs(in, srcs);
        bool inherited = false;
        for (int k = 0; k < ns; k++) {
          if (auto it = stale.find(srcs[k]); it != stale.end()) {
            stale[dst] = it->second;
            inherited = true;
            break;
          }
        }
        if (!inherited) {
          stale.erase(dst);
        }
      }
    }
  }
}

// --- Privilege-transition hygiene ----------------------------------------

// Scans backwards from `index` (exclusive) across straight-line predecessors
// for an opcode satisfying `want`, up to `budget` instructions.
template <typename Pred>
bool PathHasBefore(const Cfg& cfg, int32_t index, uint32_t budget, Pred want) {
  const Program& p = cfg.program();
  int32_t block = cfg.BlockOf(index);
  int32_t i = index - 1;
  for (uint32_t steps = 0; steps < budget; steps++) {
    const BasicBlock& bb = cfg.block(block);
    if (i < bb.first) {
      if (bb.predecessors.size() != 1) {
        return false;  // join point / entry: give up (conservative)
      }
      block = bb.predecessors[0];
      i = cfg.block(block).last;
    }
    if (want(p.at(i).op)) {
      return true;
    }
    i--;
  }
  return false;
}

void DetectTransitions(const Cfg& cfg, const TaintAnalysis& taint, const CpuModel& cpu,
                       AnalysisResult* result) {
  const Program& p = cfg.program();
  // Backward scan budget for the incoming-path checks.
  const uint32_t budget = 64;
  for (int32_t i = 0; i < p.size(); i++) {
    const Op op = p.at(i).op;
    if (!taint.at(i).reachable) {
      continue;
    }
    if (op == Op::kSysret) {
      if (cpu.vuln.mds &&
          !PathHasBefore(cfg, i, budget, [](Op o) { return o == Op::kVerw; })) {
        Finding f;
        f.kind = FindingKind::kMissingBufferClear;
        f.index = i;
        f.vaddr = p.VaddrOf(i);
        f.detail = "kernel->user return with no verw on the incoming path: fill/store "
                   "buffers carry kernel data into user mode (MDS)";
        result->findings.push_back(std::move(f));
      }
      if (cpu.vuln.meltdown &&
          !PathHasBefore(cfg, i, budget, [](Op o) { return o == Op::kMovCr3; })) {
        Finding f;
        f.kind = FindingKind::kMissingKptiCr3Switch;
        f.index = i;
        f.vaddr = p.VaddrOf(i);
        f.detail = "kernel->user return with no cr3 switch on the incoming path: kernel "
                   "mappings stay visible to user speculation (no KPTI)";
        result->findings.push_back(std::move(f));
      }
    } else if (op == Op::kVmEnter) {
      if ((cpu.vuln.l1tf || cpu.vuln.mds) &&
          !PathHasBefore(cfg, i, budget,
                         [](Op o) { return o == Op::kFlushL1d || o == Op::kVerw; })) {
        Finding f;
        f.kind = FindingKind::kMissingBufferClear;
        f.index = i;
        f.vaddr = p.VaddrOf(i);
        f.detail = "vm entry with no L1D flush / verw on the incoming path: host "
                   "secrets readable from the guest (L1TF/MDS)";
        result->findings.push_back(std::move(f));
      }
    }
  }
}

}  // namespace

AnalysisResult Analyze(const Program& program, const CpuModel& cpu) {
  const Cfg cfg = Cfg::Build(program);
  const TaintAnalysis taint = TaintAnalysis::Run(cfg, cpu);

  AnalysisResult result;
  result.num_blocks = cfg.num_blocks();
  result.num_instructions = program.size();
  if (cpu.vuln.spectre_v1) {
    DetectSpectreV1(cfg, taint, &result);
  }
  DetectIndirectBranches(cfg, taint, cpu, &result);
  if (cpu.vuln.spectre_v2) {
    RsbWalker(cfg, cpu.predictor.rsb_depth, &result).Run();
  }
  DetectSsb(cfg, taint, cpu, &result);
  DetectTransitions(cfg, taint, cpu, &result);
  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              return a.index != b.index ? a.index < b.index
                                        : static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });
  return result;
}

}  // namespace specbench
