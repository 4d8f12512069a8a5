// The `harden` grid: the software-mitigation pass overhead matrix (the
// paper's §6.4 lfence story, generalized to the whole pass registry). Every
// registered mitigation pass (src/analysis/passes.h) is applied to every
// workload below on every CPU, and the hardened program's cycle count is
// compared against the unmitigated baseline. The headline comparisons:
//   * targeted-lfence vs blanket-lfence — analyzer-guided fencing pays only
//     at flagged gadgets, blanket compilation fences every branch edge;
//   * v1-index-mask vs targeted-lfence — SLH-style masking closes the same
//     window with a data dependency instead of a pipeline drain.
#include <string>
#include <vector>

#include "src/analysis/passes.h"
#include "src/core/sweep_grids.h"
#include "src/cpu/cpu_model.h"
#include "src/isa/program.h"
#include "src/jit/jit.h"
#include "src/uarch/machine.h"
#include "src/uarch/machine_pool.h"

namespace specbench {

namespace {

constexpr uint64_t kArrayBase = 0x42000000;
constexpr uint64_t kLenAddr = 0x41000000;
constexpr uint64_t kFpTable = 0x46000000;
constexpr uint64_t kHardenStackTop = 0x48000000;
constexpr uint64_t kJsHeapBase = 0x60000000;
constexpr int64_t kIterations = 512;
constexpr uint64_t kArrayLen = 64;

// Hot bounds-checked loop, in-bounds by construction: the blanket pass
// fences both edges of the loop's checks; the analyzer proves the indices
// clean and inserts nothing.
Program BuildBoundsCheckedSum() {
  ProgramBuilder b;
  Label loop = b.NewLabel();
  Label body = b.NewLabel();
  Label skip = b.NewLabel();
  b.BindSymbol("entry");
  b.MovImm(1, static_cast<int64_t>(kArrayBase));
  b.MovImm(2, 0);                       // i
  b.MovImm(3, kIterations);
  b.MovImm(5, 0);                       // sum
  b.MovImm(10, static_cast<int64_t>(kLenAddr));
  b.Bind(loop);
  b.AluImm(AluOp::kAnd, 6, 2, kArrayLen - 1);  // idx = i % len
  b.Load(7, MemRef{.base = 10});               // len (the bounds check)
  b.Alu(AluOp::kCmpLt, 8, 6, 7);
  b.BranchNz(8, body);
  b.Jmp(skip);
  b.Bind(body);
  b.Load(4, MemRef{.base = 1, .index = 6, .scale = 8});
  b.Alu(AluOp::kAdd, 5, 5, 4);
  b.Bind(skip);
  b.AluImm(AluOp::kAdd, 2, 2, 1);
  b.Alu(AluOp::kCmpLt, 9, 2, 3);
  b.BranchNz(9, loop);
  b.Halt();
  return b.Build();
}

// The same hot loop preceded by one real V1 gadget on the function argument
// (r0): the analyzer flags exactly that load, so targeted hardening pays for
// one fence while blanket hardening still fences every loop iteration — and
// index masking pays a cmov dependency instead of the fence's drain.
Program BuildGadgetPlusLoop() {
  ProgramBuilder b;
  Label in_bounds = b.NewLabel();
  Label loop = b.NewLabel();
  b.BindSymbol("entry");
  b.MovImm(10, static_cast<int64_t>(kLenAddr));
  b.Load(11, MemRef{.base = 10});
  b.Alu(AluOp::kCmpLt, 12, 0, 11);  // r0: caller-controlled index
  b.BranchNz(12, in_bounds);
  b.Bind(in_bounds);
  b.MovImm(1, static_cast<int64_t>(kArrayBase));
  b.Load(13, MemRef{.base = 1, .index = 0, .scale = 8});
  b.AluImm(AluOp::kAnd, 13, 13, kArrayLen - 1);  // arch-safe, still tainted
  b.Load(14, MemRef{.base = 1, .index = 13, .scale = 8});  // dependent load
  b.Alu(AluOp::kAdd, 5, 5, 14);
  // Hot loop (clean indices).
  b.MovImm(2, 0);
  b.MovImm(3, kIterations);
  b.Bind(loop);
  b.AluImm(AluOp::kAnd, 6, 2, kArrayLen - 1);
  b.Load(4, MemRef{.base = 1, .index = 6, .scale = 8});
  b.Alu(AluOp::kAdd, 5, 5, 4);
  b.AluImm(AluOp::kAdd, 2, 2, 1);
  b.Alu(AluOp::kCmpLt, 9, 2, 3);
  b.BranchNz(9, loop);
  b.Halt();
  return b.Build();
}

// Branch-heavy data-dependent code with no memory gadget at all: the worst
// case for blanket fencing.
Program BuildBranchHeavy() {
  ProgramBuilder b;
  Label loop = b.NewLabel();
  Label even = b.NewLabel();
  Label join = b.NewLabel();
  Label small = b.NewLabel();
  Label join2 = b.NewLabel();
  b.BindSymbol("entry");
  b.MovImm(2, 0);
  b.MovImm(3, kIterations);
  b.MovImm(5, 1);
  b.Bind(loop);
  b.AluImm(AluOp::kAnd, 6, 2, 1);
  b.BranchZ(6, even);
  b.AluImm(AluOp::kAdd, 5, 5, 3);
  b.Jmp(join);
  b.Bind(even);
  b.AluImm(AluOp::kXor, 5, 5, 7);
  b.Bind(join);
  b.AluImm(AluOp::kAnd, 7, 5, 255);
  b.AluImm(AluOp::kCmpLt, 8, 7, 128);
  b.BranchNz(8, small);
  b.AluImm(AluOp::kAdd, 5, 5, 3);
  b.Bind(small);
  b.Jmp(join2);
  b.Bind(join2);
  b.AluImm(AluOp::kAdd, 2, 2, 1);
  b.Alu(AluOp::kCmpLt, 9, 2, 3);
  b.BranchNz(9, loop);
  b.Halt();
  return b.Build();
}

// Octane-style JIT sandbox code: unmitigated JS array accesses (the engine's
// index-masking pass turned off), where the first access uses the untrusted
// caller argument and feeds a second element access — the in-process leak
// the paper's JIT mitigations target. The hot loop's indices are clean.
Program BuildJsGetElemLoop() {
  ProgramBuilder b;
  JsEmitter js(b, JitConfig::AllOff());
  Label loop = b.NewLabel();
  b.BindSymbol("entry");
  b.MovImm(1, static_cast<int64_t>(kJsHeapBase));           // arr1
  b.MovImm(2, static_cast<int64_t>(kJsHeapBase + 8 * 17));  // arr2
  js.GetElem(4, 1, 0);  // v = arr1[r0], r0 caller-controlled
  js.GetElem(5, 2, 4);  // arr2[v]: the dependent access
  b.MovImm(6, 0);
  b.MovImm(7, kIterations);
  b.MovImm(10, 0);
  b.Bind(loop);
  b.AluImm(AluOp::kAnd, 8, 6, 15);
  js.GetElem(9, 1, 8);
  b.Alu(AluOp::kAdd, 10, 10, 9);
  b.AluImm(AluOp::kAdd, 6, 6, 1);
  b.Alu(AluOp::kCmpLt, 9, 6, 7);
  b.BranchNz(9, loop);
  b.Halt();
  return b.Build();
}

// Function-pointer dispatch loop: each iteration loads a handler address
// from an in-memory table and calls through it — the indirect-branch-bound
// shape the switchpoline pass rewrites into a compare chain. The table is
// planted by setup() from the program's exported symbols, so the hardened
// (relocated) program dispatches to its own moved handlers.
Program BuildIndirectDispatchLoop() {
  ProgramBuilder b;
  Label loop = b.NewLabel();
  b.BindSymbol("entry");
  b.MovImm(1, static_cast<int64_t>(kFpTable));
  b.MovImm(2, 0);  // i
  b.MovImm(3, kIterations);
  b.MovImm(5, 0);  // acc
  b.Bind(loop);
  b.AluImm(AluOp::kAnd, 6, 2, 3);  // handler index: i % 4
  b.Load(7, MemRef{.base = 1, .index = 6, .scale = 8});
  b.IndirectCall(7);
  b.AluImm(AluOp::kAdd, 2, 2, 1);
  b.Alu(AluOp::kCmpLt, 9, 2, 3);
  b.BranchNz(9, loop);
  b.Halt();
  for (int j = 0; j < 4; j++) {
    b.BindSymbol("fn" + std::to_string(j));
    b.AluImm(AluOp::kAdd, 5, 5, j + 1);
    b.Ret();
  }
  return b.Build();
}

void SetupFlatArray(Machine& m, const Program&) {
  for (uint64_t i = 0; i < kArrayLen; i++) {
    m.PokeData(kArrayBase + 8 * i, i);
  }
  m.PokeData(kLenAddr, kArrayLen);
}

void SetupJsHeap(Machine& m, const Program&) {
  JsHeap heap(kJsHeapBase, 4096);
  std::vector<uint64_t> values;
  for (uint64_t i = 0; i < 16; i++) {
    values.push_back((i * 3) % 16);
  }
  heap.AllocArray(m, values);  // arr1 at kJsHeapBase
  heap.AllocArray(m, values);  // arr2 right after
}

void SetupDispatchTable(Machine& m, const Program& p) {
  for (int j = 0; j < 4; j++) {
    m.PokeData(kFpTable + 8 * j, p.SymbolVaddr("fn" + std::to_string(j)));
  }
  m.SetReg(kRegSp, kHardenStackTop);
}

struct HardenWorkload {
  const char* name;
  Program (*build)();
  void (*setup)(Machine&, const Program&);
};

const HardenWorkload kWorkloads[] = {
    {"bounds-checked-sum", BuildBoundsCheckedSum, SetupFlatArray},
    {"gadget-plus-loop", BuildGadgetPlusLoop, SetupFlatArray},
    {"branch-heavy", BuildBranchHeavy, SetupFlatArray},
    {"js-getelem-loop", BuildJsGetElemLoop, SetupJsHeap},
    {"indirect-dispatch", BuildIndirectDispatchLoop, SetupDispatchTable},
};

uint64_t RunCycles(const CpuModel& cpu, const HardenWorkload& w, const Program& p) {
  MachineLease m(cpu);
  m->LoadProgram(&p);
  w.setup(*m, p);
  m->SetReg(0, 3);  // in-bounds "caller argument" for the gadget workloads
  return m->Run(p.SymbolVaddr("entry")).cycles;
}

}  // namespace

Sweep BuildHardenGrid(const std::vector<Uarch>& cpus) {
  Sweep sweep;
  for (Uarch u : cpus) {
    for (const HardenWorkload& w : kWorkloads) {
      for (const MitigationPass* pass : MitigationPasses()) {
        sweep.Add(SweepCellKey{UarchName(u), pass->name(), w.name}, [u, &w, pass](uint64_t) {
          // Cycle-exact and seed-free: the cell ignores the runner's seed.
          const CpuModel& cpu = GetCpuModel(u);
          const Program program = w.build();
          const PassRunReport run = RunPassToFixpoint(*pass, program, cpu);
          const double base = static_cast<double>(RunCycles(cpu, w, program));
          const double hardened = static_cast<double>(RunCycles(cpu, w, run.hardened));
          CellOutput out;
          out.metrics.push_back(CellMetric{"base", "Unmitigated cycles", {base, 0.0}});
          out.metrics.push_back(CellMetric{"hardened", "Hardened cycles", {hardened, 0.0}});
          out.metrics.push_back(
              CellMetric{"total", "Overhead", {(hardened / base - 1.0) * 100.0, 0.0}});
          out.metrics.push_back(CellMetric{
              "added", "Instructions inserted", {static_cast<double>(run.inserted), 0.0}});
          return out;
        });
      }
    }
  }
  return sweep;
}

}  // namespace specbench
