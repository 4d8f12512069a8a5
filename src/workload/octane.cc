#include "src/workload/octane.h"

#include <functional>

#include "src/os/kernel.h"
#include "src/stats/summary.h"
#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/workload/measurement.h"

namespace specbench {

namespace {

// User registers (r0..r2 are clobbered by the periodic syscalls; JS state
// lives in r3..r7; the JsEmitter owns r11..r14).
constexpr uint8_t kCounter = 3;
constexpr uint8_t kAcc = 4;
constexpr uint8_t kIdx = 5;
constexpr uint8_t kBase = 6;
constexpr uint8_t kTmp = 7;

constexpr int64_t kT0Slot = static_cast<int64_t>(kUserDataVaddr);
constexpr int64_t kT1Slot = static_cast<int64_t>(kUserDataVaddr) + 8;

// JS heap layout inside the user data region.
constexpr int64_t kArrA = static_cast<int64_t>(kUserDataVaddr) + 0x10000;
constexpr int64_t kArrB = static_cast<int64_t>(kUserDataVaddr) + 0x12000;
constexpr int64_t kObjs = static_cast<int64_t>(kUserDataVaddr) + 0x14000;
constexpr int64_t kChain = static_cast<int64_t>(kUserDataVaddr) + 0x16000;
constexpr int64_t kTree = static_cast<int64_t>(kUserDataVaddr) + 0x18000;
constexpr int64_t kBytes = static_cast<int64_t>(kUserDataVaddr) + 0x20000;

constexpr int64_t kObjShape = 7;
constexpr int64_t kChainShape = 9;
constexpr int64_t kTreeShape = 11;
constexpr uint64_t kArrLen = 256;
constexpr int64_t kObjStride = 40;   // shape + 4 fields
constexpr int64_t kChainStride = 24; // shape + value + next
constexpr int64_t kTreeStride = 32;  // shape + key + left + right

struct OctaneKernel {
  int iterations = 128;
  // Emitted once before each loop (cursor initialisation etc.).
  std::function<void(JsEmitter&)> pre;
  // One iteration of JS work; may use kCounter as a descending index source.
  std::function<void(JsEmitter&)> body;
  // Heap initialisation after Finalize.
  std::function<void(Machine&, const JitConfig&)> setup;
};

void FillArray(Machine& m, int64_t base, uint64_t len, uint64_t seed) {
  Rng rng(seed);
  m.PokeData(static_cast<uint64_t>(base) + kArrayLengthOffset, len);
  for (uint64_t i = 0; i < len; i++) {
    m.PokeData(static_cast<uint64_t>(base) + kArrayElemsOffset + 8 * i, rng.NextBelow(256));
  }
}

OctaneKernel MakeCrypto() {
  OctaneKernel k;
  k.iterations = 1024;
  k.body = [](JsEmitter& js) {
    ProgramBuilder& b = js.builder();
    b.AluImm(AluOp::kAnd, kIdx, kCounter, 255);
    b.MovImm(kBase, kArrA);
    js.GetElem(kAcc, kBase, kIdx);
    b.MulImm(kAcc, kAcc, 31);
    b.AluImm(AluOp::kAdd, kAcc, kAcc, 7);
    b.AluImm(AluOp::kShr, kTmp, kAcc, 3);
    b.Alu(AluOp::kXor, kAcc, kAcc, kTmp);
    b.MovImm(kBase, kArrB);
    js.SetElem(kBase, kIdx, kAcc);
  };
  k.setup = [](Machine& m, const JitConfig&) {
    FillArray(m, kArrA, kArrLen, 101);
    FillArray(m, kArrB, kArrLen, 102);
  };
  return k;
}

OctaneKernel MakeRichards() {
  OctaneKernel k;
  k.iterations = 1024;
  k.body = [](JsEmitter& js) {
    ProgramBuilder& b = js.builder();
    b.AluImm(AluOp::kAnd, kIdx, kCounter, 7);
    b.Lea(kBase, MemRef{.index = kIdx, .scale = kObjStride, .disp = kObjs});
    js.GetField(kAcc, kBase, 0, kObjShape);   // task state
    b.AluImm(AluOp::kAdd, kAcc, kAcc, 1);
    js.SetField(kBase, 0, kObjShape, kAcc);
    js.GetField(kTmp, kBase, 1, kObjShape);   // link
    js.GetField(kTmp, kBase, 2, kObjShape);   // queue head
  };
  k.setup = [](Machine& m, const JitConfig&) {
    for (int64_t i = 0; i < 8; i++) {
      const uint64_t obj = static_cast<uint64_t>(kObjs + i * kObjStride);
      m.PokeData(obj + kObjectShapeOffset, kObjShape);
      for (int64_t f = 0; f < 4; f++) {
        m.PokeData(obj + kObjectFieldsOffset + 8 * static_cast<uint64_t>(f),
                   static_cast<uint64_t>(i * 4 + f));
      }
    }
  };
  return k;
}

OctaneKernel MakeDeltablue() {
  OctaneKernel k;
  k.iterations = 1024;
  k.pre = [](JsEmitter& js) { js.builder().MovImm(kIdx, kChain); };
  k.body = [](JsEmitter& js) {
    ProgramBuilder& b = js.builder();
    js.GetField(kTmp, kIdx, 0, kChainShape);  // constraint strength
    b.Alu(AluOp::kAdd, kAcc, kAcc, kTmp);
    js.LoadHeapPtr(kIdx, kIdx, 16);           // follow the (poisoned) link
  };
  k.setup = [](Machine& m, const JitConfig& jit) {
    constexpr int kNodes = 16;
    for (int64_t i = 0; i < kNodes; i++) {
      const uint64_t node = static_cast<uint64_t>(kChain + i * kChainStride);
      const uint64_t next =
          static_cast<uint64_t>(kChain + ((i + 1) % kNodes) * kChainStride);
      m.PokeData(node + 0, kChainShape);
      m.PokeData(node + 8, static_cast<uint64_t>(i) * 3 + 1);
      m.PokeData(node + 16, jit.pointer_poisoning ? (next ^ kJsPointerPoison) : next);
    }
  };
  return k;
}

OctaneKernel MakeRaytrace() {
  OctaneKernel k;
  k.iterations = 768;
  k.body = [](JsEmitter& js) {
    ProgramBuilder& b = js.builder();
    b.AluImm(AluOp::kAnd, kIdx, kCounter, 255);
    b.MovImm(kBase, kArrA);
    js.GetElem(kAcc, kBase, kIdx);            // ray parameter
    b.Mul(kAcc, kAcc, kAcc);                  // dot products
    b.AluImm(AluOp::kAdd, kAcc, kAcc, 13);
    b.AluImm(AluOp::kShr, kTmp, kAcc, 4);
    b.Alu(AluOp::kXor, kAcc, kAcc, kTmp);
    b.AluImm(AluOp::kAnd, kTmp, kAcc, 7);     // object hit index
    b.Lea(kBase, MemRef{.index = kTmp, .scale = kObjStride, .disp = kObjs});
    js.GetField(kTmp, kBase, 2, kObjShape);   // material
    b.Alu(AluOp::kAdd, kAcc, kAcc, kTmp);
  };
  k.setup = [](Machine& m, const JitConfig&) {
    FillArray(m, kArrA, kArrLen, 103);
    for (int64_t i = 0; i < 8; i++) {
      const uint64_t obj = static_cast<uint64_t>(kObjs + i * kObjStride);
      m.PokeData(obj + kObjectShapeOffset, kObjShape);
      for (int64_t f = 0; f < 4; f++) {
        m.PokeData(obj + kObjectFieldsOffset + 8 * static_cast<uint64_t>(f),
                   static_cast<uint64_t>(i + f));
      }
    }
  };
  return k;
}

OctaneKernel MakeSplay() {
  OctaneKernel k;
  k.iterations = 768;
  k.body = [](JsEmitter& js) {
    ProgramBuilder& b = js.builder();
    b.MovImm(kIdx, kTree);  // descend from the root each iteration
    for (int level = 0; level < 4; level++) {
      js.GetField(kAcc, kIdx, 0, kTreeShape);  // node key
      b.Alu(AluOp::kAdd, 4, 4, 4);             // fold into the accumulator
      Label go_right = b.NewLabel();
      Label next = b.NewLabel();
      b.AluImm(AluOp::kAnd, kTmp, kCounter, 1 << level);
      b.BranchNz(kTmp, go_right);
      js.LoadHeapPtr(kIdx, kIdx, 16);          // left child
      b.Jmp(next);
      b.Bind(go_right);
      js.LoadHeapPtr(kIdx, kIdx, 24);          // right child
      b.Bind(next);
    }
  };
  k.setup = [](Machine& m, const JitConfig& jit) {
    // A 31-node complete tree; leaf children wrap to the root.
    constexpr int kNodes = 31;
    auto node_addr = [](int i) {
      return static_cast<uint64_t>(kTree + i * kTreeStride);
    };
    auto poison = [&jit](uint64_t ptr) {
      return jit.pointer_poisoning ? (ptr ^ kJsPointerPoison) : ptr;
    };
    for (int i = 0; i < kNodes; i++) {
      const uint64_t node = node_addr(i);
      m.PokeData(node + 0, kTreeShape);
      m.PokeData(node + 8, static_cast<uint64_t>(i) * 17 % 97);
      const int left = 2 * i + 1;
      const int right = 2 * i + 2;
      m.PokeData(node + 16, poison(node_addr(left < kNodes ? left : 0)));
      m.PokeData(node + 24, poison(node_addr(right < kNodes ? right : 0)));
    }
  };
  return k;
}

OctaneKernel MakeNavierStokes() {
  OctaneKernel k;
  k.iterations = 512;
  k.body = [](JsEmitter& js) {
    ProgramBuilder& b = js.builder();
    b.AluImm(AluOp::kAnd, kIdx, kCounter, 127);
    b.AluImm(AluOp::kAdd, kIdx, kIdx, 1);
    b.MovImm(kBase, kArrA);
    js.GetElem(kAcc, kBase, kIdx);            // cell
    b.AluImm(AluOp::kSub, kTmp, kIdx, 1);
    js.GetElem(kTmp, kBase, kTmp);            // left neighbour
    b.Alu(AluOp::kAdd, kAcc, kAcc, kTmp);
    b.AluImm(AluOp::kAdd, kTmp, kIdx, 1);
    js.GetElem(kTmp, kBase, kTmp);            // right neighbour
    b.Alu(AluOp::kAdd, kAcc, kAcc, kTmp);
    b.AluImm(AluOp::kShr, kAcc, kAcc, 1);     // diffuse
    b.MovImm(kBase, kArrB);
    js.SetElem(kBase, kIdx, kAcc);
  };
  k.setup = [](Machine& m, const JitConfig&) {
    FillArray(m, kArrA, kArrLen, 104);
    FillArray(m, kArrB, kArrLen, 105);
  };
  return k;
}

OctaneKernel MakePdfjs() {
  OctaneKernel k;
  k.iterations = 1024;
  k.body = [](JsEmitter& js) {
    ProgramBuilder& b = js.builder();
    b.AluImm(AluOp::kAnd, kIdx, kCounter, 255);
    b.MovImm(kBase, kBytes);
    js.GetElem(kAcc, kBase, kIdx);            // stream byte
    Label skip = b.NewLabel();
    b.AluImm(AluOp::kAnd, kTmp, kAcc, 1);     // data-dependent decode branch
    b.BranchZ(kTmp, skip);
    b.AluImm(AluOp::kAdd, kAcc, kAcc, 3);
    b.AluImm(AluOp::kShl, kAcc, kAcc, 1);
    b.Bind(skip);
  };
  k.setup = [](Machine& m, const JitConfig&) { FillArray(m, kBytes, kArrLen, 106); };
  return k;
}

OctaneKernel MakeRegexp() {
  OctaneKernel k;
  k.iterations = 1024;
  k.body = [](JsEmitter& js) {
    ProgramBuilder& b = js.builder();
    b.AluImm(AluOp::kAnd, kIdx, kCounter, 255);
    b.MovImm(kBase, kBytes);
    js.GetElem(kAcc, kBase, kIdx);
    Label no_match = b.NewLabel();
    b.AluImm(AluOp::kCmpEq, kTmp, kAcc, 97);  // character-class test
    b.BranchZ(kTmp, no_match);
    b.AluImm(AluOp::kAdd, kIdx, kIdx, 1);     // advance the match cursor
    b.MovImm(kBase, kBytes);
    js.GetElem(kTmp, kBase, kIdx);            // lookahead
    b.Bind(no_match);
  };
  k.setup = [](Machine& m, const JitConfig&) { FillArray(m, kBytes, kArrLen, 107); };
  return k;
}

OctaneKernel KernelFor(const std::string& name) {
  if (name == "crypto") {
    return MakeCrypto();
  }
  if (name == "richards") {
    return MakeRichards();
  }
  if (name == "deltablue") {
    return MakeDeltablue();
  }
  if (name == "raytrace") {
    return MakeRaytrace();
  }
  if (name == "splay") {
    return MakeSplay();
  }
  if (name == "navier-stokes") {
    return MakeNavierStokes();
  }
  if (name == "pdfjs") {
    return MakePdfjs();
  }
  if (name == "regexp") {
    return MakeRegexp();
  }
  SPECBENCH_CHECK_MSG(false, "unknown Octane kernel name");
}

}  // namespace

const std::vector<std::string>& Octane::KernelNames() {
  static const std::vector<std::string> kNames = {
      "richards", "deltablue", "crypto", "raytrace",
      "splay",    "navier-stokes", "pdfjs", "regexp",
  };
  return kNames;
}

double Octane::SimulateKernel(const std::string& name, const CpuModel& cpu,
                              const JitConfig& jit_config, const MitigationConfig& os_config,
                              CycleAttribution* attribution) {
  const OctaneKernel spec = KernelFor(name);
  Kernel kernel(cpu, os_config);
  // The browser is a seccomp-sandboxed process: the kernel's SSBD policy
  // applies to it (paper §4.3).
  kernel.process(0).uses_seccomp = true;

  ProgramBuilder& b = kernel.builder();
  JsEmitter js(b, jit_config);
  b.BindSymbol("user_main");

  auto emit_loop = [&](int iterations) {
    js.SlhPrologue();  // no-op unless speculative load hardening is on
    if (spec.pre) {
      spec.pre(js);
    }
    b.MovImm(kCounter, iterations);
    Label loop = b.NewLabel();
    b.Bind(loop);
    spec.body(js);
    b.AluImm(AluOp::kSub, kCounter, kCounter, 1);
    b.BranchNz(kCounter, loop);
  };

  emit_loop(8);  // warmup
  b.Lfence();
  b.Rdtsc(kAcc);
  b.Store(MemRef{.disp = kT0Slot}, kAcc);
  emit_loop(spec.iterations);
  // Light OS activity inside the timed region (GC ticks, timers): the
  // "other OS" slice of Figure 3.
  for (int i = 0; i < 2; i++) {
    kernel.EmitSyscall(b, Sys::kGetpid);
  }
  b.Lfence();
  b.Rdtsc(kAcc);
  b.Store(MemRef{.disp = kT1Slot}, kAcc);
  b.Halt();
  kernel.Finalize();

  spec.setup(kernel.machine(), jit_config);
  if (attribution != nullptr) {
    attribution->Reset();
    kernel.machine().SetCycleAttribution(attribution);
  }
  kernel.Run("user_main");
  if (attribution != nullptr) {
    kernel.machine().SetCycleAttribution(nullptr);
  }

  Machine& m = kernel.machine();
  const uint64_t t0 = m.PeekData(static_cast<uint64_t>(kT0Slot));
  const uint64_t t1 = m.PeekData(static_cast<uint64_t>(kT1Slot));
  SPECBENCH_CHECK(t1 > t0);
  const double cycles_per_iter = static_cast<double>(t1 - t0) / spec.iterations;
  return 1.0e6 / cycles_per_iter;
}

std::map<std::string, double> Octane::SimulateSuite(const CpuModel& cpu,
                                                    const JitConfig& jit_config,
                                                    const MitigationConfig& os_config) {
  std::map<std::string, double> results;
  for (const std::string& name : KernelNames()) {
    results[name] = SimulateKernel(name, cpu, jit_config, os_config);
  }
  return results;
}

std::map<std::string, double> Octane::RunSuite(const CpuModel& cpu,
                                               const JitConfig& jit_config,
                                               const MitigationConfig& os_config,
                                               uint64_t seed) {
  return NoisySuite(SimulateSuite(cpu, jit_config, os_config), seed);
}

double Octane::SuiteScore(const std::map<std::string, double>& results) {
  std::vector<double> values;
  values.reserve(results.size());
  for (const auto& [name, value] : results) {
    values.push_back(value);
  }
  return GeometricMean(values);
}

}  // namespace specbench
