// Browser sandbox scenario (the paper's §4.3 / §5.4 story).
//
// A JavaScript engine JIT-compiles untrusted code. Spectre V1 means array
// accesses can read out of bounds *transiently*, so the JIT inserts index
// masking and object guards — and the OS adds SSBD because the browser is a
// seccomp process. This example shows both sides on one CPU:
//   * the cost: Octane 2 score with each mitigation layer enabled;
//   * the benefit: a Spectre V1 attack written in "JS" (JIT-emitted array
//     accesses) leaks without index masking and not with it.
//
// Build & run:  ./build/examples/browser_sandbox
#include <cstdio>

#include "src/core/attribution.h"
#include "src/jit/jit.h"
#include "src/uarch/machine.h"
#include "src/workload/measurement.h"
#include "src/workload/octane.h"

using namespace specbench;

namespace {

// A Spectre V1 attack against JIT-compiled array code (same structure as the
// jit_test coverage, shown here as user-facing API usage).
bool JitSpectreLeaks(const CpuModel& cpu, bool index_masking) {
  constexpr uint64_t kHeapBase = 0x10000000;
  constexpr uint64_t kProbeBase = 0x30000000;
  JitConfig config = JitConfig::AllOff();
  config.index_masking = index_masking;

  Machine m(cpu);
  ProgramBuilder b;
  JsEmitter js(b, config);
  js.GetElem(/*dst=*/2, /*array=*/0, /*idx=*/1);   // x = a[i]
  b.AluImm(AluOp::kShl, 3, 2, 9);                  // probe index = x * 512
  js.GetElem(/*dst=*/4, /*array=*/5, /*idx=*/3);   // y = probe[x * 512]
  b.Halt();
  Program p = b.Build();
  m.LoadProgram(&p);

  JsHeap heap(kHeapBase, 1 << 20);
  const uint64_t arr = heap.AllocArrayN(m, 16, 0);
  const uint64_t secret = 3;
  m.PokeData(arr + kArrayElemsOffset + 8 * 20, secret);  // past the end
  m.PokeData(kProbeBase + kArrayLengthOffset, 1 << 12);
  m.SetReg(5, kProbeBase);

  for (int i = 0; i < 6; i++) {  // train the bounds check in-bounds
    m.SetReg(0, arr);
    m.SetReg(1, static_cast<uint64_t>(i % 16));
    m.Run(p.VaddrOf(0));
  }
  m.caches().Clflush(arr + kArrayLengthOffset);
  const uint64_t probe_line = kProbeBase + kArrayElemsOffset + secret * 512 * 8;
  m.caches().Clflush(probe_line);
  m.SetReg(0, arr);
  m.SetReg(1, 20);  // out of bounds
  m.Run(p.VaddrOf(0));
  return m.caches().LevelOf(probe_line) != 0;
}

}  // namespace

int main() {
  const CpuModel& cpu = GetCpuModel(Uarch::kIceLakeServer);
  std::printf("CPU: %s\n\n", cpu.uarch_name.c_str());

  // The benefit: Spectre V1 in JIT-compiled code.
  std::printf("Spectre V1 against JIT array code, no index masking:  %s\n",
              JitSpectreLeaks(cpu, false) ? "LEAKED" : "safe");
  std::printf("Spectre V1 against JIT array code, with index masking: %s\n\n",
              JitSpectreLeaks(cpu, true) ? "LEAKED" : "safe");

  // The cost: Figure-3-style attribution of the Octane 2 slowdown.
  SamplerOptions options;
  options.min_samples = 4;
  options.max_samples = 10;
  options.target_relative_ci = 0.015;
  const AttributionReport report = AttributeBrowserMitigations(
      cpu,
      [&cpu](const JitConfig& jit, const MitigationConfig& os) -> SampleFn {
        return [suite = Octane::SimulateSuite(cpu, jit, os)](uint64_t seed) {
          return Octane::SuiteScore(NoisySuite(suite, seed));
        };
      },
      options);

  std::printf("Octane 2 slowdown attribution on %s:\n", report.cpu.c_str());
  for (const AttributionSegment& segment : report.segments) {
    std::printf("  %-22s %5.1f%% (+/- %.1f%%)\n", segment.label.c_str(),
                segment.overhead_pct.value, segment.overhead_pct.ci95);
  }
  std::printf("  %-22s %5.1f%% (+/- %.1f%%)\n", "TOTAL",
              report.total_overhead_pct.value, report.total_overhead_pct.ci95);
  std::printf("\nThe paper's point: this ~15-25%% browser overhead has no hardware fix\n"
              "yet on any CPU generation, unlike the OS-boundary costs.\n");
  return 0;
}
