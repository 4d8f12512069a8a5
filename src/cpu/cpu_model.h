// CPU microarchitecture descriptors.
//
// A CpuModel captures everything the simulator needs to behave like one of
// the paper's eight processors (Table 2): instruction latencies, cache and
// predictor geometry, transient-execution vulnerability flags (Table 1) and
// predictor policies (which generate Tables 9/10 behaviour).
//
// Calibration: scalar instruction latencies are set from the paper's own
// microbenchmarks (Tables 3-8, src/cpu/paper_expectations.h, applied by
// CalibrateFromPaper in cpu_model.cc); they are *inputs*. All end-to-end
// overheads (Figures 2/3/5, the VM and PARSEC results) are *outputs* that
// must emerge from simulation. EXPERIMENTS.md records how well they do.
#ifndef SPECTREBENCH_SRC_CPU_CPU_MODEL_H_
#define SPECTREBENCH_SRC_CPU_CPU_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace specbench {

enum class Vendor : uint8_t { kIntel, kAmd };

enum class Uarch : uint8_t {
  kBroadwell = 0,
  kSkylakeClient,
  kCascadeLake,
  kIceLakeClient,
  kIceLakeServer,
  kZen1,
  kZen2,
  kZen3,
  kCount,
};

const char* UarchName(Uarch uarch);
const char* VendorName(Vendor vendor);
// A CPU name with dashes for spaces ("Skylake-Client"), for ids and file
// names.
std::string CpuSlug(const std::string& name);

struct CacheGeometry {
  uint32_t size_bytes = 0;
  uint32_t ways = 1;
  uint32_t line_bytes = 64;
  uint32_t latency_cycles = 4;

  bool operator==(const CacheGeometry&) const = default;
};

// Per-opcode-class latencies in cycles. Values calibrated per CPU from the
// paper's Tables 3-8 where measured; everything else uses generation-typical
// figures.
struct LatencyTable {
  uint32_t alu = 1;
  uint32_t mul = 3;
  uint32_t div = 24;             // divider-active cycles per kDiv
  uint32_t fp_op = 4;
  uint32_t mem_latency = 200;    // DRAM access
  uint32_t branch_base = 1;      // correctly predicted conditional branch
  uint32_t mispredict_penalty = 16;
  uint32_t indirect_predicted = 10;  // correctly predicted indirect branch
  uint32_t frontend_redirect = 20;    // unpredicted indirect branch resolve
  uint32_t syscall = 45;
  uint32_t sysret = 40;
  uint32_t swap_cr3 = 200;       // PTI cost per switch
  uint32_t verw_clear = 500;     // Table 4 (MDS-patched verw)
  uint32_t verw_legacy = 20;     // verw without the MDS microcode behaviour
  uint32_t wrmsr_spec_ctrl = 60; // IBRS toggle on kernel entry/exit
  uint32_t wrmsr_other = 50;
  uint32_t ibpb = 1000;
  uint32_t lfence = 20;
  uint32_t rsb_stuff = 100;
  uint32_t xsave = 90;           // eager-FPU save (xsaveopt-era cost)
  uint32_t xrstor = 90;
  uint32_t fp_trap = 700;        // lazy-FPU device-not-available trap
  uint32_t swapgs = 2;
  uint32_t cpuid = 120;
  uint32_t rdtsc = 20;
  uint32_t rdpmc = 25;
  uint32_t clflush = 40;
  uint32_t flush_l1d = 1200;     // full L1D writeback+invalidate
  uint32_t vm_enter = 500;
  uint32_t vm_exit = 600;
  uint32_t pause = 1;
  // Extra stall charged to a load that must wait for older stores to resolve
  // when Speculative Store Bypass Disable is active (store-to-load forwarding
  // is off). Newer, deeper machines lose more (paper Figure 5 trend).
  uint32_t ssbd_forward_stall = 12;
  // Cycles a store's address stays "unresolved" for the bypass machinery.
  uint32_t store_resolve_delay = 10;

  bool operator==(const LatencyTable&) const = default;
};

// Branch-predictor behaviour; these flags generate the Tables 9/10 matrix.
struct PredictorPolicy {
  uint32_t btb_entries = 4096;
  uint32_t rsb_depth = 16;
  // eIBRS-class hardware: BTB entries are tagged with the privilege mode and
  // only hit in the same mode (paper §6.2.2: Cascade Lake, Ice Lake).
  bool btb_mode_tagged = false;
  // Zen 3: BTB index depends on branch-history state an attacker in another
  // context cannot reproduce, so naive cross-training fails (paper §6.2).
  bool btb_bhb_indexed = false;
  // CPU supports the IBRS bit in SPEC_CTRL at all (Zen 1 does not).
  bool ibrs_supported = true;
  // Enhanced IBRS: set once at boot, no per-entry wrmsr, same-mode
  // prediction keeps working.
  bool eibrs = false;
  // Legacy IBRS semantics on pre-Spectre parts: while IBRS=1, *all* indirect
  // branch prediction is disabled, even user->user (paper §6.2.1, Table 10).
  bool ibrs_blocks_all_prediction = false;
  // Ice Lake Client quirk (Table 10): with eIBRS, kernel-mode indirect
  // branches are never BTB-predicted, only user-mode ones.
  bool eibrs_blocks_kernel_prediction = false;
  // eIBRS parts periodically scrub kernel BTB state on kernel entry, which
  // the paper observed as bimodal syscall latency (§6.2.2). Zero disables.
  uint32_t eibrs_scrub_period = 0;     // every N kernel entries...
  uint32_t eibrs_scrub_cycles = 0;     // ...charge this many extra cycles

  bool operator==(const PredictorPolicy&) const = default;
};

// Which attacks this silicon is vulnerable to (paper Table 1: an empty cell
// means the mitigation "isn't required", i.e. hardware is not vulnerable).
struct VulnerabilityFlags {
  bool meltdown = false;
  bool l1tf = false;
  bool lazy_fp = false;
  bool mds = false;
  bool spectre_v1 = true;   // every CPU studied
  bool spectre_v2 = true;   // every CPU studied
  bool spec_store_bypass = true;  // every CPU studied (paper §4.3)

  bool operator==(const VulnerabilityFlags&) const = default;
};

struct CpuModel {
  Uarch uarch = Uarch::kBroadwell;
  Vendor vendor = Vendor::kIntel;
  std::string model_name;        // e.g. "E5-2640v4"
  std::string uarch_name;        // e.g. "Broadwell (2014)"
  int year = 2014;
  int power_watts = 0;
  double clock_ghz = 0.0;
  int cores = 0;
  bool smt = true;

  LatencyTable latency;
  PredictorPolicy predictor;
  VulnerabilityFlags vuln;

  CacheGeometry l1d{32 * 1024, 8, 64, 4};
  CacheGeometry l2{512 * 1024, 8, 64, 14};
  CacheGeometry l3{8 * 1024 * 1024, 16, 64, 44};
  uint32_t tlb_entries = 64;
  bool pcid_supported = true;    // tagged TLB, avoids flush on cr3 swap
  // The paper's §7 hardware proposal: the cmov-then-dependent-load pattern
  // emitted by JIT Spectre V1 mitigations "could be detected by hardware to
  // trigger special handling" — the masking stays architecturally safe but
  // stops serializing on the guard condition. No shipping CPU has this; the
  // FutureCpuModel() below explores it.
  bool cmov_load_fusion = false;
  uint32_t fill_buffer_entries = 10;
  // Speculation window in cycles: roughly how far past an unresolved branch
  // the out-of-order engine can run. Deeper on newer designs.
  uint32_t speculation_window = 192;

  // Field-by-field: two models are equal when a Machine built from either
  // behaves identically (MachineLease keys its reuse on this).
  bool operator==(const CpuModel&) const = default;
};

// The eight processors evaluated by the paper (Table 2), fully parameterized.
const CpuModel& GetCpuModel(Uarch uarch);

// All models in the paper's presentation order (Intel by generation, then
// AMD by generation).
std::vector<Uarch> AllUarches();

// Convenience for tests/benches: model by Table 2 "Microarchitecture" name,
// e.g. "Zen 2"; aborts on unknown names.
const CpuModel& GetCpuModelByName(const std::string& uarch_name);

// Like GetCpuModelByName, but returns nullptr on unknown names (for CLI
// argument validation).
const CpuModel* TryGetCpuModelByName(const std::string& uarch_name);

// A hypothetical 2023+ part embodying the paper's §7 outlook: Ice Lake
// Server-class, with the SSB_NO capability the paper notes Intel reserved
// ("a given processor isn't vulnerable to Speculative Store Bypass") and
// hardware special-handling for the cmov+load Spectre V1 mitigation
// pattern. Not part of AllUarches(); used by the future-hardware ablation.
const CpuModel& FutureCpuModel();

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_CPU_CPU_MODEL_H_
