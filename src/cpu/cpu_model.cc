#include "src/cpu/cpu_model.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>

#include "src/cpu/paper_expectations.h"
#include "src/util/check.h"

namespace specbench {

const char* UarchName(Uarch uarch) {
  switch (uarch) {
    case Uarch::kBroadwell: return "Broadwell";
    case Uarch::kSkylakeClient: return "Skylake Client";
    case Uarch::kCascadeLake: return "Cascade Lake";
    case Uarch::kIceLakeClient: return "Ice Lake Client";
    case Uarch::kIceLakeServer: return "Ice Lake Server";
    case Uarch::kZen1: return "Zen";
    case Uarch::kZen2: return "Zen 2";
    case Uarch::kZen3: return "Zen 3";
    case Uarch::kCount: break;
  }
  return "?";
}

const char* VendorName(Vendor vendor) {
  return vendor == Vendor::kIntel ? "Intel" : "AMD";
}

std::string CpuSlug(const std::string& name) {
  std::string slug = name;
  std::replace(slug.begin(), slug.end(), ' ', '-');
  return slug;
}

namespace {

// A paper cell as a cycle count; every Tables 3-8 cell is a whole number.
uint32_t Cycles(double paper) {
  SPECBENCH_CHECK(paper >= 0 && paper == static_cast<double>(static_cast<uint32_t>(paper)));
  return static_cast<uint32_t>(paper);
}

// Sets every input the paper's own microbenchmarks measure from the table
// that measures it (src/cpu/paper_expectations.h), so each number is written
// once. A cell the paper marks N/A leaves the Make*() model choice in place.
void CalibrateFromPaper(CpuModel* m) {
  LatencyTable& lat = m->latency;
  const PaperTable3Row t3 = PaperTable3(m->uarch);
  lat.syscall = Cycles(t3.syscall);
  lat.sysret = Cycles(t3.sysret);
  if (t3.swap_cr3) {
    lat.swap_cr3 = Cycles(*t3.swap_cr3);  // the Meltdown parts
  }
  if (const std::optional<double> verw = PaperTable4(m->uarch)) {
    lat.verw_clear = Cycles(*verw);  // the MDS parts
  }
  const PaperTable5Row t5 = PaperTable5(m->uarch);
  lat.indirect_predicted = Cycles(t5.baseline);
  // Legacy IBRS: every indirect branch waits for the front end to redirect.
  if (m->predictor.ibrs_supported && !m->predictor.eibrs) {
    lat.frontend_redirect = Cycles(*t5.ibrs_delta);
  }
  // The generic retpoline thunk pays one mispredicted return: the generic
  // retpoline delta - 3 + the baseline.
  lat.mispredict_penalty = Cycles(t5.generic_delta - 3 + t5.baseline);
  lat.ibpb = Cycles(PaperTable6Ibpb(m->uarch));
  lat.rsb_stuff = Cycles(PaperTable7RsbStuff(m->uarch));
  lat.lfence = Cycles(PaperTable8Lfence(m->uarch));
  if (m->predictor.eibrs) {
    m->predictor.eibrs_scrub_cycles = Cycles(kSection622ExtraCycles);
  }
}

// Shorthand so each model reads like a spec sheet. The inputs the paper
// measures (Tables 3-8, the §6.2.2 scrub cost) are left out here:
// CalibrateFromPaper sets them from the paper's tables.
CpuModel MakeBroadwell() {
  CpuModel m;
  m.uarch = Uarch::kBroadwell;
  m.vendor = Vendor::kIntel;
  m.model_name = "E5-2640v4";
  m.uarch_name = "Broadwell (2014)";
  m.year = 2014;
  m.power_watts = 90;
  m.clock_ghz = 2.4;
  m.cores = 10;

  m.latency.mem_latency = 230;
  m.latency.ssbd_forward_stall = 1;
  m.latency.xsave = 110;
  m.latency.xrstor = 110;
  m.latency.fp_trap = 900;
  m.speculation_window = 190;

  m.predictor.rsb_depth = 16;
  m.predictor.ibrs_blocks_all_prediction = true;  // pre-Spectre design (Table 10)

  m.vuln.meltdown = true;
  m.vuln.l1tf = true;
  m.vuln.lazy_fp = true;
  m.vuln.mds = true;
  return m;
}

CpuModel MakeSkylakeClient() {
  CpuModel m;
  m.uarch = Uarch::kSkylakeClient;
  m.vendor = Vendor::kIntel;
  m.model_name = "i7-6600U";
  m.uarch_name = "Skylake Client (2015)";
  m.year = 2015;
  m.power_watts = 15;
  m.clock_ghz = 2.6;
  m.cores = 2;

  m.latency.mem_latency = 210;
  m.latency.ssbd_forward_stall = 1;
  m.latency.xsave = 100;
  m.latency.xrstor = 100;
  m.latency.fp_trap = 850;
  m.speculation_window = 224;

  m.predictor.rsb_depth = 16;
  m.predictor.ibrs_blocks_all_prediction = true;

  m.vuln.meltdown = true;
  m.vuln.l1tf = true;
  m.vuln.lazy_fp = true;
  m.vuln.mds = true;
  return m;
}

CpuModel MakeCascadeLake() {
  CpuModel m;
  m.uarch = Uarch::kCascadeLake;
  m.vendor = Vendor::kIntel;
  m.model_name = "Xeon Silver 4210R";
  m.uarch_name = "Cascade Lake (2019)";
  m.year = 2019;
  m.power_watts = 100;
  m.clock_ghz = 2.4;
  m.cores = 10;

  m.latency.swap_cr3 = 180;          // unused: not Meltdown-vulnerable
  m.latency.frontend_redirect = 30;
  m.latency.mem_latency = 220;
  m.latency.ssbd_forward_stall = 2;
  m.latency.xsave = 80;
  m.latency.xrstor = 80;
  m.latency.fp_trap = 800;
  m.speculation_window = 224;

  m.predictor.rsb_depth = 16;
  m.predictor.btb_mode_tagged = true;   // eIBRS-class BTB
  m.predictor.eibrs = true;
  m.predictor.eibrs_scrub_period = 12;  // §6.2.2 bimodal kernel entries

  m.vuln.mds = true;                    // Table 1: still clears CPU buffers
  return m;
}

CpuModel MakeIceLakeClient() {
  CpuModel m;
  m.uarch = Uarch::kIceLakeClient;
  m.vendor = Vendor::kIntel;
  m.model_name = "i5-10351G1";
  m.uarch_name = "Ice Lake Client (2019)";
  m.year = 2019;
  m.power_watts = 15;
  m.clock_ghz = 1.0;
  m.cores = 4;

  m.latency.swap_cr3 = 170;
  m.latency.verw_clear = 25;         // not MDS-vulnerable: legacy path only
  m.latency.verw_legacy = 25;
  m.latency.frontend_redirect = 20;
  m.latency.mem_latency = 190;
  m.latency.ssbd_forward_stall = 3;
  m.latency.xsave = 70;
  m.latency.xrstor = 70;
  m.latency.fp_trap = 700;
  m.speculation_window = 330;

  m.predictor.rsb_depth = 32;
  m.predictor.btb_mode_tagged = true;
  m.predictor.eibrs = true;
  m.predictor.eibrs_blocks_kernel_prediction = true;  // Table 10 quirk
  m.predictor.eibrs_scrub_period = 16;
  return m;
}

CpuModel MakeIceLakeServer() {
  CpuModel m;
  m.uarch = Uarch::kIceLakeServer;
  m.vendor = Vendor::kIntel;
  m.model_name = "Xeon Gold 6354";
  m.uarch_name = "Ice Lake Server (2021)";
  m.year = 2021;
  m.power_watts = 205;
  m.clock_ghz = 3.0;
  m.cores = 18;

  m.latency.swap_cr3 = 170;
  m.latency.verw_clear = 25;
  m.latency.verw_legacy = 25;
  m.latency.frontend_redirect = 30;
  m.latency.mem_latency = 210;
  m.latency.ssbd_forward_stall = 3;
  m.latency.xsave = 70;
  m.latency.xrstor = 70;
  m.latency.fp_trap = 700;
  m.speculation_window = 330;

  m.predictor.rsb_depth = 32;
  m.predictor.btb_mode_tagged = true;
  m.predictor.eibrs = true;
  m.predictor.eibrs_scrub_period = 10;
  return m;
}

CpuModel MakeZen1() {
  CpuModel m;
  m.uarch = Uarch::kZen1;
  m.vendor = Vendor::kAmd;
  m.model_name = "Ryzen 3 1200";
  m.uarch_name = "Zen (2017)";
  m.year = 2017;
  m.power_watts = 65;
  m.clock_ghz = 3.1;
  m.cores = 4;
  m.smt = false;                     // Table 2: the one non-SMT part

  m.latency.swap_cr3 = 190;
  m.latency.verw_legacy = 20;
  m.latency.frontend_redirect = 25;
  m.latency.mem_latency = 240;
  m.latency.ssbd_forward_stall = 1;
  m.latency.xsave = 100;
  m.latency.xrstor = 100;
  m.latency.fp_trap = 900;
  m.speculation_window = 192;

  m.predictor.rsb_depth = 16;
  m.predictor.ibrs_supported = false;  // Tables 5/10: IBRS N/A on Zen
  return m;
}

CpuModel MakeZen2() {
  CpuModel m;
  m.uarch = Uarch::kZen2;
  m.vendor = Vendor::kAmd;
  m.model_name = "EPYC 7452";
  m.uarch_name = "Zen 2 (2019)";
  m.year = 2019;
  m.power_watts = 155;
  m.clock_ghz = 2.35;
  m.cores = 32;

  m.latency.swap_cr3 = 180;
  m.latency.verw_legacy = 20;
  m.latency.mem_latency = 220;
  m.latency.ssbd_forward_stall = 3;
  m.latency.xsave = 80;
  m.latency.xrstor = 80;
  m.latency.fp_trap = 750;
  m.speculation_window = 224;

  m.predictor.rsb_depth = 32;
  m.predictor.ibrs_blocks_all_prediction = true;  // Table 10: empty row
  return m;
}

CpuModel MakeZen3() {
  CpuModel m;
  m.uarch = Uarch::kZen3;
  m.vendor = Vendor::kAmd;
  m.model_name = "Ryzen 5 5600X";
  m.uarch_name = "Zen 3 (2020)";
  m.year = 2020;
  m.power_watts = 65;
  m.clock_ghz = 3.7;
  m.cores = 6;

  m.latency.swap_cr3 = 180;
  m.latency.verw_legacy = 20;
  m.latency.mem_latency = 200;
  m.latency.ssbd_forward_stall = 4; // Figure 5: worst SSBD slowdown
  m.latency.xsave = 70;
  m.latency.xrstor = 70;
  m.latency.fp_trap = 700;
  m.speculation_window = 256;

  m.predictor.rsb_depth = 32;
  // §6.2: BTB index depends on branch-history/caller context the probe could
  // not reproduce, so cross-site training fails (Table 9/10 rows empty).
  m.predictor.btb_bhb_indexed = true;
  m.predictor.ibrs_blocks_all_prediction = true;
  return m;
}

std::array<CpuModel, static_cast<size_t>(Uarch::kCount)> BuildCatalog() {
  std::array<CpuModel, static_cast<size_t>(Uarch::kCount)> catalog;
  catalog[static_cast<size_t>(Uarch::kBroadwell)] = MakeBroadwell();
  catalog[static_cast<size_t>(Uarch::kSkylakeClient)] = MakeSkylakeClient();
  catalog[static_cast<size_t>(Uarch::kCascadeLake)] = MakeCascadeLake();
  catalog[static_cast<size_t>(Uarch::kIceLakeClient)] = MakeIceLakeClient();
  catalog[static_cast<size_t>(Uarch::kIceLakeServer)] = MakeIceLakeServer();
  catalog[static_cast<size_t>(Uarch::kZen1)] = MakeZen1();
  catalog[static_cast<size_t>(Uarch::kZen2)] = MakeZen2();
  catalog[static_cast<size_t>(Uarch::kZen3)] = MakeZen3();
  for (CpuModel& m : catalog) {
    CalibrateFromPaper(&m);
  }
  return catalog;
}

}  // namespace

const CpuModel& GetCpuModel(Uarch uarch) {
  static const auto catalog = BuildCatalog();
  SPECBENCH_CHECK(uarch < Uarch::kCount);
  return catalog[static_cast<size_t>(uarch)];
}

std::vector<Uarch> AllUarches() {
  return {Uarch::kBroadwell,     Uarch::kSkylakeClient, Uarch::kCascadeLake,
          Uarch::kIceLakeClient, Uarch::kIceLakeServer, Uarch::kZen1,
          Uarch::kZen2,          Uarch::kZen3};
}

const CpuModel& FutureCpuModel() {
  static const CpuModel kFuture = [] {
    CpuModel m = GetCpuModel(Uarch::kIceLakeServer);
    m.model_name = "Hypothetical-NG";
    m.uarch_name = "Future (per paper sec. 7)";
    m.year = 2023;
    // ARCH_CAPABILITIES.SSB_NO: store bypass fixed in silicon, so SSBD is
    // "neither needed nor implemented".
    m.vuln.spec_store_bypass = false;
    // The cmov+load fusion proposal: Spectre V1 masking without the stall.
    m.cmov_load_fusion = true;
    return m;
  }();
  return kFuture;
}

const CpuModel* TryGetCpuModelByName(const std::string& uarch_name) {
  for (Uarch uarch : AllUarches()) {
    if (uarch_name == UarchName(uarch)) {
      return &GetCpuModel(uarch);
    }
  }
  return nullptr;
}

const CpuModel& GetCpuModelByName(const std::string& uarch_name) {
  const CpuModel* model = TryGetCpuModelByName(uarch_name);
  SPECBENCH_CHECK_MSG(model != nullptr, "unknown microarchitecture name");
  return *model;
}

}  // namespace specbench
