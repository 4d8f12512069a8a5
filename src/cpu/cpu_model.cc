#include "src/cpu/cpu_model.h"

#include <algorithm>
#include <array>

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

// Shorthand so each model reads like a spec sheet. All latencies calibrated
// against the paper's Tables 3-8; commented with the table they come from.
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

  m.latency.syscall = 49;            // Table 3
  m.latency.sysret = 40;             // Table 3
  m.latency.swap_cr3 = 206;          // Table 3
  m.latency.verw_clear = 610;        // Table 4
  m.latency.indirect_predicted = 16; // Table 5 baseline
  m.latency.frontend_redirect = 32;  // Table 5 IBRS delta
  m.latency.mispredict_penalty = 41; // Table 5 generic retpoline delta - 3 + baseline
  m.latency.ibpb = 5600;             // Table 6
  m.latency.rsb_stuff = 130;         // Table 7
  m.latency.lfence = 28;             // Table 8
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

  m.latency.syscall = 42;            // Table 3
  m.latency.sysret = 42;             // Table 3
  m.latency.swap_cr3 = 191;          // Table 3
  m.latency.verw_clear = 518;        // Table 4
  m.latency.indirect_predicted = 11; // Table 5
  m.latency.frontend_redirect = 15;  // Table 5 IBRS delta
  m.latency.mispredict_penalty = 27;
  m.latency.ibpb = 4500;             // Table 6
  m.latency.rsb_stuff = 130;         // Table 7
  m.latency.lfence = 20;             // Table 8
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

  m.latency.syscall = 70;            // Table 3 (stands out as slower)
  m.latency.sysret = 43;             // Table 3
  m.latency.swap_cr3 = 180;          // unused: not Meltdown-vulnerable
  m.latency.verw_clear = 458;        // Table 4 (still MDS-vulnerable)
  m.latency.indirect_predicted = 3;  // Table 5
  m.latency.frontend_redirect = 30;
  m.latency.mispredict_penalty = 49;
  m.latency.ibpb = 340;              // Table 6 (hardware-assisted)
  m.latency.rsb_stuff = 120;         // Table 7
  m.latency.lfence = 15;             // Table 8
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
  m.predictor.eibrs_scrub_cycles = 210;

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

  m.latency.syscall = 21;            // Table 3 (low base clock)
  m.latency.sysret = 29;             // Table 3
  m.latency.swap_cr3 = 170;
  m.latency.verw_clear = 25;         // not MDS-vulnerable: legacy path only
  m.latency.verw_legacy = 25;
  m.latency.indirect_predicted = 5;  // Table 5
  m.latency.frontend_redirect = 20;
  m.latency.mispredict_penalty = 23;
  m.latency.ibpb = 2500;             // Table 6 (bucks the trend)
  m.latency.rsb_stuff = 40;          // Table 7
  m.latency.lfence = 8;              // Table 8
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
  m.predictor.eibrs_scrub_cycles = 210;
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

  m.latency.syscall = 45;            // Table 3
  m.latency.sysret = 32;             // Table 3
  m.latency.swap_cr3 = 170;
  m.latency.verw_clear = 25;
  m.latency.verw_legacy = 25;
  m.latency.indirect_predicted = 1;  // Table 5
  m.latency.frontend_redirect = 30;
  m.latency.mispredict_penalty = 48;
  m.latency.ibpb = 840;              // Table 6
  m.latency.rsb_stuff = 69;          // Table 7
  m.latency.lfence = 13;             // Table 8
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
  m.predictor.eibrs_scrub_cycles = 210;
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

  m.latency.syscall = 63;            // Table 3
  m.latency.sysret = 53;             // Table 3
  m.latency.swap_cr3 = 190;
  m.latency.verw_legacy = 20;
  m.latency.indirect_predicted = 30; // Table 5
  m.latency.frontend_redirect = 25;
  m.latency.mispredict_penalty = 52;
  m.latency.ibpb = 7400;             // Table 6
  m.latency.rsb_stuff = 114;         // Table 7
  m.latency.lfence = 48;             // Table 8 (lfence is heavier on AMD)
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

  m.latency.syscall = 53;            // Table 3
  m.latency.sysret = 46;             // Table 3
  m.latency.swap_cr3 = 180;
  m.latency.verw_legacy = 20;
  m.latency.indirect_predicted = 3;  // Table 5
  m.latency.frontend_redirect = 13;  // Table 5 IBRS delta
  m.latency.mispredict_penalty = 14;
  m.latency.ibpb = 1100;             // Table 6
  m.latency.rsb_stuff = 68;          // Table 7
  m.latency.lfence = 4;              // Table 8 (AMD retpoline is free here)
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

  m.latency.syscall = 83;            // Table 3
  m.latency.sysret = 55;             // Table 3
  m.latency.swap_cr3 = 180;
  m.latency.verw_legacy = 20;
  m.latency.indirect_predicted = 23; // Table 5
  m.latency.frontend_redirect = 19;  // Table 5 IBRS delta
  m.latency.mispredict_penalty = 33;
  m.latency.ibpb = 800;              // Table 6
  m.latency.rsb_stuff = 94;          // Table 7
  m.latency.lfence = 30;             // Table 8
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
